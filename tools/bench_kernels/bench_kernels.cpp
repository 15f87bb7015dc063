// Deterministic kernel baseline driver behind tools/perf_gate.
//
// The repo's one microbenchmark harness: runs a fixed, seeded workload
// per hot kernel family (edit distance, fuzzy Jaccard, n-grams, MinHash,
// LSH retrieval, histogram + EMD, ranking, the COMA/Cupid name grids)
// and emits canonical JSON with two kinds of numbers per kernel:
//
//   * exact operation counts from the opcount layer (DP cells, prefilter
//     hits/misses, hashes, gram emissions, sweep iterations) — these are
//     bit-deterministic, so the gate compares them *exactly*;
//   * the median ns per workload iteration over --repeats runs — noisy
//     by nature, so the gate applies a tolerance band.
//
// The committed BENCH_kernels.json at the repo root is this tool's
// output (plus the tolerance block); CI re-runs the tool and feeds both
// files to tools/perf_gate/perf_gate.py.
//
// Emitting a baseline requires an opcount-enabled build (any Debug
// build, or Release with -DVALENTINE_OPCOUNT=ON); exits 3 otherwise so
// the gate can't silently compare empty counts.
//
// --pessimize runs every workload twice per iteration — an honest
// injected regression (2x ops, ~2x ns) used by the gate's selftest and
// by the acceptance check that the gate actually fails.
//
// --smoke runs in every build configuration and emits no baseline: each
// kernel's inputs go through the kernel once and the results are
// checked against a reference (banded == full Levenshtein, packed ==
// string trigrams, MinHash == the serial per-seed hash family, per-Add
// LSH segments == one segment, key-sorted rankings == the comparator
// sort over Match records, a Cupid grid scored from one shared pair
// artifact == Match, ...); where op counters are compiled in, two
// runs of each workload must also count the same nonzero ops.
//
// Usage: bench_kernels [--out PATH] [--repeats N] [--pessimize]
//        bench_kernels --smoke
// Exits 0 on success, 1 on I/O failure or a failed smoke check, 2 on
// usage, 3 when a baseline is requested with opcounts compiled out.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "core/table.h"
#include "datasets/chembl.h"
#include "datasets/tpcdi.h"
#include "discovery/candidate_index.h"
#include "discovery/repository.h"
#include "fabrication/fabricator.h"
#include "harness/param_grid.h"
#include "matchers/coma.h"
#include "matchers/jaccard_levenshtein.h"
#include "matchers/match_result.h"
#include "obs/export.h"
#include "obs/opcount.h"
#include "serve/json.h"
#include "stats/emd.h"
#include "stats/histogram.h"
#include "stats/minhash.h"
#include "text/string_similarity.h"
#include "text/tokenizer.h"

namespace valentine {
namespace {

/// Default upper bound on fresh_ns / baseline_ns before the gate fails.
/// Wide on purpose: ns medians cross machines; the tight fence is the
/// exact op-count match.
constexpr double kDefaultNsRatioTolerance = 5.0;

struct Kernel {
  std::string name;
  std::function<void()> work;
  /// Runs the workload's inputs through the kernel once and compares
  /// with a reference; returns what diverged, or "" when all agree.
  std::function<std::string()> check;
};

/// Deterministic pseudo-words: lowercase, length in [4, 18].
std::vector<std::string> MakeWords(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> words;
  words.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t len = 4 + rng.Index(15);
    std::string w;
    w.reserve(len);
    for (size_t j = 0; j < len; ++j) {
      w.push_back(static_cast<char>('a' + rng.Index(26)));
    }
    words.push_back(std::move(w));
  }
  return words;
}

/// Dice coefficient over string trigrams counted in a hash map: the
/// reference the packed trigram kernel must reproduce bit for bit.
double StringTrigramDice(const std::string& a, const std::string& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::vector<std::string> ga = CharNGrams(a, 3);
  std::vector<std::string> gb = CharNGrams(b, 3);
  std::unordered_map<std::string, size_t> counts;
  for (const std::string& g : ga) ++counts[g];
  size_t common = 0;
  for (const std::string& g : gb) {
    auto it = counts.find(g);
    if (it != counts.end() && it->second > 0) {
      --it->second;
      ++common;
    }
  }
  return 2.0 * common / static_cast<double>(ga.size() + gb.size());
}

/// A table of string columns with the given names (one value each: the
/// schema strategy reads names and types only).
Table NameTable(const std::string& name,
                const std::vector<std::string>& columns) {
  Table table(name);
  for (const std::string& column : columns) {
    Column c(column, DataType::kString);
    c.Append(Value::String("v"));
    if (!table.AddColumn(std::move(c)).ok()) std::abort();
  }
  return table;
}

const Table& ComaSourceTable() {
  static const Table kTable = NameTable(
      "customers", {"cust_id", "CustomerName", "addr_line1", "city", "zip",
                    "dob", "salary", "phone_no", "email", "created_at"});
  return kTable;
}

const Table& ComaTargetTable() {
  static const Table kTable = NameTable(
      "client_master",
      {"client_id", "client_name", "address", "town", "postal_code",
       "birthdate", "income", "telephone", "e_mail", "signup_date"});
  return kTable;
}

/// A fixed fabricated pair with noisy instances from the campaign's
/// ChEMBL source: ids, codes and free-text descriptions, some longer
/// than 64 bytes, so both edit-distance paths of the kernel run.
const DatasetPair& JlPair() {
  static const DatasetPair kPair = [] {
    FabricationOptions options;
    options.scenario = Scenario::kUnionable;
    options.noisy_instances = true;
    options.seed = 17;
    Result<DatasetPair> pair =
        FabricateDatasetPair(MakeChemblAssays(60, 99), options);
    if (!pair.ok()) std::abort();
    return std::move(pair).ValueOrDie();
  }();
  return kPair;
}

/// JL Prepare + Score of JlPair() at the campaign's threshold.
MatchResult JlScore(LevenshteinKernel kernel) {
  JaccardLevenshteinOptions options;
  options.threshold = 0.6;
  options.kernel = kernel;
  JaccardLevenshteinMatcher matcher(options);
  MatchContext context;
  Result<PreparedTablePtr> src =
      matcher.Prepare(JlPair().source, context);
  Result<PreparedTablePtr> tgt =
      matcher.Prepare(JlPair().target, context);
  if (!src.ok() || !tgt.ok()) std::abort();
  Result<MatchResult> scored = matcher.Score(**src, **tgt, nullptr, context);
  if (!scored.ok()) std::abort();
  return std::move(scored).ValueOrDie();
}

/// A fixed fabricated pair with noisy schema names from the campaign's
/// TPC-DI source, and the 16-configuration Cupid grid the benchmark
/// campaign runs (every sixth Table II configuration).
struct CupidGrid {
  DatasetPair pair;
  MethodFamily family;
};

const CupidGrid& FixedCupidGrid() {
  static const CupidGrid kGrid = [] {
    FabricationOptions options;
    options.scenario = Scenario::kViewUnionable;
    options.column_overlap = 0.5;
    options.noisy_schema = true;
    options.seed = 23;
    Result<DatasetPair> pair =
        FabricateDatasetPair(MakeTpcdiProspect(60, 2026), options);
    if (!pair.ok()) std::abort();
    const MethodFamily full = CupidFamily();
    MethodFamily thin{full.name, {}};
    for (size_t i = 0; i < full.grid.size(); i += 6) {
      thin.grid.push_back(full.grid[i]);
    }
    return CupidGrid{std::move(pair).ValueOrDie(), std::move(thin)};
  }();
  return kGrid;
}

/// Cupid's grid on FixedCupidGrid()'s pair as a campaign scores it: two
/// Prepares and one PreparePair shared by every configuration's Score.
std::vector<MatchResult> CupidGridScores() {
  const CupidGrid& grid = FixedCupidGrid();
  const ColumnMatcher& first = *grid.family.grid[0].matcher;
  MatchContext context;
  Result<PreparedTablePtr> src =
      first.Prepare(grid.pair.source, context);
  Result<PreparedTablePtr> tgt =
      first.Prepare(grid.pair.target, context);
  if (!src.ok() || !tgt.ok()) std::abort();
  Result<PreparedPairPtr> pair = first.PreparePair(**src, **tgt, context);
  if (!pair.ok() || *pair == nullptr) std::abort();
  std::vector<MatchResult> results;
  for (const ConfiguredMatcher& cm : grid.family.grid) {
    Result<MatchResult> scored =
        cm.matcher->Score(**src, **tgt, pair->get(), context);
    if (!scored.ok()) std::abort();
    results.push_back(std::move(scored).ValueOrDie());
  }
  return results;
}

/// A Cupid-shaped ranking input: a 28-column source and a 29-column
/// target (the width of the campaign's widest pairs, names repeating
/// only across the two tables) and one cell per pair, scored from six
/// values as Cupid's weighted type/name blend is, so ties are common.
struct RankInput {
  Table source;
  Table target;
  std::vector<ScoredCell> cells;
};

const RankInput& FixedRankInput() {
  static const RankInput kInput = [] {
    const std::vector<std::string> words = MakeWords(40, 81);
    std::vector<std::string> source_names(words.begin(), words.begin() + 28);
    std::vector<std::string> target_names(words.begin() + 11, words.end());
    RankInput input{NameTable("prospect_source", source_names),
                    NameTable("prospect_target", target_names),
                    {}};
    const double kScores[] = {0.0, 0.16, 0.2, 0.36, 0.52, 1.0};
    Rng rng(82);
    for (size_t i = 0; i < source_names.size(); ++i) {
      for (size_t j = 0; j < target_names.size(); ++j) {
        input.cells.emplace_back(i, j, kScores[rng.Index(6)]);
      }
    }
    return input;
  }();
  return kInput;
}

/// MinHash as first defined, one FNV-1a chain per seed: the reference
/// the multi-lane kernel must reproduce bit for bit.
std::vector<uint64_t> SerialMinHash(const std::unordered_set<std::string>& set,
                                    size_t num_hashes) {
  std::vector<uint64_t> mins(num_hashes, UINT64_MAX);
  for (const std::string& s : set) {  // lint:allow(unordered-iteration)
    for (size_t seed = 0; seed < num_hashes; ++seed) {
      uint64_t hash = 1469598103934665603ULL ^ (seed * 0x9e3779b97f4a7c15ULL);
      for (unsigned char c : s) {
        hash ^= c;
        hash *= 1099511628211ULL;
      }
      hash ^= hash >> 33;
      hash *= 0xff51afd7ed558ccdULL;
      hash ^= hash >> 33;
      mins[seed] = std::min(mins[seed], hash);
    }
  }
  return mins;
}

/// Shard `shard` of family `family`: two columns that carry the
/// family's 24 core words and 8 shard-private ones, named by one
/// family-unique token, so both modes nominate the family.
Table LshShard(size_t family, size_t shard) {
  const std::string token = MakeWords(1, 900 + family)[0];
  const std::vector<std::string> core = MakeWords(24, 1000 + family);
  const std::vector<std::string> own = MakeWords(8, 5000 + 64 * family + shard);
  Table table("f" + std::to_string(family) + "_s" + std::to_string(shard));
  for (const std::string suffix : {"key", "val"}) {
    Column c(token + suffix, DataType::kString);
    for (const std::string& w : core) c.Append(Value::String(w + suffix));
    for (const std::string& w : own) c.Append(Value::String(w + suffix));
    if (!table.AddColumn(std::move(c)).ok()) std::abort();
  }
  return table;
}

/// 100 tables (10 families x 10 shards) registered one by one, plus
/// one query shard from each of four families. `by_add` holds one
/// segment per set bit of 100, as the serving registry builds it;
/// `one_segment` is the same tables in a single segment.
struct LshLake {
  TableRepository repository;
  LshCandidateIndex by_add{LshCandidateIndex::Options()};
  LshCandidateIndex one_segment{LshCandidateIndex::Options()};
  std::vector<Table> queries;
};

const LshLake& FixedLshLake() {
  static const LshLake kLake = [] {
    LshLake lake;
    for (size_t family = 0; family < 10; ++family) {
      for (size_t shard = 0; shard < 10; ++shard) {
        Result<std::shared_ptr<const RegisteredTable>> entry =
            lake.repository.AddTable(LshShard(family, shard));
        if (!entry.ok() || !lake.by_add.Add(**entry).ok()) std::abort();
      }
    }
    if (!lake.one_segment.AddAll(lake.repository).ok()) std::abort();
    for (size_t family : {0, 3, 6, 9}) {
      lake.queries.push_back(LshShard(family, 10));
    }
    return lake;
  }();
  return kLake;
}

std::vector<Kernel> MakeKernels() {
  std::vector<Kernel> kernels;

  kernels.push_back({"levenshtein_full", [] {
    std::vector<std::string> a = MakeWords(64, 11);
    std::vector<std::string> b = MakeWords(64, 12);
    size_t acc = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      acc += LevenshteinDistance(a[i], b[i]);
    }
    if (acc == static_cast<size_t>(-1)) std::abort();  // defeat DCE
  }, [] {
    // A band as wide as the longer word is the full DP.
    std::vector<std::string> a = MakeWords(64, 11);
    std::vector<std::string> b = MakeWords(64, 12);
    for (size_t i = 0; i < a.size(); ++i) {
      size_t wide = std::max(a[i].size(), b[i].size());
      if (LevenshteinDistance(a[i], b[i]) !=
          LevenshteinWithin(a[i], b[i], wide)) {
        return "full != unbounded banded on pair " + std::to_string(i);
      }
    }
    return std::string();
  }});

  kernels.push_back({"levenshtein_banded", [] {
    std::vector<std::string> a = MakeWords(64, 21);
    std::vector<std::string> b = MakeWords(64, 22);
    size_t acc = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      acc += LevenshteinWithin(a[i], b[i], 3);
    }
    if (acc == static_cast<size_t>(-1)) std::abort();
  }, [] {
    std::vector<std::string> a = MakeWords(64, 21);
    std::vector<std::string> b = MakeWords(64, 22);
    for (size_t i = 0; i < a.size(); ++i) {
      size_t full = LevenshteinDistance(a[i], b[i]);
      size_t banded = LevenshteinWithin(a[i], b[i], 3);
      if (full <= 3 ? banded != full : banded <= 3) {
        return "banded disagrees with full on pair " + std::to_string(i);
      }
    }
    return std::string();
  }});

  // FuzzyJaccard's banded kernel path: folded bag bound + leftover
  // Levenshtein pairing.
  kernels.push_back({"fuzzy_jaccard", [] {
    std::vector<std::string> a = MakeWords(96, 31);
    std::vector<std::string> b = MakeWords(96, 32);
    double s = FuzzyJaccard(a, b, 0.25, LevenshteinKernel::kBanded);
    if (s < 0.0) std::abort();
  }, [] {
    std::vector<std::string> a = MakeWords(96, 31);
    std::vector<std::string> b = MakeWords(96, 32);
    if (FuzzyJaccard(a, b, 0.25, LevenshteinKernel::kBanded) !=
        FuzzyJaccard(a, b, 0.25, LevenshteinKernel::kNaive)) {
      return std::string("banded kernel score != naive kernel score");
    }
    return std::string();
  }});

  kernels.push_back({"minhash_build", [] {
    std::vector<std::string> values = MakeWords(1000, 41);
    std::unordered_set<std::string> set(values.begin(), values.end());
    MinHashSignature sig = MinHashSignature::Build(set, 64);
    if (sig.empty_set() && !set.empty()) std::abort();
  }, [] {
    // The persisted hash family, bit for bit (a width that is not a
    // multiple of the kernel's eight lanes runs its tail loop too).
    std::vector<std::string> values = MakeWords(1000, 41);
    std::unordered_set<std::string> set(values.begin(), values.end());
    for (size_t width : {64, 67}) {
      if (MinHashSignature::Build(set, width).mins() !=
          SerialMinHash(set, width)) {
        return "signature != serial per-seed FNV-1a at width " +
               std::to_string(width);
      }
    }
    return std::string();
  }});

  kernels.push_back({"char_ngrams", [] {
    std::vector<std::string> words = MakeWords(256, 51);
    size_t acc = 0;
    for (const std::string& w : words) {
      acc += CharNGrams(w, 3).size();
    }
    if (acc == 0) std::abort();
  }, [] {
    // The packed trigram codes are the string grams, byte for byte.
    auto byte = [](char c) {
      return static_cast<uint32_t>(static_cast<unsigned char>(c));
    };
    for (const std::string& w : MakeWords(256, 51)) {
      std::vector<uint32_t> packed;
      for (const std::string& g : CharNGrams(w, 3)) {
        packed.push_back((byte(g[0]) << 16) | (byte(g[1]) << 8) | byte(g[2]));
      }
      std::sort(packed.begin(), packed.end());
      if (packed.size() != w.size() + 2 || packed != TrigramCodes(w)) {
        return "packed trigram codes != string grams for '" + w + "'";
      }
    }
    return std::string();
  }});

  kernels.push_back({"emd_sweep", [] {
    Rng rng(61);
    std::vector<double> a(5000), b(5000);
    for (double& d : a) d = rng.Gaussian(100, 15);
    for (double& d : b) d = rng.Gaussian(110, 20);
    QuantileHistogram ha = QuantileHistogram::Build(a, 32);
    QuantileHistogram hb = QuantileHistogram::Build(b, 32);
    double emd = EmdBetweenHistograms(ha, hb);
    if (emd < 0.0) std::abort();
  }, [] {
    Rng rng(61);
    std::vector<double> a(5000), b(5000);
    for (double& d : a) d = rng.Gaussian(100, 15);
    for (double& d : b) d = rng.Gaussian(110, 20);
    QuantileHistogram ha = QuantileHistogram::Build(a, 32);
    QuantileHistogram hb = QuantileHistogram::Build(b, 32);
    if (EmdBetweenHistograms(ha, ha) != 0.0 ||
        EmdBetweenHistograms(ha, hb) != EmdBetweenHistograms(hb, ha)) {
      return std::string("EMD is not a zero-on-self, symmetric distance");
    }
    return std::string();
  }});

  // COMA's name-side first-line matchers on fixed column names: Prepare
  // derives each column's packed name and path trigrams, tokens and
  // thesaurus terms once, then Score compares every column pair from
  // them. Emissions count the per-column trigram codes only; deriving
  // them per pair again would multiply the count by the table width.
  kernels.push_back({"coma_name_scores", [] {
    ComaMatcher matcher;
    MatchContext context;
    Result<PreparedTablePtr> src =
        matcher.Prepare(ComaSourceTable(), context);
    Result<PreparedTablePtr> tgt =
        matcher.Prepare(ComaTargetTable(), context);
    if (!src.ok() || !tgt.ok()) std::abort();
    Result<MatchResult> scored = matcher.Score(**src, **tgt, nullptr, context);
    if (!scored.ok() || scored->size() != 100) std::abort();
  }, [] {
    ComaMatcher matcher;
    const Table& s = ComaSourceTable();
    const Table& t = ComaTargetTable();
    for (const Column& a : s.columns()) {
      for (const Column& b : t.columns()) {
        double name_want =
            StringTrigramDice(ToLower(a.name()), ToLower(b.name()));
        double path_want =
            StringTrigramDice(ToLower(s.name()) + "." + ToLower(a.name()),
                              ToLower(t.name()) + "." + ToLower(b.name()));
        if (matcher.NameTrigramSim(a.name(), b.name()) != name_want ||
            matcher.NamePathSim(s.name(), a.name(), t.name(), b.name()) !=
                path_want) {
          return "packed != string trigrams on " + a.name() + " / " + b.name();
        }
      }
    }
    return std::string();
  }});

  kernels.push_back({"levenshtein_bitparallel", [] {
    std::vector<std::string> a = MakeWords(64, 71);
    std::vector<std::string> b = MakeWords(64, 72);
    size_t acc = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      acc += LevenshteinBitParallel(a[i], b[i]);
    }
    if (acc == static_cast<size_t>(-1)) std::abort();
  }, [] {
    std::vector<std::string> a = MakeWords(64, 71);
    std::vector<std::string> b = MakeWords(64, 72);
    for (size_t i = 0; i < a.size(); ++i) {
      if (LevenshteinBitParallel(a[i], b[i]) !=
          LevenshteinDistance(a[i], b[i])) {
        return "bit-parallel != full on pair " + std::to_string(i);
      }
    }
    return std::string();
  }});

  // Jaccard-Levenshtein's Prepare + Score at the campaign's threshold
  // of 0.6, where (unlike fuzzy_jaccard's 0.25 on random words) many
  // leftover pairs pass the bag bound and reach the edit distance.
  kernels.push_back({"jl_score", [] {
    if (JlScore(LevenshteinKernel::kBanded).empty()) std::abort();
  }, [] {
    const MatchResult banded = JlScore(LevenshteinKernel::kBanded);
    const MatchResult naive = JlScore(LevenshteinKernel::kNaive);
    if (banded.size() != naive.size()) {
      return std::string("banded and naive score different pair counts");
    }
    for (size_t i = 0; i < banded.size(); ++i) {
      if (!banded[i].SamePair(naive[i]) || banded[i].score != naive[i].score) {
        return "banded != naive at rank " + std::to_string(i);
      }
    }
    return std::string();
  }});

  // Retrieve, both modes, over a fixed index built by one Add per
  // registration, as the serving registry builds it: query sketching
  // (the minhash_hashes ops) plus flat segment probes.
  kernels.push_back({"lsh_retrieve", [] {
    const LshLake& lake = FixedLshLake();
    size_t nominated = 0;
    for (const Table& query : lake.queries) {
      for (DiscoveryMode mode :
           {DiscoveryMode::kJoinable, DiscoveryMode::kUnionable}) {
        nominated +=
            lake.by_add.Retrieve(query, mode, lake.repository).tables.size();
      }
    }
    if (nominated == 0) std::abort();
  }, [] {
    const LshLake& lake = FixedLshLake();
    if (lake.by_add.Segments().size() < 2) {
      return std::string("expected several segments");
    }
    for (const Table& query : lake.queries) {
      for (DiscoveryMode mode :
           {DiscoveryMode::kJoinable, DiscoveryMode::kUnionable}) {
        RetrievedCandidates got =
            lake.by_add.Retrieve(query, mode, lake.repository);
        RetrievedCandidates want =
            lake.one_segment.Retrieve(query, mode, lake.repository);
        if (got.tables != want.tables || got.fallback != want.fallback) {
          return "per-Add segments != one segment nominations for " +
                 query.name() + " " + DiscoveryModeName(mode);
        }
      }
    }
    return std::string();
  }});

  // Cupid's grid on one pair: the linguistic matrix (name_token_pairs)
  // is built once for all 16 configurations, each of which then ranks
  // its own blend of it with the structural similarity.
  kernels.push_back({"cupid_grid", [] {
    if (CupidGridScores().size() != 16) std::abort();
  }, [] {
    const CupidGrid& grid = FixedCupidGrid();
    const std::vector<MatchResult> scored = CupidGridScores();
    for (size_t c = 0; c < grid.family.grid.size(); ++c) {
      const MatchResult want =
          grid.family.grid[c].matcher->Match(grid.pair.source,
                                             grid.pair.target);
      bool same = want.size() == scored[c].size();
      for (size_t i = 0; same && i < want.size(); ++i) {
        same = scored[c][i].SamePair(want[i]) &&
               scored[c][i].score == want[i].score;
      }
      if (!same) {
        return "shared pair artifact != Match for " +
               grid.family.grid[c].description;
      }
    }
    return std::string();
  }});

  // The ordering core every single-pair matcher ranks through: name
  // ranks for both tables, then one key sort over the cells.
  kernels.push_back({"match_rank", [] {
    const RankInput& input = FixedRankInput();
    MatchResult ranked =
        MatchResult::Ranked(input.source, input.target, input.cells);
    if (ranked.size() != input.cells.size()) std::abort();
  }, [] {
    const RankInput& input = FixedRankInput();
    const MatchResult ranked =
        MatchResult::Ranked(input.source, input.target, input.cells);
    std::vector<Match> want;
    MatchResult merged;
    for (const ScoredCell& c : input.cells) {
      want.push_back(
          {{input.source.name(), input.source.column(c.source).name()},
           {input.target.name(), input.target.column(c.target).name()},
           c.score});
      merged.Add(want.back());
    }
    std::sort(want.begin(), want.end(), [](const Match& a, const Match& b) {
      if (a.score != b.score) return a.score > b.score;
      if (!(a.source == b.source)) return a.source < b.source;
      return a.target < b.target;
    });
    merged.Sort();
    const MatchResult* const results[] = {&ranked, &merged};
    for (size_t i = 0; i < want.size(); ++i) {
      for (const MatchResult* got : results) {
        if (!(*got)[i].SamePair(want[i]) || (*got)[i].score != want[i].score) {
          return "key-sorted != comparator-sorted at rank " +
                 std::to_string(i);
        }
      }
    }
    return std::string();
  }});

  return kernels;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out PATH] [--repeats N] [--pessimize]\n"
               "       %s --smoke\n",
               argv0, argv0);
  return 2;
}

/// --smoke: every kernel once against its reference, plus (where op
/// counters exist) two runs of each workload counting the same nonzero
/// ops. Returns the process exit code.
int Smoke() {
  int failures = 0;
  for (const Kernel& kernel : MakeKernels()) {
    std::string problem = kernel.check();
    if (problem.empty() && opcount::kEnabled) {
      opcount::Snapshot counts[2];
      for (opcount::Snapshot& delta : counts) {
        opcount::Snapshot before = opcount::ThreadSnapshot();
        kernel.work();
        delta = opcount::ThreadSnapshot().DeltaSince(before);
      }
      uint64_t total = 0;
      for (opcount::Op op : opcount::AllOps()) total += counts[0].value(op);
      if (total == 0 || counts[0].counts != counts[1].counts) {
        problem = "op counts are zero or differ between two runs";
      }
    } else if (problem.empty()) {
      kernel.work();
    }
    std::printf("smoke %s: %s\n", kernel.name.c_str(),
                problem.empty() ? "ok" : ("FAILED: " + problem).c_str());
    if (!problem.empty()) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int Run(int argc, char** argv) {
  std::string out_path;
  int repeats = 9;
  bool pessimize = false;
  if (argc == 2 && std::string(argv[1]) == "--smoke") return Smoke();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
      if (repeats < 1) repeats = 1;
    } else if (arg == "--pessimize") {
      pessimize = true;
    } else {
      return Usage(argv[0]);
    }
  }

  if (!opcount::kEnabled) {
    std::fprintf(stderr,
                 "bench_kernels: opcounts are compiled out in this build; "
                 "configure with -DVALENTINE_OPCOUNT=ON (or build Debug)\n");
    return 3;
  }

  serve::JsonValue kernels_json = serve::JsonValue::Object();
  for (const Kernel& kernel : MakeKernels()) {
    auto iterate = [&] {
      kernel.work();
      if (pessimize) kernel.work();
    };

    // Exact op counts: one iteration bracketed by thread snapshots.
    opcount::Snapshot before = opcount::ThreadSnapshot();
    iterate();
    opcount::Snapshot delta = opcount::ThreadSnapshot().DeltaSince(before);

    // ns/iteration median over the repeats (each timed individually so
    // a single descheduling hit can't poison the estimate).
    std::vector<double> ns;
    ns.reserve(static_cast<size_t>(repeats));
    for (int r = 0; r < repeats; ++r) {
      auto t0 = std::chrono::steady_clock::now();
      iterate();
      auto t1 = std::chrono::steady_clock::now();
      ns.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
    std::sort(ns.begin(), ns.end());
    double median = ns[ns.size() / 2];

    serve::JsonValue ops = serve::JsonValue::Object();
    for (opcount::Op op : opcount::AllOps()) {
      uint64_t n = delta.value(op);
      if (n == 0) continue;
      ops.Set(opcount::OpName(op),
              serve::JsonValue::Number(static_cast<double>(n)));
    }
    serve::JsonValue entry = serve::JsonValue::Object();
    entry.Set("ns_per_iter", serve::JsonValue::Number(median));
    entry.Set("ops", std::move(ops));
    kernels_json.Set(kernel.name, std::move(entry));
  }

  serve::JsonValue tolerance = serve::JsonValue::Object();
  tolerance.Set("ns_ratio",
                serve::JsonValue::Number(kDefaultNsRatioTolerance));
  serve::JsonValue doc = serve::JsonValue::Object();
  doc.Set("schema", serve::JsonValue::String("valentine-bench-kernels/1"));
  doc.Set("repeats", serve::JsonValue::Number(repeats));
  doc.Set("tolerance", std::move(tolerance));
  doc.Set("kernels", std::move(kernels_json));

  std::string text = serve::WriteJson(doc) + "\n";
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  Status wrote = WriteTextFile(text, out_path);
  if (!wrote.ok()) {
    std::fprintf(stderr, "bench_kernels: %s\n", wrote.message().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace valentine

int main(int argc, char** argv) { return valentine::Run(argc, argv); }
