// One-vs-many discovery benchmark: one query table scored against an
// N-table repository, comparing the legacy monolithic path (every
// Match() re-extracts both tables' artifacts from scratch) against the
// Prepare/Score pipeline (the query is prepared once per Find* call and
// each repository table's artifact is built once, kept in its registry
// entry and served across calls) — the O(N * prepare) -> O(prepare +
// N * score) story of the discovery refactor.
//
// The tool *asserts* that both paths rank byte-identically (table
// order, scores, and evidence, serialized at full precision) on every
// repeat and exits 1 on any divergence — the speedups are only
// meaningful if the results did not move.
//
// Families measured: Distribution (quantile histograms are built in
// Prepare, scored by cheap EMD) and ComaInstances (token profiles in
// Prepare). Matchers whose Score *is* the full pairwise comparison
// (fuzzy Jaccard-Levenshtein) cannot amortize anything here by
// construction; their kernels are timed by tools/bench_kernels
// (BENCH_kernels.json) instead.
//
// Usage: bench_discovery [--tables N] [--rows N] [--repeats R]
//                        [--out PATH] [--smoke]
//   --tables N   repository size (default 24)
//   --rows N     rows per generated table (default 1600 — artifact
//                extraction scales with rows, scoring mostly does not,
//                so small tables understate the pipeline's win)
//   --repeats R  Find* rounds per engine; round 1 is the cold-cache
//                round, later rounds serve warm artifacts (default 5)
//   --smoke      CI-sized run: 20 tables, 300 rows, 2 repeats (sized
//                for the byte-identity assertion, not the speedup)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datasets/chembl.h"
#include "datasets/opendata.h"
#include "datasets/tpcdi.h"
#include "discovery/discovery.h"
#include "matchers/coma.h"
#include "matchers/distribution_based.h"
#include "matchers/jaccard_levenshtein.h"

namespace valentine {
namespace {

struct Options {
  size_t tables = 24;
  size_t rows = 1600;
  size_t repeats = 5;
  std::string out = "BENCH_discovery.json";
  bool smoke = false;
};

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Full-fidelity serialization of a result list: any divergence in
/// ranking, score, or evidence between the two paths is a byte diff.
std::string Serialize(const std::vector<DiscoveryResult>& results) {
  std::string out;
  for (const DiscoveryResult& r : results) {
    out += r.table_name + "=" + Num(r.score) + "[";
    for (const Match& m : r.evidence) {
      out += m.source.ToString() + "~" + m.target.ToString() + ":" +
             Num(m.score) + ";";
    }
    out += "]\n";
  }
  return out;
}

/// Hides a matcher's pipeline overrides: only MatchWithContext is
/// forwarded, so a DiscoveryEngine built on this wrapper degrades to
/// the pre-refactor monolithic per-pair path.
class MonolithicOnly : public ColumnMatcher {
 public:
  explicit MonolithicOnly(MatcherPtr inner) : inner_(std::move(inner)) {}
  std::string Name() const override { return inner_->Name(); }
  MatcherCategory Category() const override { return inner_->Category(); }
  std::vector<MatchType> Capabilities() const override {
    return inner_->Capabilities();
  }
  [[nodiscard]] Result<MatchResult> MatchWithContext(
      const Table& source, const Table& target,
      const MatchContext& context) const override {
    return inner_->Match(source, target, context);
  }

 private:
  MatcherPtr inner_;
};

/// Deterministic mixed repository: TPC-DI / open-data / ChEMBL shapes
/// round-robin, each with its own seed so no two tables are equal.
void FillRepository(DiscoveryEngine* engine, size_t tables, size_t rows) {
  for (size_t i = 0; i < tables; ++i) {
    Table t;
    uint64_t seed = 1000 + i;
    switch (i % 3) {
      case 0:
        t = MakeTpcdiProspect(rows, seed);
        break;
      case 1:
        t = MakeOpenDataTable(rows, seed);
        break;
      default:
        t = MakeChemblAssays(rows, seed);
        break;
    }
    char name[40];
    std::snprintf(name, sizeof(name), "repo_%03zu", i);
    t.set_name(name);
    Status added = engine->AddTable(std::move(t));
    if (!added.ok()) {
      std::fprintf(stderr, "bench_discovery: AddTable failed: %s\n",
                   added.ToString().c_str());
      std::exit(1);
    }
  }
}

struct FamilyAB {
  std::string name;
  double monolithic_ms = 0.0;
  double prepared_ms = 0.0;
  bool reports_identical = true;
};

MatcherPtr MakeFamily(const std::string& name) {
  if (name == "Distribution") {
    return std::make_unique<DistributionBasedMatcher>();
  }
  if (name == "ComaInstances") {
    ComaOptions opt;
    opt.strategy = ComaStrategy::kInstances;
    return std::make_unique<ComaMatcher>(opt);
  }
  return std::make_unique<JaccardLevenshteinMatcher>();
}

int Run(const Options& options) {
  const Table query = [&] {
    Table q = MakeTpcdiProspect(options.rows, 7);
    q.set_name("query");
    return q;
  }();
  const size_t k = options.tables;  // rank the full repository

  const std::vector<std::string> family_names = {"Distribution",
                                                 "ComaInstances"};
  std::vector<FamilyAB> results;
  bool all_identical = true;

  for (const std::string& family : family_names) {
    DiscoveryOptions mono_opt;
    mono_opt.matcher = std::make_unique<MonolithicOnly>(MakeFamily(family));
    DiscoveryEngine monolithic(std::move(mono_opt));
    FillRepository(&monolithic, options.tables, options.rows);

    DiscoveryOptions prep_opt;
    prep_opt.matcher = MakeFamily(family);
    DiscoveryEngine prepared(std::move(prep_opt));
    FillRepository(&prepared, options.tables, options.rows);

    FamilyAB ab;
    ab.name = family;
    for (size_t r = 0; r < options.repeats; ++r) {
      double t0 = NowMs();
      auto mono_join = monolithic.FindJoinable(query, k);
      auto mono_union = monolithic.FindUnionable(query, k);
      double t1 = NowMs();
      auto prep_join = prepared.FindJoinable(query, k);
      auto prep_union = prepared.FindUnionable(query, k);
      double t2 = NowMs();
      ab.monolithic_ms += t1 - t0;
      ab.prepared_ms += t2 - t1;
      bool identical = Serialize(mono_join) == Serialize(prep_join) &&
                       Serialize(mono_union) == Serialize(prep_union);
      ab.reports_identical = ab.reports_identical && identical;
    }
    all_identical = all_identical && ab.reports_identical;
    std::fprintf(stderr, "  %-20s monolithic %8.1f ms  prepared %8.1f ms "
                 "(%.2fx)%s\n",
                 ab.name.c_str(), ab.monolithic_ms, ab.prepared_ms,
                 ab.monolithic_ms / ab.prepared_ms,
                 ab.reports_identical ? "" : "  REPORT DIVERGED");
    results.push_back(ab);
  }

  double mono_total = 0.0, prep_total = 0.0;
  for (const auto& ab : results) {
    mono_total += ab.monolithic_ms;
    prep_total += ab.prepared_ms;
  }

  std::string json = "{\n  \"benchmark\": \"discovery_one_vs_many_ab\",\n";
  json += "  \"tables\": " + std::to_string(options.tables) + ",\n";
  json += "  \"rows\": " + std::to_string(options.rows) + ",\n";
  json += "  \"repeats\": " + std::to_string(options.repeats) + ",\n";
  json += "  \"families\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& ab = results[i];
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"monolithic_ms\": %.3f, "
                  "\"prepared_ms\": %.3f, \"speedup\": %.3f, "
                  "\"reports_identical\": %s}%s\n",
                  ab.name.c_str(), ab.monolithic_ms, ab.prepared_ms,
                  ab.monolithic_ms / ab.prepared_ms,
                  ab.reports_identical ? "true" : "false",
                  (i + 1 < results.size()) ? "," : "");
    json += buf;
  }
  char total[200];
  std::snprintf(total, sizeof(total),
                "  ],\n  \"total\": {\"monolithic_ms\": %.3f, "
                "\"prepared_ms\": %.3f, \"speedup\": %.3f},\n",
                mono_total, prep_total, mono_total / prep_total);
  json += total;
  json += std::string("  \"determinism\": {\"reports_identical\": ") +
          (all_identical ? "true" : "false") + "}\n}\n";

  std::FILE* f = std::fopen(options.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_discovery: cannot write %s\n",
                 options.out.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "bench_discovery: wrote %s\n", options.out.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_discovery: FAIL — prepared results diverged from "
                 "monolithic bytes\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace valentine

int main(int argc, char** argv) {
  valentine::Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tables") == 0 && i + 1 < argc) {
      options.tables = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      options.rows = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      options.repeats = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      options.out = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      options.smoke = true;
      options.tables = 20;
      options.rows = 300;
      options.repeats = 2;
    } else {
      std::fprintf(stderr,
                   "usage: bench_discovery [--tables N] [--rows N] "
                   "[--repeats R] [--out PATH] [--smoke]\n");
      return 2;
    }
  }
  return valentine::Run(options);
}
