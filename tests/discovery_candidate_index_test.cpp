// Contract tests for CandidateIndex (candidate_index.h), run against
// both implementations: nominations stay inside the repository with no
// duplicates, Remove makes a table un-nominate-able until re-Add, and a
// value-blind query degrades to flagged whole-repository nomination
// instead of a silent empty answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/rng.h"
#include "datasets/chembl.h"
#include "datasets/opendata.h"
#include "datasets/tpcdi.h"
#include "discovery/candidate_index.h"
#include "discovery/repository.h"
#include "fabrication/fabricator.h"
#include "scaling/lazo.h"

namespace valentine {
namespace {

struct IndexMaker {
  std::string name;
  std::function<std::unique_ptr<CandidateIndex>()> make;
};

std::vector<IndexMaker> AllIndexes() {
  return {
      {"lsh",
       [] {
         LshCandidateIndex::Options opt;
         return std::make_unique<LshCandidateIndex>(opt);
       }},
      {"exhaustive", [] { return std::make_unique<ExhaustiveCandidateIndex>(); }},
  };
}

class CandidateIndexContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table prospect = MakeTpcdiProspect(150, 2026);
    FabricationOptions fab;
    fab.scenario = Scenario::kJoinable;
    fab.column_overlap = 0.4;
    fab.seed = 4;
    DatasetPair split = FabricateDatasetPair(prospect, fab).ValueOrDie();
    query_ = split.source;
    query_.set_name("query");
    Table partner = split.target;
    partner.set_name("planted_partner");
    tables_.push_back(std::move(partner));
    tables_.push_back(MakeOpenDataTable(150, 4711));
    tables_.push_back(MakeChemblAssays(150, 99));

    for (const Table& t : tables_) {
      entries_.push_back(repository_.AddTable(t).ValueOrDie());
    }
  }

  std::set<std::string> RepositoryNames() const {
    std::set<std::string> names;
    for (size_t i = 0; i < repository_.size(); ++i) {
      names.insert(repository_.entry(i).table.name());
    }
    return names;
  }

  Table query_;
  std::vector<Table> tables_;
  TableRepository repository_;
  std::vector<std::shared_ptr<const RegisteredTable>> entries_;
};

TEST_F(CandidateIndexContractTest, NominationsStayInsideRepository) {
  for (const IndexMaker& maker : AllIndexes()) {
    std::unique_ptr<CandidateIndex> index = maker.make();
    EXPECT_EQ(index->Name(), maker.name);
    for (const auto& entry : entries_) {
      ASSERT_TRUE(index->Add(*entry).ok()) << maker.name;
    }
    const std::set<std::string> repo_names = RepositoryNames();
    for (DiscoveryMode mode :
         {DiscoveryMode::kJoinable, DiscoveryMode::kUnionable}) {
      RetrievedCandidates out = index->Retrieve(query_, mode, repository_);
      EXPECT_EQ(out.index, maker.name);
      for (const std::string& name : out.tables) {
        EXPECT_EQ(repo_names.count(name), 1u)
            << maker.name << " nominated unknown table " << name;
      }
    }
  }
}

TEST_F(CandidateIndexContractTest, LshNominatesThePlantedPartner) {
  // Not part of the abstract contract, but the reason the LSH index
  // exists: a fabricated joinable partner must be recalled.
  LshCandidateIndex::Options opt;
  LshCandidateIndex index(opt);
  for (const auto& entry : entries_) {
    ASSERT_TRUE(index.Add(*entry).ok());
  }
  RetrievedCandidates out =
      index.Retrieve(query_, DiscoveryMode::kJoinable, repository_);
  EXPECT_FALSE(out.fallback);
  EXPECT_EQ(out.tables.count("planted_partner"), 1u);
}

TEST_F(CandidateIndexContractTest, RemoveUnNominatesUntilReAdd) {
  for (const IndexMaker& maker : AllIndexes()) {
    std::unique_ptr<CandidateIndex> index = maker.make();
    for (const auto& entry : entries_) {
      ASSERT_TRUE(index->Add(*entry).ok()) << maker.name;
    }

    // Remove the partner from BOTH the index and the repository (the
    // engine always mutates them together; the exhaustive index
    // nominates straight from the repository).
    std::shared_ptr<const RegisteredTable> partner = entries_[0];
    ASSERT_EQ(partner->table.name(), "planted_partner");
    ASSERT_TRUE(index->Remove(*partner).ok()) << maker.name;
    TableRepository without = repository_;  // snapshot: original untouched
    ASSERT_TRUE(without.RemoveTable("planted_partner").ok());

    for (DiscoveryMode mode :
         {DiscoveryMode::kJoinable, DiscoveryMode::kUnionable}) {
      RetrievedCandidates out = index->Retrieve(query_, mode, without);
      EXPECT_EQ(out.tables.count("planted_partner"), 0u)
          << maker.name << " still nominates a removed table";
    }

    // Re-Add restores nomination as if fresh.
    TableRepository again = without;
    auto readded = again.AddTable(partner->table);
    ASSERT_TRUE(readded.ok());
    ASSERT_TRUE(index->Add(**readded).ok()) << maker.name;
    RetrievedCandidates out =
        index->Retrieve(query_, DiscoveryMode::kJoinable, again);
    EXPECT_EQ(out.tables.count("planted_partner"), 1u) << maker.name;
  }

  // The same contract on a copy of a one-segment LSH index, re-adding
  // the name with changed content. Segments are shared by every copy,
  // so the removal of one of three tables on the copy is lazy: the
  // partner's postings stay banded, and only the repository check keeps
  // them silent.
  LshCandidateIndex original(LshCandidateIndex::Options{});
  ASSERT_TRUE(original.AddAll(repository_).ok());
  ASSERT_EQ(original.Segments().size(), 1u);
  LshCandidateIndex copy = original;
  std::shared_ptr<const RegisteredTable> partner = entries_[0];
  ASSERT_TRUE(copy.Remove(*partner).ok());
  EXPECT_EQ(copy.Segments()[0].removed, 1u);
  EXPECT_FALSE(copy.Remove(*partner).ok()) << "removed twice";
  EXPECT_EQ(copy.Retrieve(query_, DiscoveryMode::kJoinable, repository_)
                .tables.count("planted_partner"),
            0u)
      << "a lazily removed table is nominated even while the repository "
         "still holds that very entry";
  TableRepository changed = repository_;
  ASSERT_TRUE(changed.RemoveTable("planted_partner").ok());
  Table unrelated("planted_partner");
  Column fresh("fresh_values", DataType::kString);
  for (int i = 0; i < 50; ++i) {
    fresh.Append(Value::String(std::to_string(i) + "_not_in_any_query"));
  }
  ASSERT_TRUE(unrelated.AddColumn(std::move(fresh)).ok());
  auto replacement = changed.AddTable(unrelated);
  ASSERT_TRUE(replacement.ok());
  ASSERT_TRUE(copy.Add(**replacement).ok());
  EXPECT_EQ(copy.Retrieve(query_, DiscoveryMode::kJoinable, changed)
                .tables.count("planted_partner"),
            0u)
      << "the re-added table's new content does not contain the query";
  // The original copy never saw the removal: against its own repository
  // it still nominates the partner, and against the changed repository
  // the name now maps to a different entry, so it must not.
  EXPECT_EQ(original.Retrieve(query_, DiscoveryMode::kJoinable, repository_)
                .tables.count("planted_partner"),
            1u);
  EXPECT_EQ(original.Retrieve(query_, DiscoveryMode::kJoinable, changed)
                .tables.count("planted_partner"),
            0u);
}

TEST_F(CandidateIndexContractTest, ValueBlindQueryDegradesLoudly) {
  Table blind("blind");
  Column c("c", DataType::kString);
  for (int i = 0; i < 3; ++i) c.Append(Value::Null());
  ASSERT_TRUE(blind.AddColumn(std::move(c)).ok());

  // LSH joinable: cannot see the query at all -> flagged fallback over
  // the whole repository.
  LshCandidateIndex::Options opt;
  LshCandidateIndex lsh(opt);
  for (const auto& entry : entries_) {
    ASSERT_TRUE(lsh.Add(*entry).ok());
  }
  RetrievedCandidates out =
      lsh.Retrieve(blind, DiscoveryMode::kJoinable, repository_);
  EXPECT_TRUE(out.fallback);
  EXPECT_EQ(out.fallback_reason, "empty-query-columns");
  EXPECT_EQ(out.tables, RepositoryNames());

  // Unionable with name postings on: the name channel still works, so
  // no fallback.
  RetrievedCandidates named =
      lsh.Retrieve(blind, DiscoveryMode::kUnionable, repository_);
  EXPECT_FALSE(named.fallback);

  // Exhaustive nomination is never degraded: it already is the
  // fallback behaviour, unflagged.
  ExhaustiveCandidateIndex exhaustive;
  RetrievedCandidates all =
      exhaustive.Retrieve(blind, DiscoveryMode::kJoinable, repository_);
  EXPECT_FALSE(all.fallback);
  EXPECT_EQ(all.tables, RepositoryNames());
}

// Segments count agreeing signature slots per column instead of
// reading sketches. The counts must nominate exactly what a brute-force
// scan over the same sketches nominates (code the flat layout shares
// nothing with), here on inputs built to sit at the edges: query
// containments spread across min_containment, and many unionable hits
// resting on a single agreeing slot (the lake's columns share few
// values). One column per table, and no name postings, so every table
// nomination is one column's. Two layouts of the same tables are
// checked: one segment per set bit (Add) and a single segment (AddAll).
TEST(SealedSegmentTest, NominatesLikeABruteForceScan) {
  Rng rng(1818);
  auto tagged = [](const std::string& tag, size_t n) {
    std::string out = tag;
    out += std::to_string(n);
    return out;
  };
  auto make_table = [](const std::string& name,
                       const std::vector<std::string>& values) {
    Table table(name);
    Column column("values", DataType::kString);
    for (const std::string& v : values) column.Append(Value::String(v));
    EXPECT_TRUE(table.AddColumn(std::move(column)).ok());
    return table;
  };
  auto universe_sample = [&](size_t count) {
    std::set<std::string> picked;
    while (picked.size() < count) {
      picked.insert(tagged("u", rng.Index(3000)));
    }
    return std::vector<std::string>(picked.begin(), picked.end());
  };

  LshCandidateIndex::Options options;
  options.union_name_candidates = false;
  LshCandidateIndex by_add(options);
  LshCandidateIndex one_segment(options);
  std::vector<LazoSketch> sketches;  // table i's column sketch
  TableRepository repository;
  std::vector<std::vector<std::string>> lake;
  for (size_t i = 0; i < 48; ++i) {
    lake.push_back(universe_sample(20 + rng.Index(101)));
    auto entry = repository.AddTable(make_table(tagged("t", i), lake.back()));
    ASSERT_TRUE(entry.ok());
    ASSERT_TRUE(by_add.Add(**entry).ok());
    sketches.push_back((*entry)->artifact->columns.front().sketch);
  }
  // The brute-force reference: every lake sketch is compared with the
  // query. Unionable nominates a column with any agreeing slot;
  // joinable one whose estimated containment reaches min_containment.
  auto scan = [&](const LazoSketch& query, DiscoveryMode mode) {
    std::set<std::string> out;
    const std::vector<uint64_t>& q = query.signature.mins();
    for (size_t i = 0; i < sketches.size(); ++i) {
      bool hit = false;
      if (mode == DiscoveryMode::kJoinable) {
        hit = EstimateLazo(query, sketches[i]).containment_a_in_b >=
              options.min_containment;
      } else {
        const std::vector<uint64_t>& mins = sketches[i].signature.mins();
        for (size_t slot = 0; slot < q.size(); ++slot) {
          hit = hit || q[slot] == mins[slot];
        }
      }
      if (hit) out.insert(tagged("t", i));
    }
    return out;
  };
  ASSERT_TRUE(one_segment.AddAll(repository).ok());
  ASSERT_GE(by_add.Segments().size(), 2u);
  ASSERT_EQ(one_segment.Segments().size(), 1u);

  size_t nominated = 0;
  for (size_t q = 0; q < 200; ++q) {
    // A random share of one lake column, a few lake-universe values and
    // some values no table holds.
    std::vector<std::string> base = lake[rng.Index(lake.size())];
    rng.Shuffle(&base);
    const double share = rng.UniformDouble(0.05, 0.7);
    std::vector<std::string> values(
        base.begin(),
        base.begin() + static_cast<ptrdiff_t>(share * base.size()));
    for (const std::string& v : universe_sample(rng.Index(30))) {
      values.push_back(v);
    }
    for (size_t k = rng.Index(40); k > 0; --k) {
      values.push_back(tagged(tagged("q", q) + "_", k));
    }
    const Table query = make_table("query", values);
    const LazoSketch sketch = LazoSketch::Build(
        query.column(0).DistinctStringSet(), kDiscoverySignatureSize);
    for (DiscoveryMode mode :
         {DiscoveryMode::kJoinable, DiscoveryMode::kUnionable}) {
      const std::set<std::string> want = scan(sketch, mode);
      for (const LshCandidateIndex* index : {&by_add, &one_segment}) {
        RetrievedCandidates got = index->Retrieve(query, mode, repository);
        EXPECT_EQ(got.tables, want)
            << "query " << q << " " << DiscoveryModeName(mode);
        EXPECT_FALSE(got.fallback);
      }
      nominated += want.size();
    }
  }
  EXPECT_GT(nominated, 0u);
}

// The joinable filter compares a column's estimated containment with
// min_containment directly, so the estimate is pinned at the threshold:
// with min_containment set to the reference estimate (EstimateLazo over
// the query's and the column's sketches) the column is nominated, and
// one double above it, it is not. A probe that turns agreeing slots into
// a biased estimate flips one of the two answers. Only estimates
// strictly inside (0, 1) whose intersection is not clamped to the
// smaller set are used, since a clamp hides the slot count.
TEST(SealedSegmentTest, JoinableEstimateIsPinnedAtTheThreshold) {
  auto make_table = [](const std::string& name, size_t first, size_t last) {
    Table table(name);
    Column column("values", DataType::kString);
    for (size_t v = first; v < last; ++v) {
      column.Append(
          Value::String(std::string("v").append(std::to_string(v))));
    }
    EXPECT_TRUE(table.AddColumn(std::move(column)).ok());
    return table;
  };
  TableRepository repository;
  std::vector<std::shared_ptr<const RegisteredTable>> entries;
  for (size_t i = 0; i < 8; ++i) {
    auto entry = repository.AddTable(
        make_table(std::string("t").append(std::to_string(i)), 15 * i,
                   15 * i + 60 + 10 * i));
    ASSERT_TRUE(entry.ok());
    entries.push_back(*entry);
  }
  const Table query = make_table("query", 20, 110);
  const LazoSketch query_sketch = LazoSketch::Build(
      query.column(0).DistinctStringSet(), kDiscoverySignatureSize);

  size_t pinned = 0;
  for (const auto& entry : entries) {
    const LazoSketch& column_sketch = entry->artifact->columns.front().sketch;
    const LazoEstimate reference = EstimateLazo(query_sketch, column_sketch);
    const double estimate = reference.containment_a_in_b;
    if (estimate <= 0.0 || estimate >= 1.0 ||
        reference.intersection_size >=
            static_cast<double>(std::min(query_sketch.cardinality,
                                         column_sketch.cardinality))) {
      continue;
    }
    ++pinned;
    const std::string& name = entry->table.name();
    for (const bool nominated : {true, false}) {
      LshCandidateIndex::Options options;
      options.min_containment =
          nominated ? estimate : std::nextafter(estimate, 2.0);
      LshCandidateIndex by_add(options);
      for (const auto& e : entries) ASSERT_TRUE(by_add.Add(*e).ok());
      LshCandidateIndex one_segment(options);
      ASSERT_TRUE(one_segment.AddAll(repository).ok());
      for (const LshCandidateIndex* index : {&by_add, &one_segment}) {
        EXPECT_EQ(index->Retrieve(query, DiscoveryMode::kJoinable, repository)
                      .tables.count(name),
                  nominated ? 1u : 0u)
            << name << " at estimate " << estimate << " with min_containment "
            << options.min_containment;
      }
    }
  }
  EXPECT_GE(pinned, 4u);
}

TEST_F(CandidateIndexContractTest, ExhaustiveNominatesEverythingAlways) {
  ExhaustiveCandidateIndex index;
  // Never fed a single Add: nominations come from the repository.
  for (DiscoveryMode mode :
       {DiscoveryMode::kJoinable, DiscoveryMode::kUnionable}) {
    RetrievedCandidates out = index.Retrieve(query_, mode, repository_);
    EXPECT_EQ(out.tables, RepositoryNames());
    EXPECT_FALSE(out.fallback);
  }
}

}  // namespace
}  // namespace valentine
