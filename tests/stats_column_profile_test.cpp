// ColumnProfile's contract (column_profile.h): every profile artifact is
// bit-compatible with what a matcher's inline extraction would compute,
// so serving a profile can never change a score. These tests pin that
// equivalence artifact by artifact, plus the serving predicates the
// matchers gate on.

#include "stats/column_profile.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "text/string_similarity.h"
#include "text/tokenizer.h"

namespace valentine {
namespace {

Column MakeMixedColumn(const std::string& name, size_t rows) {
  Column c(name, DataType::kString);
  for (size_t i = 0; i < rows; ++i) {
    if (i % 7 == 3) {
      c.Append(Value::Null());
    } else if (i % 3 == 0) {
      c.Append(Value::Int(static_cast<int64_t>(i % 11)));
    } else {
      c.Append(Value::String("val_" + std::to_string(i % 13)));
    }
  }
  return c;
}

Table MakeTestTable() {
  Table t("profiled");
  EXPECT_TRUE(t.AddColumn(MakeMixedColumn("customer_id", 40)).ok());
  EXPECT_TRUE(t.AddColumn(MakeMixedColumn("postalCode", 40)).ok());
  return t;
}

TEST(ColumnProfileTest, ArtifactsMatchInlineExtraction) {
  Column col = MakeMixedColumn("customer_id", 40);
  ProfileSpec spec;  // defaults: distinct_cap 0, set_cap 1000, ...
  ColumnProfile p = ColumnProfile::Build(col, spec);

  // Distinct list: exactly Column::DistinctStrings(), first-seen order.
  std::vector<std::string> inline_distinct = col.DistinctStrings();
  EXPECT_EQ(p.distinct(), inline_distinct);
  EXPECT_EQ(p.full_distinct_count(), inline_distinct.size());

  // Set: first set_cap distinct values (all of them here).
  EXPECT_EQ(p.distinct_set(),
            std::unordered_set<std::string>(inline_distinct.begin(),
                                            inline_distinct.end()));

  // Histogram: built over the same points with the same resolution.
  QuantileHistogram inline_hist =
      QuantileHistogram::Build(ValuesToPoints(inline_distinct), spec.num_bins);
  EXPECT_EQ(p.histogram().centers(), inline_hist.centers());
  EXPECT_EQ(p.histogram().masses(), inline_hist.masses());

  // MinHash: the same permutations over the same set.
  MinHashSignature inline_sig =
      MinHashSignature::Build(p.distinct_set(), spec.minhash_hashes);
  EXPECT_EQ(p.minhash().mins(), inline_sig.mins());

  // Descriptive stats and name tokens.
  TextProfile tp = ComputeTextProfile(col);
  EXPECT_EQ(p.text_profile().count, tp.count);
  EXPECT_DOUBLE_EQ(p.text_profile().mean_length, tp.mean_length);
  EXPECT_DOUBLE_EQ(p.text_profile().digit_fraction, tp.digit_fraction);
  NumericStats ns = ComputeNumericStats(col.NumericValues());
  EXPECT_EQ(p.numeric_stats().count, ns.count);
  EXPECT_DOUBLE_EQ(p.numeric_stats().mean, ns.mean);
  EXPECT_DOUBLE_EQ(p.numeric_stats().median, ns.median);
  EXPECT_DOUBLE_EQ(p.numeric_fraction(), col.NumericFraction());
  EXPECT_EQ(p.name_tokens(), TokenizeIdentifier(col.name()));
}

TEST(ColumnProfileTest, CappedArtifactsUsePrefixes) {
  Column col = MakeMixedColumn("c", 40);
  std::vector<std::string> all = col.DistinctStrings();
  ASSERT_GT(all.size(), 6u);

  ProfileSpec spec;
  spec.set_cap = 5;
  spec.histogram_cap = 6;
  ColumnProfile p = ColumnProfile::Build(col, spec);

  // The set is the first-5 prefix — the same values a matcher capping at
  // 5 would produce with DistinctStrings() + resize(5).
  std::vector<std::string> prefix5(all.begin(), all.begin() + 5);
  EXPECT_EQ(p.distinct_set(),
            std::unordered_set<std::string>(prefix5.begin(), prefix5.end()));

  std::vector<std::string> prefix6(all.begin(), all.begin() + 6);
  QuantileHistogram capped =
      QuantileHistogram::Build(ValuesToPoints(prefix6), spec.num_bins);
  EXPECT_EQ(p.histogram().centers(), capped.centers());
  EXPECT_EQ(p.histogram().masses(), capped.masses());
}

TEST(ColumnProfileTest, DistinctCapTruncatesStorageNotCount) {
  Column col = MakeMixedColumn("c", 40);
  std::vector<std::string> all = col.DistinctStrings();
  ProfileSpec spec;
  spec.distinct_cap = 4;
  ColumnProfile p = ColumnProfile::Build(col, spec);
  ASSERT_EQ(p.distinct().size(), 4u);
  EXPECT_EQ(p.full_distinct_count(), all.size());
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(p.distinct()[i], all[i]);
}

TEST(ColumnProfileTest, ServingPredicates) {
  Column col = MakeMixedColumn("c", 40);
  const size_t full = col.DistinctStrings().size();
  ASSERT_GT(full, 6u);

  ProfileSpec keep_all;  // distinct_cap 0
  ColumnProfile p = ColumnProfile::Build(col, keep_all);
  // A complete list serves any prefix cap, including "unlimited".
  EXPECT_TRUE(p.CanServeDistinctPrefix(0));
  EXPECT_TRUE(p.CanServeDistinctPrefix(3));
  EXPECT_TRUE(p.CanServeDistinctPrefix(full + 100));
  EXPECT_EQ(p.DistinctPrefixLength(0), full);
  EXPECT_EQ(p.DistinctPrefixLength(3), 3u);
  EXPECT_EQ(p.DistinctPrefixLength(full + 100), full);

  // Caps are equivalent when they select the same effective prefix:
  // any cap >= full collapses to "all", including 0.
  EXPECT_TRUE(p.CapsEquivalent(0, full + 5));
  EXPECT_TRUE(p.CapsEquivalent(full, 0));
  EXPECT_TRUE(p.CapsEquivalent(3, 3));
  EXPECT_FALSE(p.CapsEquivalent(3, 4));
  EXPECT_FALSE(p.CapsEquivalent(3, 0));

  ProfileSpec truncated;
  truncated.distinct_cap = 4;
  ColumnProfile q = ColumnProfile::Build(col, truncated);
  // A truncated list can only serve caps within what it stored.
  EXPECT_TRUE(q.CanServeDistinctPrefix(4));
  EXPECT_TRUE(q.CanServeDistinctPrefix(2));
  EXPECT_FALSE(q.CanServeDistinctPrefix(5));
  EXPECT_FALSE(q.CanServeDistinctPrefix(0));
}

TEST(ColumnProfileTest, ValueNGramsAreOptIn) {
  Column col = MakeMixedColumn("c", 40);
  ProfileSpec off;
  EXPECT_TRUE(ColumnProfile::Build(col, off).value_ngrams().empty());

  ProfileSpec on;
  on.build_value_ngrams = true;
  ColumnProfile p = ColumnProfile::Build(col, on);
  std::unordered_set<std::string> expected;
  for (const auto& v : col.DistinctStrings()) {
    for (const auto& g : CharNGrams(v, on.ngram_n)) expected.insert(g);
  }
  EXPECT_EQ(p.value_ngrams(), expected);
}

TEST(TableProfileTest, ProfilesEveryColumnAndChecksShape) {
  Table t = MakeTestTable();
  TableProfile tp = TableProfile::Build(t);
  ASSERT_EQ(tp.num_columns(), t.num_columns());
  EXPECT_TRUE(tp.Matches(t));
  EXPECT_EQ(tp.column(0).name_tokens(),
            TokenizeIdentifier(t.column(0).name()));
  EXPECT_EQ(tp.column(1).name_tokens(),
            TokenizeIdentifier(t.column(1).name()));

  Table other("other");
  EXPECT_TRUE(other.AddColumn(MakeMixedColumn("only", 5)).ok());
  EXPECT_FALSE(tp.Matches(other));
}

TEST(TableProfileTest, SpecIsAppliedToBuilds) {
  Table t = MakeTestTable();
  ProfileSpec spec;
  spec.minhash_hashes = 16;
  TableProfile tp = TableProfile::Build(t, spec);
  EXPECT_EQ(tp.spec().minhash_hashes, 16u);
  EXPECT_EQ(tp.column(0).minhash().size(), 16u);
}

}  // namespace
}  // namespace valentine
