#include "knowledge/thesaurus.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

namespace valentine {
namespace {

TEST(ThesaurusTest, SynonymLookup) {
  Thesaurus t;
  t.AddSynonymSet({"car", "vehicle", "automobile"});
  EXPECT_TRUE(t.AreSynonyms("car", "vehicle"));
  EXPECT_TRUE(t.AreSynonyms("vehicle", "automobile"));
  EXPECT_FALSE(t.AreSynonyms("car", "boat"));
  EXPECT_TRUE(t.AreSynonyms("boat", "boat"));  // identity always true
}

TEST(ThesaurusTest, MergingOverlappingSets) {
  Thesaurus t;
  t.AddSynonymSet({"a", "b"});
  t.AddSynonymSet({"b", "c"});
  EXPECT_TRUE(t.AreSynonyms("a", "c"));
  EXPECT_EQ(t.num_synonym_sets(), 1u);
}

TEST(ThesaurusTest, AbbreviationExpansion) {
  Thesaurus t;
  t.AddAbbreviation("addr", "address");
  EXPECT_EQ(t.Expand("addr"), "address");
  EXPECT_EQ(t.Expand("unknown"), "unknown");
}

TEST(ThesaurusTest, HypernymRelatedness) {
  Thesaurus t;
  t.AddSynonymSet({"address", "location"});
  t.AddHypernym("city", "address");
  t.AddHypernym("zip", "address");
  EXPECT_DOUBLE_EQ(t.Relatedness("city", "address"), 0.8);
  EXPECT_DOUBLE_EQ(t.Relatedness("city", "location"), 0.8);  // via synonym
  EXPECT_DOUBLE_EQ(t.Relatedness("city", "zip"), 0.8);  // shared parent
  EXPECT_DOUBLE_EQ(t.Relatedness("city", "banana"), 0.0);
}

TEST(ThesaurusTest, SynonymRelatednessIsOne) {
  Thesaurus t;
  t.AddSynonymSet({"income", "salary"});
  EXPECT_DOUBLE_EQ(t.Relatedness("income", "salary"), 1.0);
  EXPECT_DOUBLE_EQ(t.Relatedness("income", "income"), 1.0);
}

TEST(ThesaurusTest, SynonymsListIncludesSelf) {
  Thesaurus t;
  t.AddSynonymSet({"x", "y"});
  auto syns = t.Synonyms("x");
  EXPECT_EQ(syns.size(), 2u);
  EXPECT_TRUE(t.Synonyms("nope").empty());
}

TEST(DefaultThesaurusTest, CoversCoreSchemaVocabulary) {
  const Thesaurus& t = Thesaurus::Default();
  EXPECT_TRUE(t.AreSynonyms("client", "customer"));
  EXPECT_TRUE(t.AreSynonyms("income", "salary"));
  EXPECT_TRUE(t.AreSynonyms("phone", "telephone"));
  EXPECT_TRUE(t.AreSynonyms("spouse", "partner"));
  EXPECT_TRUE(t.AreSynonyms("gender", "sex"));
  EXPECT_EQ(t.Expand("dob"), "birthdate");
  EXPECT_EQ(t.Expand("cntr"), "country");
  EXPECT_GT(t.Relatedness("city", "address"), 0.5);
}

TEST(DefaultThesaurusTest, CaseNormalizedStorage) {
  // Default() registers words lowercase; lookups are raw tokens, which
  // the matchers lowercase during tokenization.
  const Thesaurus& t = Thesaurus::Default();
  EXPECT_TRUE(t.AreSynonyms("country", "nation"));
}

// Every mutator must drop the memoized fingerprint: a thesaurus whose
// fingerprint is read after each step ends equal to one built without a
// single read, and every step yields a new fingerprint on the way.
TEST(ThesaurusFingerprintTest, MemoMatchesFreshlyBuiltCopy) {
  const std::vector<std::function<void(Thesaurus*)>> steps = {
      [](Thesaurus* t) { t->AddSynonymSet({"car", "vehicle"}); },
      [](Thesaurus* t) { t->AddSynonymSet({"vehicle", "automobile"}); },
      [](Thesaurus* t) { t->AddHypernym("car", "machine"); },
      [](Thesaurus* t) { t->AddAbbreviation("veh", "vehicle"); },
      [](Thesaurus* t) { t->AddAbbreviation("veh", "vehicles"); },
  };
  Thesaurus observed;
  std::set<uint64_t> seen = {observed.Fingerprint()};
  for (const auto& step : steps) {
    step(&observed);
    EXPECT_TRUE(seen.insert(observed.Fingerprint()).second)
        << "a mutation left the fingerprint unchanged";
  }
  Thesaurus fresh;
  for (const auto& step : steps) step(&fresh);
  EXPECT_EQ(observed.Fingerprint(), fresh.Fingerprint());

  Thesaurus copy = observed;
  EXPECT_EQ(copy.Fingerprint(), observed.Fingerprint());
  copy.AddAbbreviation("auto", "automobile");
  EXPECT_NE(copy.Fingerprint(), observed.Fingerprint());
}

// Relatedness over resolved terms against the rule spelled out with
// AreSynonyms and a test-side hypernym map, over every word pair.
TEST(ThesaurusTermTest, ResolvedRelatednessMatchesRule) {
  Thesaurus t;
  t.AddSynonymSet({"address", "location"});
  t.AddSynonymSet({"income", "salary", "wage"});
  t.AddSynonymSet({"person", "human"});
  const std::map<std::string, std::string> parents = {
      {"city", "address"}, {"zip", "location"}, {"bonus", "income"},
      {"wage", "pay"},     {"singer", "person"}, {"actor", "human"},
      {"pay", "money"}};
  for (const auto& [word, parent] : parents) t.AddHypernym(word, parent);

  auto rule = [&](const std::string& a, const std::string& b) {
    if (t.AreSynonyms(a, b)) return 1.0;
    auto pa = parents.find(a);
    auto pb = parents.find(b);
    if (pa != parents.end() && t.AreSynonyms(pa->second, b)) return 0.8;
    if (pb != parents.end() && t.AreSynonyms(a, pb->second)) return 0.8;
    if (pa != parents.end() && pb != parents.end() &&
        t.AreSynonyms(pa->second, pb->second)) {
      return 0.8;
    }
    return 0.0;
  };
  const std::vector<std::string> words = {
      "address", "location", "income", "salary", "wage",  "person",
      "human",   "city",     "zip",    "bonus",  "pay",   "singer",
      "actor",   "money",    "banana", "",       "Address"};
  for (const std::string& a : words) {
    for (const std::string& b : words) {
      const double want = rule(a, b);
      EXPECT_EQ(t.Relatedness(a, b), want) << a << " / " << b;
      EXPECT_EQ(Thesaurus::Relatedness(t.Resolve(a), t.Resolve(b)), want)
          << a << " / " << b;
    }
  }
}

}  // namespace
}  // namespace valentine
