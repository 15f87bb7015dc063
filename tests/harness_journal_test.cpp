#include "harness/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "datasets/tpcdi.h"
#include "harness/campaign.h"
#include "harness/json_export.h"
#include "matchers/fault_injection.h"
#include "obs/clock.h"

namespace valentine {
namespace {

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "valentine_journal_" + name;
  std::remove(path.c_str());
  return path;
}

JournalEntry SampleEntry() {
  JournalEntry e;
  e.family = "Fuzzy\"Family";  // embedded quote must survive escaping
  e.pair_id = "prospect_r50\x1f" "c50";
  e.config = "q=2\nlev";  // embedded newline must be escaped, not split
  e.code = StatusCode::kIOError;
  e.error = "disk \\ backslash";
  e.recall_at_gt = 1.0 / 3.0;  // needs all 17 significant digits
  e.map = 0.7071067811865476;
  e.runtime_ms = 12.25;
  e.attempts = 3;
  return e;
}

TEST(JournalEntryTest, SerializeParseRoundTripsExactly) {
  JournalEntry e = SampleEntry();
  std::string line = SerializeJournalEntry(e);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one entry, one line
  auto parsed = ParseJournalEntry(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->family, e.family);
  EXPECT_EQ(parsed->pair_id, e.pair_id);
  EXPECT_EQ(parsed->config, e.config);
  EXPECT_EQ(parsed->code, e.code);
  EXPECT_EQ(parsed->error, e.error);
  // Bit-exact doubles: resumed tie-breaks must match the original run.
  EXPECT_EQ(parsed->recall_at_gt, e.recall_at_gt);
  EXPECT_EQ(parsed->map, e.map);
  EXPECT_EQ(parsed->runtime_ms, e.runtime_ms);
  EXPECT_EQ(parsed->attempts, e.attempts);
}

// The line format is fixed: journals written by earlier builds replay
// in later ones and vice versa.
TEST(JournalEntryTest, SerializedLineIsPinned) {
  EXPECT_EQ(SerializeJournalEntry(SampleEntry()),
            "{\"family\":\"Fuzzy\\\"Family\","
            "\"pair_id\":\"prospect_r50\\u001fc50\","
            "\"config\":\"q=2\\nlev\",\"code\":\"IOError\","
            "\"error\":\"disk \\\\ backslash\","
            "\"recall_at_gt\":0.33333333333333331,"
            "\"map\":0.70710678118654757,\"runtime_ms\":12.25,"
            "\"attempts\":3}");
}

TEST(JournalEntryTest, OkEntryRoundTrips) {
  JournalEntry e;
  e.family = "Coma";
  e.pair_id = "p";
  e.config = "c";
  e.recall_at_gt = 1.0;
  std::string line = SerializeJournalEntry(e);
  auto parsed = ParseJournalEntry(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->code, StatusCode::kOk);
  EXPECT_TRUE(parsed->error.empty());
  EXPECT_EQ(parsed->recall_at_gt, 1.0);
}

TEST(JournalEntryTest, TornLinesAreRejected) {
  std::string line = SerializeJournalEntry(SampleEntry());
  // A SIGKILLed writer leaves an arbitrary prefix; every strict prefix
  // must parse as "malformed", never as a truncated-but-plausible entry.
  for (size_t len = 0; len < line.size(); ++len) {
    EXPECT_FALSE(ParseJournalEntry(line.substr(0, len)).has_value()) << len;
  }
  EXPECT_FALSE(ParseJournalEntry("not json at all").has_value());
  EXPECT_FALSE(ParseJournalEntry("{\"family\":\"x\"}").has_value());
  // An attempts count the writer can never produce: below one,
  // fractional, not a number, or past what a double holds exactly.
  const std::string good = "\"attempts\":3}";
  ASSERT_EQ(line.substr(line.size() - good.size()), good);
  const std::string head = line.substr(0, line.size() - good.size());
  for (const char* attempts :
       {"0", "-1", "0.5", "2.5", "nan", "inf", "9007199254740994",
        "18446744073709551615", "18446744073709551616", "1e300"}) {
    EXPECT_FALSE(ParseJournalEntry(head + "\"attempts\":" + attempts + "}")
                     .has_value())
        << attempts;
  }
  for (const char* attempts : {"1", "1.0", "9007199254740992"}) {
    auto parsed = ParseJournalEntry(head + "\"attempts\":" + attempts + "}");
    ASSERT_TRUE(parsed.has_value()) << attempts;
    EXPECT_EQ(parsed->attempts, static_cast<size_t>(std::stod(attempts)));
  }
}

TEST(JournalIndexTest, MissingFileLoadsEmpty) {
  auto index = JournalIndex::Load(TempPath("missing.jsonl"));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->size(), 0u);
  EXPECT_EQ(index->Find("f", "p", "c"), nullptr);
}

TEST(JournalIndexTest, AppendThenLoadFindsEntries) {
  std::string path = TempPath("append.jsonl");
  {
    OutcomeJournal journal(path);
    ASSERT_TRUE(journal.status().ok());
    JournalEntry e = SampleEntry();
    journal.Append(e);
    e.config = "other";
    e.recall_at_gt = 0.25;
    journal.Append(e);
    EXPECT_TRUE(journal.status().ok());
  }
  auto index = JournalIndex::Load(path);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->size(), 2u);
  JournalEntry e = SampleEntry();
  const JournalEntry* found = index->Find(e.family, e.pair_id, e.config);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->recall_at_gt, e.recall_at_gt);
  EXPECT_EQ(found->attempts, 3u);
  EXPECT_NE(index->Find(e.family, e.pair_id, "other"), nullptr);
  EXPECT_EQ(index->Find(e.family, e.pair_id, "nope"), nullptr);
  std::remove(path.c_str());
}

TEST(JournalIndexTest, TornFinalLineIsTolerated) {
  std::string path = TempPath("torn.jsonl");
  JournalEntry e = SampleEntry();
  std::string full = SerializeJournalEntry(e);
  {
    std::ofstream out(path);
    out << full << "\n";
    out << full.substr(0, full.size() / 2);  // the killed process's line
  }
  auto index = JournalIndex::Load(path);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->size(), 1u);
  EXPECT_NE(index->Find(e.family, e.pair_id, e.config), nullptr);
  std::remove(path.c_str());
}

// Appending after a killed writer's torn line: the fragment is cut, so
// the new entry gets a line of its own and replays.
TEST(JournalIndexTest, AppendAfterTornLineReplays) {
  std::string path = TempPath("torn_append.jsonl");
  JournalEntry e = SampleEntry();
  std::string full = SerializeJournalEntry(e);
  {
    std::ofstream out(path);
    out << full << "\n";
    out << full.substr(0, full.size() / 2);
  }
  {
    OutcomeJournal journal(path);
    e.config = "after_crash";
    journal.Append(e);
    EXPECT_TRUE(journal.status().ok());
  }
  auto index = JournalIndex::Load(path);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->size(), 2u);
  EXPECT_NE(index->Find(e.family, e.pair_id, "after_crash"), nullptr);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, full + "\n" + SerializeJournalEntry(e) + "\n");
  std::remove(path.c_str());
}

TEST(JournalIndexTest, LaterDuplicateWins) {
  std::string path = TempPath("dup.jsonl");
  JournalEntry e = SampleEntry();
  {
    OutcomeJournal journal(path);
    journal.Append(e);
    e.recall_at_gt = 0.875;
    e.code = StatusCode::kOk;
    e.error.clear();
    journal.Append(e);
  }
  auto index = JournalIndex::Load(path);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->size(), 1u);
  const JournalEntry* found = index->Find(e.family, e.pair_id, e.config);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->recall_at_gt, 0.875);
  EXPECT_EQ(found->code, StatusCode::kOk);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Campaign-level resume semantics.

std::vector<DatasetPair> SmallSuite() {
  Table original = MakeTpcdiProspect(25, 99);
  PairSuiteOptions opt;
  opt.row_overlaps = {0.5};
  opt.column_overlaps = {0.5};
  opt.schema_noise_variants = false;
  opt.instance_noise_variants = false;
  return BuildFabricatedSuite(original, opt);
}

MethodFamily SmallFamily() {
  MethodFamily family = JaccardLevenshteinFamily();
  family.grid.resize(2);
  return family;
}

// Campaigns here run under a shared non-advancing FakeClock
// (CampaignOptions::clock), so timing fields — including the journaled
// runtime a resume replays — are deterministically zero and reports are
// compared unmodified. Replayed triples never reach Prepare, so
// artifact-cache counters legitimately differ between fresh and resumed
// campaigns; those live on the MetricsRegistry, not the report.
FakeClock& SharedFakeClock() {
  static FakeClock clock;
  return clock;
}

CampaignOptions ClockedOptions() {
  CampaignOptions opt;
  opt.clock = &SharedFakeClock();
  return opt;
}

MethodFamily AlwaysFailing(const MethodFamily& base) {
  FaultPlan plan;
  plan.always_fail = true;
  plan.message = "must never execute";
  MethodFamily wrapped{base.name, {}};
  for (const ConfiguredMatcher& cm : base.grid) {
    wrapped.grid.push_back(
        {cm.description,
         std::make_shared<FaultInjectingMatcher>(cm.matcher, plan)});
  }
  return wrapped;
}

TEST(CampaignResumeTest, CompleteJournalReplaysWithoutExecuting) {
  std::vector<DatasetPair> suite = SmallSuite();
  CampaignOptions opt = ClockedOptions();
  opt.num_threads = 2;
  opt.journal_path = TempPath("replay.jsonl");

  CampaignReport fresh = RunCampaignOnSuite(suite, {SmallFamily()}, opt);
  EXPECT_EQ(fresh.failed_experiments, 0u);

  // Same options, same journal — but every matcher now always fails. A
  // byte-identical report proves the rerun replayed the journal and
  // never invoked a matcher.
  CampaignReport resumed =
      RunCampaignOnSuite(suite, {AlwaysFailing(SmallFamily())}, opt);
  EXPECT_EQ(ToJson(resumed), ToJson(fresh));
  std::remove(opt.journal_path.c_str());
}

TEST(CampaignResumeTest, PartialJournalResumesToIdenticalReport) {
  std::vector<DatasetPair> suite = SmallSuite();
  CampaignOptions opt = ClockedOptions();
  opt.num_threads = 1;  // deterministic journal line order for truncation
  opt.journal_path = TempPath("partial_full.jsonl");
  CampaignReport fresh = RunCampaignOnSuite(suite, {SmallFamily()}, opt);
  std::string expected = ToJson(fresh);

  // Keep only the first half of the journal, plus a torn final line —
  // the on-disk state after a mid-campaign SIGKILL.
  std::vector<std::string> lines;
  {
    std::ifstream in(opt.journal_path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 2u);
  CampaignOptions resume_opt = opt;
  resume_opt.journal_path = TempPath("partial_cut.jsonl");
  {
    std::ofstream out(resume_opt.journal_path);
    for (size_t i = 0; i < lines.size() / 2; ++i) out << lines[i] << "\n";
    out << lines[lines.size() / 2].substr(0, 10);  // torn
  }

  CampaignReport resumed =
      RunCampaignOnSuite(suite, {SmallFamily()}, resume_opt);
  EXPECT_EQ(ToJson(resumed), expected);

  // The resumed journal is now itself complete: a third run replays it.
  CampaignReport replayed =
      RunCampaignOnSuite(suite, {AlwaysFailing(SmallFamily())}, resume_opt);
  EXPECT_EQ(ToJson(replayed), expected);
  std::remove(opt.journal_path.c_str());
  std::remove(resume_opt.journal_path.c_str());
}

// A journal line whose attempts count no run could have written ends
// the replayable prefix like a torn line: its experiment runs again
// instead of replaying a retry count of SIZE_MAX.
TEST(CampaignResumeTest, ImpossibleAttemptsAreNeverReplayed) {
  std::vector<DatasetPair> suite = SmallSuite();
  CampaignOptions opt = ClockedOptions();
  opt.journal_path = TempPath("attempts_full.jsonl");
  CampaignReport fresh = RunCampaignOnSuite(suite, {SmallFamily()}, opt);
  ASSERT_EQ(fresh.failed_experiments, 0u);

  std::vector<std::string> lines;
  {
    std::ifstream in(opt.journal_path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), fresh.num_experiments);
  const std::string one = "\"attempts\":1}";
  ASSERT_EQ(lines.back().substr(lines.back().size() - one.size()), one);
  for (const char* attempts : {"0", "-1"}) {
    CampaignOptions resume_opt = opt;
    resume_opt.journal_path = TempPath("attempts_bad.jsonl");
    {
      std::ofstream out(resume_opt.journal_path);
      for (size_t i = 0; i + 1 < lines.size(); ++i) out << lines[i] << "\n";
      out << lines.back().substr(0, lines.back().size() - one.size())
          << "\"attempts\":" << attempts << "}\n";
    }
    // Every other line replays; the bad one runs, and always fails.
    CampaignReport resumed = RunCampaignOnSuite(
        suite, {AlwaysFailing(SmallFamily())}, resume_opt);
    ASSERT_EQ(resumed.families.size(), 1u) << attempts;
    EXPECT_EQ(resumed.failed_experiments, 1u) << attempts;
    EXPECT_EQ(resumed.families[0].retry_attempts, 0u) << attempts;
    std::remove(resume_opt.journal_path.c_str());
  }
  std::remove(opt.journal_path.c_str());
}

TEST(CampaignResumeTest, QuarantinedFailuresAreNotReAttempted) {
  std::vector<DatasetPair> suite = SmallSuite();
  FaultPlan plan;
  plan.always_fail = true;
  CampaignOptions opt = ClockedOptions();
  opt.num_threads = 2;
  opt.policy.max_attempts = 2;
  opt.journal_path = TempPath("quarantine.jsonl");

  CampaignReport first =
      RunCampaignOnSuite(suite, {AlwaysFailing(SmallFamily())}, opt);
  EXPECT_EQ(first.failed_experiments, first.num_experiments);

  // Resume replays the quarantine records: identical taxonomy, and the
  // retry counter proves no new attempts were spent.
  CampaignReport resumed =
      RunCampaignOnSuite(suite, {AlwaysFailing(SmallFamily())}, opt);
  EXPECT_EQ(ToJson(resumed), ToJson(first));
  ASSERT_EQ(resumed.families.size(), 1u);
  EXPECT_EQ(resumed.families[0].retry_attempts,
            first.families[0].retry_attempts);
  std::remove(opt.journal_path.c_str());
}

}  // namespace
}  // namespace valentine
