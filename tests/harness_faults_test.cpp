#include "harness/runner.h"

#include <gtest/gtest.h>

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

std::vector<DatasetPair> SmallSuite(uint64_t seed = 7) {
  Table original = MakeTpcdiProspect(25, seed);
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

MethodFamily Wrapped(const FaultPlan& plan) {
  MethodFamily base = SmallFamily();
  MethodFamily wrapped{base.name, {}};
  for (const ConfiguredMatcher& cm : base.grid) {
    wrapped.grid.push_back(
        {cm.description,
         std::make_shared<FaultInjectingMatcher>(cm.matcher, plan)});
  }
  return wrapped;
}

// Timing is measured on a shared non-advancing FakeClock, so timing
// fields are deterministically zero and outcomes serialize to a
// byte-comparable form without any field scrubbing.
FakeClock& SharedFakeClock() {
  static FakeClock clock;
  return clock;
}

TEST(RetryPolicyTest, RetryableStatusClassification) {
  EXPECT_TRUE(IsRetryableStatus(Status::Internal("x")));
  EXPECT_TRUE(IsRetryableStatus(Status::IOError("x")));
  EXPECT_TRUE(IsRetryableStatus(Status::ResourceExhausted("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::OK()));
  EXPECT_FALSE(IsRetryableStatus(Status::DeadlineExceeded("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::Cancelled("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::ParseError("x")));
}

TEST(RetryPolicyTest, BackoffIsDeterministicBoundedAndGrowing) {
  ExecutionPolicy policy;
  policy.backoff_base_ms = 10.0;
  policy.backoff_max_ms = 100.0;
  policy.backoff_seed = 5;

  // Pure function of (policy, key, attempt).
  EXPECT_EQ(BackoffDelayMs(policy, "k", 1), BackoffDelayMs(policy, "k", 1));
  EXPECT_EQ(BackoffDelayMs(policy, "k", 3), BackoffDelayMs(policy, "k", 3));

  for (size_t attempt = 1; attempt <= 6; ++attempt) {
    double uncapped = 10.0 * static_cast<double>(1 << (attempt - 1));
    double cap = std::min(100.0, uncapped);
    double delay = BackoffDelayMs(policy, "k", attempt);
    // Jitter keeps the delay in [cap/2, cap).
    EXPECT_GE(delay, cap * 0.5) << attempt;
    EXPECT_LT(delay, cap) << attempt;
  }

  // Different keys and seeds de-synchronize retry storms.
  ExecutionPolicy other = policy;
  other.backoff_seed = 6;
  EXPECT_NE(BackoffDelayMs(policy, "k", 1), BackoffDelayMs(other, "k", 1));
  EXPECT_NE(BackoffDelayMs(policy, "k1", 1),
            BackoffDelayMs(policy, "k2", 1));
}

TEST(HarnessFaultsTest, FailTwiceThenSucceedConvergesToFaultFree) {
  std::vector<DatasetPair> suite = SmallSuite();
  std::vector<FamilyPairOutcome> baseline =
      RunFamilyOnSuite(SmallFamily(), suite);

  FaultPlan plan;
  plan.fail_first = 2;
  plan.code = StatusCode::kIOError;
  FamilyRunContext run;
  run.policy.max_attempts = 3;  // exactly enough to absorb two failures
  std::vector<FamilyPairOutcome> faulted =
      RunFamilyOnSuite(Wrapped(plan), suite, run);

  ASSERT_EQ(faulted.size(), baseline.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(faulted[i].best_recall, baseline[i].best_recall) << i;
    EXPECT_EQ(faulted[i].best_config, baseline[i].best_config) << i;
    EXPECT_EQ(faulted[i].failed_runs, 0u);
    // Every configuration burned its two retries.
    EXPECT_EQ(faulted[i].retries, 2u * faulted[i].runs);
    EXPECT_TRUE(faulted[i].failure_counts.empty());
  }
}

TEST(HarnessFaultsTest, RetryBudgetTooSmallQuarantines) {
  std::vector<DatasetPair> suite = SmallSuite();
  FaultPlan plan;
  plan.fail_first = 2;
  FamilyRunContext run;
  run.policy.max_attempts = 2;  // one short of what the plan needs
  std::vector<FamilyPairOutcome> outcomes =
      RunFamilyOnSuite(Wrapped(plan), suite, run);
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.failed_runs, o.runs);
    EXPECT_TRUE(o.best_config.empty());
    EXPECT_EQ(o.best_recall, 0.0);
    ASSERT_EQ(o.failure_counts.size(), 1u);
    EXPECT_EQ(o.failure_counts[0].first, StatusCode::kInternal);
    EXPECT_EQ(o.failure_counts[0].second, o.runs);
  }
}

TEST(HarnessFaultsTest, AlwaysFailingCampaignReportsWithoutAborting) {
  std::vector<DatasetPair> suite = SmallSuite();
  FaultPlan plan;
  plan.always_fail = true;
  CampaignOptions opt;
  opt.num_threads = 2;
  opt.policy.max_attempts = 2;
  CampaignReport report =
      RunCampaignOnSuite(suite, {Wrapped(plan)}, opt);

  ASSERT_EQ(report.families.size(), 1u);
  const CampaignFamilyReport& fr = report.families[0];
  EXPECT_EQ(report.failed_experiments, report.num_experiments);
  EXPECT_EQ(fr.failed_experiments, report.num_experiments);
  EXPECT_EQ(fr.retry_attempts, report.num_experiments);  // 1 retry each
  ASSERT_EQ(fr.failure_taxonomy.size(), 1u);
  EXPECT_EQ(fr.failure_taxonomy[0].first, StatusCode::kInternal);
  EXPECT_EQ(fr.failure_taxonomy[0].second, report.num_experiments);

  // The machine-readable code name reaches the JSON export.
  std::string json = ToJson(report);
  EXPECT_NE(json.find("\"failure_taxonomy\":{\"Internal\":"),
            std::string::npos);
}

TEST(HarnessFaultsTest, TinyBudgetYieldsDeadlineExceededTaxonomy) {
  std::vector<DatasetPair> suite = SmallSuite();
  FamilyRunContext run;
  run.policy.budget_ms = 1e-6;  // expired by the first checkpoint
  std::vector<FamilyPairOutcome> outcomes =
      RunFamilyOnSuite(SmallFamily(), suite, run);
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.failed_runs, o.runs);
    EXPECT_EQ(o.retries, 0u);  // deadline overruns are not retryable
    ASSERT_EQ(o.failure_counts.size(), 1u);
    EXPECT_EQ(o.failure_counts[0].first, StatusCode::kDeadlineExceeded);
  }
}

TEST(HarnessFaultsTest, PreCancelledTokenAbortsEveryExperiment) {
  std::vector<DatasetPair> suite = SmallSuite();
  CancellationToken token;
  token.Cancel();
  FamilyRunContext run;
  run.policy.cancel = &token;
  std::vector<FamilyPairOutcome> outcomes =
      RunFamilyOnSuite(SmallFamily(), suite, run);
  for (const auto& o : outcomes) {
    ASSERT_EQ(o.failure_counts.size(), 1u);
    EXPECT_EQ(o.failure_counts[0].first, StatusCode::kCancelled);
  }
}

TEST(HarnessFaultsTest, BackoffWaitHookObservesDeterministicDelays) {
  std::vector<DatasetPair> suite = SmallSuite();
  FaultPlan plan;
  plan.fail_first = 2;
  auto collect = [](std::vector<double>* sink) {
    FamilyRunContext run;
    run.policy.max_attempts = 3;
    run.policy.backoff_wait = [sink](double ms) { sink->push_back(ms); };
    return run;
  };
  std::vector<double> first_delays;
  std::vector<double> second_delays;
  (void)RunFamilyOnSuite(Wrapped(plan), suite, collect(&first_delays));
  (void)RunFamilyOnSuite(Wrapped(plan), suite, collect(&second_delays));
  ASSERT_FALSE(first_delays.empty());
  EXPECT_EQ(first_delays, second_delays);  // reruns replay the schedule
  for (double d : first_delays) EXPECT_GT(d, 0.0);
}

// Parallel fault handling must stay deterministic: retries, quarantine,
// and the taxonomy may not depend on thread interleaving. On the tsan
// label list so the sanitizer preset soaks the journal/retry paths.
TEST(HarnessFaultsConcurrencyTest, ParallelFaultRunMatchesSequential) {
  std::vector<DatasetPair> suite = SmallSuite();
  FaultPlan plan;
  plan.fail_first = 1;
  plan.fail_probability = 0.25;
  FamilyRunContext run;
  run.policy.max_attempts = 4;
  run.clock = &SharedFakeClock();
  // Fresh decorators per run: attempt counters are per-instance state.
  std::string expected =
      ToJson(RunFamilyOnSuite(Wrapped(plan), suite, run));
  for (size_t threads : {2u, 4u, 8u}) {
    std::string got =
        ToJson(RunFamilyOnSuite(Wrapped(plan), suite, run, threads));
    EXPECT_EQ(got, expected) << threads << " threads";
  }
}

}  // namespace
}  // namespace valentine
