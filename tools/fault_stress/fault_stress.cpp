// Fault-injection soak driver for the fault-tolerant harness.
//
// Crosses a matrix of deterministic fault plans (fail-N-then-succeed,
// probabilistic, hang, always-fail) with a sweep of thread counts and
// asserts three contracts on every cell:
//
//   1. determinism — the parallel run's canonical report is
//      byte-identical to the sequential run under the same plan;
//   2. convergence — recoverable plans (failures < retry budget) end
//      with the same best recalls and best configs as a fault-free run;
//   3. containment — the always-fail plan completes without aborting,
//      quarantining every configuration into the failure taxonomy.
//
// Built for soaking under ThreadSanitizer:
//
//   cmake --preset tsan && cmake --build --preset tsan --target fault_stress
//   TSAN_OPTIONS=halt_on_error=1 ./build/tsan/tools/fault_stress/fault_stress
//
// Exits 0 when every contract held, 1 otherwise.
//
// Usage: fault_stress [--rows N] [--repeats N] [--max-threads N]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "datasets/tpcdi.h"
#include "harness/json_export.h"
#include "harness/runner.h"
#include "matchers/fault_injection.h"

namespace valentine {
namespace {

struct StressOptions {
  size_t rows = 30;
  int repeats = 2;
  size_t max_threads = 8;
};

struct PlanCase {
  std::string name;
  FaultPlan plan;
  bool recoverable = false;  ///< retries must fully mask the faults
  bool terminal = false;     ///< every experiment must end failed
};

std::vector<PlanCase> PlanMatrix() {
  std::vector<PlanCase> cases;
  cases.push_back({"baseline", FaultPlan{}, true, false});
  {
    FaultPlan p;
    p.fail_first = 1;
    cases.push_back({"fail-1-then-succeed", p, true, false});
  }
  {
    FaultPlan p;
    p.fail_first = 2;
    p.code = StatusCode::kIOError;
    cases.push_back({"fail-2-then-succeed", p, true, false});
  }
  {
    FaultPlan p;
    p.fail_probability = 0.3;
    p.seed = 1234;
    cases.push_back({"probabilistic-0.3", p, false, false});
  }
  {
    FaultPlan p;
    p.hang_ms = 2.0;
    cases.push_back({"hang-2ms", p, true, false});
  }
  {
    FaultPlan p;
    p.always_fail = true;
    cases.push_back({"always-fail", p, false, true});
  }
  return cases;
}

/// A small, fast family with every matcher wrapped in a fresh
/// fault-injecting decorator (fresh per run: the decorators carry
/// per-experiment attempt counters).
MethodFamily WrappedFamily(const FaultPlan& plan) {
  MethodFamily base = JaccardLevenshteinFamily();
  if (base.grid.size() > 3) base.grid.resize(3);
  MethodFamily wrapped{base.name, {}};
  for (const ConfiguredMatcher& cm : base.grid) {
    wrapped.grid.push_back(
        {cm.description,
         std::make_shared<FaultInjectingMatcher>(cm.matcher, plan)});
  }
  return wrapped;
}

std::string CanonicalJson(std::vector<FamilyPairOutcome> outcomes) {
  // Wall-clock runtime is the one field allowed to vary run-to-run.
  for (auto& o : outcomes) o.total_ms = 0.0;
  return ToJson(outcomes);
}

int RunStress(const StressOptions& opt) {
  Table original = MakeTpcdiProspect(opt.rows, 99);
  PairSuiteOptions suite_opt;
  suite_opt.row_overlaps = {0.5};
  suite_opt.column_overlaps = {0.5};
  suite_opt.instance_noise_variants = false;
  std::vector<DatasetPair> suite = BuildFabricatedSuite(original, suite_opt);
  std::printf("suite: %zu pairs fabricated from %zu-row table\n",
              suite.size(), opt.rows);

  FamilyRunContext run;
  run.policy.max_attempts = 4;
  run.policy.budget_ms = 0.0;

  // Fault-free reference for the convergence contract.
  std::vector<FamilyPairOutcome> reference =
      RunFamilyOnSuite(WrappedFamily(FaultPlan{}), suite, run);

  int violations = 0;
  size_t runs = 0;
  for (const PlanCase& pc : PlanMatrix()) {
    std::string expected =
        CanonicalJson(RunFamilyOnSuite(WrappedFamily(pc.plan), suite, run));

    // Contract 1: parallel == sequential for every thread count.
    for (size_t threads = 2; threads <= opt.max_threads; threads *= 2) {
      for (int repeat = 0; repeat < opt.repeats; ++repeat) {
        std::string got = CanonicalJson(
            RunFamilyOnSuite(WrappedFamily(pc.plan), suite, run, threads));
        ++runs;
        if (got != expected) {
          ++violations;
          std::fprintf(stderr,
                       "FAIL %s: %zu threads repeat %d diverged from "
                       "sequential\n",
                       pc.name.c_str(), threads, repeat);
        }
      }
    }

    // Contracts 2 + 3 on the sequential outcomes.
    std::vector<FamilyPairOutcome> outcomes =
        RunFamilyOnSuite(WrappedFamily(pc.plan), suite, run);
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (pc.recoverable &&
          (outcomes[i].best_recall != reference[i].best_recall ||
           outcomes[i].best_config != reference[i].best_config)) {
        ++violations;
        std::fprintf(stderr,
                     "FAIL %s: pair %s best (%g, %s) != fault-free "
                     "(%g, %s)\n",
                     pc.name.c_str(), outcomes[i].pair_id.c_str(),
                     outcomes[i].best_recall,
                     outcomes[i].best_config.c_str(),
                     reference[i].best_recall,
                     reference[i].best_config.c_str());
      }
      if (pc.terminal &&
          (outcomes[i].failed_runs != outcomes[i].runs ||
           !outcomes[i].best_config.empty())) {
        ++violations;
        std::fprintf(stderr, "FAIL %s: pair %s not fully quarantined\n",
                     pc.name.c_str(), outcomes[i].pair_id.c_str());
      }
    }
    std::printf("%-22s %s\n", pc.name.c_str(),
                violations == 0 ? "ok" : "VIOLATED");
  }
  std::printf("%zu parallel runs, %d contract violations\n", runs,
              violations);
  return violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace valentine

int main(int argc, char** argv) {
  valentine::StressOptions opt;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--rows") == 0) {
      opt.rows = std::strtoull(next("--rows"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--repeats") == 0) {
      opt.repeats = std::atoi(next("--repeats"));
    } else if (std::strcmp(argv[i], "--max-threads") == 0) {
      opt.max_threads = std::strtoull(next("--max-threads"), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: fault_stress [--rows N] [--repeats N] "
                   "[--max-threads N]\n");
      return 2;
    }
  }
  if (opt.rows == 0 || opt.repeats <= 0 || opt.max_threads < 2) {
    std::fprintf(stderr, "invalid stress options\n");
    return 2;
  }
  return valentine::RunStress(opt);
}
