// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload read|churn --seed N --seconds S --trace 0|1
//             [--golden PATH] [--write-golden]
//
// Every workload runs both faces of the system in turn, so every run
// reports every metric: first the served half (a seeded lake behind an
// in-process HttpServer; `read` keeps writes off the read phase,
// `churn` runs them alongside it), then the campaign half (the Fig. 1
// pipeline over a fixed suite). The seconds are split between them.
//
// Prints the lake's universe fingerprint and progress on stderr, then
// as its last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones. A failed output check sets "correct" to false and drops every
// metric.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

// Share of --seconds the campaign half measures for; the served half
// gets the rest.
constexpr double kCampaignShare = 0.45;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload read|churn --seed N --seconds S "
               "--trace 0|1 [--golden PATH] [--write-golden]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using valentine::perfbench::BenchArgs;
  using valentine::perfbench::RunResult;
  BenchArgs args;
  args.golden_path = "perfbench/golden/campaign_recall.tsv";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--golden" && has_value) {
      args.golden_path = argv[++i];
    } else if (flag == "--write-golden") {
      args.write_golden = true;
    } else {
      return Usage();
    }
  }
  if (!(args.seconds > 0.0)) return Usage();
  if (args.workload != "read" && args.workload != "churn") return Usage();

  // Artifact stores live in a per-process scratch directory inside the
  // checkout's build directory, removed on exit.
  args.scratch_dir =
      ".bench_build/tmp/perfbench-" + std::to_string(static_cast<long>(getpid()));
  std::filesystem::create_directories(args.scratch_dir);

  RunResult result;
  BenchArgs serve_args = args;
  serve_args.seconds = (1.0 - kCampaignShare) * args.seconds;
  const double serve_setup_s =
      valentine::perfbench::RunServeWorkload(serve_args, &result);
  std::filesystem::remove_all(args.scratch_dir);
  if (result.correct) {
    BenchArgs campaign_args = args;
    campaign_args.seconds = kCampaignShare * args.seconds;
    const double campaign_setup_s =
        valentine::perfbench::RunCampaignWorkload(campaign_args, &result);
    if (!args.trace) {
      // The run's set-up: registering the lake plus fabricating the suite.
      result.Set("setup_s", serve_setup_s + campaign_setup_s, "s");
    }
  }

  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) result.Fail(name + " is not finite");
  }
  if (result.attempted == 0) result.Fail("nothing was attempted");
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  if (!result.correct) {
    // A run whose outputs are wrong reports no timings.
    result.metrics.clear();
  }
  std::printf("%s\n", valentine::perfbench::RenderResultLine(result).c_str());
  return 0;
}
