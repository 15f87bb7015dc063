#ifndef VALENTINE_PERFBENCH_WORKLOADS_H_
#define VALENTINE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace valentine {
namespace perfbench {

struct BenchArgs {
  /// `read` or `churn`: how the served half writes to the registry.
  std::string workload;
  uint64_t seed = 1;
  /// Measuring time of the half being run.
  double seconds = 15.0;
  /// Per-layer run: attach the Tracer/ServeTelemetry and report the
  /// per_layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Scratch directory for artifact stores (inside the checkout).
  std::string scratch_dir;
  /// Campaign recall golden; rewritten instead of checked when
  /// `write_golden` is set.
  std::string golden_path;
  bool write_golden = false;
};

/// The served half: an in-process HttpServer over loopback driven by
/// the open-loop generator. Returns the median lake set-up seconds (0 in
/// a traced run).
double RunServeWorkload(const BenchArgs& args, RunResult* result);

/// The campaign half: the Fig. 1 pipeline, one RunCampaignOnSuite call
/// per family. Returns the median suite set-up seconds (0 in a traced
/// run).
double RunCampaignWorkload(const BenchArgs& args, RunResult* result);

}  // namespace perfbench
}  // namespace valentine

#endif  // VALENTINE_PERFBENCH_WORKLOADS_H_
