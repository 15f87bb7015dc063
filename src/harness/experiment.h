#ifndef VALENTINE_HARNESS_EXPERIMENT_H_
#define VALENTINE_HARNESS_EXPERIMENT_H_

/// \file experiment.h
/// A single experiment = one configured matcher applied to one dataset
/// pair, yielding the ranked matches, the Recall@|GT| score, and the
/// wall-clock runtime (paper Fig. 1's innermost box).

#include <string>

#include "fabrication/fabricator.h"
#include "matchers/matcher.h"

namespace valentine {

/// Outcome of one (matcher, pair) run.
struct ExperimentResult {
  std::string pair_id;
  Scenario scenario = Scenario::kUnionable;
  std::string method;
  std::string config;
  double recall_at_gt = 0.0;
  double map = 0.0;          ///< mean average precision (extra diagnostics)
  double runtime_ms = 0.0;
  size_t ground_truth_size = 0;
  /// Final status of the run: kOk for a scored experiment, otherwise
  /// the terminal failure code (recall/map are 0 in that case).
  StatusCode code = StatusCode::kOk;
  std::string error;
  /// Attempts consumed (1 without retries; retry loops accumulate).
  size_t attempts = 1;
};

/// Runs one matcher configuration on one pair and scores it. The
/// context's deadline/token is threaded into the matcher; a
/// kDeadlineExceeded / kCancelled abort is reported via `code` + `error`
/// instead of a score, and runtime_ms still measures the (partial)
/// wall-clock spent. When both table artifacts are non-null the
/// matcher's Score stage runs against them and the nullable pair
/// artifact (the harness's artifact-cache fast path); otherwise the
/// matcher runs monolithically. Results are byte-identical either way —
/// only runtime_ms (which excludes prepare work on the fast path) may
/// differ.
ExperimentResult RunExperiment(const ColumnMatcher& matcher,
                               const std::string& config,
                               const DatasetPair& pair,
                               const MatchContext& context = {},
                               const PreparedTable* prepared_source = nullptr,
                               const PreparedTable* prepared_target = nullptr,
                               const PreparedPair* prepared_pair = nullptr);

}  // namespace valentine

#endif  // VALENTINE_HARNESS_EXPERIMENT_H_
