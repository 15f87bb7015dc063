#ifndef VALENTINE_HARNESS_JSON_EXPORT_H_
#define VALENTINE_HARNESS_JSON_EXPORT_H_

/// \file json_export.h
/// JSON serialization of experiment outputs, so downstream analysis
/// (notebooks, dashboards) can consume suite runs — the original suite
/// ships its "detailed experimental results" as files in its repo; this
/// is the equivalent export path.

#include <string>
#include <vector>

#include "harness/campaign.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "matchers/match_result.h"
#include "obs/export.h"  // JsonEscape

namespace valentine {

/// One experiment result as a JSON object.
std::string ToJson(const ExperimentResult& result);

/// A batch of experiment results as a JSON array.
std::string ToJson(const std::vector<ExperimentResult>& results);

/// A ranked match list as a JSON array of {source, target, score}.
std::string ToJson(const MatchResult& result);

/// Best-of-grid outcomes as a JSON array.
std::string ToJson(const std::vector<FamilyPairOutcome>& outcomes);

/// One family's campaign aggregate (scenario stats, failure taxonomy,
/// outcomes) as a JSON object.
std::string ToJson(const CampaignFamilyReport& report);

/// A full campaign report as one JSON object. Under an injected
/// FakeClock (CampaignOptions::clock) a resumed campaign serializes
/// byte-identically to an uninterrupted one — the crash-resume
/// determinism contract, with no post-hoc field scrubbing.
std::string ToJson(const CampaignReport& report);

}  // namespace valentine

#endif  // VALENTINE_HARNESS_JSON_EXPORT_H_
