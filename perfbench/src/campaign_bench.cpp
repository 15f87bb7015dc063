// The campaign half of every workload: the paper's Fig. 1 pipeline —
// sources → fabricated pair suite → every configuration of a method
// family on every pair → per-scenario recall — as one RunCampaignOnSuite
// call per family, the wall time of each call being Table IV's quantity.
//
// The suite is fixed (its recall summary is pinned by a golden file);
// the seed only orders the families within each round, so no family is
// always measured first or last.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "datasets/chembl.h"
#include "datasets/opendata.h"
#include "datasets/tpcdi.h"
#include "harness/campaign.h"
#include "harness/param_grid.h"
#include "lake.h"
#include "matchers/coma.h"
#include "matchers/similarity_flooding.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace valentine {
namespace perfbench {

namespace {

constexpr size_t kRows = 60;      // rows per source table
constexpr size_t kThreads = 4;    // the campaign's fixed thread count
constexpr int kSetupRepeats = 21;  // set-up is short; take a steadier median

struct BenchFamily {
  std::string metric;  // family_s.<metric>
  MethodFamily family;
};

// Grids sized so each family costs the same order of time on this suite
// (none dominates the round): Cupid and Jaccard-Levenshtein are thinned,
// the one-configuration families are widened along their real knobs.
std::vector<BenchFamily> BenchFamilies() {
  std::vector<BenchFamily> out;
  MethodFamily cupid = CupidFamily();
  MethodFamily thin{cupid.name, {}};
  for (size_t i = 0; i < cupid.grid.size(); i += 6) {
    thin.grid.push_back(cupid.grid[i]);
  }
  out.push_back({"Cupid", thin});

  MethodFamily sf{"SimilarityFlooding", {}};
  for (SfFormula formula : {SfFormula::kBasic, SfFormula::kA, SfFormula::kB,
                            SfFormula::kC}) {
    for (SfFilter filter : {SfFilter::kNone, SfFilter::kStableMarriage}) {
      SimilarityFloodingOptions opt;
      opt.formula = formula;
      opt.filter = filter;
      sf.grid.push_back(
          {"formula=" + std::to_string(static_cast<int>(formula)) +
               " filter=" + std::to_string(static_cast<int>(filter)),
           std::make_shared<SimilarityFloodingMatcher>(opt)});
    }
  }
  out.push_back({"SimilarityFlooding", sf});

  for (ComaStrategy strategy : {ComaStrategy::kSchema, ComaStrategy::kInstances}) {
    const bool schema = strategy == ComaStrategy::kSchema;
    MethodFamily coma{schema ? "COMA-Schema" : "COMA-Instances", {}};
    for (ComaAggregation agg :
         {ComaAggregation::kMax, ComaAggregation::kAverage,
          ComaAggregation::kWeighted}) {
      ComaOptions opt;
      opt.strategy = strategy;
      opt.aggregation = agg;
      coma.grid.push_back({"aggregation=" + std::to_string(static_cast<int>(agg)),
                           std::make_shared<ComaMatcher>(opt)});
    }
    out.push_back({schema ? "ComaSchema" : "ComaInstances", coma});
  }

  out.push_back({"Distribution", DistributionFamily1()});

  MethodFamily jl = JaccardLevenshteinFamily();
  out.push_back({"JaccardLevenshtein", MethodFamily{jl.name, {jl.grid[2]}}});
  return out;
}

std::vector<DatasetPair> BuildSuite() {
  std::vector<Table> sources = {MakeTpcdiProspect(kRows, 2026),
                                MakeOpenDataTable(kRows, 4711),
                                MakeChemblAssays(kRows, 99)};
  PairSuiteOptions options;
  options.row_overlaps = {0.5};
  options.column_overlaps = {0.5};
  std::vector<DatasetPair> suite;
  uint64_t seed = 1;
  for (const Table& source : sources) {
    options.seed = seed;
    seed += 1000;
    for (DatasetPair& pair : BuildFabricatedSuite(source, options)) {
      suite.push_back(std::move(pair));
    }
  }
  return suite;
}

// The recall summary per family x scenario, at full precision.
std::string RecallSummary(const CampaignFamilyReport& report) {
  std::string out;
  char buf[256];
  for (const ScenarioStats& s : report.by_scenario) {
    std::snprintf(buf, sizeof(buf), "%s\t%s\t%.17g\t%.17g\t%.17g\t%.17g\t%zu\n",
                  report.family.c_str(), ScenarioName(s.scenario),
                  s.recall.min, s.recall.median, s.recall.max, s.recall.mean,
                  s.recall.count);
    out += buf;
  }
  return out;
}

struct FamilyRun {
  double wall_s = 0.0;
  std::string summary;
  size_t experiments = 0;
  size_t failed = 0;
};

FamilyRun RunFamily(const std::vector<DatasetPair>& suite,
                    const MethodFamily& family, Tracer* tracer,
                    MetricsRegistry* metrics) {
  CampaignOptions options;
  options.num_threads = kThreads;
  options.tracer = tracer;
  options.metrics = metrics;
  FamilyRun run;
  const int64_t t0 = NowNs();
  const CampaignReport report = RunCampaignOnSuite(suite, {family}, options);
  run.wall_s = NsToMs(NowNs() - t0) / 1e3;
  run.experiments = report.num_experiments;
  run.failed = report.failed_experiments;
  for (const CampaignFamilyReport& fr : report.families) {
    run.summary += RecallSummary(fr);
  }
  return run;
}

std::vector<size_t> RoundOrder(size_t n, uint64_t seed, size_t round) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  uint64_t state = Mix(seed * 7919ULL + round);
  for (size_t i = n; i > 1; --i) {
    state = Mix(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Per-layer figures of one traced family call.
void ReportFamilyLayers(const BenchFamily& bf, const FamilyRun& run,
                        const Tracer& tracer, const MetricsRegistry& metrics,
                        RunResult* result) {
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  const std::map<uint64_t, int64_t> self = SpanSelfTimesNs(spans);
  size_t experiments = 0;
  int64_t experiment_ns = 0, prepare_ns = 0, score_ns = 0;
  for (const SpanRecord& s : spans) {
    if (s.kind == "experiment") {
      ++experiments;
      experiment_ns += s.end_ns - s.start_ns;
    } else if (s.kind == "prepare") {
      prepare_ns += self.at(s.span_id);
    } else if (s.kind == "score") {
      score_ns += self.at(s.span_id);
    }
  }
  const std::string pre = "harness." + bf.metric + ".";
  const std::string& name = bf.family.name;
  const double hits = static_cast<double>(
      metrics.CounterValue("valentine_artifact_cache_hits_total",
                           {{"family", name}}));
  const double misses = static_cast<double>(
      metrics.CounterValue("valentine_artifact_cache_misses_total",
                           {{"family", name}}));
  const double phits = static_cast<double>(
      metrics.CounterValue("valentine_profile_cache_hits_total"));
  const double pbuilds = static_cast<double>(
      metrics.CounterValue("valentine_profile_cache_builds_total"));
  result->Set(pre + "experiments", static_cast<double>(experiments), "count");
  result->Set(pre + "prepare_s", static_cast<double>(prepare_ns) / 1e9, "s");
  result->Set(pre + "score_s", static_cast<double>(score_ns) / 1e9, "s");
  result->Set(pre + "busy_share",
              static_cast<double>(experiment_ns) / 1e9 /
                  (static_cast<double>(kThreads) * run.wall_s),
              "ratio");
  result->Set(pre + "artifact_cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  result->Set(pre + "profile_cache_hit_ratio",
              phits + pbuilds > 0 ? phits / (phits + pbuilds) : 0.0, "ratio");
  result->Set(pre + "failures", static_cast<double>(run.failed), "count");
}

}  // namespace

double RunCampaignWorkload(const BenchArgs& args, RunResult* result) {
  std::vector<double> setups;
  std::vector<DatasetPair> suite;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const int64_t t0 = NowNs();
    suite = BuildSuite();
    setups.push_back(NsToMs(NowNs() - t0) / 1e3);
  }
  std::fprintf(stderr, "suite set-up: median %.4f s, min %.4f s, max %.4f s\n",
               Median(setups), *std::min_element(setups.begin(), setups.end()),
               *std::max_element(setups.begin(), setups.end()));
  const std::vector<BenchFamily> families = BenchFamilies();
  std::printf("campaign suite: %zu pairs, %zu families, %zu threads, seed=%llu\n",
              suite.size(), families.size(), kThreads,
              static_cast<unsigned long long>(args.seed));

  std::map<std::string, std::vector<double>> walls;
  std::map<std::string, std::string> summaries;
  auto record = [&](const BenchFamily& bf, const FamilyRun& run) {
    walls[bf.metric].push_back(run.wall_s);
    result->attempted += run.experiments;
    result->failed += run.failed;
    auto [it, fresh] = summaries.emplace(bf.metric, run.summary);
    if (!fresh && it->second != run.summary) {
      result->Fail(bf.metric + ": recall summary changed between rounds");
    }
  };

  // Warm-up round, untimed: the first pass over the suite fills
  // process-wide memos (e.g. Cupid's name-similarity memo) that every
  // later call reuses.
  for (const BenchFamily& bf : families) {
    const FamilyRun run = RunFamily(suite, bf.family, nullptr, nullptr);
    summaries.emplace(bf.metric, run.summary);
  }

  const int64_t start = NowNs();
  const double budget_s = args.trace ? 0.0 : args.seconds;
  size_t round = 0;
  do {
    for (size_t i : RoundOrder(families.size(), args.seed, round)) {
      record(families[i], RunFamily(suite, families[i].family, nullptr, nullptr));
    }
    ++round;
  } while (NsToMs(NowNs() - start) / 1e3 < budget_s * 0.8);
  std::fprintf(stderr, "campaign: %zu rounds\n", round);

  if (args.trace) {
    // One traced round after the untraced one: per-layer figures from
    // its spans and registry, overhead against the untraced walls.
    double traced_total = 0.0, plain_total = 0.0;
    for (size_t i : RoundOrder(families.size(), args.seed, round)) {
      const BenchFamily& bf = families[i];
      Tracer tracer;
      MetricsRegistry metrics;
      const FamilyRun run = RunFamily(suite, bf.family, &tracer, &metrics);
      if (run.summary != summaries[bf.metric]) {
        result->Fail(bf.metric + ": recall summary differs with tracing on");
      }
      traced_total += run.wall_s;
      plain_total += walls[bf.metric].front();
      result->attempted += run.experiments;
      result->failed += run.failed;
      ReportFamilyLayers(bf, run, tracer, metrics, result);
    }
    result->Set("harness.trace.overhead_share", traced_total / plain_total,
                "ratio");
  } else {
    for (const auto& [metric, v] : walls) {
      result->Set("family_s." + metric, Median(v), "s");
      std::fprintf(stderr, "family %-20s", metric.c_str());
      for (double s : v) std::fprintf(stderr, " %.3f", s);
      std::fprintf(stderr, "\n");
    }
  }

  std::string summary;
  for (const BenchFamily& bf : families) summary += summaries[bf.metric];
  if (args.write_golden) {
    std::ofstream out(args.golden_path, std::ios::binary);
    out << summary;
    if (!out) result->Fail("cannot write golden " + args.golden_path);
  } else {
    const std::string golden = ReadFile(args.golden_path);
    if (golden.empty()) {
      result->Fail("missing campaign recall golden " + args.golden_path);
    } else if (golden != summary) {
      result->Fail("campaign recall summary differs from " + args.golden_path);
      std::fprintf(stderr, "--- got\n%s", summary.c_str());
    }
  }
  return args.trace ? 0.0 : Median(setups);
}

}  // namespace perfbench
}  // namespace valentine
