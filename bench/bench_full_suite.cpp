// The full Fig. 1 pipeline at reduced scale: fabricate the pair suites
// from all three sources, run every method family's full Table II grid
// in parallel, aggregate per scenario, and export the raw outcomes as
// JSON — the single-command version of the paper's "~75K experiments"
// campaign (paper: 553 pairs x 135 configurations; here the suite is
// scaled down but the accounting machinery is identical).

#include <cstdio>

#include "bench_common.h"
#include "datasets/chembl.h"
#include "harness/json_export.h"
#include "harness/campaign.h"
#include "matchers/embdi.h"
#include "matchers/jaccard_levenshtein.h"
#include "obs/export.h"

using namespace valentine;
using namespace valentine::bench;

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "/tmp/valentine_suite.json";

  PairSuiteOptions opt;
  opt.row_overlaps = {0.5};
  opt.column_overlaps = {0.5};
  opt.seed = 6;
  auto suite = MakeCombinedSuite(opt);
  std::printf("Fabricated %zu dataset pairs from 3 sources.\n", suite.size());

  // All families; heavy instance methods get bench-scaled options.
  Ontology efo = MakeEfoLikeOntology();
  std::vector<MethodFamily> families;
  families.push_back(CupidFamily());
  families.push_back(SimilarityFloodingFamily());
  families.push_back(ComaFamily());
  families.push_back(DistributionFamily1());
  families.push_back(DistributionFamily2());
  families.push_back(SemPropFamily(&efo));
  {
    EmbdiOptions o;
    o.max_rows = 80;
    o.walks_per_node = 2;
    o.sentence_length = 20;
    o.dimensions = 32;
    o.epochs = 2;
    MethodFamily em{"EmbDI", {{"word2vec (scaled)",
                               std::make_shared<EmbdiMatcher>(o)}}};
    families.push_back(std::move(em));
  }
  {
    MethodFamily jl{"JaccardLevenshtein", {}};
    for (double th : {0.4, 0.5, 0.6, 0.7, 0.8}) {
      JaccardLevenshteinOptions o;
      o.threshold = th;
      o.max_distinct_values = 100;
      jl.grid.push_back({"th=" + FormatDouble(th, 1),
                         std::make_shared<JaccardLevenshteinMatcher>(o)});
    }
    families.push_back(std::move(jl));
  }

  size_t configs = TotalConfigurations(families);
  std::printf("Running %zu configurations x %zu pairs = %zu experiments "
              "(parallel)...\n\n",
              configs, suite.size(), configs * suite.size());

  CampaignReport report = RunCampaignOnSuite(suite, families);
  std::vector<FamilyPairOutcome> all_outcomes;
  for (const CampaignFamilyReport& fr : report.families) {
    PrintScenarioStats(fr.family, fr.by_scenario);
    std::printf("  avg runtime per run: %.1f ms\n\n", fr.avg_runtime_ms);
    for (const auto& o : fr.outcomes) all_outcomes.push_back(o);
  }

  Status st = WriteTextFile(ToJson(all_outcomes), json_path);
  if (!st.ok()) {
    std::fprintf(stderr, "JSON export failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("Exported %zu outcomes to %s\n", all_outcomes.size(),
              json_path);
  return 0;
}
