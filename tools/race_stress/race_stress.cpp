// Race-detector stress driver for RunFamilyOnSuite.
//
// Hammers the runner with every matcher family — all workers sharing one
// set of matcher instances and, per family, one ArtifactCache, as a
// campaign does — across a sweep of thread counts (default 8..32), and
// asserts that every run is byte-identical to the sequential, uncached
// baseline. Built for soaking under ThreadSanitizer:
//
//   cmake --preset tsan && cmake --build --preset tsan --target race_stress
//   TSAN_OPTIONS=halt_on_error=1 ./build/tsan/tools/race_stress/race_stress
//
// Exits 0 when every run matched, 1 on any divergence (and TSan itself
// aborts the process on a race report). Thread counts intentionally
// exceed hardware concurrency to force preemption inside Match calls.
//
// Usage: race_stress [--rows N] [--repeats N] [--min-threads N]
//                    [--max-threads N] [--families a,b,c]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "datasets/tpcdi.h"
#include "harness/json_export.h"
#include "harness/runner.h"
#include "matchers/embdi.h"

namespace valentine {
namespace {

struct StressOptions {
  size_t rows = 30;
  int repeats = 3;
  size_t min_threads = 8;
  size_t max_threads = 32;
  std::string families;  // comma list; empty = all
};

std::string CanonicalJson(std::vector<FamilyPairOutcome> outcomes) {
  // Wall-clock runtime is the one field allowed to vary run-to-run.
  for (auto& o : outcomes) o.total_ms = 0.0;
  return ToJson(outcomes);
}

MethodFamily Truncate(MethodFamily family, size_t n) {
  if (family.grid.size() > n) family.grid.resize(n);
  return family;
}

Ontology StressOntology() {
  Ontology o;
  size_t root = o.AddClass("root", {"entity"});
  o.AddSubclass(root, "person", {"person", "customer", "prospect"});
  o.AddSubclass(root, "address", {"address", "city", "country"});
  return o;
}

// All seven matcher families, grids truncated so a full sweep finishes
// under TSan in minutes: concurrency coverage comes from shared
// instances, not grid breadth.
std::vector<MethodFamily> StressFamilies(const Ontology* ontology) {
  std::vector<MethodFamily> families;
  families.push_back(Truncate(CupidFamily(), 2));
  families.push_back(SimilarityFloodingFamily());
  families.push_back(ComaFamily());
  families.push_back(Truncate(DistributionFamily1(), 2));
  families.push_back(Truncate(SemPropFamily(ontology), 2));
  {
    // Minimal word2vec budget (default EmbdiFamily trains ~60s per
    // sweep point); concurrency coverage needs Match to run, not to
    // converge.
    EmbdiOptions opt;
    opt.dimensions = 8;
    opt.walks_per_node = 1;
    opt.epochs = 1;
    opt.sentence_length = 20;
    opt.max_rows = 40;
    MethodFamily embdi{"EmbDI", {}};
    embdi.grid.push_back(
        {"word2vec tiny", std::make_shared<EmbdiMatcher>(opt)});
    families.push_back(std::move(embdi));
  }
  families.push_back(Truncate(JaccardLevenshteinFamily(), 2));
  return families;
}

bool WantFamily(const StressOptions& opt, const std::string& name) {
  if (opt.families.empty()) return true;
  size_t pos = 0;
  while (pos <= opt.families.size()) {
    size_t comma = opt.families.find(',', pos);
    if (comma == std::string::npos) comma = opt.families.size();
    if (opt.families.substr(pos, comma - pos) == name) return true;
    pos = comma + 1;
  }
  return false;
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

  Ontology ontology = StressOntology();
  int divergences = 0;
  size_t runs = 0;
  for (MethodFamily& family : StressFamilies(&ontology)) {
    if (!WantFamily(opt, family.name)) continue;
    std::string expected = CanonicalJson(RunFamilyOnSuite(family, suite));
    // Same family object and cache throughout: every worker of every run
    // hits the same matcher instances, and concurrent GetOrPrepare and
    // GetOrPreparePair calls the same cache.
    ArtifactCache artifacts;
    FamilyRunContext run;
    run.artifacts = &artifacts;
    for (size_t threads = opt.min_threads; threads <= opt.max_threads;
         threads *= 2) {
      for (int repeat = 0; repeat < opt.repeats; ++repeat) {
        std::string got =
            CanonicalJson(RunFamilyOnSuite(family, suite, run, threads));
        ++runs;
        if (got != expected) {
          ++divergences;
          size_t byte = 0;
          while (byte < got.size() && byte < expected.size() &&
                 got[byte] == expected[byte]) {
            ++byte;
          }
          std::fprintf(stderr,
                       "FAIL %s: %zu threads repeat %d diverged from "
                       "sequential at byte %zu\n",
                       family.name.c_str(), threads, repeat, byte);
        }
      }
    }
    std::printf("%-20s %s\n", family.name.c_str(),
                divergences == 0 ? "byte-identical" : "DIVERGED");
  }
  std::printf("%zu parallel runs, %d divergences\n", runs, divergences);
  return divergences == 0 ? 0 : 1;
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
    } else if (std::strcmp(argv[i], "--min-threads") == 0) {
      opt.min_threads = std::strtoull(next("--min-threads"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--max-threads") == 0) {
      opt.max_threads = std::strtoull(next("--max-threads"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--families") == 0) {
      opt.families = next("--families");
    } else {
      std::fprintf(stderr,
                   "usage: race_stress [--rows N] [--repeats N] "
                   "[--min-threads N] [--max-threads N] [--families a,b]\n");
      return 2;
    }
  }
  if (opt.rows == 0 || opt.repeats <= 0 || opt.min_threads == 0 ||
      opt.max_threads < opt.min_threads) {
    std::fprintf(stderr, "invalid stress options\n");
    return 2;
  }
  return valentine::RunStress(opt);
}
