// valentine_cli: the suite as a command-line tool over CSV files.
//
//   valentine_cli match <source.csv> <target.csv> [--method NAME]
//                 [--top K] [--json out.json]
//       Rank column correspondences between two CSV tables.
//
//   valentine_cli fabricate <table.csv> --scenario NAME [--out DIR]
//                 [--noisy-schema] [--noisy-instances] [--seed N]
//       Split one CSV into a scenario pair + ground truth file.
//
//   valentine_cli discover <query.csv> <repository-dir> [--k N]
//                 [--mode join|union]
//       Search a directory of CSV tables for joinable/unionable
//       partners of the query table.
//
//   valentine_cli methods
//       List the available matching methods.
//
// Methods: cupid, sf, coma, coma-inst, dist, jl, embdi, semprop, approx.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "discovery/discovery.h"
#include "fabrication/fabricator.h"
#include "harness/json_export.h"
#include "io/csv.h"
#include "matchers/coma.h"
#include "matchers/cupid.h"
#include "matchers/distribution_based.h"
#include "matchers/embdi.h"
#include "matchers/jaccard_levenshtein.h"
#include "matchers/semprop.h"
#include "matchers/similarity_flooding.h"
#include "obs/export.h"
#include "scaling/approximate_matcher.h"

using namespace valentine;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  valentine_cli match <source.csv> <target.csv> "
               "[--method NAME] [--top K] [--json out.json]\n"
               "  valentine_cli fabricate <table.csv> --scenario "
               "{unionable|view-unionable|joinable|semantically-joinable}\n"
               "                [--out DIR] [--noisy-schema] "
               "[--noisy-instances] [--seed N]\n"
               "  valentine_cli discover <query.csv> <repository-dir> "
               "[--k N] [--mode join|union]\n"
               "  valentine_cli methods\n");
  return 2;
}

MatcherPtr MakeMatcherByName(const std::string& name) {
  if (name == "cupid") return std::make_unique<CupidMatcher>();
  if (name == "sf") return std::make_unique<SimilarityFloodingMatcher>();
  if (name == "coma") return std::make_unique<ComaMatcher>();
  if (name == "coma-inst") {
    ComaOptions o;
    o.strategy = ComaStrategy::kInstances;
    return std::make_unique<ComaMatcher>(o);
  }
  if (name == "dist") return std::make_unique<DistributionBasedMatcher>();
  if (name == "jl") return std::make_unique<JaccardLevenshteinMatcher>();
  if (name == "embdi") {
    EmbdiOptions o;
    o.max_rows = 200;
    o.dimensions = 48;
    return std::make_unique<EmbdiMatcher>(o);
  }
  if (name == "semprop") return std::make_unique<SemPropMatcher>(nullptr);
  if (name == "approx") {
    // Interactive use is small-scale: estimate every pair rather than
    // LSH-prune (banding needs larger value sets to collide reliably).
    ApproximateOverlapOptions o;
    o.estimate_all_pairs = true;
    return std::make_unique<ApproximateOverlapMatcher>(o);
  }
  return nullptr;
}

int CmdMethods() {
  std::printf("cupid      Cupid (schema-based, linguistic + structural)\n"
              "sf         Similarity Flooding (schema-based, graph)\n"
              "coma       COMA, schema strategy (composite)\n"
              "coma-inst  COMA, instance strategy\n"
              "dist       Distribution-based (EMD clustering)\n"
              "jl         Jaccard-Levenshtein baseline\n"
              "embdi      EmbDI (local embeddings)\n"
              "semprop    SemProp (hybrid; syntactic-only without "
              "ontology)\n"
              "approx     MinHash/LSH approximate overlap\n");
  return 0;
}

int CmdMatch(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::string src_path = argv[2];
  std::string tgt_path = argv[3];
  std::string method = "coma";
  size_t top_k = 20;
  std::string json_path;
  for (int i = 4; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--method") && i + 1 < argc) {
      method = argv[++i];
    } else if (!std::strcmp(argv[i], "--top") && i + 1 < argc) {
      top_k = static_cast<size_t>(std::atol(argv[++i]));
    } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      return Usage();
    }
  }
  MatcherPtr matcher = MakeMatcherByName(method);
  if (!matcher) {
    std::fprintf(stderr, "unknown method '%s' (see: valentine_cli methods)\n",
                 method.c_str());
    return 2;
  }
  Result<Table> src = ReadCsvFile(src_path, "source");
  if (!src.ok()) {
    std::fprintf(stderr, "%s: %s\n", src_path.c_str(),
                 src.status().ToString().c_str());
    return 1;
  }
  Result<Table> tgt = ReadCsvFile(tgt_path, "target");
  if (!tgt.ok()) {
    std::fprintf(stderr, "%s: %s\n", tgt_path.c_str(),
                 tgt.status().ToString().c_str());
    return 1;
  }
  MatchResult ranked = matcher->Match(*src, *tgt);
  std::printf("%s: %s vs %s -> %zu ranked pairs\n\n",
              matcher->Name().c_str(), src->Describe().c_str(),
              tgt->Describe().c_str(), ranked.size());
  for (const Match& m : ranked.TopK(top_k)) {
    std::printf("  %-30s -> %-30s %.4f\n", m.source.column.c_str(),
                m.target.column.c_str(), m.score);
  }
  if (!json_path.empty()) {
    Status st = WriteTextFile(ToJson(ranked), json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

int CmdFabricate(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string table_path = argv[2];
  std::string scenario_name;
  std::string out_dir = ".";
  FabricationOptions fab;
  for (int i = 3; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--scenario") && i + 1 < argc) {
      scenario_name = argv[++i];
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--noisy-schema")) {
      fab.noisy_schema = true;
    } else if (!std::strcmp(argv[i], "--noisy-instances")) {
      fab.noisy_instances = true;
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      fab.seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else {
      return Usage();
    }
  }
  if (scenario_name == "unionable") {
    fab.scenario = Scenario::kUnionable;
  } else if (scenario_name == "view-unionable") {
    fab.scenario = Scenario::kViewUnionable;
  } else if (scenario_name == "joinable") {
    fab.scenario = Scenario::kJoinable;
  } else if (scenario_name == "semantically-joinable") {
    fab.scenario = Scenario::kSemanticallyJoinable;
  } else {
    std::fprintf(stderr, "missing or unknown --scenario\n");
    return Usage();
  }
  Result<Table> original = ReadCsvFile(table_path, "original");
  if (!original.ok()) {
    std::fprintf(stderr, "%s: %s\n", table_path.c_str(),
                 original.status().ToString().c_str());
    return 1;
  }
  Result<DatasetPair> pair = FabricateDatasetPair(*original, fab);
  if (!pair.ok()) {
    std::fprintf(stderr, "fabrication failed: %s\n",
                 pair.status().ToString().c_str());
    return 1;
  }
  std::string base = out_dir + "/" + pair->id;
  Status st = WriteCsvFile(pair->source, base + "_source.csv");
  if (st.ok()) st = WriteCsvFile(pair->target, base + "_target.csv");
  if (st.ok()) {
    // Ground truth as its own small CSV.
    Table gt("ground_truth");
    Column s("source_column", DataType::kString);
    Column t("target_column", DataType::kString);
    for (const auto& entry : pair->ground_truth) {
      s.Append(Value::String(entry.source_column));
      t.Append(Value::String(entry.target_column));
    }
    (void)gt.AddColumn(std::move(s));
    (void)gt.AddColumn(std::move(t));
    st = WriteCsvFile(gt, base + "_ground_truth.csv");
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s_{source,target,ground_truth}.csv\n", base.c_str());
  std::printf("  source: %s\n  target: %s\n  ground truth: %zu matches\n",
              pair->source.Describe().c_str(),
              pair->target.Describe().c_str(), pair->ground_truth.size());
  return 0;
}

int CmdDiscover(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::string query_path = argv[2];
  std::string repo_dir = argv[3];
  size_t k = 5;
  std::string mode = "join";
  for (int i = 4; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--k") && i + 1 < argc) {
      k = static_cast<size_t>(std::atol(argv[++i]));
    } else if (!std::strcmp(argv[i], "--mode") && i + 1 < argc) {
      mode = argv[++i];
    } else {
      return Usage();
    }
  }
  if (mode != "join" && mode != "union") return Usage();

  Result<Table> query = ReadCsvFile(query_path, "query");
  if (!query.ok()) {
    std::fprintf(stderr, "%s: %s\n", query_path.c_str(),
                 query.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<Table>> repo = ReadCsvDirectory(repo_dir);
  if (!repo.ok()) {
    std::fprintf(stderr, "%s\n", repo.status().ToString().c_str());
    return 1;
  }
  DiscoveryEngine engine;
  for (Table& t : const_cast<std::vector<Table>&>(*repo)) {
    Status st = engine.AddTable(std::move(t));
    if (!st.ok()) {
      std::fprintf(stderr, "skipping table: %s\n", st.ToString().c_str());
    }
  }
  std::printf("Query: %s; repository: %zu tables\n\n",
              query->Describe().c_str(), engine.num_tables());
  auto results = mode == "join" ? engine.FindJoinable(*query, k)
                                : engine.FindUnionable(*query, k);
  for (const DiscoveryResult& r : results) {
    std::printf("  %-32s score=%.3f", r.table_name.c_str(), r.score);
    if (!r.evidence.empty()) {
      std::printf("  via %s -> %s", r.evidence[0].source.column.c_str(),
                  r.evidence[0].target.column.c_str());
    }
    std::printf("\n");
  }
  if (results.empty()) std::printf("  (no candidates)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (!std::strcmp(argv[1], "methods")) return CmdMethods();
  if (!std::strcmp(argv[1], "match")) return CmdMatch(argc, argv);
  if (!std::strcmp(argv[1], "fabricate")) return CmdFabricate(argc, argv);
  if (!std::strcmp(argv[1], "discover")) return CmdDiscover(argc, argv);
  return Usage();
}
