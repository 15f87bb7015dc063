#include "obs/opcount.h"

namespace valentine {
namespace opcount {

const char* OpName(Op op) {
  switch (op) {
    case Op::kLevenshteinCells:
      return "levenshtein_cells";
    case Op::kBagPrefilterHits:
      return "bag_prefilter_hits";
    case Op::kBagPrefilterMisses:
      return "bag_prefilter_misses";
    case Op::kMinHashHashes:
      return "minhash_hashes";
    case Op::kNGramEmissions:
      return "ngram_emissions";
    case Op::kEmdSweepIterations:
      return "emd_sweep_iterations";
    case Op::kLevenshteinBitParallelSteps:
      return "levenshtein_bitparallel_steps";
    case Op::kRankRefs:
      return "rank_refs";
    case Op::kRankCells:
      return "rank_cells";
    case Op::kNameTokenPairs:
      return "name_token_pairs";
  }
  return "unknown";
}

const std::array<Op, kNumOps>& AllOps() {
  static const std::array<Op, kNumOps> kAll = {
      Op::kLevenshteinCells,    Op::kBagPrefilterHits,
      Op::kBagPrefilterMisses,  Op::kMinHashHashes,
      Op::kNGramEmissions,      Op::kEmdSweepIterations,
      Op::kLevenshteinBitParallelSteps, Op::kRankRefs,
      Op::kRankCells,           Op::kNameTokenPairs,
  };
  return kAll;
}

}  // namespace opcount
}  // namespace valentine
