#include "matchers/matcher.h"

#include <utility>

namespace valentine {

MatchResult ColumnMatcher::Match(const Table& source,
                                 const Table& target) const {
  Result<MatchResult> result = MatchWithContext(source, target, {});
  // An unbounded default context never expires and is never cancelled,
  // so only injected faults can land here; the infallible legacy
  // contract maps them to "no matches found".
  if (!result.ok()) return MatchResult();
  return std::move(result).ValueOrDie();
}

Result<PreparedTablePtr> ColumnMatcher::Prepare(
    const Table& table, const TableProfile* profile,
    const MatchContext& context) const {
  (void)profile;  // the state-less default artifact has nothing to serve
  VALENTINE_RETURN_NOT_OK(context.Check("prepare"));
  return PreparedTablePtr(
      std::make_shared<const PreparedTable>(&table, Name(), PrepareKey()));
}

Result<PreparedPairPtr> ColumnMatcher::PreparePair(
    const PreparedTable& /*source*/, const PreparedTable& /*target*/,
    const MatchContext& /*context*/) const {
  return PreparedPairPtr();  // no pair stage
}

Result<MatchResult> ColumnMatcher::Score(const PreparedTable& source,
                                         const PreparedTable& target,
                                         const PreparedPair* /*pair*/,
                                         const MatchContext& context) const {
  // Monolithic matchers (decorators, approximate matchers) have no
  // separable prepare stage: scoring a prepared pair is just matching
  // the underlying tables.
  return MatchWithContext(source.table(), target.table(), context);
}

Result<MatchResult> ColumnMatcher::MatchWithContext(
    const Table& source, const Table& target,
    const MatchContext& context) const {
  // Pipelined matchers match by composing their two stages.
  Result<PreparedTablePtr> prepared_source =
      Prepare(source, /*profile=*/nullptr, context);
  VALENTINE_RETURN_NOT_OK(prepared_source.status());
  Result<PreparedTablePtr> prepared_target =
      Prepare(target, /*profile=*/nullptr, context);
  VALENTINE_RETURN_NOT_OK(prepared_target.status());
  return Score(**prepared_source, **prepared_target, /*pair=*/nullptr,
               context);
}

const char* MatchTypeName(MatchType type) {
  switch (type) {
    case MatchType::kAttributeOverlap: return "Attribute Overlap";
    case MatchType::kValueOverlap: return "Value Overlap";
    case MatchType::kSemanticOverlap: return "Semantic Overlap";
    case MatchType::kDataType: return "Data Type";
    case MatchType::kDistribution: return "Distribution";
    case MatchType::kEmbeddings: return "Embeddings";
  }
  return "Unknown";
}

const char* MatcherCategoryName(MatcherCategory category) {
  switch (category) {
    case MatcherCategory::kSchemaBased: return "schema-based";
    case MatcherCategory::kInstanceBased: return "instance-based";
    case MatcherCategory::kHybrid: return "hybrid";
  }
  return "unknown";
}

}  // namespace valentine
