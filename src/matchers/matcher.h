#ifndef VALENTINE_MATCHERS_MATCHER_H_
#define VALENTINE_MATCHERS_MATCHER_H_

/// \file matcher.h
/// The ColumnMatcher interface every method implements, plus the matcher
/// taxonomy from the paper's Table I (match types × categories).

#include <memory>
#include <string>
#include <vector>

#include "core/deadline.h"
#include "core/status.h"
#include "core/table.h"
#include "matchers/match_result.h"
#include "matchers/prepared.h"

namespace valentine {

/// The six match-type capabilities of paper Table I.
enum class MatchType {
  kAttributeOverlap,
  kValueOverlap,
  kSemanticOverlap,
  kDataType,
  kDistribution,
  kEmbeddings,
};

/// Human-readable label of a match type (as printed in Table I).
const char* MatchTypeName(MatchType type);

/// Whether the method reads schema-level info, instance values, or both
/// (paper §VI classification).
enum class MatcherCategory {
  kSchemaBased,
  kInstanceBased,
  kHybrid,
};

const char* MatcherCategoryName(MatcherCategory category);

/// \brief Interface for schema matching methods.
///
/// A matcher scores column correspondences between a source and a target
/// table and returns them as a ranked list (never a thresholded 1-1 set —
/// selection is the caller's concern).
///
/// Non-virtual-interface shape: callers use Match(); implementations
/// override MatchWithContext(). The context threads a cooperative
/// deadline and cancellation token through the computation — iterative
/// matchers (Similarity Flooding fixpoints, EmbDI word2vec epochs, Cupid
/// linguistic-matrix rows, distribution-based EMD sweeps) check it at
/// iteration boundaries and return kDeadlineExceeded / kCancelled
/// instead of running unbounded.
///
/// Staged pipeline: matching factors into `Prepare(table) ->
/// PreparedTable` (per-table, pair-independent), an optional
/// `PreparePair(prepared, prepared) -> PreparedPair` (per-pair,
/// configuration-independent) and `Score(prepared, prepared, pair) ->
/// MatchResult`, with MatchWithContext as their composition. The
/// virtuals have mutually-recursive defaults — Prepare wraps the raw
/// table, PreparePair builds nothing, Score degrades to
/// MatchWithContext, MatchWithContext composes Prepare+Score — so a
/// subclass MUST override either MatchWithContext (monolithic matcher,
/// e.g. a decorator) or Score (pipelined matcher; usually Prepare too).
/// Overriding neither recurses forever. The seven paper families are
/// pipelined; Prepare+PreparePair+Score must be byte-identical to
/// MatchWithContext for any artifacts built with the same PrepareKey(),
/// and so must Score without a pair artifact.
class ColumnMatcher {
 public:
  virtual ~ColumnMatcher() = default;

  /// Short method name, e.g. "Cupid".
  virtual std::string Name() const = 0;

  /// Schema-based / instance-based / hybrid.
  virtual MatcherCategory Category() const = 0;

  /// The Table I capability row for this method.
  virtual std::vector<MatchType> Capabilities() const = 0;

  /// Computes the ranked match list for the pair of tables under an
  /// unbounded context. Computing a match is pure and (for some
  /// matchers) expensive; discarding the result is always a bug, hence
  /// [[nodiscard]]. Built-in matchers cannot fail without a deadline or
  /// token, so this overload stays infallible; a fault-injecting
  /// decorator that errors anyway yields an empty result here.
  [[nodiscard]] MatchResult Match(const Table& source,
                                  const Table& target) const;

  /// Budgeted/cancellable entry point: the ranked match list, or
  /// kDeadlineExceeded / kCancelled when the context fired mid-run.
  [[nodiscard]] Result<MatchResult> Match(const Table& source,
                                          const Table& target,
                                          const MatchContext& context) const {
    return MatchWithContext(source, target, context);
  }

  /// Encodes the option subset that affects Prepare's artifact (value
  /// caps, token/embedding dimensions, knowledge-base fingerprints —
  /// not score-stage thresholds). Two matcher instances with equal
  /// Name() and PrepareKey() build interchangeable artifacts, so a
  /// config grid that only sweeps score parameters shares one artifact
  /// per table. The empty default means "artifact depends on nothing
  /// but the table".
  virtual std::string PrepareKey() const { return ""; }

  /// Stage 1: builds this family's immutable per-table artifact from
  /// the table alone. The default wraps the table in a state-less
  /// artifact, which the default Score degrades to the monolithic path.
  [[nodiscard]] virtual Result<PreparedTablePtr> Prepare(
      const Table& table, const MatchContext& context) const;

  /// Optional pair stage: the work Score does for this table pair under
  /// every configuration with this Name() and PrepareKey(), built from
  /// the two table artifacts alone so those configurations can share it.
  /// Returns nullptr when the family has no pair stage (the default) or
  /// either artifact is not this family's under the current key.
  [[nodiscard]] virtual Result<PreparedPairPtr> PreparePair(
      const PreparedTable& source, const PreparedTable& target,
      const MatchContext& context) const;

  /// Stage 2: scores a prepared pair. Implementations accept only
  /// artifacts of their own dynamic type whose prepare_key() equals the
  /// current PrepareKey(), and fall back to re-preparing inline from
  /// `source.table()` / `target.table()` otherwise — a foreign or stale
  /// artifact costs time, never bytes. `pair` is nullable: a family with
  /// a pair stage serves it only when it is its own and
  /// PreparedPair::Serves the two table artifacts, and builds the pair
  /// work inline otherwise. The default delegates to MatchWithContext on
  /// the underlying tables.
  [[nodiscard]] virtual Result<MatchResult> Score(
      const PreparedTable& source, const PreparedTable& target,
      const PreparedPair* pair, const MatchContext& context) const;

  /// The monolithic hook: ranked matches for a raw table pair. Check
  /// `context` at iteration boundaries of any loop whose trip count
  /// depends on the data. The default composes Prepare and Score;
  /// monolithic matchers override it directly.
  [[nodiscard]] virtual Result<MatchResult> MatchWithContext(
      const Table& source, const Table& target,
      const MatchContext& context) const;
};

/// Convenience owning handle.
using MatcherPtr = std::unique_ptr<ColumnMatcher>;

}  // namespace valentine

#endif  // VALENTINE_MATCHERS_MATCHER_H_
