#ifndef VALENTINE_MATCHERS_PREPARED_H_
#define VALENTINE_MATCHERS_PREPARED_H_

/// \file prepared.h
/// The artifacts of the staged matching pipeline: per-table
/// (`PreparedTable`) and, optionally, per-pair (`PreparedPair`). A
/// `PreparedTable` is an immutable, family-specific artifact computed by
/// `ColumnMatcher::Prepare` from one table: capped value lists, token
/// vectors, MinHash signatures, schema graphs, EmbDI replay fragments —
/// whatever the family's `Score` stage needs that depends on only one
/// side of the pair. Separating the stages turns one-vs-many discovery
/// (paper §II-B: one query table against N repository tables) from
/// O(N * prepare) into O(prepare + N * score), and lets the campaign
/// harness prepare each suite table once per family instead of once per
/// (pair, config).
///
/// Contract: artifacts are deep (they own their derived state and never
/// borrow mutable parts of the table), but they *borrow* the Table they
/// were built from, so an artifact must not outlive its table. Artifacts
/// are identified by (family name, prepare key): `Score` accepts an
/// artifact only when the dynamic type matches and `prepare_key()`
/// equals the matcher's current `PrepareKey()`; on any mismatch it falls
/// back to re-preparing inline, so a wrong or stale artifact can cost
/// time but never changes bytes.

#include <memory>
#include <string>
#include <utility>

#include "core/table.h"

namespace valentine {

/// \brief Base class of every family-specific per-table artifact.
///
/// Families subclass this and store their derived state in the subclass;
/// consumers hold artifacts as `PreparedTablePtr` (shared, const) so one
/// artifact can serve many concurrent Score calls.
class PreparedTable {
 public:
  PreparedTable(const Table* table, std::string family,
                std::string prepare_key)
      : table_(table),
        family_(std::move(family)),
        prepare_key_(std::move(prepare_key)) {}

  virtual ~PreparedTable() = default;

  PreparedTable(const PreparedTable&) = delete;
  PreparedTable& operator=(const PreparedTable&) = delete;

  /// The table this artifact was prepared from (borrowed; see file
  /// comment for the lifetime rule).
  const Table& table() const { return *table_; }

  /// Name() of the matcher that built this artifact.
  const std::string& family() const { return family_; }

  /// PrepareKey() of the matcher at build time — the prepare-relevant
  /// option subset. Score compares it against the current matcher's key
  /// to decide whether the artifact can be served.
  const std::string& prepare_key() const { return prepare_key_; }

 private:
  const Table* table_;
  std::string family_;
  std::string prepare_key_;
};

/// Shared const handle: one artifact, many concurrent readers.
using PreparedTablePtr = std::shared_ptr<const PreparedTable>;

/// \brief Base class of every family-specific pair artifact.
///
/// The optional stage between Prepare and Score: what a family's Score
/// would compute for a table pair under *every* configuration with the
/// same Name() and PrepareKey() — Cupid's linguistic-similarity matrix,
/// Distribution's phase-1 EMD matrix. `ColumnMatcher::PreparePair`
/// builds it from the two table artifacts alone, so a grid that sweeps
/// score-stage parameters computes it once per pair instead of once per
/// configuration.
///
/// Like a table artifact it borrows both tables and must not outlive
/// them. `Score` serves it only when the dynamic type is its own and
/// `Serves` holds for the table artifacts it was handed; otherwise it
/// builds the pair work inline, so a foreign or mismatched pair artifact
/// costs time, never bytes.
class PreparedPair {
 public:
  /// Records the two artifacts' tables and the source artifact's prepare
  /// key: PreparePair builds only from two artifacts of its own family
  /// under the current key.
  PreparedPair(const PreparedTable& source, const PreparedTable& target)
      : source_(&source.table()),
        target_(&target.table()),
        prepare_key_(source.prepare_key()) {}

  virtual ~PreparedPair() = default;

  PreparedPair(const PreparedPair&) = delete;
  PreparedPair& operator=(const PreparedPair&) = delete;

  /// True when this artifact was built over the tables of `source` and
  /// `target`, in that order, under `prepare_key`.
  bool Serves(const PreparedTable& source, const PreparedTable& target,
              const std::string& prepare_key) const {
    return &source.table() == source_ && &target.table() == target_ &&
           prepare_key == prepare_key_;
  }

 private:
  const Table* source_;
  const Table* target_;
  std::string prepare_key_;
};

/// Shared const handle: one pair artifact, many concurrent readers.
using PreparedPairPtr = std::shared_ptr<const PreparedPair>;

}  // namespace valentine

#endif  // VALENTINE_MATCHERS_PREPARED_H_
