#ifndef VALENTINE_STATS_COLUMN_PROFILE_H_
#define VALENTINE_STATS_COLUMN_PROFILE_H_

/// \file column_profile.h
/// Immutable per-column profiles.
///
/// Table IV of the paper shows instance-based matcher cost growing with
/// value counts. A ColumnProfile computes the per-column artifacts the
/// instance-based matchers start from (distinct values, value sets,
/// quantile histograms, MinHash sketches, text/numeric statistics) in
/// one pass. The persistent discovery store (io/artifact_store.h) keeps
/// one TableProfile per stored table; the discovery reranker hands it to
/// Prepare, so a restarted service serves those artifacts from disk.
///
/// Contracts (DESIGN.md §8):
///  * Profiles are immutable after Build and safe to share across
///    threads without synchronization.
///  * Every artifact is computed exactly as the matchers would compute
///    it inline (same first-seen-order capping, same hash functions),
///    so consuming a profile is byte-identical to not consuming one.
///    Matchers verify cap/parameter compatibility via CanServe* before
///    consuming and fall back to inline extraction otherwise.

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/table.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/minhash.h"

namespace valentine {

/// Parameters the derived artifacts are built with. Defaults mirror the
/// default options of the consuming matchers (COMA / SemProp value-set
/// caps, DistributionBased histogram resolution, SemProp MinHash width),
/// so profiles serve the paper-grid configurations out of the box.
struct ProfileSpec {
  /// Cap on the stored distinct-value list (0 = keep all). Keeping all
  /// lets the profile serve any prefix cap a matcher asks for.
  size_t distinct_cap = 0;
  /// Cap applied when building the distinct-value set and MinHash
  /// sketch (matches ComaOptions::max_distinct_values and
  /// SemPropOptions::max_values).
  size_t set_cap = 1000;
  /// Cap applied when building the quantile histogram (matches
  /// DistributionBasedOptions::max_values).
  size_t histogram_cap = 5000;
  /// Histogram resolution (matches DistributionBasedOptions::num_bins).
  size_t num_bins = 32;
  /// MinHash permutations (matches SemPropOptions::minhash_hashes).
  size_t minhash_hashes = 128;
  /// Character n-gram length for the optional value n-gram set.
  size_t ngram_n = 3;
  /// Value n-gram sets are an opt-in artifact: nothing on the default
  /// match path consumes them yet, so default builds skip the cost.
  bool build_value_ngrams = false;
};

/// \brief All per-column artifacts the instance-based matchers share.
class ColumnProfile {
 public:
  /// Profiles one column under the spec. Pure function of (column, spec).
  static ColumnProfile Build(const Column& column, const ProfileSpec& spec);

  /// Distinct textual values in first-seen row order, capped at
  /// spec.distinct_cap (0 = complete).
  const std::vector<std::string>& distinct() const { return distinct_; }
  /// Number of distinct values before the storage cap was applied.
  size_t full_distinct_count() const { return full_distinct_count_; }

  /// Distinct values as a set, built from the first spec.set_cap
  /// distinct values.
  const std::unordered_set<std::string>& distinct_set() const {
    return distinct_set_;
  }

  /// Equi-depth histogram over the first spec.histogram_cap distinct
  /// values (via ValuesToPoints), spec.num_bins bins.
  const QuantileHistogram& histogram() const { return histogram_; }

  /// MinHash sketch of distinct_set(), spec.minhash_hashes permutations.
  const MinHashSignature& minhash() const { return minhash_; }

  /// Character/length profile of all non-null cells.
  const TextProfile& text_profile() const { return text_profile_; }
  /// Moments of all numeric-parseable cells.
  const NumericStats& numeric_stats() const { return numeric_stats_; }
  /// Fraction of non-null cells that parse as numbers.
  double numeric_fraction() const { return numeric_fraction_; }

  /// Identifier tokens of the column name (lower-cased, split on
  /// case/separator boundaries).
  const std::vector<std::string>& name_tokens() const { return name_tokens_; }

  /// Union of padded character n-grams over the first spec.set_cap
  /// distinct values; empty unless spec.build_value_ngrams.
  const std::unordered_set<std::string>& value_ngrams() const {
    return value_ngrams_;
  }

  /// True when a matcher that caps distinct values at `cap` (0 =
  /// unlimited) can take its list as a prefix of distinct(): the prefix
  /// is exactly what Column::DistinctStrings() + resize(cap) yields.
  bool CanServeDistinctPrefix(size_t cap) const;

  /// True when a matcher capping at `cap` would build exactly the value
  /// list an artifact built with `artifact_cap` was derived from — the
  /// condition under which the cached set / histogram / MinHash sketch
  /// is bit-compatible with inline extraction.
  bool CapsEquivalent(size_t cap, size_t artifact_cap) const;

  /// The first min(cap, size) distinct values (cap 0 = all). Returns a
  /// view-like pair (pointer to distinct(), length) — callers that need
  /// a real vector copy the prefix.
  size_t DistinctPrefixLength(size_t cap) const;

  const ProfileSpec& spec() const { return spec_; }

 private:
  /// The persistent discovery store (src/io/artifact_store.*) needs to
  /// reconstruct profiles field-by-field from their canonical
  /// serialization; the codec is the single sanctioned backdoor.
  friend class DiscoveryArtifactCodec;

  std::vector<std::string> distinct_;
  size_t full_distinct_count_ = 0;
  std::unordered_set<std::string> distinct_set_;
  QuantileHistogram histogram_;
  MinHashSignature minhash_;
  TextProfile text_profile_;
  NumericStats numeric_stats_;
  double numeric_fraction_ = 0.0;
  std::vector<std::string> name_tokens_;
  std::unordered_set<std::string> value_ngrams_;
  ProfileSpec spec_;
};

/// \brief The profiles of every column of one table, plus the spec they
/// were built under. Immutable after Build.
class TableProfile {
 public:
  static TableProfile Build(const Table& table, const ProfileSpec& spec = {});

  size_t num_columns() const { return columns_.size(); }
  const ColumnProfile& column(size_t i) const { return columns_[i]; }
  const ProfileSpec& spec() const { return spec_; }

  /// Sanity guard for matchers: a profile only serves a table with the
  /// same column count (the store keys profiles by table content, so
  /// this only fails on caller error).
  bool Matches(const Table& table) const {
    return columns_.size() == table.num_columns();
  }

 private:
  friend class DiscoveryArtifactCodec;  ///< see ColumnProfile

  std::vector<ColumnProfile> columns_;
  ProfileSpec spec_;
};

/// Field-wise equality of two specs — the compatibility gate the
/// persistent store uses before serving a stored profile in place of a
/// fresh Build (a profile only substitutes for one built under an
/// identical spec).
bool ProfileSpecsEqual(const ProfileSpec& a, const ProfileSpec& b);

}  // namespace valentine

#endif  // VALENTINE_STATS_COLUMN_PROFILE_H_
