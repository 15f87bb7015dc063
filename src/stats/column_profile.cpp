#include "stats/column_profile.h"

#include <algorithm>

#include "text/string_similarity.h"
#include "text/tokenizer.h"

namespace valentine {

namespace {

/// min(cap, full) with cap 0 meaning "unlimited".
size_t EffectiveCap(size_t cap, size_t full) {
  return (cap == 0 || cap > full) ? full : cap;
}

}  // namespace

ColumnProfile ColumnProfile::Build(const Column& column,
                                   const ProfileSpec& spec) {
  ColumnProfile p;
  p.spec_ = spec;

  // One pass over the rows yields the first-seen-order distinct list —
  // the same list every matcher's inline extraction starts from — and
  // every capped artifact is a prefix of it.
  p.distinct_ = column.DistinctStrings();
  p.full_distinct_count_ = p.distinct_.size();

  const size_t set_len = EffectiveCap(spec.set_cap, p.full_distinct_count_);
  p.distinct_set_.reserve(set_len);
  for (size_t i = 0; i < set_len; ++i) p.distinct_set_.insert(p.distinct_[i]);

  const size_t hist_len =
      EffectiveCap(spec.histogram_cap, p.full_distinct_count_);
  std::vector<std::string> hist_vals(p.distinct_.begin(),
                                     p.distinct_.begin() + hist_len);
  p.histogram_ =
      QuantileHistogram::Build(ValuesToPoints(hist_vals), spec.num_bins);

  p.minhash_ = MinHashSignature::Build(p.distinct_set_, spec.minhash_hashes);

  p.text_profile_ = ComputeTextProfile(column);
  p.numeric_stats_ = ComputeNumericStats(column.NumericValues());
  p.numeric_fraction_ = column.NumericFraction();
  p.name_tokens_ = TokenizeIdentifier(column.name());

  if (spec.build_value_ngrams) {
    for (size_t i = 0; i < set_len; ++i) {
      for (auto& g : CharNGrams(p.distinct_[i], spec.ngram_n)) {
        p.value_ngrams_.insert(std::move(g));
      }
    }
  }

  if (spec.distinct_cap != 0 && p.distinct_.size() > spec.distinct_cap) {
    p.distinct_.resize(spec.distinct_cap);
  }
  return p;
}

bool ColumnProfile::CanServeDistinctPrefix(size_t cap) const {
  return EffectiveCap(cap, full_distinct_count_) <= distinct_.size();
}

bool ColumnProfile::CapsEquivalent(size_t cap, size_t artifact_cap) const {
  return EffectiveCap(cap, full_distinct_count_) ==
         EffectiveCap(artifact_cap, full_distinct_count_);
}

size_t ColumnProfile::DistinctPrefixLength(size_t cap) const {
  return std::min(EffectiveCap(cap, full_distinct_count_), distinct_.size());
}

bool ProfileSpecsEqual(const ProfileSpec& a, const ProfileSpec& b) {
  return a.distinct_cap == b.distinct_cap && a.set_cap == b.set_cap &&
         a.histogram_cap == b.histogram_cap && a.num_bins == b.num_bins &&
         a.minhash_hashes == b.minhash_hashes && a.ngram_n == b.ngram_n &&
         a.build_value_ngrams == b.build_value_ngrams;
}

TableProfile TableProfile::Build(const Table& table, const ProfileSpec& spec) {
  TableProfile tp;
  tp.spec_ = spec;
  tp.columns_.reserve(table.num_columns());
  for (const Column& c : table.columns()) {
    tp.columns_.push_back(ColumnProfile::Build(c, spec));
  }
  return tp;
}

}  // namespace valentine
