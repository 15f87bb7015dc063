#ifndef VALENTINE_STATS_HISTOGRAM_H_
#define VALENTINE_STATS_HISTOGRAM_H_

/// \file histogram.h
/// Quantile histograms over column value sets, as used by the
/// distribution-based matcher (Zhang et al., SIGMOD 2011). Values are
/// mapped to a numeric domain — numbers directly, strings via a ranking
/// hash — then summarized into equi-depth bins whose boundaries and
/// masses feed the Earth Mover's Distance.

#include <string>
#include <vector>

namespace valentine {

/// \brief An equi-depth (quantile) histogram over doubles.
class QuantileHistogram {
 public:
  /// Builds a histogram with at most `num_bins` bins over the data
  /// (fewer bins when there are fewer distinct values). Empty data yields
  /// an empty histogram.
  static QuantileHistogram Build(std::vector<double> data, size_t num_bins);

  size_t num_bins() const { return centers_.size(); }
  bool empty() const { return centers_.empty(); }

  /// Representative value (mean) of bin i.
  double center(size_t i) const { return centers_[i]; }
  /// Probability mass of bin i; masses sum to 1.
  double mass(size_t i) const { return masses_[i]; }

  const std::vector<double>& centers() const { return centers_; }
  const std::vector<double>& masses() const { return masses_; }

  /// Min/max of the underlying data (0 for empty histograms).
  double min_value() const { return min_; }
  double max_value() const { return max_; }

 private:
  std::vector<double> centers_;
  std::vector<double> masses_;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Stable numeric surrogate for an arbitrary textual value: numeric
/// strings map to their value; other strings map to a deterministic hash
/// folded into a bounded range, so identical strings always land on the
/// same point of the domain (set overlap drives EMD on string columns).
double ValueToPoint(const std::string& value);

/// Maps a column's textual values to points (see ValueToPoint).
std::vector<double> ValuesToPoints(const std::vector<std::string>& values);

}  // namespace valentine

#endif  // VALENTINE_STATS_HISTOGRAM_H_
