#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace pima {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  PIMA_CHECK(bins > 0, "histogram needs at least one bin");
  PIMA_CHECK(hi > lo, "histogram range must be non-empty");
}

void Histogram::add(double x) {
  const double t = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::ptrdiff_t>(t * static_cast<double>(counts_.size()));
  bin = std::clamp<std::ptrdiff_t>(bin, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

double Histogram::bin_low(std::size_t bin) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_high(std::size_t bin) const { return bin_low(bin + 1); }

std::string Histogram::render(std::size_t width) const {
  std::size_t peak = 1;
  for (const auto c : counts_) peak = std::max(peak, c);
  std::string out;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    char line[64];
    std::snprintf(line, sizeof line, "[%8.3g, %8.3g) ", bin_low(b), bin_high(b));
    out += line;
    const auto bar = counts_[b] * width / peak;
    out.append(bar, '#');
    out += ' ';
    out += std::to_string(counts_[b]);
    out += '\n';
  }
  return out;
}

double geometric_mean(const std::vector<double>& values) {
  PIMA_CHECK(!values.empty(), "geometric mean of empty set");
  double log_sum = 0.0;
  for (const double v : values) {
    PIMA_CHECK(v > 0.0, "geometric mean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace pima
