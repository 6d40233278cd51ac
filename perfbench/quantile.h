// Exact sample percentiles for the benchmark's latency metrics.
//
// Percentiles are read from the sorted samples themselves (nearest rank),
// never from histogram bin edges: a geometric-bin upper edge moves in ~9%
// steps and cannot resolve a 5% change. A percentile is reported only when
// at least kMinBeyond samples rank above it, so a tail figure always rests
// on ten observations past it; otherwise its value is empty (printed as
// null) and the sample count says why.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  std::optional<double> value;
  std::size_t count = 0;   // samples the percentile was read from
  std::size_t beyond = 0;  // samples ranked strictly above it
};

class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double sum() const {
    double s = 0.0;
    for (const double v : values_) s += v;
    return s;
  }
  std::optional<double> mean() const {
    if (values_.empty()) return std::nullopt;
    return sum() / static_cast<double>(values_.size());
  }

  // Middle sample (lower middle for even n) with no tail rule: the central
  // value of a handful of repetitions, such as the benchmark's set-ups.
  std::optional<double> median() {
    if (values_.empty()) return std::nullopt;
    sort();
    return values_[(values_.size() - 1) / 2];
  }

  // Nearest-rank percentile for an integer percent in [1, 99]: the sample
  // at 1-based rank ceil(percent * n / 100), computed in integers so that
  // e.g. p99 of 1000 samples is exactly rank 990.
  Percentile at(int percent) {
    Percentile out;
    out.count = values_.size();
    if (values_.empty() || percent < 1 || percent > 99) return out;
    sort();
    const std::size_t n = values_.size();
    const std::size_t p = static_cast<std::size_t>(percent);
    const std::size_t rank = (p * n + 99) / 100;
    out.beyond = n - rank;
    if (out.beyond >= kMinBeyond) out.value = values_[rank - 1];
    return out;
  }

 private:
  void sort() {
    if (!sorted_) std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }

  std::vector<double> values_;
  bool sorted_ = true;
};

}  // namespace perfbench
