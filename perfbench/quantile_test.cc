// Unit checks for the exact-percentile helper (quantile.h). Exits nonzero
// and names the failing case on any mismatch; run.py runs it before every
// benchmark run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "quantile.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "quantile_test: FAILED %s\n", what);
    ++failures;
  }
}

perfbench::Samples shuffled_range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  std::mt19937 gen(7);
  std::shuffle(v.begin(), v.end(), gen);
  perfbench::Samples s;
  for (const double x : v) s.add(x);
  return s;
}

}  // namespace

int main() {
  {
    perfbench::Samples s = shuffled_range(1000);
    const perfbench::Percentile p99 = s.at(99);
    expect(p99.value.has_value() && *p99.value == 990.0, "p99 of 1..1000");
    expect(p99.count == 1000 && p99.beyond == 10, "p99 count/beyond");
    const perfbench::Percentile p50 = s.at(50);
    expect(p50.value.has_value() && *p50.value == 500.0, "p50 of 1..1000");
  }
  {
    // 999 samples leave only 9 above rank 990: no p99.
    perfbench::Samples s = shuffled_range(999);
    const perfbench::Percentile p99 = s.at(99);
    expect(!p99.value.has_value(), "p99 of 999 samples is null");
    expect(p99.count == 999 && p99.beyond == 9, "p99 of 999 count/beyond");
    expect(s.at(90).value == 900.0, "p90 of 999 samples");
  }
  {
    perfbench::Samples s = shuffled_range(100);
    expect(s.at(90).value == 90.0, "p90 of 1..100");
    expect(!s.at(91).value.has_value(), "p91 of 100 samples is null");
  }
  {
    perfbench::Samples s = shuffled_range(20);
    expect(s.at(50).value == 10.0, "p50 of 1..20");
    expect(!shuffled_range(19).at(50).value.has_value(),
           "p50 of 19 samples is null");
  }
  {
    perfbench::Samples s;
    expect(!s.at(50).value.has_value() && s.at(50).count == 0,
           "empty sample");
    expect(!s.mean().has_value(), "empty mean");
    expect(!s.median().has_value(), "empty median");
  }
  {
    perfbench::Samples s;
    for (const double v : {0.9, 0.7, 0.8}) s.add(v);
    expect(s.median() == 0.8, "median of three");
    s.add(0.1);
    expect(s.median() == 0.7, "lower median of four");
  }
  {
    // The value is always a member of the sample: no interpolation, no bin
    // edge. Irregular values, added after an earlier read (re-sort).
    perfbench::Samples s;
    for (int i = 0; i < 40; ++i) s.add(1.0 + 0.001234 * (i % 7));
    (void)s.at(50);
    for (int i = 0; i < 40; ++i) s.add(3.14159 + i);
    const perfbench::Percentile p = s.at(75);
    expect(p.value.has_value() && *p.value == 3.14159 + 19.0,
           "p75 is an observed sample after re-sort");
    expect(std::fabs(*s.mean() - s.sum() / 80.0) == 0.0, "mean is sum/n");
  }
  if (failures != 0) return 1;
  std::printf("quantile_test: ok\n");
  return 0;
}
