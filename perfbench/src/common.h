// Shared helpers for the end-to-end benchmark: a seeded generator whose
// output does not depend on the standard library's distributions, wall-clock
// timing, order statistics and a minimal JSON writer.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline uint64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// splitmix64: the same seed yields the same inputs on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ^ 0x9e3779b97f4a7c15ull) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound must be > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [lo, hi], inclusive.
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t state_;
};

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]); 0 for
/// an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// A metric as printed: value, unit and the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

using MetricMap = std::map<std::string, Metric>;

std::string JsonEscape(const std::string& s);
/// Formats a double with every significant digit (round-trip precision).
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
