// Order statistics and the output digest shared by the workloads and the
// report.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/// Percentile with linear interpolation between order statistics
/// (pct in [0, 100]); NaN for an empty sample.
inline double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// FNV-1a over the simulated outputs of one unit.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void pod(const T& v) {
    unsigned char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    bytes(buf, sizeof(T));
  }
  void str(const std::string& s) {
    pod(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

} // namespace perfbench
