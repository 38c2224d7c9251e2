// Time-series recording with interval aggregation (paper plots avg/min/max
// over 120 s buckets on a log axis).
#pragma once

#include <cstdint>
#include <vector>

#include "util/stats.hpp"

namespace tsn::util {

struct SeriesPoint {
  std::int64_t t_ns = 0;
  double value = 0.0;
};

struct AggregatedPoint {
  std::int64_t bucket_start_ns = 0;
  double avg = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint64_t count = 0;
};

class TimeSeries {
 public:
  void add(std::int64_t t_ns, double value) { points_.push_back({t_ns, value}); }
  const std::vector<SeriesPoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  /// Snapshot archive image (sim/persist.hpp): the points in order.
  template <class Ar>
  void persist(Ar& ar) {
    ar.seq(points_, [&ar](SeriesPoint& p) {
      ar.i64(p.t_ns);
      ar.f64(p.value);
    });
  }

  /// Aggregate into fixed buckets of `bucket_ns` aligned to t=0.
  std::vector<AggregatedPoint> aggregate(std::int64_t bucket_ns) const;

  /// Overall stats of the raw values.
  RunningStats stats() const;

  /// Points within [t_lo, t_hi).
  std::vector<SeriesPoint> window(std::int64_t t_lo, std::int64_t t_hi) const;

 private:
  std::vector<SeriesPoint> points_;
};

} // namespace tsn::util
