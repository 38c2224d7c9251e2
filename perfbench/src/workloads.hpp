// The benchmark workloads. Each is a closed loop of fixed size: one
// repetition ("unit") sets a world up from the workload seed, runs its
// measured phase with the default invariant suite armed, and digests the
// simulated outputs so repetitions and runs can be compared byte for byte.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "profiler.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Worker threads: partition shards (ring64_part), sweep pool (campaign).
  std::size_t threads = 4;
};

struct UnitResult {
  std::vector<double> setup_s;       ///< set-up samples this unit produced
  std::vector<double> op_ms;         ///< wall time per operation
  std::vector<std::uint64_t> failed_ops; ///< slice or case indices that failed
  double sim_s = 0.0;                ///< simulated seconds of the measured phase
  double wall_s = 0.0;               ///< wall seconds of the measured phase
  double bound_held_frac = 0.0;
  std::uint64_t digest = 0;          ///< FNV-1a of the simulated outputs
  std::string verdict;               ///< oracle verdict (campaign: totals line)
  std::map<std::string, double> layer; ///< per-layer metrics (traced unit only)
};

struct Workload {
  const char* name;
  const char* op;        ///< what one operation is: slice, case or run
  double tail_pct;       ///< reported tail percentile of op_ms
  /// One unit; `spans` is non-null for the traced unit, which also runs
  /// the sampler and the probes and fills UnitResult::layer.
  UnitResult (*run_unit)(const RunOptions&, SpanRecorder* spans);
  /// One set-up only (world construction, bring-up, calibration), in s;
  /// null when set-up is too slow to repeat on its own for its median.
  double (*setup_only)(const RunOptions&);
};

const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

} // namespace perfbench
