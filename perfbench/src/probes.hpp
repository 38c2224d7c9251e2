// Per-call cost probes: timed direct calls into one public function of a
// layer, with inputs shaped from the workload being profiled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "experiments/scenario.hpp"

namespace perfbench {

struct ProbeShape {
  tsn::experiments::ScenarioConfig cfg; ///< clock models, jitter, FTA f
  std::size_t domains = 4;         ///< FTA inputs / offset slots per aggregation
  std::size_t switch_ports = 6;    ///< ports of one ECD switch
  std::int64_t coarse_span_ns = 1'000'000'000; ///< one analytic clock advance
};

/// Adds the median per-call wall time of each probe to `layer`:
/// net.forward_ns (ingress frame fanned out to every other port),
/// gptp.msg_parse_ns (FollowUp wire image -> Message), core.fta_ns (FTA
/// over `domains` offsets), core.seqlock_read_ns (one offset-slot read),
/// time.phc_read_ns (PhcClock::read) and time.advance_coarse_ns
/// (Oscillator::advance_coarse over coarse_span_ns).
void run_probes(const ProbeShape& shape, std::map<std::string, double>& layer);

} // namespace perfbench
