// Path delay metering: the offline calibration step of paper section
// III-A3. The authors measured the network latency between all node pairs
// (via ptp4l data) to derive the reading error E = dmax - dmin and the
// measurement error gamma from the measurement VM's paths.
//
// We reproduce it with instrumented probe frames that carry their true
// transmission time: the receiver side computes the true one-way transit
// time. This is measurement infrastructure (run before/alongside the
// experiment), not part of the synchronized system itself.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/nic.hpp"
#include "sim/partition.hpp"
#include "sim/simulation.hpp"
#include "util/stats.hpp"

namespace tsn::measure {

inline constexpr std::uint16_t kEtherTypePathProbe = 0x88B6;

class PathDelayMeter {
 public:
  PathDelayMeter(sim::Simulation& sim, std::uint16_t vlan_id, const std::string& name);

  /// Partitioned mode: sweeps are coordinated from `home_region` (the
  /// constructor's Simulation must be that region's). Send commands fan
  /// out to each node's region over control channels (+2 ms) and nodes
  /// stamp their own region clock. Each sample is recorded where it is
  /// received: row `dst` of the delay table is written only by dst's
  /// region, so nothing is shipped home. Call before any add_node().
  void set_partitioned(sim::PartitionRuntime* rt, std::size_t home_region);

  /// Register a node endpoint. All pairwise one-way delays between
  /// registered nodes are measured. `node_sim`/`region` locate the node in
  /// a partitioned world (serial callers leave the defaults).
  void add_node(const std::string& name, net::Nic* nic,
                sim::Simulation* node_sim = nullptr, std::size_t region = 0);

  /// Launch `rounds` probe sweeps spaced `spacing_ns` apart, starting now.
  /// `on_done` fires after the last sweep's results are in.
  void run(int rounds, std::int64_t spacing_ns, std::function<void()> on_done = {});

  /// One-way delay statistics of the ordered pair src -> dst, or nullptr
  /// when that pair has no sample (unknown names included).
  const util::RunningStats* pair_delay(const std::string& src, const std::string& dst) const;

  /// Minimum / maximum observed latency over all node pairs -> E.
  double dmin_ns() const;
  double dmax_ns() const;
  double reading_error_ns() const { return dmax_ns() - dmin_ns(); }

  /// Measurement error gamma (paper eq. 3.2) for the path set from
  /// `measurement_node` to `destinations`: max over those paths of the
  /// maximum delay minus min over those paths of the minimum delay.
  double gamma_ns(const std::string& measurement_node,
                  const std::vector<std::string>& destinations) const;

  std::uint64_t probes_received() const;

 private:
  void sweep();
  void send_from(std::uint32_t src_idx);
  void on_probe(std::uint32_t dst_idx, const net::EthernetFrame& frame,
                const net::RxMeta& meta);
  std::size_t index_of(const std::string& node_name) const; ///< nodes_.size() if unknown

  sim::Simulation& sim_;
  std::uint16_t vlan_id_;
  std::string name_;
  struct Node {
    std::string name;
    net::Nic* nic;
    sim::Simulation* sim = nullptr; ///< node's region sim (partitioned)
    std::size_t region = 0;
  };
  std::vector<Node> nodes_;
  sim::PartitionRuntime* rt_ = nullptr;
  std::size_t home_region_ = 0;
  /// delays_[dst * n + src], n = nodes_.size(); sized by run().
  std::vector<util::RunningStats> delays_;
  int rounds_left_ = 0;
  std::int64_t spacing_ns_ = 0;
  std::function<void()> on_done_;
};

} // namespace tsn::measure
