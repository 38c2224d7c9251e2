#include "measure/path_delay.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "gptp/wire.hpp"

namespace tsn::measure {

PathDelayMeter::PathDelayMeter(sim::Simulation& sim, std::uint16_t vlan_id,
                               const std::string& name)
    : sim_(sim), vlan_id_(vlan_id), name_(name) {}

void PathDelayMeter::set_partitioned(sim::PartitionRuntime* rt, std::size_t home_region) {
  assert(nodes_.empty()); // channels are set up per node
  rt_ = rt;
  home_region_ = home_region;
}

void PathDelayMeter::add_node(const std::string& node_name, net::Nic* nic,
                              sim::Simulation* node_sim, std::size_t region) {
  assert(delays_.empty()); // the delay table is sized once, by run()
  if (rt_ != nullptr && region != home_region_) {
    rt_->control_channel(home_region_, region); // deterministic id
  }
  const std::uint32_t dst_idx = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back({node_name, nic, node_sim, region});
  nic->set_rx_handler(kEtherTypePathProbe,
                      [this, dst_idx](const net::EthernetFrame& frame, const net::RxMeta& meta) {
                        on_probe(dst_idx, frame, meta);
                      });
}

void PathDelayMeter::on_probe(std::uint32_t dst_idx, const net::EthernetFrame& frame,
                              const net::RxMeta& meta) {
  gptp::ByteReader r(frame.payload);
  const std::uint32_t src_idx = r.u32();
  const std::int64_t tx_true_ns = r.i64();
  if (!r.ok() || src_idx >= nodes_.size() || delays_.empty()) return;
  // Executing in the receiver's region, which alone writes row dst_idx.
  delays_[dst_idx * nodes_.size() + src_idx].add(
      static_cast<double>(meta.true_rx_time.ns() - tx_true_ns));
}

void PathDelayMeter::send_from(std::uint32_t src_idx) {
  const Node& src = nodes_[src_idx];
  const std::int64_t tx_true_ns = (src.sim != nullptr ? *src.sim : sim_).now().ns();
  for (const Node& dst : nodes_) {
    if (dst.nic == src.nic) continue;
    net::EthernetFrame frame;
    frame.dst = dst.nic->mac();
    frame.ethertype = kEtherTypePathProbe;
    if (vlan_id_ != 0) frame.vlan = net::VlanTag{vlan_id_, 0};
    gptp::BasicByteWriter<net::Payload> w(frame.payload);
    w.u32(src_idx);
    w.i64(tx_true_ns);
    w.zeros(34); // pad to a plausible probe size
    src.nic->send(std::move(frame));
  }
}

void PathDelayMeter::sweep() {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (rt_ != nullptr && nodes_[i].region != home_region_) {
      // Command the node's region to send; +2x lookahead keeps the post
      // legal however late in the stage this sweep executes.
      const sim::SimTime at(sim_.now().ns() + 2 * sim::kControlLookaheadNs);
      rt_->post_control(nodes_[i].region, at, [this, i] { send_from(i); });
    } else {
      send_from(i);
    }
  }
  if (--rounds_left_ > 0) {
    sim_.after(spacing_ns_, [this] { sweep(); });
  } else if (on_done_) {
    // Give in-flight probes time to land before reporting (partitioned:
    // plus the 2 ms command leg). The end of calibration fixes where the
    // experiment starts, so this margin is part of every later result.
    const std::int64_t margin = rt_ != nullptr ? 4 * sim::kControlLookaheadNs : 0;
    sim_.after(spacing_ns_ + margin, [this] { on_done_(); });
  }
}

void PathDelayMeter::run(int rounds, std::int64_t spacing_ns, std::function<void()> on_done) {
  delays_.resize(nodes_.size() * nodes_.size());
  rounds_left_ = rounds;
  spacing_ns_ = spacing_ns;
  on_done_ = std::move(on_done);
  sim_.after(0, [this] { sweep(); });
}

std::size_t PathDelayMeter::index_of(const std::string& node_name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == node_name) return i;
  }
  return nodes_.size();
}

const util::RunningStats* PathDelayMeter::pair_delay(const std::string& src,
                                                     const std::string& dst) const {
  const std::size_t s = index_of(src);
  const std::size_t d = index_of(dst);
  if (s == nodes_.size() || d == nodes_.size() || delays_.empty()) return nullptr;
  const util::RunningStats& st = delays_[d * nodes_.size() + s];
  return st.count() > 0 ? &st : nullptr;
}

std::uint64_t PathDelayMeter::probes_received() const {
  std::uint64_t n = 0;
  for (const util::RunningStats& st : delays_) n += st.count();
  return n;
}

// Never-measured cells (the diagonal, dead destinations) are skipped:
// an empty RunningStats reports min() == max() == 0.

double PathDelayMeter::dmin_ns() const {
  double lo = std::numeric_limits<double>::infinity();
  for (const util::RunningStats& st : delays_) {
    if (st.count() > 0) lo = std::min(lo, st.min());
  }
  return lo;
}

double PathDelayMeter::dmax_ns() const {
  double hi = -std::numeric_limits<double>::infinity();
  for (const util::RunningStats& st : delays_) {
    if (st.count() > 0) hi = std::max(hi, st.max());
  }
  return hi;
}

double PathDelayMeter::gamma_ns(const std::string& measurement_node,
                                const std::vector<std::string>& destinations) const {
  double path_max = -std::numeric_limits<double>::infinity();
  double path_min = std::numeric_limits<double>::infinity();
  for (const auto& dst : destinations) {
    const util::RunningStats* st = pair_delay(measurement_node, dst);
    if (st == nullptr) continue;
    path_max = std::max(path_max, st->max());
    path_min = std::min(path_min, st->min());
  }
  if (path_min > path_max) return 0.0;
  return path_max - path_min;
}

} // namespace tsn::measure
