// Store-and-forward Ethernet switch with static VLAN-aware forwarding.
//
// Models the "integrated Linux-based TSN switch" of each ECD. gPTP frames
// (EtherType 0x88F7) are link-local: they are never forwarded but handed to
// the per-port time-aware-bridge stack registered via set_ptp_sink. All
// other traffic is forwarded according to the static FDB / VLAN membership
// the experiments configure (the paper pins measurement traffic to a VLAN
// with known paths).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/frame_pool.hpp"
#include "net/port.hpp"
#include "sim/persist.hpp"
#include "sim/simulation.hpp"
#include "tsn_time/phc_clock.hpp"
#include "util/rng.hpp"

namespace tsn::net {

struct SwitchConfig {
  std::size_t port_count = 6;
  /// Store-and-forward processing latency per frame.
  std::int64_t residence_base_ns = 2'000;
  /// Gaussian residence jitter stddev (queueing variation).
  double residence_jitter_ns = 250.0;
  /// Drop frames whose destination has no FDB entry instead of flooding.
  /// Mandatory in looped topologies (the paper's mesh) where flooding an
  /// unknown destination would storm forever.
  bool drop_unknown_unicast = false;
  time::PhcModel phc;
};

class Switch : public FrameSink, public sim::Persistent {
 public:
  Switch(sim::Simulation& sim, const SwitchConfig& cfg, const std::string& name);

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  const std::string& name() const { return name_; }
  std::size_t port_count() const { return ports_.size(); }
  Port& port(std::size_t idx) { return *ports_.at(idx); }
  time::PhcClock& phc() { return phc_; }

  /// VLAN membership: only member ports carry frames tagged with `vid`.
  /// Untagged frames use vid 0; all ports are implicit members of vid 0.
  void add_vlan_member(std::uint16_t vid, std::size_t port_idx);

  /// Static FDB entry; multiple entries for the same (vid, mac) accumulate
  /// into a multicast egress set.
  void add_fdb_entry(std::uint16_t vid, MacAddress mac, std::size_t port_idx);

  /// Receiver for gPTP frames (per ingress port).
  using PtpSink = std::function<void(std::size_t port_idx, const EthernetFrame&, const RxMeta&)>;
  void set_ptp_sink(PtpSink sink) { ptp_sink_ = std::move(sink); }

  /// Originate a frame from one of the switch's ports (used by the
  /// time-aware bridge stack to send its own Sync/Pdelay messages).
  void send_from_port(std::size_t port_idx, FrameRef frame, TxOptions opts = {});
  void send_from_port(std::size_t port_idx, EthernetFrame frame, TxOptions opts = {});

  void handle_frame(Port& ingress, const FrameRef& frame, const RxMeta& meta) override;

  /// Residence delay draw (exposed for tests).
  std::int64_t draw_residence_ns();

  // -- sim::Persistent: free-running PHC + residence RNG. The VLAN/FDB
  // tables are static configuration; in-flight frames are queue transients
  // that the quiescence gate excludes. No standing events, so the ff hooks
  // keep their no-op defaults.
  const char* persist_name() const override { return name_.c_str(); }
  void save_state(sim::StateWriter& w) override { persist(w); }
  void load_state(sim::StateReader& r) override { persist(r); }

 private:
  template <class Ar> void persist(Ar& ar);
  std::size_t index_of(const Port& p) const;
  bool is_member(std::uint16_t vid, std::size_t port_idx) const;
  void forward(std::size_t ingress_idx, const FrameRef& frame);
  void forward_to(std::size_t out_idx, const FrameRef& frame);

  sim::Simulation& sim_;
  SwitchConfig cfg_;
  std::string name_;
  time::PhcClock phc_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::map<std::uint16_t, std::set<std::size_t>> vlan_members_;
  std::map<std::pair<std::uint16_t, std::uint64_t>, std::set<std::size_t>> fdb_;
  PtpSink ptp_sink_;
  util::RngStream residence_rng_;
};

} // namespace tsn::net
