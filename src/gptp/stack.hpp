// PtpStack: binds the gPTP protocol entities of one NIC together.
//
// Owns the per-port peer-delay service plus one PtpInstance per domain, and
// demultiplexes received gPTP frames: Pdelay* messages go to the link-delay
// service (CMLDS-style, shared across domains), everything else to the
// instance serving the message's domainNumber.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gptp/instance.hpp"
#include "gptp/link_delay.hpp"
#include "net/nic.hpp"
#include "sim/simulation.hpp"

namespace tsn::gptp {

class PtpStack {
 public:
  PtpStack(sim::Simulation& sim, net::Nic& nic, const LinkDelayConfig& ld_cfg,
           const std::string& name);

  PtpStack(const PtpStack&) = delete;
  PtpStack& operator=(const PtpStack&) = delete;

  /// Add a domain instance. Must be called before start().
  PtpInstance& add_instance(const InstanceConfig& cfg);

  void start();
  void stop();

  LinkDelayService& link_delay() { return link_delay_; }
  net::Nic& nic() { return nic_; }
  std::vector<std::unique_ptr<PtpInstance>>& instances() { return instances_; }
  PtpInstance* instance_for_domain(std::uint8_t domain);

  /// Total malformed frames dropped by the demux.
  std::uint64_t malformed_frames() const { return malformed_; }

  // -- Snapshot / fast-forward support (aggregates the link-delay service
  //    and every domain instance; driven by the owning VM) -----------------
  template <class Ar> void persist(Ar& ar);
  std::size_t live_events() const;
  void ff_park();
  void ff_advance(const sim::FfWindow& w);
  void ff_resume();

 private:
  void on_rx(const net::EthernetFrame& frame, const net::RxMeta& meta);

  sim::Simulation& sim_;
  net::Nic& nic_;
  std::string name_;
  LinkDelayService link_delay_;
  std::vector<std::unique_ptr<PtpInstance>> instances_;
  std::uint64_t malformed_ = 0;
  bool started_ = false;
};

} // namespace tsn::gptp
