// Clock synchronization precision measurement (paper section III-A2).
//
// A dedicated measurement VM multicasts a packet p_s once per second on a
// measurement VLAN with known, symmetric paths. Every receiving clock
// synchronization VM timestamps the reception with CLOCK_SYNCTIME (the
// dependent clock of its node) and the measured precision is
//     Pi*_s = max over receiver pairs |t_c(rx) - t_c'(rx)|     (eq. 3.1)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hv/ecd.hpp"
#include "net/nic.hpp"
#include "sim/partition.hpp"
#include "sim/persist.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/series.hpp"

namespace tsn::measure {

inline constexpr std::uint16_t kEtherTypePrecisionProbe = 0x88B5;

/// The well-known measurement multicast group.
net::MacAddress measurement_group();

struct ProbeConfig {
  std::int64_t period_ns = 1'000'000'000; // 1 Hz, as in the paper
  std::uint16_t vlan_id = 100;
  /// Software timestamping jitter when a VM stamps the arrival with
  /// CLOCK_SYNCTIME (interrupt + syscall latency variation).
  double sw_timestamp_jitter_ns = 35.0;
  /// Heavy-tail component: with this probability the stamping is delayed
  /// by an exponential extra latency (softirq/scheduling outliers, the
  /// source of the paper's sporadic multi-us precision spikes).
  double sw_ts_tail_prob = 0.002;
  double sw_ts_tail_mean_ns = 1'500.0;
  /// Wait this long after sending before evaluating an interval's
  /// timestamps (all paths are far shorter).
  std::int64_t collect_delay_ns = 100'000'000;
};

class PrecisionProbe : public sim::Persistent {
 public:
  struct Receiver {
    std::string name;
    net::Nic* nic;        ///< the clock sync VM's NIC (rx path)
    hv::ClockSyncVm* vm;  ///< for liveness: dead VMs do not stamp
    hv::Ecd* ecd;         ///< CLOCK_SYNCTIME source (STSHMEM + TSC)
  };

  PrecisionProbe(sim::Simulation& sim, net::Nic& sender, const ProbeConfig& cfg,
                 const std::string& name);

  /// Partitioned mode: the probe (sender, evaluation, series) lives in
  /// `home_region` — the Simulation passed to the constructor must be that
  /// region's — and receivers stamp in their own region, forwarding the
  /// sample over a control channel (+1 ms, well under the collect delay).
  /// Each receiver gets a private jitter stream (the serial path's single
  /// shared stream would be advanced in nondeterministic order). Call
  /// before any add_receiver().
  void set_partitioned(sim::PartitionRuntime* rt, std::size_t home_region);

  /// Register a receiving clock synchronization VM. Per the paper, the
  /// co-located VM c^m_1 is *not* registered (asymmetric path). `region`
  /// is the receiver's region (partitioned mode only).
  void add_receiver(const Receiver& r, std::size_t region = 0);

  void start();
  void stop();

  /// The measured precision series Pi*_s (one point per interval with >= 2
  /// responding receivers).
  const util::TimeSeries& series() const { return series_; }

  /// Fired for each computed interval: (sim time, precision ns).
  std::function<void(std::int64_t, double)> on_sample;

  std::uint64_t intervals_sent() const { return seq_; }
  std::uint64_t intervals_measured() const { return measured_; }
  std::uint64_t intervals_skipped() const { return skipped_; }

  /// True when no interval is waiting for its evaluation callback (the
  /// model-quiescence gate: a probe mid-collection keeps the window shut;
  /// the in-flight evaluate event also blocks it structurally).
  bool idle() const { return pending_.empty(); }

  // -- sim::Persistent ------------------------------------------------------
  // Probes that would have fired inside a fast-forward window are simply
  // skipped: the series has no points there (the probe measures, it does
  // not influence the clocks), and the send periodic re-arms on its
  // pre-park phase grid.
  const char* persist_name() const override { return name_.c_str(); }
  void save_state(sim::StateWriter& w) override { persist(w); }
  void load_state(sim::StateReader& r) override { persist(r); }
  std::size_t live_events() const override { return periodic_.active() ? 1 : 0; }
  void ff_park() override;
  void ff_resume() override;

 private:
  template <class Ar> void persist(Ar& ar);
  void send_probe();
  void evaluate(std::uint32_t seq);

  sim::Simulation& sim_;
  net::Nic& sender_;
  ProbeConfig cfg_;
  std::string name_;
  std::vector<Receiver> receivers_;
  util::RngStream ts_jitter_rng_;
  sim::PartitionRuntime* rt_ = nullptr;
  std::size_t home_region_ = 0;
  std::vector<util::RngStream> rx_rngs_; ///< per-receiver (partitioned)
  sim::Simulation::PeriodicHandle periodic_;
  std::uint32_t seq_ = 0;
  std::map<std::uint32_t, std::vector<double>> pending_; // seq -> rx timestamps
  util::TimeSeries series_;
  std::uint64_t measured_ = 0;
  std::uint64_t skipped_ = 0;

  sim::ParkedTimer parked_;
};

} // namespace tsn::measure
