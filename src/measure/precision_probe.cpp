#include "measure/precision_probe.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "gptp/wire.hpp"
#include "sim/persist.hpp"
#include "util/log.hpp"

namespace tsn::measure {

net::MacAddress measurement_group() {
  return net::MacAddress({0x01, 0x00, 0x5E, 0x4D, 0x45, 0x41}); // "MEA"
}

PrecisionProbe::PrecisionProbe(sim::Simulation& sim, net::Nic& sender, const ProbeConfig& cfg,
                               const std::string& name)
    : sim_(sim),
      sender_(sender),
      cfg_(cfg),
      name_(name),
      ts_jitter_rng_(sim.make_rng("probe-swts/" + name)) {}

void PrecisionProbe::set_partitioned(sim::PartitionRuntime* rt, std::size_t home_region) {
  assert(receivers_.empty()); // streams/channels are set up per receiver
  rt_ = rt;
  home_region_ = home_region;
}

void PrecisionProbe::add_receiver(const Receiver& r, std::size_t region) {
  receivers_.push_back(r);
  r.nic->join_multicast(measurement_group());
  net::Nic* nic = r.nic;
  hv::ClockSyncVm* vm = r.vm;
  hv::Ecd* ecd = r.ecd;
  if (rt_ != nullptr) {
    const bool remote = region != home_region_;
    if (remote) rt_->control_channel(region, home_region_); // deterministic id
    rx_rngs_.push_back(ecd->sim().make_rng("probe-swts/" + name_ + "/" + r.name));
    const std::size_t rx_idx = rx_rngs_.size() - 1;
    nic->set_rx_handler(
        kEtherTypePrecisionProbe,
        [this, vm, ecd, rx_idx, remote](const net::EthernetFrame& frame, const net::RxMeta&) {
          if (!vm->running()) return; // dead VMs do not serve measurements
          gptp::ByteReader rd(frame.payload);
          const std::uint32_t seq = rd.u32();
          if (!rd.ok()) return;
          const auto synctime = ecd->read_synctime();
          if (!synctime) return; // CLOCK_SYNCTIME not yet published
          util::RngStream& rng = rx_rngs_[rx_idx];
          double jitter = rng.normal(0.0, cfg_.sw_timestamp_jitter_ns);
          if (cfg_.sw_ts_tail_prob > 0 && rng.chance(cfg_.sw_ts_tail_prob)) {
            jitter += rng.exponential(cfg_.sw_ts_tail_mean_ns);
          }
          const double stamp = static_cast<double>(*synctime) + jitter;
          if (!remote) {
            pending_[seq].push_back(stamp);
            return;
          }
          const sim::SimTime at(ecd->sim().now().ns() + sim::kControlLookaheadNs);
          rt_->post_control(home_region_, at,
                            [this, seq, stamp] { pending_[seq].push_back(stamp); });
        });
    return;
  }
  nic->set_rx_handler(
      kEtherTypePrecisionProbe,
      [this, vm, ecd](const net::EthernetFrame& frame, const net::RxMeta&) {
        if (!vm->running()) return; // dead VMs do not serve measurements
        gptp::ByteReader rd(frame.payload);
        const std::uint32_t seq = rd.u32();
        if (!rd.ok()) return;
        const auto synctime = ecd->read_synctime();
        if (!synctime) return; // CLOCK_SYNCTIME not yet published
        double jitter = ts_jitter_rng_.normal(0.0, cfg_.sw_timestamp_jitter_ns);
        if (cfg_.sw_ts_tail_prob > 0 && ts_jitter_rng_.chance(cfg_.sw_ts_tail_prob)) {
          jitter += ts_jitter_rng_.exponential(cfg_.sw_ts_tail_mean_ns);
        }
        pending_[seq].push_back(static_cast<double>(*synctime) + jitter);
      });
}

void PrecisionProbe::start() {
  if (periodic_.active()) return;
  parked_.park_at(sim_.now().ns() + cfg_.period_ns);
  ff_resume();
}

void PrecisionProbe::stop() { periodic_.cancel(); }

void PrecisionProbe::send_probe() {
  const std::uint32_t seq = ++seq_;
  net::EthernetFrame frame;
  frame.dst = measurement_group();
  frame.ethertype = kEtherTypePrecisionProbe;
  frame.vlan = net::VlanTag{cfg_.vlan_id, 6};
  gptp::BasicByteWriter<net::Payload> w(frame.payload);
  w.u32(seq);
  w.zeros(42);
  sender_.send(std::move(frame));
  sim_.after(cfg_.collect_delay_ns, [this, seq] { evaluate(seq); });
}

template <class Ar>
void PrecisionProbe::persist(Ar& ar) {
  parked_.persist(ar, periodic_);
  ar.u32(seq_);
  ar.u64(measured_);
  ar.u64(skipped_);
  ar.rng(ts_jitter_rng_);
  std::uint64_t n_rx = rx_rngs_.size();
  ar.u64(n_rx);
  if (n_rx != rx_rngs_.size()) {
    throw std::runtime_error("PrecisionProbe::load_state: receiver-stream count mismatch for " +
                             name_);
  }
  for (util::RngStream& rng : rx_rngs_) ar.rng(rng);
  // pending_ is empty at any component-quiescent instant (the in-flight
  // evaluate event blocks the gate), but persist it anyway so the format
  // does not silently depend on that invariant.
  ar.map(pending_, [&ar](auto& seq, std::vector<double>& stamps) {
    ar.u32(seq);
    ar.seq(stamps, [&ar](double& s) { ar.f64(s); });
  });
  series_.persist(ar);
  if constexpr (Ar::kLoading) ff_resume();
}
TSN_PERSIST_INSTANTIATE(PrecisionProbe);

void PrecisionProbe::ff_park() { parked_.park(periodic_); }

void PrecisionProbe::ff_resume() {
  parked_.resume(sim_, periodic_, cfg_.period_ns, [this](sim::SimTime) { send_probe(); });
}

void PrecisionProbe::evaluate(std::uint32_t seq) {
  auto it = pending_.find(seq);
  const std::vector<double> stamps = (it == pending_.end()) ? std::vector<double>{} : it->second;
  if (it != pending_.end()) pending_.erase(it);
  if (stamps.size() < 2) {
    ++skipped_;
    return;
  }
  double lo = stamps[0], hi = stamps[0];
  for (double s : stamps) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  const double precision = hi - lo; // max pairwise |difference|
  series_.add(sim_.now().ns(), precision);
  ++measured_;
  if (on_sample) on_sample(sim_.now().ns(), precision);
}

} // namespace tsn::measure
