#include "probes.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/fta.hpp"
#include "core/ft_shmem.hpp"
#include "core/seqlock.hpp"
#include "gptp/messages.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/switch.hpp"
#include "profiler.hpp"
#include "sim/simulation.hpp"
#include "stats.hpp"
#include "tsn_time/oscillator.hpp"
#include "tsn_time/phc_clock.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace tsn;

/// Keeps `v` observable so the timed call is not folded away.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "m"(v) : "memory");
}

/// Median over 15 batches of the per-call time of `fn`; the batch size
/// doubles until one batch takes at least 2 ms.
template <typename Fn>
double per_call_ns(Fn&& fn) {
  std::size_t calls = 16;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    if (seconds_between(t0, Clock::now()) >= 2e-3 || calls >= (1u << 24)) break;
    calls *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < 15; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    per_call.push_back(seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

time::PhcModel phc_model(const experiments::ScenarioConfig& cfg) {
  time::PhcModel m;
  m.oscillator.max_drift_ppm = cfg.max_drift_ppm;
  m.oscillator.wander_sigma_ppm = cfg.wander_sigma_ppm;
  m.timestamp_jitter_ns = cfg.nic_ts_jitter_ns;
  return m;
}

/// One multicast frame into port 0 of a switch with the workload's port
/// count and residence model, fanned out to a NIC on every other port;
/// the call drains every hop.
double probe_forward(const ProbeShape& shape) {
  const std::size_t ports = std::max<std::size_t>(2, shape.switch_ports);
  sim::Simulation sim(shape.cfg.seed);
  const time::PhcModel phc = phc_model(shape.cfg);
  net::SwitchConfig scfg;
  scfg.port_count = ports;
  scfg.residence_base_ns = shape.cfg.switch_residence_ns;
  scfg.residence_jitter_ns = shape.cfg.switch_residence_jitter_ns;
  scfg.phc = phc;
  net::Switch sw(sim, scfg, "probe-sw");
  std::vector<std::unique_ptr<net::Nic>> nics;
  std::vector<std::unique_ptr<net::Link>> links;
  net::LinkConfig lc;
  lc.a_to_b = {shape.cfg.host_link_delay_ns, shape.cfg.host_link_jitter_ns};
  lc.b_to_a = lc.a_to_b;
  for (std::size_t i = 0; i < ports; ++i) {
    nics.push_back(std::make_unique<net::Nic>(sim, phc, net::MacAddress::from_u64(0x10 + i),
                                              "probe-n" + std::to_string(i)));
    links.push_back(std::make_unique<net::Link>(sim, nics.back()->port(), sw.port(i), lc,
                                                "probe-l" + std::to_string(i)));
  }
  const net::MacAddress mcast = net::MacAddress::from_u64(0x333300000001ULL);
  std::uint64_t delivered = 0;
  for (std::size_t p = 1; p < ports; ++p) {
    sw.add_fdb_entry(0, mcast, p);
    nics[p]->join_multicast(mcast);
    nics[p]->set_rx_handler(0x1234, [&delivered](const net::EthernetFrame&, const net::RxMeta&) {
      ++delivered;
    });
  }
  const double ns = per_call_ns([&] {
    net::FrameRef frame = net::FramePool::local().acquire();
    net::EthernetFrame& eth = frame.writable();
    eth.dst = mcast;
    eth.src = nics[0]->mac();
    eth.ethertype = 0x1234;
    eth.payload.resize(64);
    nics[0]->send(std::move(frame), {});
    sim.run_until(sim::SimTime(sim.now().ns() + 1'000'000));
  });
  keep(delivered);
  return ns;
}

double probe_parse(const ProbeShape& shape) {
  gptp::FollowUpMessage m;
  m.header.type = gptp::MessageType::kFollowUp;
  m.header.domain = static_cast<std::uint8_t>(shape.domains - 1);
  m.header.sequence_id = 7;
  m.precise_origin = gptp::Timestamp::from_ns(123'456'789);
  const auto bytes = gptp::serialize(gptp::Message{m});
  return per_call_ns([&] {
    auto parsed = gptp::parse(bytes);
    keep(parsed);
  });
}

double probe_fta(const ProbeShape& shape) {
  util::RngStream rng(shape.cfg.seed, "perfbench-fta");
  std::vector<double> offsets;
  for (std::size_t i = 0; i < shape.domains; ++i) offsets.push_back(rng.uniform(-2'000.0, 2'000.0));
  const int f = shape.cfg.fta_f;
  return per_call_ns([&] {
    auto r = core::fault_tolerant_average(offsets, f);
    keep(r);
  });
}

double probe_seqlock(const ProbeShape& shape) {
  std::vector<core::SeqLock<core::GmOffsetRecord>> slots(shape.domains);
  for (auto& s : slots) s.store({});
  const double per_sweep = per_call_ns([&] {
    for (const auto& s : slots) {
      const core::GmOffsetRecord r = s.load();
      keep(r);
    }
  });
  return per_sweep / static_cast<double>(slots.size());
}

double probe_phc_read(const ProbeShape& shape) {
  sim::Simulation sim(shape.cfg.seed);
  time::PhcClock phc(sim, phc_model(shape.cfg), "probe-phc");
  return per_call_ns([&] {
    const std::int64_t t = phc.read();
    keep(t);
  });
}

double probe_advance_coarse(const ProbeShape& shape) {
  time::OscillatorModel m = phc_model(shape.cfg).oscillator;
  time::Oscillator osc(m, util::RngStream(shape.cfg.seed, "perfbench-osc"));
  std::int64_t t = 0;
  return per_call_ns([&] {
    t += shape.coarse_span_ns;
    const long double ticks = osc.advance_coarse(sim::SimTime(t));
    keep(ticks);
  });
}

} // namespace

void run_probes(const ProbeShape& shape, std::map<std::string, double>& layer) {
  layer["net.forward_ns"] = probe_forward(shape);
  layer["gptp.msg_parse_ns"] = probe_parse(shape);
  layer["core.fta_ns"] = probe_fta(shape);
  layer["core.seqlock_read_ns"] = probe_seqlock(shape);
  layer["time.phc_read_ns"] = probe_phc_read(shape);
  layer["time.advance_coarse_ns"] = probe_advance_coarse(shape);
}

} // namespace perfbench
