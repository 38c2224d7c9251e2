// Hot-standby grandmasters via BMCA through a dynamic-mode bridge -- the
// redundancy mechanism IEEE 802.1AS/1588 "emphasize" (paper sec. I) and
// which the library provides alongside the paper's FTA approach.
//
// Topology: gmA (prio 50), gmB (prio 100) and a slave on one switch.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "gptp/bridge.hpp"
#include "gptp/stack.hpp"
#include "gptp_test_util.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/switch.hpp"
#include "sim/simulation.hpp"
#include "util/stats.hpp"

namespace tsn::gptp {
namespace {

using tsn::sim::SimTime;
using tsn::sim::Simulation;
using namespace tsn::sim::literals;

time::PhcModel phc(double drift_ppm) {
  time::PhcModel m;
  m.oscillator.initial_drift_ppm = drift_ppm;
  m.oscillator.wander_sigma_ppm = 0.0;
  m.timestamp_jitter_ns = 4.0;
  return m;
}

struct HotStandby {
  Simulation sim{77};
  net::Switch sw;
  net::Nic gm_a;
  net::Nic gm_b;
  net::Nic slave_nic;
  net::Link la;
  net::Link lb;
  net::Link ls;
  PtpStack stack_a;
  PtpStack stack_b;
  PtpStack stack_s;
  TimeAwareBridge bridge;
  PtpInstance* inst_a = nullptr;
  PtpInstance* inst_b = nullptr;
  PtpInstance* inst_s = nullptr;

  static net::SwitchConfig sw_cfg() {
    net::SwitchConfig cfg;
    cfg.port_count = 4;
    cfg.residence_jitter_ns = 50.0;
    cfg.phc.oscillator.initial_drift_ppm = 1.0;
    cfg.phc.oscillator.wander_sigma_ppm = 0.0;
    return cfg;
  }
  static BridgeConfig bridge_cfg() {
    BridgeConfig cfg;
    BridgeDomainConfig d;
    d.domain = 0;
    d.dynamic = true; // hot-standby mode
    cfg.domains = {d};
    return cfg;
  }

  HotStandby()
      : sw(sim, sw_cfg(), "sw"),
        gm_a(sim, phc(2.0), net::MacAddress::from_u64(0xA), "gmA"),
        gm_b(sim, phc(-2.0), net::MacAddress::from_u64(0xB), "gmB"),
        slave_nic(sim, phc(4.0), net::MacAddress::from_u64(0xC), "slave"),
        la(sim, gm_a.port(), sw.port(0), {}, "a"),
        lb(sim, gm_b.port(), sw.port(1), {}, "b"),
        ls(sim, slave_nic.port(), sw.port(2), {}, "s"),
        stack_a(sim, gm_a, {}, "A"),
        stack_b(sim, gm_b, {}, "B"),
        stack_s(sim, slave_nic, {}, "S"),
        bridge(sim, sw, bridge_cfg(), "br") {
    InstanceConfig a;
    a.use_bmca = true;
    a.priority1 = 50; // primary GM
    inst_a = &stack_a.add_instance(a);
    InstanceConfig b = a;
    b.priority1 = 100; // hot standby
    inst_b = &stack_b.add_instance(b);
    InstanceConfig s = a;
    s.priority1 = 255; // never a master in practice
    inst_s = &stack_s.add_instance(s);
    inst_s->enable_local_servo({});
    stack_a.start();
    stack_b.start();
    stack_s.start();
    bridge.start();
  }

  double slave_offset_to(net::Nic& gm) {
    return std::abs(static_cast<double>(slave_nic.phc().read() - gm.phc().read()));
  }
};

TEST(HotStandbyTest, PrimaryElectedThroughBridge) {
  HotStandby t;
  t.sim.run_until(SimTime(15_s));
  EXPECT_EQ(t.inst_a->role(), PortRole::kMaster);
  EXPECT_EQ(t.inst_b->role(), PortRole::kSlave);
  EXPECT_EQ(t.inst_s->role(), PortRole::kSlave);
  EXPECT_GT(t.bridge.counters().announces_relayed, 10u);
}

TEST(HotStandbyTest, SlaveSynchronizesToPrimary) {
  HotStandby t;
  t.sim.run_until(SimTime(30_s));
  // Average the disagreement over a window: single reads catch servo
  // ripple (residence jitter is 50 ns through one bridge hop).
  util::RunningStats st;
  for (int i = 0; i < 40; ++i) {
    t.sim.run_until(t.sim.now() + 250_ms);
    st.add(t.slave_offset_to(t.gm_a));
  }
  EXPECT_LT(st.mean(), 400.0);
}

TEST(HotStandbyTest, StandbyTakesOverWhenPrimaryDies) {
  HotStandby t;
  t.sim.run_until(SimTime(20_s));
  ASSERT_EQ(t.inst_a->role(), PortRole::kMaster);
  t.gm_a.set_up(false); // primary GM fails silently
  t.sim.run_until(SimTime(40_s));
  EXPECT_EQ(t.inst_b->role(), PortRole::kMaster); // hot standby promoted
  EXPECT_EQ(t.inst_s->role(), PortRole::kSlave);
  // The slave now tracks gmB.
  t.sim.run_until(SimTime(70_s));
  EXPECT_LT(t.slave_offset_to(t.gm_b), 300.0);
}

TEST(HotStandbyTest, PrimaryReclaimsOnReturn) {
  HotStandby t;
  t.sim.run_until(SimTime(20_s));
  t.gm_a.set_up(false);
  t.sim.run_until(SimTime(40_s));
  ASSERT_EQ(t.inst_b->role(), PortRole::kMaster);
  t.gm_a.set_up(true); // better clock returns
  t.sim.run_until(SimTime(60_s));
  EXPECT_EQ(t.inst_a->role(), PortRole::kMaster);
  EXPECT_EQ(t.inst_b->role(), PortRole::kSlave);
}

TEST(HotStandbyTest, StepsRemovedGrowsAcrossBridge) {
  HotStandby t;
  // Sniff announces on the slave NIC.
  std::uint16_t seen_steps = 0;
  t.slave_nic.set_rx_handler(net::kEtherTypePtp,
                             [&](const net::EthernetFrame& f, const net::RxMeta& m) {
                               if (auto msg = parse(f.payload)) {
                                 if (auto* ann = std::get_if<AnnounceMessage>(&*msg)) {
                                   seen_steps = ann->steps_removed;
                                 }
                               }
                               // keep the stack working too
                               (void)m;
                             });
  t.sim.run_until(SimTime(5_s));
  EXPECT_EQ(seen_steps, 1u); // one bridge hop
}

// The BMCA branch of snapshot support, which no Scenario world reaches
// (every ClockSyncVm runs external port configuration): the foreign-master
// table, the announce and BMCA-evaluation timers and the slave's local
// servo must survive save -> load -> save byte for byte.
TEST(HotStandbyTest, BmcaStateSaveLoadSaveIsByteIdentical) {
  HotStandby t;
  t.sim.run_until(SimTime(20_s));
  ASSERT_EQ(t.inst_s->role(), PortRole::kSlave);
  EXPECT_GE(t.inst_s->live_events(), 3u); // receipt check + announce + BMCA evaluation
  for (PtpStack* stack : {&t.stack_a, &t.stack_b, &t.stack_s}) {
    testutil::expect_save_load_save_identical(t.sim, *stack);
  }
}

} // namespace
} // namespace tsn::gptp
