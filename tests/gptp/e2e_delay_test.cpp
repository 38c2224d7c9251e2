// IEEE 1588 end-to-end delay mechanism (the protocol family's default,
// provided as a baseline to 802.1AS's peer-to-peer + bridge correction).
#include <gtest/gtest.h>

#include <cmath>

#include "gptp_test_util.hpp"
#include "net/switch.hpp"
#include "util/stats.hpp"

namespace tsn::gptp {
namespace {

using testutil::StackPair;
using testutil::symmetric_link;
using tsn::sim::SimTime;
using tsn::sim::Simulation;
using namespace tsn::sim::literals;

InstanceConfig e2e_gm() {
  InstanceConfig cfg;
  cfg.role = PortRole::kMaster;
  cfg.delay_mechanism = DelayMechanism::kE2E;
  return cfg;
}

InstanceConfig e2e_slave() {
  InstanceConfig cfg;
  cfg.role = PortRole::kSlave;
  cfg.delay_mechanism = DelayMechanism::kE2E;
  return cfg;
}

TEST(E2eMessagesTest, DelayReqRoundTrip) {
  DelayReqMessage m;
  m.header.type = MessageType::kDelayReq;
  m.header.sequence_id = 99;
  const auto bytes = serialize(Message{m});
  EXPECT_EQ(bytes.size(), 44u);
  const auto parsed = parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  const auto* req = std::get_if<DelayReqMessage>(&*parsed);
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->header.sequence_id, 99);
}

TEST(E2eMessagesTest, DelayRespRoundTrip) {
  DelayRespMessage m;
  m.header.type = MessageType::kDelayResp;
  m.receive_timestamp = Timestamp::from_ns(123'456'789);
  m.requesting_port = {ClockIdentity::from_u64(0x42), 3};
  const auto parsed = parse(serialize(Message{m}));
  ASSERT_TRUE(parsed.has_value());
  const auto* resp = std::get_if<DelayRespMessage>(&*parsed);
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->receive_timestamp.to_ns(), 123'456'789);
  EXPECT_EQ(resp->requesting_port.port, 3);
}

TEST(E2eDelayTest, MeasuresPathDelayOnDirectLink) {
  StackPair p(0.0, 0.0, symmetric_link(1500));
  p.stack_a.add_instance(e2e_gm());
  auto& slave = p.stack_b.add_instance(e2e_slave());
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(15_s));
  EXPECT_GT(slave.counters().delay_resps_received, 5u);
  EXPECT_FALSE(std::isnan(slave.e2e_path_delay_ns()));
  EXPECT_NEAR(slave.e2e_path_delay_ns(), 1500.0, 10.0);
}

TEST(E2eDelayTest, SlaveConvergesWithE2e) {
  StackPair p(3.0, -3.0, symmetric_link(1200), /*ts_jitter=*/4.0, /*seed=*/13);
  p.nic_b.phc().step(40'000);
  p.stack_a.add_instance(e2e_gm());
  auto& slave = p.stack_b.add_instance(e2e_slave());
  slave.enable_local_servo({});
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(60_s));
  EXPECT_LT(std::abs(static_cast<double>(p.nic_a.phc().read() - p.nic_b.phc().read())), 150.0);
}

TEST(E2eDelayTest, MasterCountsAnsweredRequests) {
  StackPair p(0.0, 0.0, symmetric_link(500));
  auto& gm = p.stack_a.add_instance(e2e_gm());
  p.stack_b.add_instance(e2e_slave());
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(10_s));
  EXPECT_GE(gm.counters().delay_reqs_answered, 8u);
}

TEST(E2eDelayTest, P2pMasterIgnoresDelayReqs) {
  StackPair p(0.0, 0.0, symmetric_link(500));
  InstanceConfig gm_cfg;
  gm_cfg.role = PortRole::kMaster; // P2P master
  auto& gm = p.stack_a.add_instance(gm_cfg);
  auto& slave = p.stack_b.add_instance(e2e_slave());
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(10_s));
  EXPECT_EQ(gm.counters().delay_reqs_answered, 0u);
  EXPECT_EQ(slave.counters().delay_resps_received, 0u);
  EXPECT_TRUE(std::isnan(slave.e2e_path_delay_ns()));
}

// The E2E branch of snapshot support, which no Scenario world reaches
// (every ClockSyncVm runs P2P): captured one microsecond after the tenth
// DelayReq left, so its t3 is recorded, the last Sync pair is held and the
// DelayResp is still in flight. The slave also runs a local servo.
TEST(E2eDelayTest, E2eStateSaveLoadSaveIsByteIdentical) {
  StackPair p(3.0, -3.0, symmetric_link(1500), /*ts_jitter=*/4.0, /*seed=*/13);
  p.stack_a.add_instance(e2e_gm());
  auto& slave = p.stack_b.add_instance(e2e_slave());
  slave.enable_local_servo({});
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(10_s + 1_us));
  ASSERT_FALSE(std::isnan(slave.e2e_path_delay_ns()));
  testutil::expect_save_load_save_identical(p.sim, p.stack_a);
  testutil::expect_save_load_save_identical(p.sim, p.stack_b);
}

/// GM -- dumb (PTP-unaware) switch -- slave: E2E works where P2P cannot,
/// but queueing jitter lands in the offsets uncorrected.
struct DumbSwitchE2e {
  Simulation sim{55};
  net::Switch sw;
  net::Nic gm_nic;
  net::Nic slave_nic;
  net::Link lg;
  net::Link ls;
  PtpStack stack_g;
  PtpStack stack_s;

  static net::SwitchConfig sw_cfg(double residence_jitter) {
    net::SwitchConfig cfg;
    cfg.port_count = 3;
    cfg.residence_base_ns = 2'000;
    cfg.residence_jitter_ns = residence_jitter;
    cfg.phc.oscillator.initial_drift_ppm = 0.0;
    cfg.phc.oscillator.wander_sigma_ppm = 0.0;
    return cfg;
  }

  explicit DumbSwitchE2e(double residence_jitter)
      : sw(sim, sw_cfg(residence_jitter), "dumb"),
        gm_nic(sim, testutil::phc_with_drift(0.0), net::MacAddress::from_u64(0xA), "gm"),
        slave_nic(sim, testutil::phc_with_drift(0.0), net::MacAddress::from_u64(0xB), "sl"),
        lg(sim, gm_nic.port(), sw.port(0), testutil::symmetric_link(500), "g"),
        ls(sim, slave_nic.port(), sw.port(1), testutil::symmetric_link(500), "s"),
        stack_g(sim, gm_nic, {}, "G"),
        stack_s(sim, slave_nic, {}, "S") {}
        // NOTE: no TimeAwareBridge attached -> the switch just forwards PTP.
};

TEST(E2eDelayTest, WorksThroughPtpUnawareSwitch) {
  DumbSwitchE2e t(0.0);
  t.stack_g.add_instance(e2e_gm());
  auto& slave = t.stack_s.add_instance(e2e_slave());
  util::RunningStats st;
  slave.set_offset_callback([&](const MasterOffsetSample& s) { st.add(s.offset_ns); });
  t.stack_g.start();
  t.stack_s.start();
  t.sim.run_until(SimTime(20_s));
  ASSERT_GT(st.count(), 50u);
  // Symmetric path, no jitter: E2E fully accounts for the 2 us residence.
  EXPECT_LT(std::abs(st.mean()), 20.0);
  EXPECT_NEAR(slave.e2e_path_delay_ns(), 500.0 + 2'000.0 + 500.0 + 672.0, 30.0);
}

TEST(E2eDelayTest, QueueingJitterLandsInOffsetsUncorrected) {
  // The structural weakness vs 802.1AS P2P: a time-aware bridge timestamps
  // and corrects its residence; a dumb switch cannot, so its jitter goes
  // straight into the E2E offsets.
  DumbSwitchE2e t(400.0);
  t.stack_g.add_instance(e2e_gm());
  auto& slave = t.stack_s.add_instance(e2e_slave());
  util::RunningStats st;
  slave.set_offset_callback([&](const MasterOffsetSample& s) { st.add(s.offset_ns); });
  t.stack_g.start();
  t.stack_s.start();
  t.sim.run_until(SimTime(30_s));
  ASSERT_GT(st.count(), 100u);
  EXPECT_GT(st.stddev(), 200.0); // vs ~10 ns for P2P through a bridge
}

} // namespace
} // namespace tsn::gptp
