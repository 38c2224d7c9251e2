// End-to-end single-domain synchronization over a direct link:
// a grandmaster instance disciplines a slave's PHC via the slave's local
// PI servo (classic ptp4l operation, the baseline the paper builds on).
#include <gtest/gtest.h>

#include <cmath>

#include "gptp_test_util.hpp"
#include "util/stats.hpp"

namespace tsn::gptp {
namespace {

using testutil::StackPair;
using testutil::symmetric_link;
using tsn::sim::SimTime;
using namespace tsn::sim::literals;

InstanceConfig gm_config(std::uint8_t domain = 0) {
  InstanceConfig cfg;
  cfg.domain = domain;
  cfg.role = PortRole::kMaster;
  return cfg;
}

InstanceConfig slave_config(std::uint8_t domain = 0) {
  InstanceConfig cfg;
  cfg.domain = domain;
  cfg.role = PortRole::kSlave;
  return cfg;
}

/// |GM PHC - slave PHC| at the current instant (true simultaneous reads).
double phc_disagreement(StackPair& p) {
  return std::abs(static_cast<double>(p.nic_a.phc().read() - p.nic_b.phc().read()));
}

TEST(SyncE2eTest, SlaveConvergesToGm) {
  StackPair p(2.0, -3.0, symmetric_link(1000), /*ts_jitter=*/4.0, /*seed=*/7);
  p.nic_b.phc().step(50'000); // 50 us initial phase error
  p.stack_a.add_instance(gm_config());
  auto& slave = p.stack_b.add_instance(slave_config());
  slave.enable_local_servo({});
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(60_s));
  EXPECT_LT(phc_disagreement(p), 100.0);
  EXPECT_GT(slave.counters().offsets_computed, 100u);
}

TEST(SyncE2eTest, ConvergedOffsetSamplesAreSmall) {
  StackPair p(0.0, 5.0, symmetric_link(800), 4.0, 11);
  p.stack_a.add_instance(gm_config());
  auto& slave = p.stack_b.add_instance(slave_config());
  slave.enable_local_servo({});
  double last_offset = 1e18;
  slave.set_offset_callback({}); // keep local servo path
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(60_s));
  // Tap offsets after convergence.
  util::RunningStats st;
  auto& slave2 = slave;
  slave2.set_offset_callback([&](const MasterOffsetSample& s) {
    st.add(std::abs(s.offset_ns));
    last_offset = s.offset_ns;
    // Callback replaces the servo sink; re-apply manually to keep lock.
  });
  (void)last_offset;
  p.sim.run_until(SimTime(70_s));
  ASSERT_GT(st.count(), 10u);
  // Without servo updates in the tap window the drift is ~0 (already
  // compensated); offsets stay well under a microsecond.
  EXPECT_LT(st.mean(), 500.0);
}

TEST(SyncE2eTest, SyncIntervalRespected) {
  StackPair p(0.0, 0.0, symmetric_link(500));
  p.stack_a.add_instance(gm_config());
  auto& slave = p.stack_b.add_instance(slave_config());
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(10_s));
  // ~8 Syncs/s for 10 s minus pdelay warmup.
  EXPECT_GT(slave.counters().syncs_received, 60u);
  EXPECT_LE(slave.counters().syncs_received, 85u);
}

TEST(SyncE2eTest, AlignedLaunchTimesAreOnBoundaries) {
  StackPair p(0.0, 0.0, symmetric_link(500));
  p.stack_a.add_instance(gm_config());
  auto& slave = p.stack_b.add_instance(slave_config());
  std::vector<std::int64_t> origins;
  slave.set_offset_callback([&](const MasterOffsetSample& s) {
    origins.push_back(s.precise_origin.to_ns());
  });
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(10_s));
  ASSERT_GT(origins.size(), 10u);
  for (std::int64_t o : origins) {
    const std::int64_t mod = o % 125'000'000;
    const std::int64_t dist = std::min(mod, 125'000'000 - mod);
    EXPECT_LT(dist, 100); // origin timestamps land on S boundaries
  }
}

TEST(SyncE2eTest, MaliciousGmShiftsOffset) {
  StackPair p(0.0, 0.0, symmetric_link(500));
  auto& gm = p.stack_a.add_instance(gm_config());
  auto& slave = p.stack_b.add_instance(slave_config());
  gm.set_malicious_pot_offset(-24'000); // the paper's attack: -24 us
  double sum = 0.0;
  int n = 0;
  slave.set_offset_callback([&](const MasterOffsetSample& s) {
    sum += s.offset_ns;
    ++n;
  });
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(10_s));
  ASSERT_GT(n, 10);
  // pOT shifted down by 24 us -> computed offset shifted up by 24 us.
  EXPECT_NEAR(sum / n, 24'000.0, 100.0);
}

TEST(SyncE2eTest, SyncReceiptTimeoutFiresWhenGmDies) {
  StackPair p(0.0, 0.0, symmetric_link(500));
  p.stack_a.add_instance(gm_config());
  auto& slave = p.stack_b.add_instance(slave_config());
  std::vector<std::string> faults;
  slave.set_fault_callback([&](const std::string& kind) { faults.push_back(kind); });
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(5_s));
  EXPECT_TRUE(slave.gm_receiving());
  p.nic_a.set_up(false); // GM fails silently
  p.sim.run_until(SimTime(7_s));
  EXPECT_FALSE(slave.gm_receiving());
  ASSERT_FALSE(faults.empty());
  EXPECT_EQ(faults.front(), "sync_receipt_timeout");
  EXPECT_EQ(slave.counters().sync_receipt_timeouts, 1u);
}

TEST(SyncE2eTest, TxTimestampTimeoutSuppressesFollowUp) {
  StackPair p(0.0, 0.0, symmetric_link(500));
  auto& gm = p.stack_a.add_instance(gm_config());
  auto& slave = p.stack_b.add_instance(slave_config());
  InstanceFaultModel fm;
  fm.p_tx_timestamp_timeout = 1.0; // every Sync loses its timestamp
  gm.set_fault_model(fm);
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(5_s));
  EXPECT_GT(gm.counters().tx_timestamp_timeouts, 20u);
  EXPECT_EQ(gm.counters().followups_sent, 0u);
  EXPECT_GT(slave.counters().syncs_received, 20u);
  EXPECT_EQ(slave.counters().offsets_computed, 0u);
}

TEST(SyncE2eTest, LateLaunchCausesDeadlineMiss) {
  StackPair p(0.0, 0.0, symmetric_link(500));
  auto& gm = p.stack_a.add_instance(gm_config());
  p.stack_b.add_instance(slave_config());
  InstanceFaultModel fm;
  fm.p_late_launch = 1.0;
  gm.set_fault_model(fm);
  std::vector<std::string> faults;
  gm.set_fault_callback([&](const std::string& kind) { faults.push_back(kind); });
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(3_s));
  EXPECT_GT(gm.counters().deadline_misses, 5u);
  EXPECT_EQ(gm.counters().syncs_sent, 0u);
  ASSERT_FALSE(faults.empty());
  EXPECT_EQ(faults.front(), "deadline_miss");
}

TEST(SyncE2eTest, GmEmitsSelfOffsetZero) {
  StackPair p(0.0, 0.0, symmetric_link(500));
  auto& gm = p.stack_a.add_instance(gm_config());
  p.stack_b.add_instance(slave_config());
  int self_samples = 0;
  gm.set_offset_callback([&](const MasterOffsetSample& s) {
    EXPECT_EQ(s.offset_ns, 0.0);
    EXPECT_EQ(s.rate_ratio, 1.0);
    ++self_samples;
  });
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(3_s));
  EXPECT_GT(self_samples, 15);
}

TEST(SyncE2eTest, StopHaltsTransmission) {
  StackPair p(0.0, 0.0, symmetric_link(500));
  auto& gm = p.stack_a.add_instance(gm_config());
  auto& slave = p.stack_b.add_instance(slave_config());
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(3_s));
  const auto sent_before = gm.counters().syncs_sent;
  gm.stop();
  p.sim.run_until(SimTime(6_s));
  EXPECT_EQ(gm.counters().syncs_sent, sent_before);
  (void)slave;
}

} // namespace
} // namespace tsn::gptp
