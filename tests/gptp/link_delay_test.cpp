#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "gptp_test_util.hpp"

namespace tsn::gptp {
namespace {

using testutil::StackPair;
using testutil::symmetric_link;
using tsn::sim::SimTime;
using namespace tsn::sim::literals;

TEST(LinkDelayTest, MeasuresSymmetricDelay) {
  StackPair p(0.0, 0.0, symmetric_link(1500));
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(10_s));
  ASSERT_TRUE(p.stack_a.link_delay().valid());
  // HW timestamps latch at the SFD, so the measured delay is propagation
  // only, independent of the pdelay frame's serialization time.
  const double expected = 1500.0;
  EXPECT_NEAR(p.stack_a.link_delay().mean_link_delay_ns(), expected, 10.0);
  EXPECT_NEAR(p.stack_b.link_delay().mean_link_delay_ns(), expected, 10.0);
}

TEST(LinkDelayTest, NeighborRateRatioTracksDrift) {
  // B runs +4 ppm relative to A.
  StackPair p(0.0, 4.0, symmetric_link(1000));
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(30_s));
  ASSERT_TRUE(p.stack_a.link_delay().valid());
  EXPECT_NEAR(p.stack_a.link_delay().neighbor_rate_ratio(), 1.000004, 2e-7);
  EXPECT_NEAR(p.stack_b.link_delay().neighbor_rate_ratio(), 0.999996, 2e-7);
}

TEST(LinkDelayTest, DriftDoesNotBiasDelay) {
  StackPair p(-5.0, 5.0, symmetric_link(2000));
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(30_s));
  const double expected = 2000.0;
  EXPECT_NEAR(p.stack_a.link_delay().mean_link_delay_ns(), expected, 15.0);
}

TEST(LinkDelayTest, JitterAveragesOut) {
  StackPair p(0.0, 0.0, symmetric_link(1000, 50.0), /*ts_jitter=*/8.0, /*seed=*/3);
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(60_s));
  ASSERT_TRUE(p.stack_a.link_delay().valid());
  const double expected = 1000.0;
  EXPECT_NEAR(p.stack_a.link_delay().mean_link_delay_ns(), expected, 60.0);
}

TEST(LinkDelayTest, InvalidatedWhenPeerDies) {
  StackPair p(0.0, 0.0, symmetric_link(1000));
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(5_s));
  ASSERT_TRUE(p.stack_a.link_delay().valid());
  p.nic_b.set_up(false); // peer goes silent
  p.sim.run_until(SimTime(15_s));
  EXPECT_FALSE(p.stack_a.link_delay().valid());
}

TEST(LinkDelayTest, RecoversAfterPeerReturns) {
  StackPair p(0.0, 0.0, symmetric_link(1000));
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(5_s));
  p.nic_b.set_up(false);
  p.sim.run_until(SimTime(15_s));
  ASSERT_FALSE(p.stack_a.link_delay().valid());
  p.nic_b.set_up(true);
  p.sim.run_until(SimTime(25_s));
  EXPECT_TRUE(p.stack_a.link_delay().valid());
  EXPECT_NEAR(p.stack_a.link_delay().mean_link_delay_ns(), 1000.0, 10.0);
}

// Regression: invalidation after lost responses used to keep the stale
// neighbor_rate_ratio_, so the first post-recovery exchange corrected the
// turnaround time with the dead peer's old rate. The ratio must reset to
// 1.0 on invalidation and be re-learned from the rebooted peer.
TEST(LinkDelayTest, RateRatioResetOnInvalidationAndRelearned) {
  // B runs +4 ppm; after its "reboot" it comes back at -4 ppm.
  StackPair p(0.0, 4.0, symmetric_link(1000));
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(20_s));
  ASSERT_TRUE(p.stack_a.link_delay().valid());
  EXPECT_NEAR(p.stack_a.link_delay().neighbor_rate_ratio(), 1.000004, 5e-7);

  p.nic_b.set_up(false); // peer dies
  p.sim.run_until(SimTime(30_s));
  ASSERT_FALSE(p.stack_a.link_delay().valid());
  // The stale +4 ppm estimate must not survive the invalidation.
  EXPECT_DOUBLE_EQ(p.stack_a.link_delay().neighbor_rate_ratio(), 1.0);

  // Peer reboots onto an oscillator running 8 ppm slower than before (the
  // drift attack adds outside the oscillator's +/-5 ppm clamp).
  p.nic_b.phc().set_drift_attack(-8.0);
  p.nic_b.set_up(true);
  p.sim.run_until(SimTime(60_s));
  ASSERT_TRUE(p.stack_a.link_delay().valid());
  EXPECT_NEAR(p.stack_a.link_delay().neighbor_rate_ratio(), 0.999996, 5e-7);
  // With the ratio re-learned, the delay estimate is unbiased again. Before
  // the fix the stale ratio poisoned the turnaround correction here.
  EXPECT_NEAR(p.stack_a.link_delay().mean_link_delay_ns(), 1000.0, 15.0);
}

// A compromised responder that tampers its Pdelay turnaround (t3) skews the
// honest initiator's delay and rate-ratio estimates -- the src/attack
// kPdelayTurnaround primitive. Clearing the attack lets smoothing converge
// back.
TEST(LinkDelayTest, TurnaroundTamperSkewsPeerMeasurement) {
  StackPair p(0.0, 0.0, symmetric_link(1000));
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(10_s));
  ASSERT_TRUE(p.stack_a.link_delay().valid());
  EXPECT_NEAR(p.stack_a.link_delay().mean_link_delay_ns(), 1000.0, 10.0);

  // B reports t3 values biased -2000 ns (constant: skew 0). A sees the
  // apparent turnaround shrink by 2000 ns -> +1000 ns of measured delay.
  p.stack_b.link_delay().set_turnaround_attack(-2000.0, 0.0);
  p.sim.run_until(SimTime(60_s));
  EXPECT_NEAR(p.stack_a.link_delay().mean_link_delay_ns(), 2000.0, 25.0);
  // The attacker's own measurement of the honest side stays clean.
  EXPECT_NEAR(p.stack_b.link_delay().mean_link_delay_ns(), 1000.0, 10.0);

  // A t3 ramp masquerades as a +30 ppm faster neighbor (and keeps pushing
  // the apparent delay, so only the rate estimate is asserted here).
  p.stack_b.link_delay().set_turnaround_attack(0.0, 30.0);
  p.sim.run_until(SimTime(90_s));
  EXPECT_NEAR(p.stack_a.link_delay().neighbor_rate_ratio(), 1.000030, 5e-6);
  EXPECT_NEAR(p.stack_b.link_delay().neighbor_rate_ratio(), 1.0, 5e-7);

  p.stack_b.link_delay().clear_turnaround_attack();
  p.sim.run_until(SimTime(150_s));
  EXPECT_NEAR(p.stack_a.link_delay().mean_link_delay_ns(), 1000.0, 25.0);
  EXPECT_NEAR(p.stack_a.link_delay().neighbor_rate_ratio(), 1.0, 5e-7);
}

TEST(LinkDelayTest, ExchangeCountsAdvance) {
  StackPair p(0.0, 0.0, symmetric_link(1000));
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(10_s));
  // One exchange per second per initiator (both sides initiate).
  EXPECT_GE(p.stack_a.link_delay().completed_exchanges(), 8u);
  EXPECT_GE(p.stack_b.link_delay().completed_exchanges(), 8u);
}

TEST(LinkDelayTest, LoadRejectsRingWiderThanNrrWindow) {
  LinkDelayConfig wide;
  wide.nrr_window = 8;
  StackPair p(0.0, 4.0, symmetric_link(1000), 0.0, 1, wide);
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(20_s)); // > 8 exchanges: the ring is full
  sim::StateWriter w;
  p.stack_a.link_delay().persist(w);

  LinkDelayConfig narrow;
  narrow.nrr_window = 2;
  StackPair q(0.0, 4.0, symmetric_link(1000), 0.0, 1, narrow);
  sim::StateReader r(w.data());
  EXPECT_THROW(q.stack_a.link_delay().persist(r), std::runtime_error);
}

TEST(LinkDelayTest, StoppedServiceSaveLoadSaveIsByteIdentical) {
  // A stopped chain still archives its last phase; a load must carry it
  // over so the next save reproduces the image.
  StackPair p(0.0, 0.0, symmetric_link(1000));
  p.stack_a.start();
  p.stack_b.start();
  p.sim.run_until(SimTime(5_s + 300_ms));
  p.stack_a.link_delay().stop();
  testutil::expect_save_load_save_identical(p.sim, p.stack_a.link_delay());
}

} // namespace
} // namespace tsn::gptp
