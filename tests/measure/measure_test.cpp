#include <gtest/gtest.h>

#include "measure/bound.hpp"
#include "measure/path_delay.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "sim/simulation.hpp"

namespace tsn::measure {
namespace {

using tsn::sim::SimTime;
using tsn::sim::Simulation;
using namespace tsn::sim::literals;

TEST(BoundTest, PaperExperiment1Values) {
  // Section III-B: dmin 4120, dmax 9188 -> E 5068, Pi 12.636 us.
  BoundInputs in;
  in.dmin_ns = 4120;
  in.dmax_ns = 9188;
  const auto b = compute_bound(in);
  EXPECT_DOUBLE_EQ(b.reading_error_ns, 5068.0);
  EXPECT_DOUBLE_EQ(b.drift_offset_ns, 1250.0);
  EXPECT_DOUBLE_EQ(b.multiplier, 2.0);
  EXPECT_DOUBLE_EQ(b.pi_ns, 12'636.0);
}

TEST(BoundTest, ScalesWithSyncInterval) {
  BoundInputs in;
  in.dmin_ns = 0;
  in.dmax_ns = 0;
  in.sync_interval_ns = 1'000'000'000; // 1 s
  const auto b = compute_bound(in);
  EXPECT_DOUBLE_EQ(b.drift_offset_ns, 10'000.0); // 2 * 5ppm * 1s
  EXPECT_DOUBLE_EQ(b.pi_ns, 20'000.0);
}

TEST(BoundTest, MoreCLocksTightenMultiplier) {
  BoundInputs in;
  in.dmin_ns = 0;
  in.dmax_ns = 1000;
  in.n = 7;
  in.f = 1;
  const auto b = compute_bound(in);
  EXPECT_DOUBLE_EQ(b.multiplier, 1.25); // (7-2)/(7-3)
}

time::PhcModel quiet() {
  time::PhcModel m;
  m.oscillator.initial_drift_ppm = 0.0;
  m.oscillator.wander_sigma_ppm = 0.0;
  m.timestamp_jitter_ns = 0.0;
  return m;
}

TEST(PathDelayMeterTest, MeasuresAsymmetricPairDelays) {
  Simulation sim{9};
  net::Nic a(sim, quiet(), net::MacAddress::from_u64(0xA), "a");
  net::Nic b(sim, quiet(), net::MacAddress::from_u64(0xB), "b");
  net::LinkConfig lc;
  lc.a_to_b = {1000, 0.0};
  lc.b_to_a = {3000, 0.0};
  net::Link link(sim, a.port(), b.port(), lc, "ab");

  PathDelayMeter meter(sim, 0, "meter");
  meter.add_node("a", &a);
  meter.add_node("b", &b);
  bool done = false;
  meter.run(5, 10_ms, [&] { done = true; });
  sim.run_until(SimTime(1_s));
  ASSERT_TRUE(done);
  EXPECT_EQ(meter.probes_received(), 10u);
  // Probe frames: 46B payload -> 64B minimum frame + 20B overhead = 672 ns
  // serialization (true transit includes it), plus propagation.
  const util::RunningStats* ab = meter.pair_delay("a", "b");
  const util::RunningStats* ba = meter.pair_delay("b", "a");
  ASSERT_NE(ab, nullptr);
  ASSERT_NE(ba, nullptr);
  EXPECT_EQ(ab->count(), 5u);
  EXPECT_NEAR(ab->mean(), 1000.0 + 672.0, 2.0);
  EXPECT_NEAR(ba->mean(), 3000.0 + 672.0, 2.0);
  EXPECT_NEAR(meter.reading_error_ns(), 2000.0, 4.0);
}

TEST(PathDelayMeterTest, GammaOverSelectedPaths) {
  Simulation sim{9};
  net::Nic a(sim, quiet(), net::MacAddress::from_u64(0xA), "a");
  net::Nic b(sim, quiet(), net::MacAddress::from_u64(0xB), "b");
  net::LinkConfig lc;
  lc.a_to_b = {1000, 0.0};
  lc.b_to_a = {1400, 0.0};
  net::Link link(sim, a.port(), b.port(), lc, "ab");
  PathDelayMeter meter(sim, 0, "meter");
  meter.add_node("a", &a);
  meter.add_node("b", &b);
  meter.run(3, 10_ms);
  sim.run_until(SimTime(1_s));
  // gamma over only a->b: zero jitter -> max == min -> gamma == 0.
  EXPECT_NEAR(meter.gamma_ns("a", {"b"}), 0.0, 1.0);
  // Unknown destination contributes nothing.
  EXPECT_EQ(meter.gamma_ns("a", {"zzz"}), 0.0);
}

TEST(PathDelayMeterTest, DeadDestinationYieldsNoSamples) {
  Simulation sim{9};
  net::Nic a(sim, quiet(), net::MacAddress::from_u64(0xA), "a");
  net::Nic b(sim, quiet(), net::MacAddress::from_u64(0xB), "b");
  net::LinkConfig lc;
  net::Link link(sim, a.port(), b.port(), lc, "ab");
  b.set_up(false);
  PathDelayMeter meter(sim, 0, "meter");
  meter.add_node("a", &a);
  meter.add_node("b", &b);
  meter.run(3, 10_ms);
  sim.run_until(SimTime(1_s));
  EXPECT_EQ(meter.pair_delay("a", "b"), nullptr);
}

TEST(PathDelayMeterTest, NeverMeasuredPairsAreAbsentAndIgnored) {
  // c has no link: every pair touching it, and every node's pair with
  // itself, stays empty. An empty RunningStats reports min() == 0, so a
  // dense table that did not skip them would pull dmin down to 0.
  Simulation sim{9};
  net::Nic a(sim, quiet(), net::MacAddress::from_u64(0xA), "a");
  net::Nic b(sim, quiet(), net::MacAddress::from_u64(0xB), "b");
  net::Nic c(sim, quiet(), net::MacAddress::from_u64(0xC), "c");
  net::LinkConfig lc;
  lc.a_to_b = {1000, 0.0};
  lc.b_to_a = {3000, 0.0};
  net::Link link(sim, a.port(), b.port(), lc, "ab");
  PathDelayMeter meter(sim, 0, "meter");
  meter.add_node("a", &a);
  meter.add_node("b", &b);
  meter.add_node("c", &c);
  meter.run(4, 10_ms);
  sim.run_until(SimTime(1_s));
  EXPECT_EQ(meter.probes_received(), 8u);
  EXPECT_EQ(meter.pair_delay("a", "c"), nullptr);
  EXPECT_EQ(meter.pair_delay("c", "b"), nullptr);
  EXPECT_EQ(meter.pair_delay("a", "a"), nullptr);
  EXPECT_EQ(meter.pair_delay("a", "zzz"), nullptr);
  EXPECT_NE(meter.pair_delay("a", "b"), nullptr);
  EXPECT_NEAR(meter.dmin_ns(), 1000.0 + 672.0, 2.0);
  EXPECT_NEAR(meter.dmax_ns(), 3000.0 + 672.0, 2.0);
  // gamma over a set whose only measured path is a -> b.
  EXPECT_NEAR(meter.gamma_ns("a", {"b", "c"}), 0.0, 1.0);
  EXPECT_EQ(meter.gamma_ns("c", {"a", "b"}), 0.0);
}

} // namespace
} // namespace tsn::measure
