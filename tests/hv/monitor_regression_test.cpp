// Regression tests for the two monitor bugs this PR fixes:
//
//   1. Even-size majority vote used the upper median, so two colluding
//      fast clocks in a 4-VM vote dragged the "median" to their side and
//      the honest VMs were voted out. The fix takes the true median
//      (midpoint of the two central values).
//   2. When the active VM failed with no healthy successor, the fail-over
//      loop silently did nothing and the failed VM kept maintaining
//      CLOCK_SYNCTIME. The fix suspends publication (deactivate), counts
//      the episode once (no_successor) and reactivates on recovery.
#include <gtest/gtest.h>

#include <stdexcept>

#include "hv/ecd.hpp"
#include "sim/persist.hpp"

namespace tsn::hv {
namespace {

using tsn::sim::SimTime;
using tsn::sim::Simulation;
using namespace tsn::sim::literals;

time::PhcModel quiet(double drift_ppm = 0.0) {
  time::PhcModel m;
  m.oscillator.initial_drift_ppm = drift_ppm;
  m.oscillator.wander_sigma_ppm = 0.0;
  m.timestamp_jitter_ns = 0.0;
  return m;
}

ClockSyncVmConfig vm_cfg(const std::string& name, std::uint64_t mac) {
  ClockSyncVmConfig cfg;
  cfg.name = name;
  cfg.mac = net::MacAddress::from_u64(mac);
  cfg.phc = quiet();
  cfg.domains = {1, 2, 3, 4};
  return cfg;
}

struct FourVmFixture {
  Simulation sim{31};
  Ecd ecd;

  FourVmFixture() : ecd(sim, {"ecd", quiet(), {}}) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      ecd.add_clock_sync_vm(vm_cfg("vm" + std::to_string(i), 0x51 + i));
    }
    ecd.start();
  }
};

TEST(MonitorRegressionTest, EvenVoteTwoColludersCannotEvictHonestMajority) {
  // Views after corruption: {0, 0, +16000, +16000}. True median = 8000,
  // every deviation is 8000 < the 10000 threshold -> nobody is excluded.
  // The old upper-median (16000) made the HONEST VMs deviate by 16000 and
  // voted them out, handing CLOCK_SYNCTIME to a colluder.
  FourVmFixture f;
  f.sim.run_until(SimTime(5_s));
  f.ecd.vm(2).updater()->set_param_corruption(16'000);
  f.ecd.vm(3).updater()->set_param_corruption(16'000);
  f.sim.run_until(SimTime(8_s));
  EXPECT_EQ(f.ecd.monitor().stats().vote_exclusions, 0u);
  EXPECT_EQ(f.ecd.monitor().stats().takeovers, 0u);
  EXPECT_FALSE(f.ecd.monitor().voted_out(0));
  EXPECT_FALSE(f.ecd.monitor().voted_out(1));
  EXPECT_TRUE(f.ecd.vm(0).is_active());
}

TEST(MonitorRegressionTest, EvenVoteSingleOutlierStillExcluded) {
  // The true-median fix must not weaken the 4-VM vote against a single
  // faulty clock: views {0, 0, 0, +50000} -> median 0 -> vm3 is out.
  FourVmFixture f;
  f.sim.run_until(SimTime(5_s));
  f.ecd.vm(3).updater()->set_param_corruption(50'000);
  f.sim.run_until(SimTime(8_s));
  EXPECT_TRUE(f.ecd.monitor().voted_out(3));
  EXPECT_EQ(f.ecd.monitor().stats().vote_exclusions, 1u);
  EXPECT_FALSE(f.ecd.monitor().voted_out(0));
  EXPECT_TRUE(f.ecd.vm(0).is_active());
  EXPECT_EQ(f.ecd.st_shmem().active_vm(), 0u);
}

struct NoSuccessorFixture {
  Simulation sim{37};
  Ecd ecd;

  NoSuccessorFixture() : ecd(sim, {"ecd", quiet(), sanity_monitor()}) {
    ecd.add_clock_sync_vm(vm_cfg("vm0", 0x61));
    ecd.add_clock_sync_vm(vm_cfg("vm1", 0x62));
    ecd.start();
  }

  static MonitorConfig sanity_monitor() {
    MonitorConfig cfg;
    cfg.max_rate_error = 1e-4; // enable the rate sanity check
    return cfg;
  }
};

TEST(MonitorRegressionTest, ActiveFailsWithNoSuccessorSuspendsPublication) {
  NoSuccessorFixture f;
  f.sim.run_until(SimTime(5_s));
  f.ecd.vm(1).shutdown(); // the only possible successor dies
  f.sim.run_until(SimTime(6_s));
  ASSERT_GE(f.ecd.monitor().stats().failures_detected, 1u);

  // The active VM starts publishing an insane rate: fail-over is wanted
  // but nobody healthy is left. The failed VM must NOT keep serving.
  f.ecd.vm(0).updater()->set_rate_corruption(1e-3);
  f.sim.run_until(SimTime(8_s));
  EXPECT_GE(f.ecd.monitor().stats().param_sanity_failures, 1u);
  EXPECT_EQ(f.ecd.monitor().stats().takeovers, 0u);
  EXPECT_EQ(f.ecd.monitor().stats().no_successor, 1u); // once per episode
  EXPECT_FALSE(f.ecd.vm(0).is_active());

  // Recovery: the rate becomes sane again and the monitor reactivates the
  // designated VM instead of leaving the node without CLOCK_SYNCTIME.
  f.ecd.vm(0).updater()->set_rate_corruption(0.0);
  f.sim.run_until(SimTime(10_s));
  EXPECT_TRUE(f.ecd.vm(0).is_active());
  EXPECT_EQ(f.ecd.monitor().stats().no_successor, 1u);

  // A second episode counts again (the latch resets on the healthy path).
  f.ecd.vm(0).updater()->set_rate_corruption(1e-3);
  f.sim.run_until(SimTime(12_s));
  EXPECT_EQ(f.ecd.monitor().stats().no_successor, 2u);
  EXPECT_FALSE(f.ecd.vm(0).is_active());
}

TEST(MonitorRegressionTest, NoSuccessorEpisodeEndsViaTakeoverWhenStandbyReturns) {
  NoSuccessorFixture f;
  f.sim.run_until(SimTime(5_s));
  f.ecd.vm(1).shutdown();
  f.sim.run_until(SimTime(6_s));
  f.ecd.vm(0).updater()->set_rate_corruption(1e-3);
  f.sim.run_until(SimTime(8_s));
  ASSERT_FALSE(f.ecd.vm(0).is_active());

  // The standby reboots while the active is still insane: the normal
  // fail-over path promotes it and ends the episode.
  f.ecd.vm(1).boot(/*first_boot=*/false);
  f.sim.run_until(SimTime(11_s));
  EXPECT_GE(f.ecd.monitor().stats().takeovers, 1u);
  EXPECT_TRUE(f.ecd.vm(1).is_active());
  EXPECT_EQ(f.ecd.st_shmem().active_vm(), 1u);
}

// Snapshot restore: check() indexes the per-VM flags by VM, so a monitor
// must refuse an archive taken from a monitor watching a different number
// of VMs instead of loading flags it would then index past.
TEST(MonitorRegressionTest, LoadRejectsArchiveWithDifferentVmCount) {
  FourVmFixture f;
  f.sim.run_until(SimTime(2_s));
  sim::StateWriter w;
  f.ecd.monitor().persist(w);

  Simulation sim{32};
  Ecd two(sim, {"ecd", quiet(), {}});
  for (std::uint64_t i = 0; i < 2; ++i) {
    two.add_clock_sync_vm(vm_cfg("vm" + std::to_string(i), 0x61 + i));
  }
  two.start();
  sim::StateReader r(w.data());
  EXPECT_THROW(two.monitor().persist(r), std::runtime_error);
}

} // namespace
} // namespace tsn::hv
