// Whole-Scenario snapshot rollback (DESIGN.md §12). A serial 4-ECD world,
// brought up, calibrated and settled to a component-quiescent instant,
// must replay byte-identically after a restore: the same terminal
// snapshot hash and the same precision (Pi*) series as the uninterrupted
// run. A restored world must also save back to the exact bytes it was
// loaded from. Live attack state is armed through the component hooks,
// and ClockSyncVm's boot-state reconciliation is driven both ways.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "experiments/harness.hpp"
#include "experiments/scenario.hpp"
#include "sim/snapshot.hpp"

namespace tsn::experiments {
namespace {

constexpr std::int64_t kSec = 1'000'000'000LL;
constexpr std::int64_t kRunNs = 5 * kSec;

ScenarioConfig config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  return cfg;
}

struct World {
  explicit World(std::uint64_t seed) : scenario(config(seed)), harness(scenario) {
    harness.bring_up();
    harness.calibrate();
    scenario.probe().start();
    settled = scenario.run_to_quiescence();
  }

  /// Run `ns` of simulated time, settle and capture.
  sim::SimSnapshot advance(std::int64_t ns) {
    scenario.run_to(scenario.sim().now().ns() + ns);
    EXPECT_TRUE(scenario.run_to_quiescence());
    return scenario.snapshot();
  }

  std::vector<util::SeriesPoint> pi_series() { return scenario.probe().series().points(); }

  Scenario scenario;
  ExperimentHarness harness;
  bool settled = false;
};

void expect_same_series(const std::vector<util::SeriesPoint>& a,
                        const std::vector<util::SeriesPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_ns, b[i].t_ns) << i;
    EXPECT_EQ(a[i].value, b[i].value) << i;
  }
}

TEST(ScenarioSnapshotTest, RollbackWithArmedAttacksReplaysIdentically) {
  World w(3);
  ASSERT_TRUE(w.settled);
  w.scenario.host_link(1, 0).set_delay_attack(true, 3'000, 0.5);
  w.scenario.bridge(2).set_correction_attack(1, 800.0);
  w.scenario.bridge(0).port_link_delay(0).set_turnaround_attack(500.0, 0.2);
  const sim::SimSnapshot start = w.scenario.snapshot();

  const sim::SimSnapshot live_end = w.advance(kRunNs);
  const std::vector<util::SeriesPoint> live_series = w.pi_series();
  ASSERT_GT(live_series.size(), 0u);

  w.scenario.restore(start);
  const sim::SimSnapshot reloaded = w.scenario.snapshot();
  EXPECT_EQ(reloaded.bytes, start.bytes);
  EXPECT_EQ(reloaded.hash, start.hash);

  const sim::SimSnapshot replay_end = w.advance(kRunNs);
  EXPECT_EQ(replay_end.now_ns, live_end.now_ns);
  EXPECT_EQ(replay_end.hash, live_end.hash);
  EXPECT_EQ(replay_end.bytes, live_end.bytes);
  expect_same_series(w.pi_series(), live_series);
}

TEST(ScenarioSnapshotTest, RestoreReconcilesVmBootStateBothWays) {
  World w(5);
  ASSERT_TRUE(w.settled);
  hv::ClockSyncVm& gm = w.scenario.gm_vm(2);

  const sim::SimSnapshot up = w.scenario.snapshot();
  const sim::SimSnapshot up_end = w.advance(kRunNs);
  const std::vector<util::SeriesPoint> up_series = w.pi_series();

  // The GM is down at the second capture and reboots during the run.
  gm.shutdown();
  const sim::SimSnapshot down = w.advance(2 * kSec);
  const auto run_with_reboot = [&] {
    w.advance(kSec);
    gm.boot(/*first_boot=*/false);
    return w.advance(kRunNs);
  };
  const sim::SimSnapshot down_end = run_with_reboot();
  const std::vector<util::SeriesPoint> down_series = w.pi_series();

  // Captured up, restored while down: the load rebuilds the VM's stack.
  gm.shutdown();
  w.advance(kSec);
  ASSERT_FALSE(gm.running());
  w.scenario.restore(up);
  EXPECT_TRUE(gm.running());
  EXPECT_EQ(w.scenario.snapshot().bytes, up.bytes);
  EXPECT_EQ(w.advance(kRunNs).hash, up_end.hash);
  expect_same_series(w.pi_series(), up_series);

  // Captured down, restored while up: the load tears the stack down.
  ASSERT_TRUE(gm.running());
  w.scenario.restore(down);
  EXPECT_FALSE(gm.running());
  EXPECT_EQ(run_with_reboot().hash, down_end.hash);
  expect_same_series(w.pi_series(), down_series);
}

TEST(ScenarioSnapshotTest, DownVmCaptureSaveLoadSaveIsByteIdentical) {
  // A shut-down VM's stopped timers still archive their last phase; the
  // restored world must carry it over and save back to the same bytes.
  World w(5);
  ASSERT_TRUE(w.settled);
  w.scenario.gm_vm(2).shutdown();
  const sim::SimSnapshot down = w.advance(2 * kSec);
  w.scenario.restore(down);
  const sim::SimSnapshot reloaded = w.scenario.snapshot();
  EXPECT_EQ(reloaded.bytes, down.bytes);
  EXPECT_EQ(reloaded.hash, down.hash);
}

} // namespace
} // namespace tsn::experiments
