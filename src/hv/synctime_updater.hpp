// SyncTimeUpdater: the phc2sys equivalent of the paper's architecture.
//
// Periodically compares CLOCK_SYNCTIME against the NIC PHC (the
// fault-tolerant global time) and publishes fresh parameters into STSHMEM.
// It also stamps the VM's heartbeat for the hypervisor monitor.
//
// Two derivations are provided:
//   * kPiFeedback (default): CLOCK_SYNCTIME is a PI-servo-disciplined
//     virtual clock, exactly how phc2sys disciplines a kernel clock. This
//     reproduces the mild feedback instability the paper observes as
//     precision spikes (sec. III-C discussion).
//   * kFeedForward: RADclock-style -- the published value snaps to the PHC
//     each update and the rate comes from a long baseline, no feedback.
//     The paper's future-work hypothesis; see the ablation bench.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "gptp/servo.hpp"
#include "hv/st_shmem.hpp"
#include "obs/obs.hpp"
#include "sim/persist.hpp"
#include "sim/simulation.hpp"
#include "tsn_time/phc_clock.hpp"

namespace tsn::hv {

enum class SyncTimeMode { kPiFeedback, kFeedForward };

struct SyncTimeUpdaterConfig {
  std::int64_t period_ns = 125'000'000;
  SyncTimeMode mode = SyncTimeMode::kPiFeedback;
  /// Servo gains for the feedback mode (phc2sys-like).
  gptp::PiServoConfig servo;
  /// Feed-forward baseline length in periods.
  int feed_forward_window = 64;
};

class SyncTimeUpdater {
 public:
  SyncTimeUpdater(sim::Simulation& sim, time::PhcClock& phc, time::PhcClock& tsc,
                  StShmem& shmem, const SyncTimeUpdaterConfig& cfg, const std::string& name);

  SyncTimeUpdater(const SyncTimeUpdater&) = delete;
  SyncTimeUpdater& operator=(const SyncTimeUpdater&) = delete;

  /// Begin periodic operation as VM `vm_index`. Heartbeats always; params
  /// are only published while `publishing` is set.
  void start(std::size_t vm_index);
  void stop();
  bool running() const { return running_; }

  void set_publishing(bool on);
  bool publishing() const { return publishing_; }

  double estimated_rate() const { return rate_; }

  /// Fault model: a fail-consistent faulty VM publishes parameters whose
  /// base_sync is consistently shifted (all readers see the same wrong
  /// clock). Used to exercise the monitor's 2f+1 majority vote.
  void set_param_corruption(std::int64_t offset_ns) { corruption_ns_ = offset_ns; }
  std::int64_t param_corruption() const { return corruption_ns_; }
  /// Fault model: publish a rate off by `delta` (e.g. 1e-3 = 1000 ppm).
  /// Exercises the monitor's parameter sanity check; 0 clears the fault.
  void set_rate_corruption(double delta) { rate_corruption_ = delta; }
  double rate_corruption() const { return rate_corruption_; }

  /// Attach observability: the internal phc2sys servo reports under
  /// `<name>.servo`. Survives restarts (start() re-attaches).
  void set_obs(obs::ObsContext ctx);
  std::uint64_t publications() const { return publications_; }
  /// Last CLOCK_SYNCTIME-vs-PHC error seen by the feedback servo (ns).
  double last_error_ns() const { return last_error_ns_; }

  // -- Snapshot / fast-forward support -------------------------------------
  template <class Ar> void persist(Ar& ar);
  std::size_t live_events() const { return periodic_.active() ? 1u : 0u; }
  void ff_park();
  /// Re-anchor the virtual clock on the analytically advanced PHC (keeping
  /// the at-park residual), restart the feed-forward baseline, and publish
  /// params + heartbeat immediately so the monitor's first post-resume poll
  /// sees this VM fresh.
  void ff_advance(const sim::FfWindow& w);
  void ff_resume();

 private:
  void tick();
  void tick_feedback(std::int64_t tsc, std::int64_t phc);
  void tick_feed_forward(std::int64_t tsc, std::int64_t phc);
  void publish(std::int64_t base_tsc, std::int64_t base_sync, double rate);

  sim::Simulation& sim_;
  time::PhcClock& phc_;
  time::PhcClock& tsc_;
  StShmem& shmem_;
  SyncTimeUpdaterConfig cfg_;
  std::string name_;
  sim::Simulation::PeriodicHandle periodic_;
  std::size_t vm_index_ = 0;
  bool running_ = false;
  bool publishing_ = false;

  // Feedback state: the disciplined virtual clock.
  gptp::PiServo servo_;
  bool virt_initialized_ = false;
  long double virt_value_ = 0.0L;
  std::int64_t last_tsc_ = 0;
  double rate_ = 1.0; ///< current d(synctime)/d(tsc)
  double last_error_ns_ = 0.0;

  // Feed-forward state.
  std::optional<std::pair<std::int64_t, std::int64_t>> ff_anchor_; // (tsc, phc)
  int ff_count_ = 0;
  std::int64_t corruption_ns_ = 0;
  double rate_corruption_ = 0.0;

  std::uint64_t publications_ = 0;
  obs::ObsContext obs_;

  // Fast-forward park state.
  sim::ParkedTimer parked_;
  long double park_residual_ = 0.0L; ///< virt_value_ - PHC at park
};

} // namespace tsn::hv
