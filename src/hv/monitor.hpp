// The hypervisor-native monitor (paper section II-A).
//
// Executes periodically (125 ms in the paper's testbed) inside ACRN,
// checking the clock synchronization VMs' liveness through their STSHMEM
// heartbeats. When the VM currently maintaining CLOCK_SYNCTIME fails
// silently, the monitor injects a takeover interrupt into a healthy
// redundant VM, which continues maintaining the dependent clock.
//
// With 2f+1 redundant VMs the monitor can additionally majority-vote on
// the published clock parameters (fail-consistent hypothesis); the paper's
// hardware only fits 2 NICs per ECD, restricting it -- and our default
// experiment configuration -- to f+1 = 2 fail-silent VMs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hv/clock_sync_vm.hpp"
#include "hv/st_shmem.hpp"
#include "obs/obs.hpp"
#include "sim/persist.hpp"
#include "sim/simulation.hpp"
#include "tsn_time/phc_clock.hpp"

namespace tsn::hv {

struct MonitorConfig {
  std::int64_t period_ns = 125'000'000;
  /// A VM is considered fail-silent when its heartbeat is older than this.
  std::int64_t heartbeat_timeout_ns = 400'000'000;
  /// Sanity window on the published rate (|rate - 1| above this is
  /// faulty). 0 disables the check -- the default, matching the paper's
  /// monitor which only detects fail-silence. Enabling it is a
  /// beyond-the-paper containment measure (see the ablation bench).
  double max_rate_error = 0.0;
  /// Majority vote over the per-VM candidate clock parameters, active when
  /// >= 3 VMs are healthy (the paper's 2f+1 fail-consistent mode, which
  /// its 2-NIC hardware could not host). A VM whose candidate CLOCK_SYNCTIME
  /// deviates from the healthy median by more than this is voted out;
  /// 0 disables the vote.
  double vote_threshold_ns = 10'000.0;
};

/// Snapshot of the monitor's registry-backed counters; kept as a plain
/// struct so existing `stats().field` call sites read unchanged.
struct MonitorStats {
  std::uint64_t checks = 0;
  std::uint64_t failures_detected = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t param_sanity_failures = 0;
  std::uint64_t vote_exclusions = 0;
  /// Active VM failed with no healthy VM left to promote; CLOCK_SYNCTIME
  /// publication is suspended until one recovers. Counted once per episode.
  std::uint64_t no_successor = 0;
};

class HvMonitor {
 public:
  HvMonitor(sim::Simulation& sim, StShmem& shmem, time::PhcClock& tsc,
            const MonitorConfig& cfg, const std::string& name, obs::ObsContext obs = {});

  HvMonitor(const HvMonitor&) = delete;
  HvMonitor& operator=(const HvMonitor&) = delete;

  /// VMs in index order; index 0 is the initially active VM.
  void add_vm(ClockSyncVm* vm) { vms_.push_back(vm); }

  void start();
  void stop();

  /// Reads the live counters into a plain struct (by value: the backing
  /// store is the metrics registry, not a member struct).
  MonitorStats stats() const;

  /// (vm index) the monitor declared fail-silent.
  std::function<void(std::size_t)> on_vm_failure;
  /// (vm index) that took over maintaining CLOCK_SYNCTIME.
  std::function<void(std::size_t)> on_takeover;
  /// (vm index) whose heartbeat returned after a failure.
  std::function<void(std::size_t)> on_vm_recovery;
  /// (vm index) voted out by the 2f+1 majority (fail-consistent fault).
  std::function<void(std::size_t)> on_vote_exclusion;

  /// True when the majority vote currently excludes VM `idx`.
  bool voted_out(std::size_t idx) const { return idx < voted_out_.size() && voted_out_[idx]; }

  /// True when the monitor currently classifies VM `idx` as fail-silent.
  /// The fast-forward quiescence gate requires this to agree with the VM's
  /// actual running() state: a just-killed VM whose heartbeat is not yet
  /// stale must keep the window shut until the takeover has played out.
  bool detected_failed(std::size_t idx) const { return idx < failed_.size() && failed_[idx]; }

  // -- Snapshot / fast-forward support -------------------------------------
  // Counters live in the metrics registry (observational, outside snapshot
  // state). Heartbeat ages stay consistent across a window because the
  // updaters re-stamp in their own ff_advance, which runs before this
  // monitor's first post-resume poll (registration order = boot order).
  template <class Ar> void persist(Ar& ar);
  std::size_t live_events() const { return periodic_.active() ? 1u : 0u; }
  void ff_park();
  void ff_advance(const sim::FfWindow&) {}
  void ff_resume();

 private:
  void check();
  void majority_vote(std::int64_t tsc_now);
  void bind_metrics(obs::ObsContext obs);
  void trace(obs::TraceKind kind, std::uint32_t a, std::int64_t v0, std::int64_t v1) const;

  sim::Simulation& sim_;
  StShmem& shmem_;
  time::PhcClock& tsc_;
  MonitorConfig cfg_;
  std::string name_;

  std::vector<ClockSyncVm*> vms_;
  std::vector<bool> failed_;
  std::vector<bool> voted_out_;
  /// Scratch reused across 125 ms ticks so the vote never allocates on the
  /// steady-state path.
  std::vector<std::pair<std::size_t, double>> vote_views_;
  std::vector<double> vote_scratch_;
  /// True while the "active failed, nobody healthy to promote" episode is
  /// ongoing; keeps no_successor from counting once per tick.
  bool no_successor_latched_ = false;
  sim::Simulation::PeriodicHandle periodic_;

  sim::ParkedTimer parked_;

  /// Owned fallback so stats() works when no shared registry is wired in.
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::Counter* c_checks_ = nullptr;
  obs::Counter* c_failures_ = nullptr;
  obs::Counter* c_takeovers_ = nullptr;
  obs::Counter* c_recoveries_ = nullptr;
  obs::Counter* c_sanity_failures_ = nullptr;
  obs::Counter* c_vote_exclusions_ = nullptr;
  obs::Counter* c_no_successor_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
  std::uint16_t trace_src_ = 0;
};

} // namespace tsn::hv
