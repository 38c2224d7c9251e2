#include "hv/monitor.hpp"

#include <algorithm>
#include <cmath>

#include "sim/persist.hpp"
#include "util/log.hpp"

namespace tsn::hv {

HvMonitor::HvMonitor(sim::Simulation& sim, StShmem& shmem, time::PhcClock& tsc,
                     const MonitorConfig& cfg, const std::string& name, obs::ObsContext obs)
    : sim_(sim), shmem_(shmem), tsc_(tsc), cfg_(cfg), name_(name) {
  bind_metrics(obs);
}

void HvMonitor::bind_metrics(obs::ObsContext obs) {
  obs::MetricsRegistry* reg = obs.metrics;
  if (!reg) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    reg = own_metrics_.get();
  }
  const std::string p = name_ + ".";
  c_checks_ = &reg->counter(p + "checks");
  c_failures_ = &reg->counter(p + "failures_detected");
  c_takeovers_ = &reg->counter(p + "takeovers");
  c_recoveries_ = &reg->counter(p + "recoveries");
  c_sanity_failures_ = &reg->counter(p + "param_sanity_failures");
  c_vote_exclusions_ = &reg->counter(p + "vote_exclusions");
  c_no_successor_ = &reg->counter(p + "no_successor");
  trace_ = obs.trace;
  if (trace_) trace_src_ = trace_->intern(name_);
}

void HvMonitor::trace(obs::TraceKind kind, std::uint32_t a, std::int64_t v0,
                      std::int64_t v1) const {
  if (!trace_) return;
  obs::TraceRecord rec;
  rec.t_ns = sim_.now().ns();
  rec.kind = kind;
  rec.source = trace_src_;
  rec.a = a;
  rec.v0 = v0;
  rec.v1 = v1;
  trace_->push(rec);
}

MonitorStats HvMonitor::stats() const {
  MonitorStats s;
  s.checks = c_checks_->value();
  s.failures_detected = c_failures_->value();
  s.takeovers = c_takeovers_->value();
  s.recoveries = c_recoveries_->value();
  s.param_sanity_failures = c_sanity_failures_->value();
  s.vote_exclusions = c_vote_exclusions_->value();
  s.no_successor = c_no_successor_->value();
  return s;
}

void HvMonitor::start() {
  failed_.assign(vms_.size(), false);
  voted_out_.assign(vms_.size(), false);
  no_successor_latched_ = false;
  parked_.park_at(sim_.now().ns() + cfg_.period_ns);
  ff_resume();
}

void HvMonitor::stop() { periodic_.cancel(); }

template <class Ar>
void HvMonitor::persist(Ar& ar) {
  parked_.persist(ar, periodic_);
  std::uint64_t n = failed_.size();
  ar.u64(n);
  if constexpr (Ar::kLoading) {
    // check() indexes the flags by VM; a monitor that never started
    // archives none.
    if (n != 0 && n != vms_.size()) {
      throw std::runtime_error("HvMonitor: archived VM count does not match " + name_);
    }
    failed_.assign(n, false);
    voted_out_.assign(n, false);
  }
  ar.bits(failed_);
  ar.bits(voted_out_);
  ar.b(no_successor_latched_);
  if constexpr (Ar::kLoading) ff_resume();
}
TSN_PERSIST_INSTANTIATE(HvMonitor);

void HvMonitor::ff_park() { parked_.park(periodic_); }

void HvMonitor::ff_resume() {
  parked_.resume(sim_, periodic_, cfg_.period_ns, [this](sim::SimTime) { check(); });
}

void HvMonitor::check() {
  c_checks_->inc();
  const std::int64_t tsc_now = tsc_.read();

  for (std::size_t i = 0; i < vms_.size(); ++i) {
    const std::int64_t age = shmem_.heartbeat_age(i, tsc_now);
    const bool alive = age <= cfg_.heartbeat_timeout_ns;
    if (!alive && !failed_[i]) {
      failed_[i] = true;
      c_failures_->inc();
      TSN_LOG_INFO("hv-mon", "%s: VM %zu (%s) fail-silent", name_.c_str(), i,
                   vms_[i]->name().c_str());
      trace(obs::TraceKind::kHeartbeatMiss, static_cast<std::uint32_t>(i), age, 0);
      if (on_vm_failure) on_vm_failure(i);
    } else if (alive && failed_[i]) {
      failed_[i] = false;
      c_recoveries_->inc();
      trace(obs::TraceKind::kVmRecovery, static_cast<std::uint32_t>(i), age, 0);
      if (on_vm_recovery) on_vm_recovery(i);
    }
  }

  // Parameter sanity check on the active publisher (cheap voting-lite; the
  // full 2f+1 vote needs more redundant VMs than the testbed could host).
  // Reads the VM's *candidate* parameters, which every running VM keeps
  // publishing whether or not it owns CLOCK_SYNCTIME: once the check
  // deactivates the publisher the published params freeze, but the
  // candidate stream keeps reflecting the VM's actual state, so a later
  // recovery is observable.
  const std::size_t active = shmem_.active_vm();
  if (cfg_.max_rate_error > 0.0 && active < failed_.size() && !failed_[active]) {
    const SyncTimeParams p = shmem_.read_candidate(active);
    if (p.valid && std::abs(p.rate - 1.0) > cfg_.max_rate_error) {
      c_sanity_failures_->inc();
      failed_[active] = true;
      c_failures_->inc();
      if (on_vm_failure) on_vm_failure(active);
    }
  }

  majority_vote(tsc_now);

  if (active >= failed_.size()) return;

  if (failed_[active] || voted_out_[active]) {
    // Fail-over: the active VM is down or voted out; promote the
    // lowest-index healthy VM.
    bool promoted = false;
    for (std::size_t j = 0; j < vms_.size(); ++j) {
      if (failed_[j] || voted_out_[j] || j == active) continue;
      shmem_.set_active_vm(j);
      shmem_.bump_generation();
      vms_[active]->set_active(false);
      vms_[j]->takeover_irq();
      c_takeovers_->inc();
      no_successor_latched_ = false;
      TSN_LOG_INFO("hv-mon", "%s: takeover VM %zu -> VM %zu", name_.c_str(), active, j);
      trace(obs::TraceKind::kTakeover, static_cast<std::uint32_t>(j),
            static_cast<std::int64_t>(active), 0);
      if (on_takeover) on_takeover(j);
      promoted = true;
      break;
    }
    if (!promoted) {
      // No healthy successor: a failed VM must not keep maintaining
      // CLOCK_SYNCTIME, so suspend publication until somebody recovers.
      if (vms_[active]->is_active()) vms_[active]->set_active(false);
      if (!no_successor_latched_) {
        no_successor_latched_ = true;
        c_no_successor_->inc();
        TSN_LOG_INFO("hv-mon", "%s: VM %zu failed with no healthy successor", name_.c_str(),
                     active);
        trace(obs::TraceKind::kNoSuccessor, static_cast<std::uint32_t>(active), tsc_now, 0);
      }
    }
  } else {
    no_successor_latched_ = false;
    // The designated active VM is healthy again but was deactivated during
    // a no-successor episode (or rejoined after a vote-out): resume
    // CLOCK_SYNCTIME publication.
    if (vms_[active]->running() && !vms_[active]->is_active()) {
      vms_[active]->set_active(true);
      TSN_LOG_INFO("hv-mon", "%s: VM %zu reactivated", name_.c_str(), active);
    }
  }
}

void HvMonitor::majority_vote(std::int64_t tsc_now) {
  if (cfg_.vote_threshold_ns <= 0.0) return;
  // Collect the candidate CLOCK_SYNCTIME of every heartbeat-healthy VM.
  vote_views_.clear();
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    if (failed_[i]) continue;
    const SyncTimeParams p = shmem_.read_candidate(i);
    if (!p.valid) continue;
    const double v = static_cast<double>(p.base_sync) +
                     static_cast<double>(tsc_now - p.base_tsc) * p.rate;
    vote_views_.emplace_back(i, v);
  }
  if (vote_views_.size() < 3) return; // 2f+1 needs at least three opinions

  vote_scratch_.clear();
  for (const auto& [idx, v] : vote_views_) vote_scratch_.push_back(v);
  // True median: with an even number of opinions the midpoint of the two
  // central values, not the upper one -- otherwise two colluding fast
  // clocks in a 4-VM vote drag the "median" to their side and the honest
  // VMs get voted out.
  const std::size_t mid = vote_scratch_.size() / 2;
  std::nth_element(vote_scratch_.begin(), vote_scratch_.begin() + mid, vote_scratch_.end());
  double med = vote_scratch_[mid];
  if (vote_scratch_.size() % 2 == 0) {
    const double lower = *std::max_element(vote_scratch_.begin(), vote_scratch_.begin() + mid);
    med = 0.5 * (lower + med);
  }

  for (const auto& [idx, v] : vote_views_) {
    const double dev = std::abs(v - med);
    if (!voted_out_[idx] && dev > cfg_.vote_threshold_ns) {
      voted_out_[idx] = true;
      c_vote_exclusions_->inc();
      TSN_LOG_INFO("hv-mon", "%s: VM %zu (%s) voted out (dev %.0f ns)", name_.c_str(), idx,
                   vms_[idx]->name().c_str(), dev);
      trace(obs::TraceKind::kVoteExclusion, static_cast<std::uint32_t>(idx),
            static_cast<std::int64_t>(std::llround(dev)), 0);
      if (on_vote_exclusion) on_vote_exclusion(idx);
    } else if (voted_out_[idx] && dev <= cfg_.vote_threshold_ns / 2) {
      voted_out_[idx] = false; // rejoined the majority (hysteresis)
    }
  }
}

} // namespace tsn::hv
