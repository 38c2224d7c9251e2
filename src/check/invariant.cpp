#include "check/invariant.hpp"

#include <algorithm>
#include <bitset>
#include <cmath>

#include "experiments/scenario.hpp"
#include "gptp/servo.hpp"
#include "util/str.hpp"

namespace tsn::check {

void Invariant::on_trace(const obs::TraceRecord&, const obs::TraceRing&) {}
void Invariant::on_injection(const faults::InjectionEvent&) {}
void Invariant::on_sample(std::int64_t) {}
void Invariant::finalize(std::int64_t) {}
bool Invariant::ff_quiescent(std::int64_t) const { return true; }

void Invariant::report(std::int64_t t_ns, std::string message) {
  if (sink_) sink_->report(Violation{std::string(name()), t_ns, std::move(message)});
}

namespace {

/// Strip a "/fta" suffix; nullopt for non-coordinator sources.
std::optional<std::string> fta_source_vm(std::string_view source_name) {
  constexpr std::string_view suffix = "/fta";
  if (source_name.size() <= suffix.size()) return std::nullopt;
  if (source_name.substr(source_name.size() - suffix.size()) != suffix) return std::nullopt;
  return std::string(source_name.substr(0, source_name.size() - suffix.size()));
}

/// Strip a ".servo" suffix then the "/fta" one: "c11/fta.servo" -> "c11".
/// Nullopt for non-coordinator servos (the synctime updater's, "<vm>/st.servo"
/// flavors) -- their jumps are fail-over steps the synctime tolerance covers.
std::optional<std::string> coordinator_servo_vm(std::string_view source_name) {
  constexpr std::string_view suffix = ".servo";
  if (source_name.size() <= suffix.size()) return std::nullopt;
  if (source_name.substr(source_name.size() - suffix.size()) != suffix) return std::nullopt;
  return fta_source_vm(source_name.substr(0, source_name.size() - suffix.size()));
}

} // namespace

std::optional<std::size_t> monitor_source_ecd(std::string_view source_name) {
  constexpr std::string_view prefix = "ecd";
  constexpr std::string_view suffix = "/monitor";
  if (source_name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (source_name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (source_name.substr(source_name.size() - suffix.size()) != suffix) return std::nullopt;
  const std::string_view digits =
      source_name.substr(prefix.size(), source_name.size() - prefix.size() - suffix.size());
  std::size_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  if (value == 0) return std::nullopt; // ECD names are 1-based
  return value - 1;
}

// ---------------------------------------------------------------------------
// PrecisionBoundInvariant

PrecisionBoundInvariant::Source& PrecisionBoundInvariant::source_for(const std::string& vm_name) {
  auto [it, inserted] = sources_.try_emplace(vm_name);
  return it->second;
}

void PrecisionBoundInvariant::exempt_source(const std::string& vm, std::int64_t from_ns,
                                            std::int64_t until_ns) {
  Exemption& e = exempt_[vm];
  // Overlapping attacks on the same victim merge into one wide window.
  if (e.until_ns == 0 && e.from_ns == 0) {
    e.from_ns = from_ns;
    e.until_ns = until_ns;
  } else {
    e.from_ns = std::min(e.from_ns, from_ns);
    e.until_ns = std::max(e.until_ns, until_ns);
  }
  e.rearmed = false;
}

void PrecisionBoundInvariant::on_trace(const obs::TraceRecord& r, const obs::TraceRing& ring) {
  if (r.kind == obs::TraceKind::kServoState &&
      r.a == static_cast<std::uint32_t>(gptp::PiServo::State::kJump)) {
    // A coordinator servo announced a deliberate clock step. The stepped
    // clock (and, until it re-validates, every observer aggregating it)
    // is legitimately off the steady-state bound: demote it with a fresh
    // reconvergence deadline and open the system-wide grace window,
    // exactly like a warm reboot.
    const auto vm = coordinator_servo_vm(ring.name(r.source));
    if (vm) {
      Source& s = source_for(*vm);
      s.converged = false;
      s.streak = 0;
      s.deadline_ns = r.t_ns + p_.reconverge_deadline_ns;
      grace_until_ns_ = std::max(grace_until_ns_, r.t_ns + p_.reconverge_deadline_ns);
    }
    return;
  }
  if (r.kind != obs::TraceKind::kAggregate) return;
  const auto vm = fta_source_vm(ring.name(r.source));
  if (!vm) return;

  if (auto e = exempt_.find(*vm); e != exempt_.end() && r.t_ns >= e->second.from_ns) {
    Source& s = source_for(*vm);
    if (r.t_ns <= e->second.until_ns) {
      // Compromised and under attack: not judged at all.
      s.converged = false;
      s.streak = 0;
      s.deadline_ns = INT64_MIN;
      return;
    }
    if (!e->second.rearmed) {
      // First aggregate after the attack window: the victim must now
      // recover like a rebooted clock would.
      e->second.rearmed = true;
      s.converged = false;
      s.streak = 0;
      s.deadline_ns = r.t_ns + p_.reconverge_deadline_ns;
    }
  }

  auto it = sources_.find(*vm);
  if (it == sources_.end()) {
    // First aggregate from this source since arming: give it the standard
    // window to converge instead of judging its startup transient.
    it = sources_.try_emplace(*vm).first;
    it->second.deadline_ns = r.t_ns + p_.reconverge_deadline_ns;
  }
  Source& s = it->second;

  const double limit = p_.bound_ns * p_.margin;
  const double off = std::abs(r.v0);
  if (s.converged) {
    if (off > limit) {
      if (r.t_ns > grace_until_ns_) {
        report(r.t_ns, util::format("%s: |aggregated offset| %.0f ns exceeds bound %.0f ns "
                                    "(Pi %.0f ns x margin %.2f) post-convergence",
                                    vm->c_str(), off, limit, p_.bound_ns, p_.margin));
      }
      // Demote so a persistently diverged clock re-reports once per missed
      // reconvergence deadline instead of once per aggregation round (and
      // so a grace-window transient must re-prove convergence quietly).
      s.converged = false;
      s.streak = 0;
      s.deadline_ns = r.t_ns + p_.reconverge_deadline_ns;
    }
  } else {
    if (off <= limit) {
      if (++s.streak >= p_.converge_consecutive) {
        s.converged = true;
        s.streak = 0;
        s.deadline_ns = INT64_MIN;
      }
    } else {
      s.streak = 0;
    }
  }
}

void PrecisionBoundInvariant::on_injection(const faults::InjectionEvent& ev) {
  Source& s = source_for(ev.vm);
  if (!ev.is_reboot) {
    // Down: no aggregates expected, no deadline while down.
    s.converged = false;
    s.streak = 0;
    s.deadline_ns = INT64_MIN;
  } else {
    // Warm reboot: the NIC PHC drifted undisciplined through the whole
    // downtime, so the first aggregates legitimately exceed the bound.
    // Require reconvergence within the deadline instead, and open the
    // system-wide grace window -- every observer that aggregates this
    // clock once it re-validates sees the residual offset too.
    s.converged = false;
    s.streak = 0;
    s.deadline_ns = ev.at_ns + p_.reconverge_deadline_ns;
    grace_until_ns_ = std::max(grace_until_ns_, ev.at_ns + p_.reconverge_deadline_ns);
  }
}

void PrecisionBoundInvariant::check_deadlines(std::int64_t now_ns, bool at_end) {
  for (auto& [vm, s] : sources_) {
    if (s.converged || s.deadline_ns == INT64_MIN) continue;
    if (auto e = exempt_.find(vm);
        e != exempt_.end() && now_ns >= e->second.from_ns && now_ns <= e->second.until_ns) {
      continue;
    }
    // While the grace window is open (another reboot is still settling),
    // reconvergence is allowed to take until the window closes.
    const std::int64_t deadline = std::max(s.deadline_ns, grace_until_ns_);
    if (now_ns > deadline) {
      report(now_ns, util::format("%s: failed to (re)converge below %.0f ns within %lld ms",
                                  vm.c_str(), p_.bound_ns * p_.margin,
                                  (long long)(p_.reconverge_deadline_ns / 1'000'000)));
      s.deadline_ns = INT64_MIN;
    } else if (at_end) {
      // The run ended inside the reconvergence window: not a violation.
      s.deadline_ns = INT64_MIN;
    }
  }
}

void PrecisionBoundInvariant::on_sample(std::int64_t now_ns) { check_deadlines(now_ns, false); }
void PrecisionBoundInvariant::finalize(std::int64_t now_ns) { check_deadlines(now_ns, true); }

bool PrecisionBoundInvariant::ff_quiescent(std::int64_t now_ns) const {
  // An armed reconvergence deadline (or an open grace window) is waiting
  // for aggregate evidence that an analytic window would withhold.
  if (now_ns < grace_until_ns_) return false;
  for (const auto& [vm, s] : sources_) {
    if (!s.converged && s.deadline_ns != INT64_MIN) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// FailoverLatencyInvariant

FailoverLatencyInvariant::FailoverLatencyInvariant(std::size_t num_ecds, std::int64_t deadline_ns)
    : deadline_ns_(deadline_ns), active_(num_ecds, 0), pending_(num_ecds) {}

void FailoverLatencyInvariant::on_trace(const obs::TraceRecord& r, const obs::TraceRing& ring) {
  if (r.kind != obs::TraceKind::kTakeover && r.kind != obs::TraceKind::kNoSuccessor) return;
  const auto ecd = monitor_source_ecd(ring.name(r.source));
  if (!ecd || *ecd >= active_.size()) return;

  if (r.kind == obs::TraceKind::kTakeover) {
    if (pending_[*ecd]) {
      const std::int64_t latency = r.t_ns - pending_[*ecd]->kill_ns;
      if (latency > deadline_ns_) {
        report(r.t_ns, util::format("%s: takeover answered kill of %s only after %lld ms "
                                    "(deadline %lld ms)",
                                    ring.name(r.source).c_str(), pending_[*ecd]->vm.c_str(),
                                    (long long)(latency / 1'000'000),
                                    (long long)(deadline_ns_ / 1'000'000)));
      }
      pending_[*ecd].reset();
    }
    active_[*ecd] = r.a;
  } else {
    // Explicit no-successor verdict: the monitor answered, but there was
    // nobody to promote. Whether that state was ever legal is the
    // fault-hypothesis invariant's call, not a latency failure.
    pending_[*ecd].reset();
  }
}

void FailoverLatencyInvariant::on_injection(const faults::InjectionEvent& ev) {
  if (ev.is_reboot || ev.ecd_idx >= active_.size()) return;
  if (ev.vm_idx == active_[ev.ecd_idx]) {
    pending_[ev.ecd_idx] = Pending{ev.at_ns, ev.vm};
  }
}

void FailoverLatencyInvariant::expire(std::int64_t now_ns, bool at_end) {
  for (std::size_t e = 0; e < pending_.size(); ++e) {
    if (!pending_[e]) continue;
    const std::int64_t age = now_ns - pending_[e]->kill_ns;
    if (age > deadline_ns_) {
      report(now_ns, util::format("ecd%zu: kill of active VM %s unanswered after %lld ms "
                                  "(deadline %lld ms)",
                                  e + 1, pending_[e]->vm.c_str(), (long long)(age / 1'000'000),
                                  (long long)(deadline_ns_ / 1'000'000)));
      pending_[e].reset();
    } else if (at_end) {
      // Kill landed within one deadline of the end of the run.
      pending_[e].reset();
    }
  }
}

void FailoverLatencyInvariant::on_sample(std::int64_t now_ns) { expire(now_ns, false); }
void FailoverLatencyInvariant::finalize(std::int64_t now_ns) { expire(now_ns, true); }

bool FailoverLatencyInvariant::ff_quiescent(std::int64_t) const {
  for (const auto& p : pending_) {
    if (p) return false; // unanswered active-VM kill: takeover in flight
  }
  return true;
}

// ---------------------------------------------------------------------------
// SynctimeMonotonicityInvariant

SynctimeMonotonicityInvariant::SynctimeMonotonicityInvariant(std::size_t num_ecds,
                                                             double tolerance_ns, Sampler sampler)
    : tolerance_ns_(tolerance_ns), sampler_(std::move(sampler)), last_(num_ecds) {}

void SynctimeMonotonicityInvariant::exempt_ecd(std::size_t ecd, std::int64_t from_ns,
                                               std::int64_t until_ns) {
  auto [it, inserted] = exempt_.try_emplace(ecd, from_ns, until_ns);
  if (!inserted) {
    it->second.first = std::min(it->second.first, from_ns);
    it->second.second = std::max(it->second.second, until_ns);
  }
}

void SynctimeMonotonicityInvariant::on_sample(std::int64_t now_ns) {
  if (!sampler_) return;
  for (std::size_t e = 0; e < last_.size(); ++e) {
    if (auto ex = exempt_.find(e);
        ex != exempt_.end() && now_ns >= ex->second.first && now_ns <= ex->second.second) {
      // Under attack: drop the baseline so the post-window comparison
      // starts fresh instead of judging the attack-era step.
      last_[e].reset();
      continue;
    }
    const std::optional<std::int64_t> now_v = sampler_(e);
    if (!now_v) continue;
    if (last_[e] && static_cast<double>(*now_v) < static_cast<double>(*last_[e]) - tolerance_ns_) {
      report(now_ns, util::format("ecd%zu: CLOCK_SYNCTIME stepped backwards %lld ns "
                                  "(tolerance %.0f ns)",
                                  e + 1, (long long)(*last_[e] - *now_v), tolerance_ns_));
    }
    last_[e] = *now_v;
  }
}

// ---------------------------------------------------------------------------
// FaultHypothesisInvariant

FaultHypothesisInvariant::FaultHypothesisInvariant(std::size_t num_ecds, std::size_t vms_per_ecd,
                                                   DownSampler down_sampler)
    : vms_per_ecd_(vms_per_ecd), down_sampler_(std::move(down_sampler)),
      down_(num_ecds, std::vector<bool>(vms_per_ecd, false)), latched_(num_ecds, false) {}

void FaultHypothesisInvariant::on_injection(const faults::InjectionEvent& ev) {
  if (ev.ecd_idx >= down_.size() || ev.vm_idx >= vms_per_ecd_) return;
  down_[ev.ecd_idx][ev.vm_idx] = !ev.is_reboot;
  if (!ev.is_reboot) {
    const auto n = static_cast<std::size_t>(
        std::count(down_[ev.ecd_idx].begin(), down_[ev.ecd_idx].end(), true));
    if (n >= 2) {
      report(ev.at_ns, util::format("ecd%zu: kill of %s leaves %zu VMs of the node down at once "
                                    "(fail-silent fault hypothesis violated)",
                                    ev.ecd_idx + 1, ev.vm.c_str(), n));
    }
  }
}

void FaultHypothesisInvariant::on_sample(std::int64_t now_ns) {
  if (!down_sampler_) return;
  for (std::size_t e = 0; e < down_.size(); ++e) {
    const std::size_t n = down_sampler_(e);
    if (n >= 2) {
      if (!latched_[e]) {
        latched_[e] = true;
        report(now_ns, util::format("ecd%zu: %zu VMs observed not running simultaneously "
                                    "(fail-silent fault hypothesis violated)",
                                    e + 1, n));
      }
    } else {
      latched_[e] = false;
    }
  }
}

// ---------------------------------------------------------------------------
// ConservationInvariant

ConservationInvariant::ConservationInvariant(int fta_quorum, StatsFn stats, LivenessFn liveness)
    : fta_quorum_(fta_quorum), stats_(std::move(stats)), liveness_(std::move(liveness)) {}

void ConservationInvariant::on_trace(const obs::TraceRecord& r, const obs::TraceRing&) {
  if (r.kind == obs::TraceKind::kAggregate) {
    const auto used = static_cast<std::uint32_t>(std::bitset<32>(r.mask).count());
    if (used != r.a) {
      report(r.t_ns, util::format("aggregate record inconsistent: %u clocks used but validity "
                                  "mask has %u bits set",
                                  r.a, used));
    }
    if (fta_quorum_ > 0 && r.a < static_cast<std::uint32_t>(fta_quorum_)) {
      report(r.t_ns, util::format("aggregate executed with %u clocks, below the FTA quorum "
                                  "2f+1 = %d",
                                  r.a, fta_quorum_));
    }
  } else if (r.kind == obs::TraceKind::kNoQuorum) {
    if (fta_quorum_ > 0 && r.a >= static_cast<std::uint32_t>(fta_quorum_)) {
      report(r.t_ns, util::format("no-quorum recorded despite %u usable clocks (quorum 2f+1 "
                                  "= %d)",
                                  r.a, fta_quorum_));
    }
  }
}

void ConservationInvariant::on_injection(const faults::InjectionEvent& ev) {
  const auto key = std::make_pair(ev.ecd_idx, ev.vm_idx);
  if (!ev.is_reboot) {
    ++kills_seen_;
    down_since_[key] = ev.at_ns;
  } else {
    ++reboots_seen_;
    if (down_since_.erase(key) == 0) {
      report(ev.at_ns, util::format("reboot of %s without a matching kill event", ev.vm.c_str()));
    }
  }
}

void ConservationInvariant::finalize(std::int64_t now_ns) {
  if (!stats_) return;
  const faults::InjectorStats s = stats_();
  if (s.total_kills != s.reboots + s.pending_reboots) {
    report(now_ns, util::format("injector accounting broken: %llu kills != %llu reboots + %llu "
                                "pending",
                                (unsigned long long)s.total_kills, (unsigned long long)s.reboots,
                                (unsigned long long)s.pending_reboots));
  }
  if (kills_seen_ != s.total_kills || reboots_seen_ != s.reboots) {
    report(now_ns, util::format("event log disagrees with injector stats: saw %llu kills / %llu "
                                "reboots, stats say %llu / %llu",
                                (unsigned long long)kills_seen_, (unsigned long long)reboots_seen_,
                                (unsigned long long)s.total_kills, (unsigned long long)s.reboots));
  }
  if (down_since_.size() != s.pending_reboots) {
    report(now_ns, util::format("%zu VMs tracked still-down but injector reports %llu pending "
                                "reboots",
                                down_since_.size(), (unsigned long long)s.pending_reboots));
  }
  if (liveness_) {
    for (const auto& [key, since] : down_since_) {
      if (liveness_(key.first, key.second)) {
        report(now_ns, util::format("ecd%zu VM %zu recorded down since t=%lld ns but is running",
                                    key.first + 1, key.second, (long long)since));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AttackExclusionInvariant

AttackExclusionInvariant::AttackExclusionInvariant(std::vector<attack::ArmedAttack> attacks,
                                                   EcdOfVm ecd_of_vm,
                                                   std::int64_t eviction_deadline_ns)
    : ecd_of_vm_(std::move(ecd_of_vm)), eviction_deadline_ns_(eviction_deadline_ns) {
  verdicts_.reserve(attacks.size());
  for (attack::ArmedAttack& a : attacks) verdicts_.push_back(Verdict{std::move(a), std::nullopt});
}

void AttackExclusionInvariant::on_trace(const obs::TraceRecord& r, const obs::TraceRing& ring) {
  if (r.kind != obs::TraceKind::kAggregate) return;
  const auto vm = fta_source_vm(ring.name(r.source));
  if (!vm) return;
  const std::optional<std::size_t> src_ecd = ecd_of_vm_ ? ecd_of_vm_(*vm) : std::nullopt;
  if (!src_ecd) return;

  for (Verdict& v : verdicts_) {
    if (v.excluded_at_ns) continue;
    if (*src_ecd == v.attack.spec.ecd) continue; // the victim's own VMs are not witnesses
    if (r.t_ns < v.attack.start_abs_ns) continue;
    if (v.attack.victim_slot >= 32) continue;
    if (r.a < 1 || (r.mask >> v.attack.victim_slot) & 1u) continue; // victim still valid
    v.excluded_at_ns = r.t_ns;
  }
}

void AttackExclusionInvariant::check_deadlines(std::int64_t now_ns, bool at_end) {
  for (Verdict& v : verdicts_) {
    if (!v.attack.spec.expect_excluded || v.excluded_at_ns || v.deadline_missed) continue;
    const std::int64_t deadline = v.attack.start_abs_ns + eviction_deadline_ns_;
    if (now_ns > deadline) {
      v.deadline_missed = true;
      report(now_ns,
             util::format("%s attack on ecd%zu (magnitude %.0f) not evicted by any honest "
                          "observer within %lld ms of t=%lld ns",
                          attack::to_string(v.attack.spec.kind), v.attack.spec.ecd + 1,
                          v.attack.spec.magnitude, (long long)(eviction_deadline_ns_ / 1'000'000),
                          (long long)v.attack.start_abs_ns));
    } else if (at_end) {
      // The run ended inside the eviction window: not judged.
      v.deadline_missed = true;
    }
  }
}

void AttackExclusionInvariant::on_sample(std::int64_t now_ns) { check_deadlines(now_ns, false); }
void AttackExclusionInvariant::finalize(std::int64_t now_ns) { check_deadlines(now_ns, true); }

bool AttackExclusionInvariant::ff_quiescent(std::int64_t now_ns) const {
  for (const Verdict& v : verdicts_) {
    if (!v.attack.spec.expect_excluded || v.excluded_at_ns || v.deadline_missed) continue;
    // Eviction window still open: honest aggregates are the evidence.
    if (now_ns >= v.attack.start_abs_ns) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// InvariantSuite

InvariantSuite::InvariantSuite(experiments::Scenario& scenario) : scenario_(scenario) {}

InvariantSuite::~InvariantSuite() { poll_.cancel(); }

Invariant& InvariantSuite::add(std::unique_ptr<Invariant> inv) {
  inv->bind(this);
  invariants_.push_back(std::move(inv));
  return *invariants_.back();
}

void InvariantSuite::add_default_invariants(const SuiteParams& p) {
  const experiments::ScenarioConfig& cfg = scenario_.config();
  poll_period_ns_ = p.poll_period_ns;

  auto precision = std::make_unique<PrecisionBoundInvariant>(PrecisionBoundInvariant::Params{
      p.bound_ns, p.bound_margin, p.converge_consecutive, p.reconverge_deadline_ns});
  precision_ = precision.get();
  add(std::move(precision));

  add(std::make_unique<FailoverLatencyInvariant>(scenario_.num_ecds(), p.failover_deadline_ns));

  const double tol = p.synctime_tolerance_ns > 0.0 ? p.synctime_tolerance_ns
                                                   : 2.0 * p.bound_ns + 10'000.0;
  experiments::Scenario* sc = &scenario_;
  auto synctime = std::make_unique<SynctimeMonotonicityInvariant>(
      scenario_.num_ecds(), tol,
      [sc](std::size_t e) { return sc->ecd(e).read_synctime(); });
  synctime_ = synctime.get();
  add(std::move(synctime));

  add(std::make_unique<FaultHypothesisInvariant>(
      scenario_.num_ecds(), scenario_.ecd(0).vm_count(), [sc](std::size_t e) {
        std::size_t down = 0;
        hv::Ecd& ecd = sc->ecd(e);
        for (std::size_t i = 0; i < ecd.vm_count(); ++i) {
          if (!ecd.vm(i).running()) ++down;
        }
        return down;
      }));

  const int quorum =
      cfg.aggregation == core::AggregationMethod::kFta ? 2 * cfg.fta_f + 1 : 0;
  add(std::make_unique<ConservationInvariant>(
      quorum, [this] { return injector_ ? injector_->stats() : faults::InjectorStats{}; },
      [sc](std::size_t e, std::size_t v) { return sc->ecd(e).vm(v).running(); }));
}

void InvariantSuite::observe(faults::FaultInjector& injector) {
  injector_ = &injector;
  injector.add_listener([this](const faults::InjectionEvent& ev) { injections_.push_back(ev); });
}

void InvariantSuite::arm() {
  if (armed_) return;
  armed_ = true;
  // Everything already in the rings is pre-arm history (boot, startup
  // phase); the oracles judge the run from here on.
  injections_.clear();
  if (scenario_.partitioned()) {
    region_cursors_.resize(scenario_.region_count());
    for (std::size_t r = 0; r < region_cursors_.size(); ++r) {
      region_cursors_[r] = scenario_.region_trace(r).total();
    }
    // No periodic tick: no single Simulation drives a partitioned world,
    // and a region-local task could not safely sample its neighbors. The
    // driver calls poll_now() between stages instead.
    return;
  }
  trace_cursor_ = scenario_.trace().total();
  parked_poll_.park_at(scenario_.sim().now().ns() + poll_period_ns_);
  ff_resume();
}

void InvariantSuite::poll(std::int64_t now_ns) {
  if (finalized_) return;
  dispatch_until(now_ns);
  for (auto& inv : invariants_) inv->on_sample(now_ns);
}

void InvariantSuite::poll_now() {
  if (!armed_ || finalized_ || !scenario_.partitioned()) return;
  poll(scenario_.now_ns());
}

bool InvariantSuite::ff_quiescent(std::int64_t now_ns) const {
  if (!armed_ || finalized_) return true;
  if (!injections_.empty()) return false; // buffered, not yet dispatched
  for (const auto& inv : invariants_) {
    if (!inv->ff_quiescent(now_ns)) return false;
  }
  return true;
}

void InvariantSuite::ff_park() {
  const bool polling = poll_.active();
  parked_poll_.park(poll_);
  if (!polling) return;
  // One last poll at the park instant: everything already traced belongs
  // to the pre-window world and must be judged with pre-window deadlines.
  poll(scenario_.sim().now().ns());
}

void InvariantSuite::ff_resume() {
  parked_poll_.resume(scenario_.sim(), poll_, poll_period_ns_,
                      [this](sim::SimTime t) { poll(t.ns()); });
}

void InvariantSuite::dispatch_until(std::int64_t now_ns) {
  if (scenario_.partitioned()) {
    // K-way merge of the region rings: tag each drained record with its
    // region and sort by (time, region) -- stable, so a region's records
    // keep their deterministic execution order. The home region's
    // injection stream is folded in afterwards like the serial path.
    struct Tagged {
      obs::TraceRecord rec;
      std::size_t region;
    };
    std::vector<Tagged> tagged;
    for (std::size_t r = 0; r < region_cursors_.size(); ++r) {
      drain_buf_.clear();
      const std::uint64_t lost =
          scenario_.region_trace(r).read_since(region_cursors_[r], drain_buf_);
      if (lost > 0) {
        report(Violation{"trace-overrun", now_ns,
                         util::format("region %zu: %llu trace records overwritten before the "
                                      "suite read them (raise the ring capacity or poll more)",
                                      r, (unsigned long long)lost)});
      }
      for (const obs::TraceRecord& rec : drain_buf_) tagged.push_back({rec, r});
    }
    std::stable_sort(tagged.begin(), tagged.end(), [](const Tagged& a, const Tagged& b) {
      if (a.rec.t_ns != b.rec.t_ns) return a.rec.t_ns < b.rec.t_ns;
      return a.region < b.region;
    });
    // Injections arrive at the home region in report order, which is not
    // monotone in the event's at_ns (local kills report immediately,
    // remote ones a control-hop later) -- sort a snapshot.
    std::vector<faults::InjectionEvent> inj(injections_.begin(), injections_.end());
    injections_.clear();
    std::stable_sort(inj.begin(), inj.end(),
                     [](const faults::InjectionEvent& a, const faults::InjectionEvent& b) {
                       return a.at_ns < b.at_ns;
                     });
    std::size_t ti = 0, ii = 0;
    while (ti < tagged.size() || ii < inj.size()) {
      const bool take_injection =
          ii < inj.size() && (ti >= tagged.size() || inj[ii].at_ns <= tagged[ti].rec.t_ns);
      if (take_injection) {
        for (auto& inv : invariants_) inv->on_injection(inj[ii]);
        ++ii;
      } else {
        const obs::TraceRing& ring = scenario_.region_trace(tagged[ti].region);
        for (auto& inv : invariants_) inv->on_trace(tagged[ti].rec, ring);
        ++ti;
      }
    }
    return;
  }

  drain_buf_.clear();
  const std::uint64_t lost = scenario_.trace().read_since(trace_cursor_, drain_buf_);
  if (lost > 0) {
    report(Violation{"trace-overrun", now_ns,
                     util::format("%llu trace records overwritten before the suite read them "
                                  "(raise the ring capacity or the poll rate)",
                                  (unsigned long long)lost)});
  }
  // Merge the two (individually time-ordered) streams; injections win ties
  // so a reboot demotion precedes the rebooted VM's first aggregates.
  const obs::TraceRing& ring = scenario_.trace();
  std::size_t ti = 0;
  while (ti < drain_buf_.size() || !injections_.empty()) {
    const bool take_injection =
        !injections_.empty() &&
        (ti >= drain_buf_.size() || injections_.front().at_ns <= drain_buf_[ti].t_ns);
    if (take_injection) {
      const faults::InjectionEvent ev = injections_.front();
      injections_.pop_front();
      for (auto& inv : invariants_) inv->on_injection(ev);
    } else {
      for (auto& inv : invariants_) inv->on_trace(drain_buf_[ti], ring);
      ++ti;
    }
  }
}

void InvariantSuite::finalize() {
  if (!armed_ || finalized_) return;
  poll_.cancel();
  const std::int64_t now = scenario_.now_ns();
  dispatch_until(now);
  for (auto& inv : invariants_) inv->on_sample(now);
  finalized_ = true;
  for (auto& inv : invariants_) inv->finalize(now);
}

void InvariantSuite::report(Violation v) {
  if (violations_.size() >= max_violations_) {
    ++suppressed_;
    return;
  }
  violations_.push_back(std::move(v));
}

std::string InvariantSuite::summary() const {
  if (violations_.empty() && suppressed_ == 0) return "ok";
  std::map<std::string, std::size_t> counts;
  for (const Violation& v : violations_) ++counts[v.invariant];
  std::string out;
  for (const auto& [name, n] : counts) {
    if (!out.empty()) out += "; ";
    out += util::format("%s x%zu", name.c_str(), n);
  }
  if (suppressed_ > 0) out += util::format(" (+%llu suppressed)", (unsigned long long)suppressed_);
  return out;
}

} // namespace tsn::check
