// Invariant oracles: system-level properties checked continuously while a
// Scenario runs (DESIGN.md §8).
//
// An Invariant consumes three deterministic event streams -- the
// scenario's obs::TraceRing records, the FaultInjector's kill/reboot
// events, and a periodic sampling tick -- and reports a Violation the
// moment a property is broken, with the simulation time and a
// human-readable message. The InvariantSuite owns the plumbing: it drains
// the trace ring incrementally (TraceRing::read_since), buffers injector
// events and dispatches both merged in time order, runs the sampling tick
// on the scenario's own Simulation, and collects violations.
//
// The five default oracles encode the paper's resilience claims:
//   1. PrecisionBoundInvariant   -- post-convergence, |FTA aggregated
//      offset| stays below the analytic bound Pi(N, f, E, Gamma).
//   2. FailoverLatencyInvariant  -- a kill of the CLOCK_SYNCTIME-
//      maintaining VM is answered by a takeover (or an explicit
//      no-successor record) within a bounded latency.
//   3. SynctimeMonotonicityInvariant -- CLOCK_SYNCTIME never jumps
//      backwards beyond the fail-over tolerance on any node.
//   4. FaultHypothesisInvariant  -- never both VMs of a node down at
//      once (the fail-silent fault hypothesis the injector must respect).
//   5. ConservationInvariant     -- kills == reboots + pending reboots,
//      event log and VM liveness agree, and aggregate/no-quorum trace
//      records are internally consistent with the FTA quorum rule.
//
// Invariants are plain objects bound to a ViolationSink, so unit tests
// feed them synthetic records without building a world.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "attack/attack.hpp"
#include "faults/injector.hpp"
#include "obs/trace.hpp"
#include "sim/persist.hpp"
#include "sim/simulation.hpp"

namespace tsn::experiments {
class Scenario;
}

namespace tsn::check {

struct Violation {
  std::string invariant;
  std::int64_t t_ns = 0;
  std::string message;
};

class ViolationSink {
 public:
  virtual ~ViolationSink() = default;
  virtual void report(Violation v) = 0;
};

class Invariant {
 public:
  virtual ~Invariant() = default;

  virtual std::string_view name() const = 0;
  void bind(ViolationSink* sink) { sink_ = sink; }

  /// A record drained from the scenario's trace ring (time order).
  virtual void on_trace(const obs::TraceRecord& r, const obs::TraceRing& ring);
  /// A fault-injector kill/reboot (merged into the same time order).
  virtual void on_injection(const faults::InjectionEvent& ev);
  /// Periodic sampling tick (suite poll period).
  virtual void on_sample(std::int64_t now_ns);
  /// End-of-run accounting checks.
  virtual void finalize(std::int64_t now_ns);
  /// True when this invariant holds no armed deadline at `now_ns`: a
  /// fast-forward window would starve it of the evidence (aggregates,
  /// takeover records) the deadline is waiting for, turning a healthy run
  /// into a spurious violation. Default: always quiescent.
  virtual bool ff_quiescent(std::int64_t now_ns) const;

 protected:
  void report(std::int64_t t_ns, std::string message);

 private:
  ViolationSink* sink_ = nullptr;
};

// ---------------------------------------------------------------------------
// 1. FTA precision bound.

class PrecisionBoundInvariant : public Invariant {
 public:
  struct Params {
    /// The analytic bound Pi = u(N, f) * (E + Gamma) for the run's f.
    double bound_ns = 0.0;
    /// Headroom for servo transients riding on top of the steady state.
    double margin = 1.25;
    /// Aggregates below the bound before a source counts as converged.
    int converge_consecutive = 3;
    /// A source must (re)converge within this after arming or rebooting.
    std::int64_t reconverge_deadline_ns = 20'000'000'000LL;
  };

  explicit PrecisionBoundInvariant(Params p) : p_(p) {}

  std::string_view name() const override { return "precision-bound"; }
  void on_trace(const obs::TraceRecord& r, const obs::TraceRing& ring) override;
  void on_injection(const faults::InjectionEvent& ev) override;
  void on_sample(std::int64_t now_ns) override;
  void finalize(std::int64_t now_ns) override;
  bool ff_quiescent(std::int64_t now_ns) const override;

  /// Exempt a (compromised) source VM from judgment inside [from_ns,
  /// until_ns]: the attack library perturbs that VM's own timebase, and
  /// the paper's claim is that HONEST nodes keep the bound, not that the
  /// victim does. The first aggregate after the window re-arms a normal
  /// reconvergence deadline, so a victim that never recovers after the
  /// attack ends is still a violation.
  void exempt_source(const std::string& vm, std::int64_t from_ns, std::int64_t until_ns);

 private:
  struct Source {
    bool converged = false;
    int streak = 0;
    std::int64_t deadline_ns = INT64_MIN; ///< INT64_MIN = no active deadline
  };
  Source& source_for(const std::string& vm_name);
  void check_deadlines(std::int64_t now_ns, bool at_end);

  struct Exemption {
    std::int64_t from_ns = 0;
    std::int64_t until_ns = 0;
    bool rearmed = false; ///< post-window reconvergence deadline opened
  };

  Params p_;
  /// Keyed by VM name: coordinator trace sources are "<vm>/fta".
  std::map<std::string, Source> sources_;
  std::map<std::string, Exemption> exempt_;
  /// System-wide reconvergence grace: while ANY node's warm-rebooted
  /// clock is re-entering aggregation (its residual offset can approach
  /// the validity threshold, well above Pi), every observer's correction
  /// step is legitimately perturbed -- the steady-state bound only
  /// applies outside this window. Exceedances inside it demote the
  /// source quietly; deadlines extend to the window's end.
  std::int64_t grace_until_ns_ = INT64_MIN;
};

// ---------------------------------------------------------------------------
// 2. Fail-over latency.

class FailoverLatencyInvariant : public Invariant {
 public:
  /// `deadline_ns` should cover heartbeat timeout + a couple of monitor
  /// periods (the detection path) plus margin.
  FailoverLatencyInvariant(std::size_t num_ecds, std::int64_t deadline_ns);

  std::string_view name() const override { return "failover-latency"; }
  void on_trace(const obs::TraceRecord& r, const obs::TraceRing& ring) override;
  void on_injection(const faults::InjectionEvent& ev) override;
  void on_sample(std::int64_t now_ns) override;
  void finalize(std::int64_t now_ns) override;
  bool ff_quiescent(std::int64_t now_ns) const override;

 private:
  struct Pending {
    std::int64_t kill_ns = 0;
    std::string vm;
  };
  void expire(std::int64_t now_ns, bool at_end);

  std::int64_t deadline_ns_;
  std::vector<std::size_t> active_;             ///< designated active VM per ECD
  std::vector<std::optional<Pending>> pending_; ///< unanswered active-VM kill
};

/// Parse an ECD index out of a monitor trace-source name ("ecd3/monitor"
/// -> 2). Returns nullopt for non-monitor sources.
std::optional<std::size_t> monitor_source_ecd(std::string_view source_name);

// ---------------------------------------------------------------------------
// 3. CLOCK_SYNCTIME monotonicity.

class SynctimeMonotonicityInvariant : public Invariant {
 public:
  /// Reads a node's CLOCK_SYNCTIME (nullopt before the first publication).
  using Sampler = std::function<std::optional<std::int64_t>(std::size_t ecd)>;

  /// `tolerance_ns` absorbs the step a fail-over may introduce (the two
  /// VMs' views of the synchronized time differ by at most ~Pi plus servo
  /// transients).
  SynctimeMonotonicityInvariant(std::size_t num_ecds, double tolerance_ns, Sampler sampler);

  std::string_view name() const override { return "synctime-monotonic"; }
  void on_sample(std::int64_t now_ns) override;

  /// Skip judging `ecd` inside [from_ns, until_ns] (its CLOCK_SYNCTIME
  /// maintainer's clock is under attack); sampling restarts from a fresh
  /// baseline after the window.
  void exempt_ecd(std::size_t ecd, std::int64_t from_ns, std::int64_t until_ns);

 private:
  double tolerance_ns_;
  Sampler sampler_;
  std::vector<std::optional<std::int64_t>> last_;
  std::map<std::size_t, std::pair<std::int64_t, std::int64_t>> exempt_;
};

// ---------------------------------------------------------------------------
// 4. Fault-hypothesis conformance.

class FaultHypothesisInvariant : public Invariant {
 public:
  /// Counts a node's VMs that are currently not running (cross-check
  /// against the injector's own event bookkeeping); may be empty.
  using DownSampler = std::function<std::size_t(std::size_t ecd)>;

  FaultHypothesisInvariant(std::size_t num_ecds, std::size_t vms_per_ecd,
                           DownSampler down_sampler = {});

  std::string_view name() const override { return "fault-hypothesis"; }
  void on_injection(const faults::InjectionEvent& ev) override;
  void on_sample(std::int64_t now_ns) override;

 private:
  std::size_t vms_per_ecd_;
  DownSampler down_sampler_;
  std::vector<std::vector<bool>> down_; ///< [ecd][vm] down per injector events
  std::vector<bool> latched_;           ///< one report per live-sample episode
};

// ---------------------------------------------------------------------------
// 5. Conservation & trace consistency.

class ConservationInvariant : public Invariant {
 public:
  using StatsFn = std::function<faults::InjectorStats()>;
  /// Whether VM `vm` of ECD `ecd` is currently running; may be empty.
  using LivenessFn = std::function<bool(std::size_t ecd, std::size_t vm)>;

  /// `fta_quorum` is 2f+1 for the FTA method (0 disables the quorum
  /// consistency check, e.g. for median/mean ablations).
  ConservationInvariant(int fta_quorum, StatsFn stats, LivenessFn liveness = {});

  std::string_view name() const override { return "conservation"; }
  void on_trace(const obs::TraceRecord& r, const obs::TraceRing& ring) override;
  void on_injection(const faults::InjectionEvent& ev) override;
  void finalize(std::int64_t now_ns) override;

 private:
  int fta_quorum_;
  StatsFn stats_;
  LivenessFn liveness_;
  std::uint64_t kills_seen_ = 0;
  std::uint64_t reboots_seen_ = 0;
  std::map<std::pair<std::size_t, std::size_t>, std::int64_t> down_since_;
};

// ---------------------------------------------------------------------------
// 6. Attack eviction (the oracle half of src/attack, DESIGN.md §11).

/// Watches honest sources' kAggregate validity masks for the victim
/// domain's slot. For every armed attack it records WHEN the first honest
/// observer evicted the victim (eviction latency); for overt attacks
/// (spec.expect_excluded) a missing eviction within the deadline is a
/// violation -- the validity threshold failed to contain an attacker it
/// is designed to catch.
class AttackExclusionInvariant : public Invariant {
 public:
  struct Verdict {
    attack::ArmedAttack attack;
    /// First post-attack honest aggregate whose mask cleared the victim
    /// slot; nullopt = the victim was never evicted.
    std::optional<std::int64_t> excluded_at_ns;
    bool deadline_missed = false;
  };

  /// Maps a coordinator VM name to its ECD index (nullopt = unknown); used
  /// to tell honest observers from the victim's own (exempt) VMs.
  using EcdOfVm = std::function<std::optional<std::size_t>(const std::string& vm)>;

  AttackExclusionInvariant(std::vector<attack::ArmedAttack> attacks, EcdOfVm ecd_of_vm,
                           std::int64_t eviction_deadline_ns);

  std::string_view name() const override { return "attack-eviction"; }
  void on_trace(const obs::TraceRecord& r, const obs::TraceRing& ring) override;
  void on_sample(std::int64_t now_ns) override;
  void finalize(std::int64_t now_ns) override;
  bool ff_quiescent(std::int64_t now_ns) const override;

  const std::vector<Verdict>& verdicts() const { return verdicts_; }

 private:
  void check_deadlines(std::int64_t now_ns, bool at_end);

  EcdOfVm ecd_of_vm_;
  std::int64_t eviction_deadline_ns_;
  std::vector<Verdict> verdicts_;
};

// ---------------------------------------------------------------------------
// The suite.

struct SuiteParams {
  /// Analytic precision bound Pi for the run (from the calibration).
  double bound_ns = 0.0;
  double bound_margin = 1.25;
  int converge_consecutive = 3;
  std::int64_t reconverge_deadline_ns = 20'000'000'000LL;
  /// Fail-over answer deadline; defaults cover the monitor's detection
  /// path (heartbeat timeout + 2 periods) with ~2x margin.
  std::int64_t failover_deadline_ns = 1'500'000'000LL;
  /// Backward-step tolerance for CLOCK_SYNCTIME (0 = derive from bound).
  double synctime_tolerance_ns = 0.0;
  std::int64_t poll_period_ns = 50'000'000;
};

class InvariantSuite : public ViolationSink, public sim::Persistent {
 public:
  explicit InvariantSuite(experiments::Scenario& scenario);
  ~InvariantSuite();

  InvariantSuite(const InvariantSuite&) = delete;
  InvariantSuite& operator=(const InvariantSuite&) = delete;

  /// Add a custom invariant (binds it to this suite).
  Invariant& add(std::unique_ptr<Invariant> inv);
  /// Install the five default oracles wired to the scenario.
  void add_default_invariants(const SuiteParams& p);

  /// The default oracles that support attack exemptions (null until
  /// add_default_invariants ran); the attack harness marks compromised
  /// victims through these.
  PrecisionBoundInvariant* precision_bound() { return precision_; }
  SynctimeMonotonicityInvariant* synctime_monotonicity() { return synctime_; }

  /// Subscribe to an injector's events (call before faults start).
  void observe(faults::FaultInjector& injector);

  /// Start checking: sets the trace cursor to "now" (startup transients
  /// before arming are not judged) and schedules the poll task. Call
  /// after bring_up. Partitioned scenarios have no single Simulation to
  /// carry the periodic tick; the driver calls poll_now() at run_to
  /// boundaries instead (sampling granularity = stage length).
  void arm();

  /// Drain and dispatch everything outstanding, then run the sampling
  /// tick, at the current stage boundary. Partitioned mode only (serial
  /// runs poll automatically); safe no-op before arm()/after finalize().
  void poll_now();

  /// Drain outstanding events, run the end-of-run checks, stop polling.
  /// Idempotent.
  void finalize();

  const std::vector<Violation>& violations() const { return violations_; }
  bool ok() const { return violations_.empty(); }
  /// Deterministic one-line verdict: "ok" or "name xN; name xM" sorted by
  /// invariant name (byte-identical whatever thread ran the replica).
  std::string summary() const;
  std::uint64_t suppressed() const { return suppressed_; }

  void report(Violation v) override;

  /// True when no invariant is sitting on an armed deadline: the suite's
  /// contribution to the ff model predicate. Compose it with the
  /// scenario's own gate when arming fast-forward:
  ///   ff->set_model_quiescent([&] {
  ///     return sc.model_quiescent() && suite.ff_quiescent(sc.sim().now().ns());
  ///   });
  bool ff_quiescent(std::int64_t now_ns) const;

  // -- sim::Persistent ------------------------------------------------------
  // The suite joins the ff controller so its 50 ms poll parks across
  // analytic windows (ff_park runs one final poll first, so nothing
  // drained pre-window is judged with post-window eyes). It is
  // observational: no restorable state (fuzz probes build a fresh suite
  // per replay), so save/load are no-ops.
  const char* persist_name() const override { return "invariant-suite"; }
  void save_state(sim::StateWriter&) override {}
  void load_state(sim::StateReader&) override {}
  std::size_t live_events() const override { return poll_.active() ? 1u : 0u; }
  void ff_park() override;
  void ff_resume() override;

 private:
  void poll(std::int64_t now_ns);
  void dispatch_until(std::int64_t now_ns);

  experiments::Scenario& scenario_;
  faults::FaultInjector* injector_ = nullptr;
  PrecisionBoundInvariant* precision_ = nullptr;
  SynctimeMonotonicityInvariant* synctime_ = nullptr;
  std::vector<std::unique_ptr<Invariant>> invariants_;
  std::vector<Violation> violations_;
  std::uint64_t trace_cursor_ = 0;
  std::vector<std::uint64_t> region_cursors_; ///< per-region (partitioned)
  std::vector<obs::TraceRecord> drain_buf_;
  std::deque<faults::InjectionEvent> injections_;
  sim::Simulation::PeriodicHandle poll_;
  bool armed_ = false;
  bool finalized_ = false;
  std::int64_t poll_period_ns_ = 50'000'000;
  std::size_t max_violations_ = 200;
  std::uint64_t suppressed_ = 0;
  sim::ParkedTimer parked_poll_;
};

} // namespace tsn::check
