#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <string_view>

#include "check/fuzz.hpp"
#include "check/invariant.hpp"
#include "experiments/harness.hpp"
#include "experiments/report.hpp"
#include "faults/injector.hpp"
#include "probes.hpp"
#include "sim/fast_forward.hpp"
#include "stats.hpp"
#include "sweep/sweep_runner.hpp"

namespace perfbench {

namespace {

using namespace tsn;

constexpr std::int64_t kSecond = 1'000'000'000LL;
/// Sampler rate in samples per CPU-second; the kernel's tick rate may cap it.
constexpr int kSampleHz = 1000;

double ms_between(Clock::time_point a, Clock::time_point b) { return seconds_between(a, b) * 1e3; }

// ---------------------------------------------------------------------------
// Set-up: Scenario construction, bring_up() and calibrate(), each timed.

struct World {
  std::unique_ptr<experiments::Scenario> scenario;
  std::unique_ptr<experiments::ExperimentHarness> harness;
  experiments::ExperimentHarness::Calibration cal;
  double build_s = 0, bring_up_s = 0, calibrate_s = 0;
  std::uint64_t bring_up_events = 0, calibrate_events = 0;

  double setup_s() const { return build_s + bring_up_s + calibrate_s; }
};

World set_up(const experiments::ScenarioConfig& cfg, SpanRecorder* spans, std::uint64_t id) {
  World w;
  const auto t0 = Clock::now();
  {
    SpanScope span(spans, "Scenario", id);
    w.scenario = std::make_unique<experiments::Scenario>(cfg);
    w.harness = std::make_unique<experiments::ExperimentHarness>(*w.scenario);
  }
  const auto t1 = Clock::now();
  {
    SpanScope span(spans, "bring_up", id);
    w.harness->bring_up();
  }
  const auto t2 = Clock::now();
  const std::uint64_t e2 = w.scenario->events_executed();
  {
    SpanScope span(spans, "calibrate", id);
    w.cal = w.harness->calibrate();
  }
  const auto t3 = Clock::now();
  w.build_s = seconds_between(t0, t1);
  w.bring_up_s = seconds_between(t1, t2);
  w.calibrate_s = seconds_between(t2, t3);
  w.bring_up_events = e2;
  w.calibrate_events = w.scenario->events_executed() - e2;
  return w;
}

// ---------------------------------------------------------------------------
// Per-layer helpers.

double counter_sum(const obs::MetricsSnapshot& s, std::string_view suffix) {
  double total = 0;
  for (const auto& [name, v] : s.counters) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += static_cast<double>(v);
    }
  }
  return total;
}

double gauge(const obs::MetricsSnapshot& s, const char* name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void add_profile(std::map<std::string, double>& layer) {
  static const char* const kModules[] = {"sim",    "net",    "gptp",  "core",  "hv",
                                         "time",   "measure", "experiments", "faults",
                                         "attack", "check",  "sweep", "obs"};
  const Sampler::Profile p = Sampler::instance().attribute();
  const double inside = static_cast<double>(p.inside);
  double attributed = 0;
  for (const char* m : kModules) {
    const auto it = p.by_module.find(m);
    const double n = it == p.by_module.end() ? 0.0 : static_cast<double>(it->second);
    layer[std::string(m) + ".self_frac"] = ratio(n, inside);
    attributed += n;
  }
  layer["sampler.samples"] = inside;
  layer["sampler.attributed_frac"] = ratio(attributed, inside);
}

// ---------------------------------------------------------------------------
// Scenario workloads: one world, the fault injector and the default
// invariant suite, then a measured phase of fixed simulated length.

struct ScenarioSpec {
  experiments::ScenarioConfig cfg;
  faults::InjectorConfig injector;
  std::int64_t horizon_ns = 0;
  std::int64_t slice_ns = 0; ///< 0: one run_to over the whole horizon
  bool fast_forward = false;
};

ScenarioSpec mesh4_faults(const RunOptions& o) {
  ScenarioSpec s;
  s.cfg.seed = o.seed;
  s.injector.gm_kill_period_ns = 5 * 60 * kSecond;
  s.injector.standby_kills_per_hour = 0.65;
  s.horizon_ns = 2 * 3600 * kSecond;
  s.slice_ns = kSecond;
  return s;
}

ScenarioSpec ring64_part(const RunOptions& o) {
  ScenarioSpec s = mesh4_faults(o);
  s.cfg.num_ecds = 64;
  s.cfg.topology = experiments::TopologyKind::kRing;
  s.cfg.num_domains = 8;
  s.cfg.partitions = std::max<std::size_t>(1, o.threads);
  s.horizon_ns = 300 * kSecond;
  s.slice_ns = 250'000'000;
  return s;
}

ScenarioSpec ring8_ff_24h(const RunOptions& o) {
  ScenarioSpec s;
  s.cfg.seed = o.seed;
  s.cfg.num_ecds = 8;
  s.cfg.topology = experiments::TopologyKind::kRing;
  s.horizon_ns = 24 * 3600 * kSecond;
  s.fast_forward = true;
  return s;
}

std::vector<std::uint64_t> region_events(experiments::Scenario& sc) {
  std::vector<std::uint64_t> out;
  if (sc.partitioned()) {
    for (std::size_t r = 0; r < sc.runtime()->region_count(); ++r) {
      out.push_back(sc.runtime()->region_sim(r).events_executed());
    }
  }
  return out;
}

UnitResult run_scenario(const ScenarioSpec& spec, SpanRecorder* spans) {
  const bool traced = spans != nullptr;
  UnitResult u;
  World w = set_up(spec.cfg, spans, 0);
  u.setup_s.push_back(w.setup_s());
  experiments::Scenario& sc = *w.scenario;

  check::InvariantSuite suite(sc);
  check::SuiteParams sp;
  sp.bound_ns = w.cal.bound.pi_ns;
  suite.add_default_invariants(sp);
  faults::FaultInjector injector(sc.control_sim(), sc.ecd_ptrs(), spec.injector);
  if (sc.partitioned()) {
    std::vector<std::size_t> regions(sc.num_ecds());
    for (std::size_t r = 0; r < regions.size(); ++r) regions[r] = r;
    injector.set_partitioned(sc.runtime(), std::move(regions), /*home_region=*/0);
  }
  injector.spare(&sc.measurement_vm());
  suite.observe(injector);
  suite.arm();
  injector.start();
  if (spec.fast_forward) {
    // Armed the way the fuzzer's ff mode arms it: the suite and the
    // injector join the controller, injector edges are barriers.
    sc.enable_fast_forward();
    sim::FfController* ff = sc.fast_forward();
    ff->add_participant(&suite);
    ff->add_participant(&injector);
    ff->add_barrier([&injector](std::int64_t t) { return injector.next_pending_ns(t); });
    ff->set_model_quiescent([&sc, &suite] {
      return sc.model_quiescent() && suite.ff_quiescent(sc.sim().now().ns());
    });
  }

  std::vector<double> snapshot_ms;
  const auto snapshot = [&] {
    SpanScope span(spans, "metrics_snapshot", snapshot_ms.size());
    const auto t0 = Clock::now();
    obs::MetricsSnapshot s = sc.metrics_snapshot();
    snapshot_ms.push_back(ms_between(t0, Clock::now()));
    return s;
  };
  obs::MetricsSnapshot before;
  if (traced) before = snapshot();
  const std::vector<std::uint64_t> regions0 = region_events(sc);
  const std::uint64_t events0 = sc.events_executed();
  const double cpu0 = process_cpu_s();
  if (traced) Sampler::instance().start(kSampleHz);

  sc.probe().start();
  const std::int64_t end_ns = sc.now_ns() + spec.horizon_ns;
  std::vector<double> poll_ms;
  // The suite stores a bounded number of violations and counts the rest.
  const auto violations = [&suite] { return suite.violations().size() + suite.suppressed(); };
  std::uint64_t seen = 0;
  const auto t_begin = Clock::now();
  for (std::uint64_t slice = 0; sc.now_ns() < end_ns; ++slice) {
    const auto t0 = Clock::now();
    {
      SpanScope span(spans, "run_to", slice);
      SampleRegion region(traced);
      sc.run_to(spec.slice_ns > 0 ? std::min(end_ns, sc.now_ns() + spec.slice_ns) : end_ns);
    }
    const auto t1 = Clock::now();
    {
      SpanScope span(spans, "poll_now", slice);
      suite.poll_now();
    }
    const auto t2 = Clock::now();
    u.op_ms.push_back(ms_between(t0, t2));
    poll_ms.push_back(ms_between(t1, t2));
    if (violations() > seen) {
      seen = violations();
      u.failed_ops.push_back(slice);
    }
  }
  u.wall_s = seconds_between(t_begin, Clock::now());
  const double cpu_s = process_cpu_s() - cpu0;
  if (traced) Sampler::instance().stop();
  sc.probe().stop();
  {
    SpanScope span(spans, "finalize", 0);
    suite.finalize();
  }
  // End-of-run checks belong to the last slice.
  const std::uint64_t last = u.op_ms.size() - 1;
  if (violations() > seen && (u.failed_ops.empty() || u.failed_ops.back() != last)) {
    u.failed_ops.push_back(last);
  }
  u.sim_s = static_cast<double>(spec.horizon_ns) / 1e9;

  const util::TimeSeries& series = sc.probe().series();
  u.bound_held_frac =
      experiments::bound_holding_fraction(series, w.cal.bound.pi_ns, w.cal.gamma_ns);
  u.verdict = suite.summary() + " kills=" + std::to_string(injector.stats().total_kills);
  Digest d;
  for (const util::SeriesPoint& p : series.points()) {
    d.pod(p.t_ns);
    d.pod(p.value);
  }
  d.str(u.verdict);
  d.pod(injector.stats().total_kills);
  d.pod(injector.stats().reboots);
  u.digest = d.value();
  if (!traced) return u;

  // Per-layer metrics of the measured phase.
  const obs::MetricsSnapshot after = snapshot();
  auto& L = u.layer;
  L["experiments.build_s"] = w.build_s;
  L["experiments.bring_up_s"] = w.bring_up_s;
  L["experiments.bring_up_events"] = static_cast<double>(w.bring_up_events);
  L["measure.calibrate_s"] = w.calibrate_s;
  L["measure.calibrate_events"] = static_cast<double>(w.calibrate_events);
  std::vector<double> pi;
  for (const util::SeriesPoint& p : series.points()) pi.push_back(p.value);
  L["measure.probe_samples"] = static_cast<double>(pi.size());
  L["measure.precision_p99_ns"] = pi.empty() ? 0.0 : percentile(pi, 99.0);

  const double events = static_cast<double>(sc.events_executed() - events0);
  const auto delta = [&](const char* g) { return gauge(after, g) - gauge(before, g); };
  L["sim.events"] = events;
  L["sim.ns_per_event"] = ratio(u.wall_s * 1e9, events);
  L["sim.cancel_ratio"] = ratio(delta("sim.events_cancelled"), delta("sim.events_scheduled"));
  L["sim.cascades"] = delta("sim.cascades");
  L["sim.heap_spills"] = delta("sim.heap_spills");
  if (sim::FfController* ff = sc.fast_forward()) {
    const sim::FfStats& st = ff->stats();
    L["sim.ff_windows"] = static_cast<double>(st.windows);
    L["sim.ff_skipped_frac"] =
        ratio(static_cast<double>(st.skipped_ns), static_cast<double>(spec.horizon_ns));
    L["sim.ff_window_yield"] =
        ratio(static_cast<double>(st.windows), static_cast<double>(st.checks));
    L["sim.ff_blocked_model"] = static_cast<double>(st.blocked_model);
    L["sim.ff_blocked_events"] = static_cast<double>(st.blocked_events);
  }
  if (sc.partitioned()) {
    const std::vector<std::uint64_t> regions1 = region_events(sc);
    double max_events = 0, sum_events = 0;
    for (std::size_t r = 0; r < regions1.size(); ++r) {
      const double e = static_cast<double>(regions1[r] - regions0[r]);
      max_events = std::max(max_events, e);
      sum_events += e;
    }
    const double workers = static_cast<double>(sc.runtime()->workers());
    L["sim.part_cpu_util"] = ratio(cpu_s, u.wall_s * workers);
    L["sim.part_cpu_s_per_sim_s"] = ratio(cpu_s, u.sim_s);
    L["sim.part_region_imbalance"] =
        ratio(max_events, sum_events / static_cast<double>(regions1.size()));
  }
  L["net.frames"] = delta("net.frames_acquired");
  L["net.frames_per_event"] = ratio(L["net.frames"], events);
  const auto count = [&](std::string_view suffix) {
    return counter_sum(after, suffix) - counter_sum(before, suffix);
  };
  L["gptp.servo_samples"] = count(".samples");
  L["gptp.servo_jumps"] = count(".jumps");
  const double aggregations = count(".aggregations");
  L["core.aggregations"] = aggregations;
  L["core.quorum_skip_ratio"] = ratio(count(".aggregation_skipped_no_quorum"),
                                      aggregations + count(".aggregation_skipped_no_quorum"));
  L["hv.monitor_checks"] = count(".checks");
  L["hv.takeovers"] = count(".takeovers");
  L["check.violations"] = static_cast<double>(violations());
  L["check.poll_ms"] = poll_ms.empty() ? 0.0 : median(poll_ms);
  L["faults.kills"] = static_cast<double>(injector.stats().total_kills);
  const double records = delta("trace.records_total");
  L["obs.trace_records"] = records;
  L["obs.trace_dropped_ratio"] = ratio(delta("trace.records_dropped"), records);
  L["obs.snapshot_ms"] = median(snapshot_ms);
  add_profile(L);

  ProbeShape shape;
  shape.cfg = spec.cfg;
  shape.domains = sc.domain_count();
  shape.switch_ports = sc.ecd_switch(0).port_count();
  shape.coarse_span_ns = spec.slice_ns;
  if (sim::FfController* ff = sc.fast_forward(); ff && ff->stats().windows > 0) {
    shape.coarse_span_ns =
        ff->stats().skipped_ns / static_cast<std::int64_t>(ff->stats().windows);
  }
  run_probes(shape, L);
  return u;
}

double scenario_setup(const ScenarioSpec& spec) { return set_up(spec.cfg, nullptr, 0).setup_s(); }

// ---------------------------------------------------------------------------
// The attack campaign: derive_case(seed, i, 120 s, with_attacks) for 200
// cases, each through run_case on the sweep pool.

constexpr std::size_t kCases = 200;
constexpr std::int64_t kCaseNs = 120 * kSecond;

UnitResult run_campaign(const RunOptions& o, SpanRecorder* spans) {
  UnitResult u;
  sweep::SweepRunner runner({.threads = o.threads});

  // Set-up pass: the case worlds alone, so set-up has a per-case median
  // (run_case does not expose its phases). A world that fails to come up
  // here fails again inside run_case, where it is counted.
  const std::vector<std::optional<World>> setups =
      runner.run_indexed(kCases, [&](std::size_t i) -> std::optional<World> {
        const check::FuzzCase c = check::derive_case(o.seed, i, kCaseNs, /*with_attacks=*/true);
        try {
          World w = set_up(c.scenario, spans, i);
          w.harness.reset();
          w.scenario.reset();
          return w;
        } catch (const std::exception&) {
          return std::nullopt;
        }
      });
  std::vector<double> build_s, bring_up_s, bring_up_events, calibrate_s, calibrate_events;
  for (const auto& w : setups) {
    if (!w) continue;
    u.setup_s.push_back(w->setup_s());
    build_s.push_back(w->build_s);
    bring_up_s.push_back(w->bring_up_s);
    bring_up_events.push_back(static_cast<double>(w->bring_up_events));
    calibrate_s.push_back(w->calibrate_s);
    calibrate_events.push_back(static_cast<double>(w->calibrate_events));
  }

  struct CaseTiming {
    Clock::time_point start, end;
    std::uint32_t thread = 0;
  };
  std::vector<CaseTiming> timing(kCases);
  if (spans) {
    Sampler::instance().start(kSampleHz);
    Sampler::instance().set_region(true);
  }
  const auto t_begin = Clock::now();
  std::vector<check::CaseResult> results = runner.run_indexed(kCases, [&](std::size_t i) {
    const check::FuzzCase c = check::derive_case(o.seed, i, kCaseNs, /*with_attacks=*/true);
    const auto t0 = Clock::now();
    check::CaseResult r = check::run_case(c);
    timing[i] = {t0, Clock::now(), thread_index()};
    if (spans) spans->record("run_case", i, t0, timing[i].end);
    return r;
  });
  const auto t_end = Clock::now();
  if (spans) {
    Sampler::instance().set_region(false);
    Sampler::instance().stop();
  }
  u.wall_s = seconds_between(t_begin, t_end);
  u.sim_s = static_cast<double>(kCases) * static_cast<double>(kCaseNs) / 1e9;

  check::CampaignResult campaign;
  std::size_t bound_failures = 0;
  for (std::size_t i = 0; i < kCases; ++i) {
    u.op_ms.push_back(ms_between(timing[i].start, timing[i].end));
    const check::CaseResult& r = results[i];
    if (r.failed()) u.failed_ops.push_back(i);
    const bool bound_violated =
        std::any_of(r.violations.begin(), r.violations.end(),
                    [](const check::Violation& v) { return v.invariant == "precision-bound"; });
    if (bound_violated) ++bound_failures;
  }
  campaign.failures = u.failed_ops.size();
  campaign.cases = std::move(results);
  const std::string table = campaign.summary_text();
  Digest d;
  d.str(table);
  u.digest = d.value();
  u.verdict = table.substr(table.rfind("campaign:"));
  while (!u.verdict.empty() && u.verdict.back() == '\n') u.verdict.pop_back();
  u.bound_held_frac = 1.0 - static_cast<double>(bound_failures) / static_cast<double>(kCases);
  if (!spans) return u;

  auto& L = u.layer;
  L["experiments.build_s"] = median(build_s);
  L["experiments.bring_up_s"] = median(bring_up_s);
  L["experiments.bring_up_events"] = median(bring_up_events);
  L["measure.calibrate_s"] = median(calibrate_s);
  L["measure.calibrate_events"] = median(calibrate_events);
  double events = 0, case_s = 0, violations = 0, kills = 0, attacks = 0, evicted = 0;
  for (std::size_t i = 0; i < kCases; ++i) {
    const check::CaseResult& r = campaign.cases[i];
    events += static_cast<double>(r.events_executed);
    case_s += seconds_between(timing[i].start, timing[i].end);
    violations += static_cast<double>(r.violations.size());
    kills += static_cast<double>(r.injector_stats.total_kills);
    attacks += static_cast<double>(r.attack_verdicts.size());
    for (const auto& v : r.attack_verdicts) evicted += v.excluded_at_ns ? 1.0 : 0.0;
  }
  L["sim.events"] = events;
  L["sim.ns_per_event"] = ratio(case_s * 1e9, events);
  L["check.violations"] = violations;
  L["faults.kills"] = kills;
  L["attack.attempted"] = attacks;
  L["attack.evicted_ratio"] = ratio(evicted, attacks);
  const double threads = static_cast<double>(runner.threads());
  L["sweep.pool_util"] = ratio(case_s, u.wall_s * threads);
  // Straggler tail: from the first worker running dry to the campaign end.
  std::map<std::uint32_t, Clock::time_point> last_end;
  for (const CaseTiming& t : timing) {
    auto [it, fresh] = last_end.emplace(t.thread, t.end);
    if (!fresh) it->second = std::max(it->second, t.end);
  }
  Clock::time_point first_idle = t_end;
  for (const auto& [thread, end] : last_end) first_idle = std::min(first_idle, end);
  L["sweep.tail_idle_s"] = seconds_between(first_idle, t_end);
  add_profile(L);

  const check::FuzzCase c0 = check::derive_case(o.seed, 0, kCaseNs, true);
  ProbeShape shape;
  shape.cfg = c0.scenario;
  shape.domains = c0.scenario.num_ecds;
  shape.switch_ports = c0.scenario.num_ecds + 1;
  shape.coarse_span_ns = kSecond;
  run_probes(shape, L);
  return u;
}

// ---------------------------------------------------------------------------

UnitResult mesh4_unit(const RunOptions& o, SpanRecorder* spans) {
  return run_scenario(mesh4_faults(o), spans);
}
UnitResult ring64_unit(const RunOptions& o, SpanRecorder* spans) {
  return run_scenario(ring64_part(o), spans);
}
UnitResult ff_unit(const RunOptions& o, SpanRecorder* spans) {
  return run_scenario(ring8_ff_24h(o), spans);
}
double mesh4_setup(const RunOptions& o) { return scenario_setup(mesh4_faults(o)); }
double ff_setup(const RunOptions& o) { return scenario_setup(ring8_ff_24h(o)); }

const Workload kWorkloads[] = {
    {"mesh4_faults", "slice", 99.0, mesh4_unit, mesh4_setup},
    {"ring64_part", "slice", 99.0, ring64_unit, nullptr},
    {"ring8_ff_24h", "run", 100.0, ff_unit, ff_setup},
    {"fuzz_attack_campaign", "case", 95.0, run_campaign, nullptr},
};

} // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const Workload& w : kWorkloads) out.emplace_back(w.name);
  return out;
}

} // namespace perfbench
