// perfbench: run one benchmark workload and report its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>] [--fingerprint <text>]
//
// --trace 0 repeats the workload's fixed-size unit until --seconds of wall
// time have passed and reports the end-to-end metrics; every repetition
// must reproduce the first one's output digest. --trace 1 runs one
// untraced and one traced unit, reports the per-layer metrics and writes
// the traced unit's spans as a Chrome trace-event file into --trace-dir.
// The last line of stdout is the JSON result; the exit code is 0 only when
// every correctness check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "profiler.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/run.py checks the printed names).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_speed_x", "x"},
    {"peak_rss_mb", "MB"},
    {"bound_held_frac", "frac"},
};

constexpr MetricDef kPerLayer[] = {
    {"experiments.build_s", "s"},
    {"experiments.bring_up_s", "s"},
    {"experiments.bring_up_events", "count"},
    {"measure.calibrate_s", "s"},
    {"measure.calibrate_events", "count"},
    {"measure.probe_samples", "count"},
    {"measure.precision_p99_ns", "ns"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.cancel_ratio", "frac"},
    {"sim.cascades", "count"},
    {"sim.heap_spills", "count"},
    {"sim.ff_windows", "count"},
    {"sim.ff_skipped_frac", "frac"},
    {"sim.ff_window_yield", "frac"},
    {"sim.ff_blocked_model", "count"},
    {"sim.ff_blocked_events", "count"},
    {"sim.part_cpu_util", "frac"},
    {"sim.part_cpu_s_per_sim_s", "s/s"},
    {"sim.part_region_imbalance", "ratio"},
    {"net.frames", "count"},
    {"net.frames_per_event", "ratio"},
    {"net.forward_ns", "ns"},
    {"gptp.servo_samples", "count"},
    {"gptp.servo_jumps", "count"},
    {"gptp.msg_parse_ns", "ns"},
    {"core.aggregations", "count"},
    {"core.quorum_skip_ratio", "frac"},
    {"core.fta_ns", "ns"},
    {"core.seqlock_read_ns", "ns"},
    {"hv.monitor_checks", "count"},
    {"hv.takeovers", "count"},
    {"time.phc_read_ns", "ns"},
    {"time.advance_coarse_ns", "ns"},
    {"check.violations", "count"},
    {"check.poll_ms", "ms"},
    {"attack.attempted", "count"},
    {"attack.evicted_ratio", "frac"},
    {"faults.kills", "count"},
    {"sweep.pool_util", "frac"},
    {"sweep.tail_idle_s", "s"},
    {"obs.trace_records", "count"},
    {"obs.trace_dropped_ratio", "frac"},
    {"obs.snapshot_ms", "ms"},
    {"sim.self_frac", "frac"},
    {"net.self_frac", "frac"},
    {"gptp.self_frac", "frac"},
    {"core.self_frac", "frac"},
    {"hv.self_frac", "frac"},
    {"time.self_frac", "frac"},
    {"measure.self_frac", "frac"},
    {"experiments.self_frac", "frac"},
    {"faults.self_frac", "frac"},
    {"attack.self_frac", "frac"},
    {"check.self_frac", "frac"},
    {"sweep.self_frac", "frac"},
    {"obs.self_frac", "frac"},
    {"sampler.samples", "count"},
    {"sampler.attributed_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"trace.spans", "count"},
};

struct Args {
  std::string workload;
  RunOptions run;
  bool trace = false;
  std::string trace_dir = ".";
  std::string fingerprint;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>] [--fingerprint <text>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.run.seed = std::stoull(val);
      else if (key == "--seconds") a.run.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--trace-dir") a.trace_dir = val;
      else if (key == "--fingerprint") a.fingerprint = val;
      else usage(("unknown option " + key).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  // Results do not depend on the thread count; timings do, so it is
  // printed with the fingerprint.
  a.run.threads = std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  return a;
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, starts afresh at exec instead of inheriting the launching
/// process's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  std::map<std::string, std::size_t> samples; ///< sample count behind each value
};

void tally(Report& r, const Workload& w, const std::vector<UnitResult>& units) {
  for (std::size_t i = 0; i < units.size(); ++i) {
    const UnitResult& u = units[i];
    r.attempted += u.op_ms.size();
    r.failed += u.failed_ops.size();
    std::printf("digest %s unit=%zu %s  verdict: %s\n", w.name, i, hex(u.digest).c_str(),
                u.verdict.c_str());
    if (u.digest != units.front().digest) {
      std::printf("error: unit %zu digest differs from unit 0 -- the run is not deterministic\n",
                  i);
      r.correct = false;
    }
  }
  const UnitResult& first = units.front();
  if (!first.failed_ops.empty()) {
    std::printf("failed %ss (unit 0):", w.op);
    for (const std::uint64_t id : first.failed_ops) std::printf(" %llu", (unsigned long long)id);
    std::printf("\n");
  }
  std::printf("fail_frac = %.6f (%llu of %llu %ss)\n",
              r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted), w.op);
}

Report run_untraced(const Workload& w, const Args& a) {
  Report r;
  std::vector<UnitResult> units;
  const auto t0 = Clock::now();
  do {
    units.push_back(w.run_unit(a.run, nullptr));
  } while (seconds_between(t0, Clock::now()) < a.run.seconds);
  std::vector<double> setup, ops;
  double sim_s = 0, wall_s = 0;
  for (const UnitResult& u : units) {
    setup.insert(setup.end(), u.setup_s.begin(), u.setup_s.end());
    ops.insert(ops.end(), u.op_ms.begin(), u.op_ms.end());
    sim_s += u.sim_s;
    wall_s += u.wall_s;
  }
  if (w.setup_only) {
    while (setup.size() < 5) setup.push_back(w.setup_only(a.run));
  }
  tally(r, w, units);
  r.values["setup_s"] = median(setup);
  r.samples["setup_s"] = setup.size();
  r.values["sim_speed_x"] = sim_s / wall_s;
  r.samples["sim_speed_x"] = units.size();
  r.values["peak_rss_mb"] = peak_rss_mb();
  r.samples["peak_rss_mb"] = 1;
  r.values["bound_held_frac"] = units.front().bound_held_frac;
  r.samples["bound_held_frac"] = 1;
  std::printf("units: %zu  measured wall: %.3f s  simulated: %.0f s\n", units.size(), wall_s,
              sim_s);
  // Per-operation timings under the workload's own names. They are
  // printed, not gated: sim_speed_x carries the same work, and on a shared
  // host their run-to-run shifts are wider than any regression bound
  // BENCHMARK.json may set.
  std::printf("%s_ms_p50 = %.6g ms (n=%zu)\n", w.op, median(ops), ops.size());
  std::printf("%s_ms_p%g = %.6g ms (n=%zu)\n", w.op, w.tail_pct, percentile(ops, w.tail_pct),
              ops.size());
  if (std::string(w.op) == "case") {
    std::printf("cases_per_s = %.6g (n=%zu)\n", static_cast<double>(ops.size()) / wall_s,
                ops.size());
  }
  return r;
}

Report run_traced(const Workload& w, const Args& a) {
  Report r;
  std::vector<UnitResult> units;
  units.push_back(w.run_unit(a.run, nullptr));
  SpanRecorder spans;
  units.push_back(w.run_unit(a.run, &spans));
  tally(r, w, units);
  r.values = units.back().layer;
  r.values["trace.overhead_frac"] = units[1].wall_s / units[0].wall_s - 1.0;
  r.values["trace.spans"] = static_cast<double>(spans.size());
  const std::string path = a.trace_dir + "/" + w.name + "-seed" +
                           std::to_string(a.run.seed) + ".trace.json";
  const std::map<std::string, std::string> meta = {
      {"workload", w.name},
      {"seed", std::to_string(a.run.seed)},
      {"fingerprint", a.fingerprint},
      {"digest", hex(units.back().digest)},
  };
  if (spans.write_chrome_trace(path, meta)) {
    std::printf("chrome trace: %s (%zu spans)\n", path.c_str(), spans.size());
  } else {
    std::printf("error: cannot write %s\n", path.c_str());
    r.correct = false;
  }
  return r;
}

void print_result(const Report& r, const MetricDef* defs, std::size_t n) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = r.values.find(defs[i].name);
    double v = it == r.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", defs[i].name, v,
                defs[i].unit);
  }
  std::printf("}}\n");
}

} // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to run from a '%s' build; configure Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const Workload* w = find_workload(a.workload);
  if (!w) {
    std::string names;
    for (const std::string& n : workload_names()) names += " " + n;
    usage(("unknown workload; one of:" + names).c_str());
  }
  std::printf("fingerprint: %s threads=%zu build=%s\n", a.fingerprint.c_str(), a.run.threads,
              PERFBENCH_BUILD_TYPE);
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n", w->name,
              static_cast<unsigned long long>(a.run.seed), a.run.seconds, a.trace ? 1 : 0);
  std::fflush(stdout);

  Report r;
  try {
    r = a.trace ? run_traced(*w, a) : run_untraced(*w, a);
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    r.correct = false;
    ++r.failed;
    r.attempted = std::max(r.attempted, r.failed);
  }
  const MetricDef* defs = a.trace ? kPerLayer : kEndToEnd;
  const std::size_t n = a.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = r.values.find(defs[i].name);
    const auto s = r.samples.find(defs[i].name);
    std::printf("metric %-28s %.6g %s", defs[i].name, it == r.values.end() ? 0.0 : it->second,
                defs[i].unit);
    if (s != r.samples.end()) std::printf("  (n=%zu)", s->second);
    std::printf("\n");
  }
  print_result(r, defs, n);
  return r.correct ? 0 : 1;
}
