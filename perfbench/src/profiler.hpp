// In-process instrumentation for the traced benchmark run.
//
// SpanRecorder keeps wall-clock spans in memory (name, shared id, start,
// end, thread) and writes them out at the end as a Chrome trace-event JSON
// file. Spans are recorded only from the benchmark's own code, around its
// calls into the simulator's public functions.
//
// Sampler is a SIGPROF profiler: a process CPU-time interval timer
// interrupts whichever thread is running, the handler stores the raw
// return addresses of that stack, and attribute() later maps every sample
// to the innermost frame that belongs to a tsn::<module>:: function.
// tsn::util helpers (RNG, inline closures) and std/libc frames are library
// code and count toward their innermost tsn caller instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU time (all threads), in seconds.
double process_cpu_s();

/// Small dense id of the calling thread (0 = first thread that asked).
std::uint32_t thread_index();

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  void record(const char* name, std::uint64_t id, Clock::time_point start, Clock::time_point end);

  /// Writes {"traceEvents": [...], "otherData": {...}}; returns false when
  /// the file cannot be written.
  bool write_chrome_trace(const std::string& path,
                          const std::map<std::string, std::string>& meta) const;

  std::size_t size() const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t tid;
  };
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) when `rec` is non-null.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const char* name, std::uint64_t id)
      : rec_(rec), name_(name), id_(id), start_(rec ? Clock::now() : Clock::time_point{}) {}
  ~SpanScope() {
    if (rec_) rec_->record(name_, id_, start_, Clock::now());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  const char* name_;
  std::uint64_t id_;
  Clock::time_point start_;
};

class Sampler {
 public:
  struct Profile {
    /// Samples taken while the region flag was set, by module (sim, net,
    /// gptp, core, hv, time, measure, experiments, faults, attack, check,
    /// sweep, obs); samples with no tsn frame at all go to "other".
    std::map<std::string, std::uint64_t> by_module;
    std::uint64_t inside = 0;  ///< samples with the region flag set
    std::uint64_t outside = 0; ///< samples with it clear (not attributed)
    std::uint64_t dropped = 0; ///< inside samples lost to a full buffer
  };

  /// The process has one SIGPROF handler, so there is one sampler.
  static Sampler& instance();

  /// Allocate the sample buffer, install the handler and start the timer
  /// at `hz` samples per CPU-second.
  void start(int hz);
  /// Stop the timer (the handler stays installed but idle).
  void stop();
  /// Samples count as "inside" only while this flag is set.
  void set_region(bool inside);

  /// Symbolize the samples taken since start().
  Profile attribute() const;

 private:
  Sampler() = default;
};

/// RAII region flag for the sampler.
class SampleRegion {
 public:
  explicit SampleRegion(bool active) : active_(active) {
    if (active_) Sampler::instance().set_region(true);
  }
  ~SampleRegion() {
    if (active_) Sampler::instance().set_region(false);
  }
  SampleRegion(const SampleRegion&) = delete;
  SampleRegion& operator=(const SampleRegion&) = delete;

 private:
  bool active_;
};

} // namespace perfbench
