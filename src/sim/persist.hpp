// State persistence and fast-forward participation (DESIGN.md §12).
//
// StateWriter/StateReader serialize component state into a flat byte
// archive with named sections and a running FNV-1a content hash. The
// format is process-private (snapshots never leave the process and are
// not versioned); sections exist so a traversal mismatch fails loudly at
// the exact component instead of corrupting everything downstream.
//
// Both archives expose the same members, each taking its field by
// reference (Archive below), plus `static constexpr bool kLoading`. A
// stateful component therefore writes its field list once:
//
//   template <class Ar> void persist(Ar& ar) {
//     ar.u16(seq_);            // the member name fixes the wire width
//     ar.opt_i64(t1_);
//     child_.persist(ar);
//     if constexpr (Ar::kLoading) resume(); // direction-specific step
//   }
//
// and that one body both saves and loads, so the two directions cannot
// drift apart. A writer-only expression (`ar.u64(v.size())`) does not
// compile for the reader. Bodies that live in a .cpp instantiate both
// directions with TSN_PERSIST_INSTANTIATE.
//
// Persistent is the interface every top-level stateful component
// implements to take part in the two facilities built on top:
//
//   * SimSnapshot (sim/snapshot.hpp): copy-out/copy-in of a whole world
//     at a *component-quiescent* instant -- every live event in the queue
//     is a standing event some component re-creates while loading, so
//     the queue itself is never serialized. Used by the incremental ddmin
//     shrinker and the snapshot/rollback property tests.
//   * Fast-forward (sim/fast_forward.hpp): park (cancel timers), skip a
//     quiescent window analytically, shift time-stamped state across the
//     window, resume (re-arm timers phase-aligned).
//
// ParkedTimer carries one periodic chain's phase through both: park() or
// a save records it, resume() re-arms it on the same grid after ff_resume
// or a load.
//
// The quiescence accounting contract: live_events() reports exactly the
// number of live entries this component currently keeps in the event
// queue in its *idle* steady state (periodic chains, the GM's next-Sync
// hop, pending fault/attack edges). Anything unaccounted -- an in-flight
// frame, an ETF launch, a pending probe evaluation -- makes the queue's
// live count exceed the sum and blocks both snapshotting and
// fast-forward entry until it drains. Components therefore only need to
// be honest about their standing events; transients are caught
// structurally.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace tsn::sim {

/// One fast-forwarded window of simulated time.
struct FfWindow {
  std::int64_t from_ns = 0; ///< sim time when the analytic advance began
  std::int64_t to_ns = 0;   ///< sim time after the jump
  std::int64_t span_ns() const { return to_ns - from_ns; }
};

namespace detail {
template <class T>
struct IsAtomic : std::false_type {};
template <class T>
struct IsAtomic<std::atomic<T>> : std::true_type {};
} // namespace detail

/// The field members shared by StateWriter and StateReader. `Self`
/// supplies xfer(void*, n), which appends (writer) or consumes (reader)
/// n raw bytes.
template <class Self, bool Loading>
class Archive {
 public:
  static constexpr bool kLoading = Loading;

  // Scalars: the field converts to the named wire type and back. Enums
  // go through their integer value, atomics through acquire/release.
  template <class T> void b(T& v) { scalar<std::uint8_t>(v); }
  template <class T> void u8(T& v) { scalar<std::uint8_t>(v); }
  template <class T> void u16(T& v) { scalar<std::uint16_t>(v); }
  template <class T> void u32(T& v) { scalar<std::uint32_t>(v); }
  template <class T> void u64(T& v) { scalar<std::uint64_t>(v); }
  template <class T> void i64(T& v) { scalar<std::int64_t>(v); }
  template <class T> void f64(T& v) { scalar<double>(v); }

  /// long double as a (hi, lo) double-double pair: deterministic byte
  /// image (no x87 padding garbage) and an exact round trip for any
  /// value with a <= 106-bit significand -- which covers the 64-bit
  /// x87 mantissa of every extended-precision accumulator we persist.
  template <class T>
  void ld(T& v) {
    double hi = static_cast<double>(v);
    double lo = static_cast<double>(v - static_cast<long double>(hi));
    f64(hi);
    f64(lo);
    if constexpr (Loading) v = static_cast<long double>(hi) + static_cast<long double>(lo);
  }

  void str(std::string& s) {
    std::uint64_t n = s.size();
    u64(n);
    if constexpr (Loading) s.resize(n);
    self().xfer(s.data(), n);
  }

  /// A presence flag, then `fields(value)` -- always: an empty optional
  /// writes the fields of a value-initialized T, so the layout does not
  /// depend on presence.
  template <class T, class Fields>
  void opt(std::optional<T>& v, Fields&& fields) {
    bool has = v.has_value();
    T x = v.value_or(T{});
    b(has);
    fields(x);
    if constexpr (Loading) {
      if (has) v = x; else v.reset();
    }
  }
  template <class T>
  void opt_i64(std::optional<T>& v) {
    opt(v, [this](T& x) { i64(x); });
  }
  /// A presence flag, then `fields(*v)` only when present (loading
  /// default-constructs the value first).
  template <class T, class Fields>
  void opt_sparse(std::optional<T>& v, Fields&& fields) {
    bool has = v.has_value();
    b(has);
    if constexpr (Loading) {
      if (!has) v.reset(); else if (!v) v.emplace();
    }
    if (has) fields(*v);
  }

  /// A std::map as its size, then `entry(key, value)` per element in key
  /// order; loading clears the map and rebuilds it.
  template <class Map, class Entry>
  void map(Map& m, Entry&& entry) {
    std::uint64_t n = m.size();
    u64(n);
    if constexpr (Loading) {
      m.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        typename Map::key_type k{};
        typename Map::mapped_type v{};
        entry(k, v);
        m.emplace(k, std::move(v));
      }
    } else {
      for (auto& [k, v] : m) entry(k, v);
    }
  }

  /// A std::vector as its size, then `each(element)` in order; loading
  /// resizes the vector first.
  template <class T, class Each>
  void seq(std::vector<T>& v, Each&& each) {
    std::uint64_t n = v.size();
    u64(n);
    if constexpr (Loading) v.resize(n);
    for (T& x : v) each(x);
  }

  /// Each element of a vector<bool> as b(), in index order (the caller
  /// persists and, when loading, restores the size first).
  void bits(std::vector<bool>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      bool x = v[i];
      b(x);
      v[i] = x;
    }
  }

 private:
  Self& self() { return static_cast<Self&>(*this); }

  template <class Wire, class T>
  void scalar(T& v) {
    Wire x{};
    if constexpr (!Loading) {
      if constexpr (detail::IsAtomic<std::remove_const_t<T>>::value) {
        x = static_cast<Wire>(v.load(std::memory_order_acquire));
      } else {
        x = static_cast<Wire>(v);
      }
    }
    self().xfer(&x, sizeof x);
    if constexpr (Loading) {
      if constexpr (detail::IsAtomic<T>::value) {
        v.store(static_cast<typename T::value_type>(x), std::memory_order_release);
      } else {
        v = static_cast<T>(x);
      }
    }
  }
};

class StateWriter : public Archive<StateWriter, false> {
 public:
  /// Open a named section; the name is hashed into the stream so a
  /// save/load traversal mismatch is detected at load time.
  void begin_section(std::string_view name);
  /// mt19937_64 engine state via its standard text serialization.
  void rng(const util::RngStream& s);

  const std::vector<std::uint8_t>& data() const { return buf_; }
  /// FNV-1a over everything written so far (section names included).
  std::uint64_t hash() const { return hash_; }

 private:
  friend class Archive<StateWriter, false>;
  void xfer(const void* p, std::size_t n);

  std::vector<std::uint8_t> buf_;
  std::uint64_t hash_ = 1469598103934665603ull; // FNV-1a offset basis
};

class StateReader : public Archive<StateReader, true> {
 public:
  explicit StateReader(const std::vector<std::uint8_t>& data) : buf_(data) {}

  /// Must mirror the writer's begin_section calls exactly; throws
  /// std::runtime_error naming both sections on mismatch.
  void begin_section(std::string_view name);
  void rng(util::RngStream& s);

  // Value-returning forms for hand-written readers outside the persist
  // idiom (test fixtures).
  using Archive::b;
  using Archive::i64;
  using Archive::u64;
  bool b() { bool v{}; Archive::b(v); return v; }
  std::int64_t i64() { std::int64_t v{}; Archive::i64(v); return v; }
  std::uint64_t u64() { std::uint64_t v{}; Archive::u64(v); return v; }

  bool at_end() const { return pos_ == buf_.size(); }

 private:
  friend class Archive<StateReader, true>;
  void xfer(void* p, std::size_t n);

  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

/// Instantiate `Class::persist` for both directions when its body lives
/// in Class's .cpp.
#define TSN_PERSIST_INSTANTIATE(Class)                    \
  template void Class::persist(::tsn::sim::StateWriter&); \
  template void Class::persist(::tsn::sim::StateReader&)

/// Interface of a snapshottable / fast-forwardable component. Every
/// method has a safe default so pure-data components only implement
/// save/load and event-less components skip the ff hooks. Stateful
/// implementations forward both to their one persist(Ar&) body.
class Persistent {
 public:
  virtual ~Persistent() = default;

  /// Stable section name (used for archive traversal checking).
  virtual const char* persist_name() const = 0;

  /// Serialize into `w`. Deliberately non-const: capture normalizes
  /// lazily-integrated state (e.g. a PHC advances itself to now()) so
  /// that the capture-and-continue timeline and the restored timeline
  /// resume from bit-identical state -- otherwise the restore-time
  /// catch-up would split an oscillator integration segment the live
  /// run integrates whole, and long-double rounding could diverge by
  /// an ulp.
  virtual void save_state(StateWriter& w) = 0;
  /// Restore from `r`. Called with sim.now() already restored and the
  /// event queue cleared; the component must re-create its own standing
  /// events (periodic chains, one-shot hops) from the loaded state --
  /// never from stale handles, which the queue clear invalidated.
  virtual void load_state(StateReader& r) = 0;

  // -- Fast-forward participation ------------------------------------------

  /// Live queue entries this component keeps around in its idle steady
  /// state right now (see the accounting contract above).
  virtual std::size_t live_events() const { return 0; }
  /// Cancel all standing events, remembering their phases. After parking,
  /// the component's queued closures must be inert no-ops when popped.
  virtual void ff_park() {}
  /// Shift time-stamped state across the window (called with sim.now()
  /// already at window.to_ns, clocks already advanced analytically).
  virtual void ff_advance(const FfWindow& w) { (void)w; }
  /// Re-create standing events, phase-aligned to the pre-park grid.
  virtual void ff_resume() {}
};

/// First firing time >= `now` on the periodic grid anchored at `due`
/// (the phase remembered at park/save time) with period `period`.
inline std::int64_t align_phase(std::int64_t due, std::int64_t period, std::int64_t now) {
  if (due >= now) return due;
  const std::int64_t behind = now - due;
  const std::int64_t k = (behind + period - 1) / period;
  return due + k * period;
}

/// The phase of one periodic chain -- its handle's (active, due) pair --
/// held across ff_park()/ff_resume() and save/load. The owner writes the
/// chain's closure once, in its resume() call, and reaches that call from
/// start-up (park_at), ff_resume and the end of a load alike.
class ParkedTimer {
 public:
  using Handle = Simulation::PeriodicHandle;

  /// Remember `h`'s phase and cancel it.
  void park(Handle& h) {
    record(h);
    h.cancel();
  }
  /// A chain not running yet, to start at `first_ns` on resume().
  void park_at(std::int64_t first_ns) {
    active_ = true;
    due_ns_ = first_ns;
  }
  /// Archive `h`'s phase. Saving writes the live handle's phase and
  /// leaves this one alone; loading drops the handle, which the restore's
  /// queue clear invalidated, and holds the phase for resume().
  template <class Ar>
  void persist(Ar& ar, Handle& h) {
    ParkedTimer live = *this;
    ParkedTimer& p = Ar::kLoading ? *this : live;
    if constexpr (Ar::kLoading) h = {}; else live.record(h);
    ar.b(p.active_);
    ar.i64(p.due_ns_);
  }
  /// If the chain was active, re-arm `h` at the first firing >= now on
  /// its remembered grid. Consumes the parked phase.
  void resume(Simulation& sim, Handle& h, std::int64_t period_ns,
              std::function<void(SimTime)> fn) {
    if (!active_) return;
    active_ = false;
    h = sim.every(SimTime{align_phase(due_ns_, period_ns, sim.now().ns())}, period_ns,
                  std::move(fn));
  }

 private:
  /// A handle that holds no chain (period 0: never armed, or dropped by a
  /// load) keeps the remembered due, so a stopped chain's last phase
  /// survives save -> load -> save.
  void record(const Handle& h) {
    active_ = h.active();
    if (h.period_ns() != 0) due_ns_ = h.next_due_ns();
  }

  bool active_ = false;
  std::int64_t due_ns_ = 0;
};

} // namespace tsn::sim
