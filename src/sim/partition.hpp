// Conservative parallel discrete-event runtime: one scenario, many cores.
//
// The serial simulator runs one EventQueue; parallelism only ever existed
// *across* sweep replicas. PartitionRuntime splits a single world into R
// logical regions, each owning its own Simulation (queue, now, RNG
// derivation from the shared master seed), and executes them on P worker
// shards with Chandy–Misra-style conservative lookahead:
//
//   - Cross-region interaction happens only through declared Channels,
//     each with a minimum delivery delay ("lookahead"). For network
//     boundaries the link propagation floor is the natural bound; sparse
//     control traffic (probe samples, fault commands) rides dedicated
//     control channels with a fixed 1 ms bound.
//   - Every region r publishes a monotone promise U_r ("safe-until"): no
//     message sent by r in the future will be delivered before
//     U_r + min_delay(channel). A region may execute events strictly
//     below EIT_r = min over in-channels (U_src + min_delay), and at most
//     at the stage limit.
//   - Messages travel through SPSC mailbox rings carrying a (time, key)
//     pair plus an inline closure. The key embeds (channel id, per-channel
//     sequence) with the top bit set, so boundary events order *after*
//     same-time internal events and identically for every partition
//     count and thread count — the event queue breaks time ties by key,
//     never by arrival order.
//   - When every region is blocked (typical between 125 ms sync bursts),
//     a global "leap" jumps all promises to the minimum pending event
//     time, skipping the quiet gap in O(R) instead of creeping across it
//     in lookahead-sized steps.
//
// Determinism: the number of regions is fixed by the model (one per ECD
// in the scenario layer), *not* by the worker count. partitions=P only
// chooses how many shards multiplex the regions, so results are identical
// for every P and every thread schedule by construction; the protocol
// above makes them race-free as well (verified under TSan).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/simulation.hpp"
#include "util/inline_fn.hpp"

namespace tsn::sweep {
class ThreadPool;
}

namespace tsn::sim {

/// Closure shipped across a partition boundary and executed in the
/// destination region. Bigger than EventFn because boundary deliveries
/// carry a frame by value (~150 bytes with the inline payload).
using RemoteFn = util::InlineFunction<void(), 192>;

/// Default lookahead of control channels (measurement samples, fault
/// commands): senders must post at least this far ahead.
inline constexpr std::int64_t kControlLookaheadNs = 1'000'000;

/// One direction of a partition boundary: an SPSC mailbox from a fixed
/// source region to a fixed destination region with a contractual minimum
/// delivery delay. Message order on the wire is irrelevant — each message
/// carries an explicit (time, key) and the destination queue sorts — so
/// the ring may spill to a mutex-guarded overflow list without affecting
/// results.
class Channel {
 public:
  Channel(std::uint32_t id, std::size_t src, std::size_t dst,
          std::int64_t min_delay_ns)
      : id_(id), src_(src), dst_(dst), min_delay_ns_(min_delay_ns) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  std::uint32_t id() const { return id_; }
  std::size_t src() const { return src_; }
  std::size_t dst() const { return dst_; }
  std::int64_t min_delay_ns() const { return min_delay_ns_; }

 private:
  friend class PartitionRuntime;

  struct Msg {
    SimTime at;
    std::uint64_t key = 0;
    RemoteFn fn;
  };
  static constexpr std::size_t kRingSize = 32; // power of two
  static constexpr std::size_t kRingMask = kRingSize - 1;

  /// Producer side (source region's shard only).
  void push(SimTime at, RemoteFn&& fn);

  /// Consumer side (destination region's shard only). Invokes
  /// `sink(Msg&&)` for every buffered message, returns the count.
  template <typename Sink>
  std::size_t drain(Sink&& sink) {
    std::size_t n = 0;
    std::size_t h = head_.load(std::memory_order_relaxed);
    const std::size_t t = tail_.load(std::memory_order_acquire);
    while (h != t) {
      sink(std::move(ring_[h & kRingMask]));
      ring_[h & kRingMask].fn.reset();
      ++h;
      ++n;
    }
    if (n > 0) head_.store(h, std::memory_order_release);
    if (overflowed_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> g(overflow_mu_);
      while (!overflow_.empty()) {
        sink(std::move(overflow_.front()));
        overflow_.pop_front();
        ++n;
      }
      overflowed_.store(false, std::memory_order_relaxed);
    }
    return n;
  }

  const std::uint32_t id_;
  const std::size_t src_;
  const std::size_t dst_;
  const std::int64_t min_delay_ns_;

  std::uint64_t next_seq_ = 0; ///< producer-side message counter
  std::array<Msg, kRingSize> ring_;
  std::atomic<std::size_t> head_{0};
  std::atomic<std::size_t> tail_{0};
  std::atomic<bool> overflowed_{false};
  std::mutex overflow_mu_;
  std::deque<Msg> overflow_;
};

class PartitionRuntime {
 public:
  /// `regions` Simulations sharing `master_seed`; `workers` shards execute
  /// them (clamped to the region count; <=1 runs inline on the caller).
  PartitionRuntime(std::size_t regions, std::uint64_t master_seed,
                   std::size_t workers);
  ~PartitionRuntime();

  PartitionRuntime(const PartitionRuntime&) = delete;
  PartitionRuntime& operator=(const PartitionRuntime&) = delete;

  std::size_t region_count() const { return regions_.size(); }
  std::size_t workers() const { return workers_; }
  Simulation& region_sim(std::size_t r) { return regions_[r]->sim; }

  /// Declare a boundary src -> dst with the given lookahead. Only legal
  /// from the driving thread while no stage is running. Returns the
  /// channel id used by post_remote().
  std::uint32_t add_channel(std::size_t src, std::size_t dst,
                            std::int64_t min_delay_ns);

  /// Find-or-create the control channel src -> dst (kControlLookaheadNs).
  std::uint32_t control_channel(std::size_t src, std::size_t dst);

  /// Send `fn` for execution in the channel's destination region at `at`.
  /// Must be called from code executing inside the channel's source
  /// region; `at` must be >= the source region's now + the channel's
  /// min delay. Delivery order at equal `at` follows (channel id, send
  /// order), after all same-time internal events — identically for every
  /// worker count.
  void post_remote(std::uint32_t channel_id, SimTime at, RemoteFn fn);

  /// Convenience: post_remote over the pre-created control channel from
  /// the currently executing region to `dst_region`.
  void post_control(std::size_t dst_region, SimTime at, RemoteFn fn);

  /// The region the calling thread is currently executing, or SIZE_MAX
  /// when the caller is not inside region execution (e.g. the driving
  /// thread between stages).
  static std::size_t current_region();

  /// Installed hook runs on the executing worker right before (enter=true)
  /// and after (enter=false) a region executes events; used to swap in
  /// region-local thread-local state (frame pools).
  void set_region_scope_hook(std::function<void(std::size_t, bool)> hook) {
    scope_hook_ = std::move(hook);
  }

  /// Advance every region to `limit` (events at exactly `limit` run, as
  /// in Simulation::run_until). Returns the number of events executed
  /// across all regions. Blocks until the stage completes.
  std::uint64_t run_until(SimTime limit);

  /// Common time at stage boundaries (the last run_until limit).
  SimTime now() const { return now_; }

  std::uint64_t events_executed() const;

 private:
  struct Region {
    explicit Region(std::size_t idx, std::uint64_t master_seed)
        : index(idx), sim(master_seed) {}

    const std::size_t index;
    std::size_t shard = 0; ///< the worker shard that executes this region
    Simulation sim;
    std::vector<Channel*> in;  ///< channels delivering into this region
    std::vector<Channel*> out; ///< channels this region sends on

    /// Promise: nothing this region does in the future reaches a
    /// neighbor before safe_until + channel delay. Monotone per stage.
    std::atomic<std::int64_t> safe_until{0};
    /// Last published earliest-pending-event time (exact when quiesced,
    /// a lower bound otherwise).
    std::atomic<std::int64_t> next_event{INT64_MAX};

    /// Parking slab for oversized remote closures: the queue entry only
    /// captures (region, slot). Touched solely by this region's shard.
    std::vector<RemoteFn> parked;
    std::vector<std::uint32_t> parked_free;
  };

  /// One shard's message tally on its own cache line. Only that shard
  /// writes it, so it is bumped by a plain load and release store.
  struct alignas(64) ShardCounter {
    std::atomic<std::uint64_t> n{0};
  };

  void shard_loop(std::size_t shard, SimTime limit);
  bool step_region(Region& region, SimTime limit);
  bool no_message_in_flight() const;
  bool try_leap(SimTime limit);
  void enqueue_remote(Region& region, Channel::Msg&& msg);

  std::vector<std::unique_ptr<Region>> regions_;
  std::vector<std::unique_ptr<Channel>> channels_;
  /// (src << 32 | dst) -> control channel id, for post_control.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> control_ids_;
  std::size_t workers_;
  std::unique_ptr<sweep::ThreadPool> pool_;
  std::function<void(std::size_t, bool)> scope_hook_;

  /// Per shard: messages pushed by the regions it executes (sent_) and
  /// messages drained into them and folded into a published next_event
  /// (acked_). Leaping, which trusts published values, is barred unless
  /// the totals match. Monotone for the runtime's lifetime.
  std::vector<ShardCounter> sent_;
  std::vector<ShardCounter> acked_;
  std::atomic<bool> stage_done_{false};
  std::mutex leap_mu_;
  SimTime now_ = SimTime::zero();
};

} // namespace tsn::sim
