#include "sim/partition.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "sweep/thread_pool.hpp"

// Conservative-sync protocol contracts (no send below the sender's promise
// plus lookahead, no arrival below the destination's promise). Plain
// assert() normally -- free in Release builds -- but -DTSN_FORCE_CONTRACTS
// keeps them armed regardless of NDEBUG so CI can run the partition
// determinism matrix on an optimized build with the contracts enforced.
#if defined(TSN_FORCE_CONTRACTS)
#define TSN_CONTRACT(cond, msg)                                                   \
  do {                                                                            \
    if (!(cond)) {                                                                \
      std::fprintf(stderr, "partition contract violated: %s (%s:%d)\n", msg,      \
                   __FILE__, __LINE__);                                           \
      std::abort();                                                               \
    }                                                                             \
  } while (0)
#else
#define TSN_CONTRACT(cond, msg) assert((cond) && msg)
#endif

namespace tsn::sim {
namespace {

/// Which region the calling thread is executing right now (SIZE_MAX = not
/// inside region execution). One slot per thread is enough: regions never
/// nest.
thread_local std::size_t t_current_region = SIZE_MAX;

void atomic_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_release,
                                  std::memory_order_relaxed)) {
  }
}

/// Single-writer counter bump: no read-modify-write instruction needed.
void bump(std::atomic<std::uint64_t>& c, std::uint64_t by) {
  c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_release);
}

std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  if (a >= INT64_MAX - b) return INT64_MAX;
  return a + b;
}

} // namespace

void Channel::push(SimTime at, RemoteFn&& fn) {
  Msg m{at, (1ull << 63) | (static_cast<std::uint64_t>(id_) << 40) |
                next_seq_++,
        std::move(fn)};
  if (!overflowed_.load(std::memory_order_relaxed)) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) < kRingSize) {
      ring_[t & kRingMask] = std::move(m);
      tail_.store(t + 1, std::memory_order_release);
      return;
    }
  }
  std::lock_guard<std::mutex> g(overflow_mu_);
  overflow_.push_back(std::move(m));
  overflowed_.store(true, std::memory_order_release);
}

PartitionRuntime::PartitionRuntime(std::size_t regions,
                                   std::uint64_t master_seed,
                                   std::size_t workers) {
  assert(regions >= 1);
  regions_.reserve(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    regions_.push_back(std::make_unique<Region>(r, master_seed));
  }
  workers_ = std::max<std::size_t>(1, std::min(workers, regions));
  for (const auto& r : regions_) r->shard = r->index % workers_; // shard_loop's stripes
  sent_ = std::vector<ShardCounter>(workers_);
  acked_ = std::vector<ShardCounter>(workers_);
  if (workers_ > 1) pool_ = std::make_unique<sweep::ThreadPool>(workers_);
}

PartitionRuntime::~PartitionRuntime() = default;

std::uint32_t PartitionRuntime::add_channel(std::size_t src, std::size_t dst,
                                            std::int64_t min_delay_ns) {
  assert(src < regions_.size() && dst < regions_.size() && src != dst);
  TSN_CONTRACT(min_delay_ns > 0, "conservative lookahead requires positive delay");
  const auto id = static_cast<std::uint32_t>(channels_.size());
  channels_.push_back(std::make_unique<Channel>(id, src, dst, min_delay_ns));
  Channel* ch = channels_.back().get();
  regions_[src]->out.push_back(ch);
  regions_[dst]->in.push_back(ch);
  return id;
}

std::uint32_t PartitionRuntime::control_channel(std::size_t src,
                                                std::size_t dst) {
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
  for (const auto& [k, id] : control_ids_) {
    if (k == key) return id;
  }
  const std::uint32_t id = add_channel(src, dst, kControlLookaheadNs);
  control_ids_.emplace_back(key, id);
  return id;
}

void PartitionRuntime::post_remote(std::uint32_t channel_id, SimTime at,
                                   RemoteFn fn) {
  Channel& ch = *channels_[channel_id];
  TSN_CONTRACT(t_current_region == ch.src(),
               "post_remote must run inside the channel's source region");
  TSN_CONTRACT(at.ns() >=
                   regions_[ch.src()]->sim.now().ns() + ch.min_delay_ns(),
               "post_remote violates the channel's lookahead contract");
  TSN_CONTRACT(at.ns() >=
                   regions_[ch.src()]->safe_until.load(std::memory_order_relaxed) +
                       ch.min_delay_ns(),
               "send undercuts the source region's own published promise");
  // Counted before the push, so a drained message is always counted sent.
  bump(sent_[regions_[ch.src()]->shard].n, 1);
  ch.push(at, std::move(fn));
}

void PartitionRuntime::post_control(std::size_t dst_region, SimTime at,
                                    RemoteFn fn) {
  const std::size_t src = t_current_region;
  TSN_CONTRACT(src != SIZE_MAX, "post_control outside region execution");
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst_region;
  for (const auto& [k, id] : control_ids_) {
    if (k == key) {
      post_remote(id, at, std::move(fn));
      return;
    }
  }
  TSN_CONTRACT(false, "no control channel declared for this region pair");
}

std::size_t PartitionRuntime::current_region() { return t_current_region; }

void PartitionRuntime::enqueue_remote(Region& region, Channel::Msg&& msg) {
  // A message below the destination's own promise means some promise
  // upstream lied (the 625 ms stage-init bug was exactly this shape);
  // below now() it is already too late to order correctly.
  TSN_CONTRACT(msg.at.ns() >=
                   region.safe_until.load(std::memory_order_relaxed),
               "arrival below the destination region's published promise");
  TSN_CONTRACT(msg.at.ns() >= region.sim.now().ns(),
               "arrival behind the destination region's clock");
  std::uint32_t slot;
  if (!region.parked_free.empty()) {
    slot = region.parked_free.back();
    region.parked_free.pop_back();
    region.parked[slot] = std::move(msg.fn);
  } else {
    slot = static_cast<std::uint32_t>(region.parked.size());
    region.parked.push_back(std::move(msg.fn));
  }
  Region* reg = &region;
  region.sim.queue().post_keyed(msg.at, msg.key, [reg, slot] {
    RemoteFn fn = std::move(reg->parked[slot]);
    reg->parked_free.push_back(slot);
    fn();
  });
}

bool PartitionRuntime::step_region(Region& region, SimTime limit) {
  // 1. Horizon from the neighbors' current promises. Reading U *before*
  //    draining is what makes the later execute step safe: any message
  //    not yet visible to the drain was sent by an event at or after the
  //    snapshotted promise, so it arrives at or after this EIT.
  std::int64_t eit = INT64_MAX;
  for (const Channel* c : region.in) {
    const std::int64_t u =
        regions_[c->src()]->safe_until.load(std::memory_order_acquire);
    eit = std::min(eit, sat_add(u, c->min_delay_ns()));
  }

  // 2. Drain mailboxes into the region queue (explicitly keyed, so the
  //    insertion moment never affects ordering).
  std::size_t drained = 0;
  for (Channel* c : region.in) {
    drained += c->drain(
        [this, &region](Channel::Msg&& m) { enqueue_remote(region, std::move(m)); });
  }

  // 3. Execute the safe window: strictly below EIT, at most to the limit.
  std::uint64_t ran = 0;
  if (region.sim.next_event_ns() < eit &&
      region.sim.next_event_ns() <= limit.ns()) {
    t_current_region = region.index;
    if (scope_hook_) scope_hook_(region.index, true);
    ran = region.sim.run_ready(limit, eit);
    if (scope_hook_) scope_hook_(region.index, false);
    t_current_region = SIZE_MAX;
  }

  // 4. Publish. next_event must be visible before the ack counts, so
  //    matching sent/acked totals guarantee every delivered message is
  //    already reflected in a published value (the leap relies on this).
  const std::int64_t next = region.sim.next_event_ns();
  region.next_event.store(next, std::memory_order_release);
  atomic_max(region.safe_until, std::min(next, eit));
  if (drained > 0) bump(acked_[region.shard].n, drained);
  return ran > 0 || drained > 0;
}

bool PartitionRuntime::no_message_in_flight() const {
  // Acks first, then sends. A message is counted sent before it can be
  // drained, and counters only grow, so acked <= (sent at the end of the
  // first pass) <= sent; equality means nothing was in flight at the
  // moment between the passes, and every ack read carries its published
  // next_event with it.
  std::uint64_t acked = 0;
  for (const ShardCounter& c : acked_) acked += c.n.load(std::memory_order_acquire);
  std::uint64_t sent = 0;
  for (const ShardCounter& c : sent_) sent += c.n.load(std::memory_order_acquire);
  return acked == sent;
}

bool PartitionRuntime::try_leap(SimTime limit) {
  // Published next_event values are lower bounds at all times (execution
  // only consumes the published minimum and schedules at or after it), so
  // a leap to their minimum is always safe; it is *exact* — and therefore
  // guarantees progress or detects stage completion — once no message is
  // in flight.
  if (!no_message_in_flight()) return false;
  std::unique_lock<std::mutex> lk(leap_mu_, std::try_to_lock);
  if (!lk.owns_lock()) return false;
  if (!no_message_in_flight()) return false;

  std::int64_t g = INT64_MAX;
  for (const auto& r : regions_) {
    g = std::min(g, r->next_event.load(std::memory_order_acquire));
  }
  if (g > limit.ns()) {
    stage_done_.store(true, std::memory_order_release);
    return true;
  }
  bool raised = false;
  for (const auto& r : regions_) {
    if (r->safe_until.load(std::memory_order_relaxed) < g) {
      atomic_max(r->safe_until, g);
      raised = true;
    }
  }
  return raised;
}

void PartitionRuntime::shard_loop(std::size_t shard, SimTime limit) {
  int idle = 0;
  while (!stage_done_.load(std::memory_order_acquire)) {
    bool progressed = false;
    for (std::size_t r = shard; r < regions_.size(); r += workers_) {
      progressed = step_region(*regions_[r], limit) || progressed;
    }
    if (progressed || try_leap(limit)) {
      idle = 0;
      continue;
    }
    if (++idle > 32) std::this_thread::yield();
  }
}

std::uint64_t PartitionRuntime::run_until(SimTime limit) {
  assert(limit >= now_);
  const std::uint64_t before = events_executed();
  // Stage init: publish exact next-event times, but promise only the
  // global minimum. A region's own next event is NOT a valid promise: a
  // quiet region mid-path (say a pure forwarder whose next timer is far
  // out) can be made to act much earlier by an arrival, and a promise
  // above that arrival would cascade through every neighbor's horizon —
  // promises only ever rise within a stage. The global minimum is safe
  // for everyone (no event exists anywhere before it, and input-driven
  // action additionally pays a channel delay); the first steps raise the
  // promises from there, input-capped. Resetting here is also what lets
  // events scheduled between stages — by the driving thread, at or after
  // the previous limit — lower a region's horizon again.
  std::int64_t init_floor = INT64_MAX;
  for (const auto& r : regions_) {
    const std::int64_t next = r->sim.next_event_ns();
    r->next_event.store(next, std::memory_order_relaxed);
    init_floor = std::min(init_floor, next);
  }
  for (const auto& r : regions_) {
    r->safe_until.store(init_floor, std::memory_order_relaxed);
  }
  stage_done_.store(false, std::memory_order_relaxed);
  if (!pool_) {
    shard_loop(0, limit);
  } else {
    for (std::size_t s = 0; s < workers_; ++s) {
      pool_->submit([this, s, limit] { shard_loop(s, limit); });
    }
    pool_->wait_idle();
  }
  for (const auto& r : regions_) r->sim.advance_to(limit);
  now_ = limit;
  return events_executed() - before;
}

std::uint64_t PartitionRuntime::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& r : regions_) n += r->sim.events_executed();
  return n;
}

} // namespace tsn::sim
