// The timing-wheel front-end must be observationally identical to a plain
// (time, insertion-seq) priority queue: same pop order for any interleaving
// of schedules, posts, cancels and pops, across every internal boundary
// (level-0/1/2 buckets, the heap spill, the staged behind-cursor list and
// the cursor re-anchor after a jump).
// The sweep byte-identity contract rides on this.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

namespace tsn::sim {
namespace {

constexpr std::int64_t kL0 = 1ll << 12; // level-0 bucket span (ns)
constexpr std::int64_t kL1 = 1ll << 21; // level-1 bucket span
constexpr std::int64_t kL2 = 1ll << 30; // level-2 bucket span

// Regression: an activation that ends exactly on a level-1 bucket boundary
// rolls the cursor into the next bucket without cascading it; the scan then
// started past the cursor's own bucket and stranded its entries forever.
TEST(WheelDeterminismTest, EventSurvivesCursorRollAcrossL1Boundary) {
  EventQueue q;
  std::vector<int> order;
  // Last level-0 bucket of level-1 bucket 0, then level-1 bucket 1.
  q.schedule(SimTime(kL1 - 100), [&] { order.push_back(1); });
  q.schedule(SimTime(kL1 + 5000), [&] { order.push_back(2); });
  while (auto e = q.try_pop()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(q.empty());
}

TEST(WheelDeterminismTest, EventSurvivesCursorRollAcrossL2Boundary) {
  EventQueue q;
  std::vector<int> order;
  // Last level-0 bucket of the last level-1 bucket of level-2 bucket 0,
  // then level-2 bucket 1.
  q.schedule(SimTime(kL2 - 100), [&] { order.push_back(1); });
  q.schedule(SimTime(kL2 + 5000), [&] { order.push_back(2); });
  while (auto e = q.try_pop()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(q.empty());
}

TEST(WheelDeterminismTest, PeriodicSurvivesEveryBucketBoundary) {
  // A reschedule-on-fire periodic whose period forces the cursor across
  // every level-0 boundary alignment, including exact L1/L2 roll-overs.
  EventQueue q;
  std::int64_t fires = 0;
  std::int64_t t = 0;
  const std::int64_t period = kL0 - 1; // drifts through all alignments
  struct Tick {
    EventQueue* q;
    std::int64_t* fires;
    std::int64_t* t;
    std::int64_t period;
    void operator()() const {
      ++*fires;
      *t += period;
      if (*fires < 3000) {
        auto self = *this;
        q->post(SimTime(*t), EventFn(self));
      }
    }
  };
  q.post(SimTime(t), EventFn(Tick{&q, &fires, &t, period}));
  while (auto e = q.try_pop()) e->fn();
  EXPECT_EQ(fires, 3000);
}

// Randomized differential test against a brute-force reference model.
TEST(WheelDeterminismTest, MatchesReferenceModelUnderRandomLoad) {
  struct RefEv {
    std::int64_t time;
    std::uint64_t seq;
    int id;
    bool cancelled = false;
  };

  std::mt19937_64 rng(0xC0FFEE);
  EventQueue q;
  std::vector<RefEv> ref;
  std::vector<std::pair<int, EventHandle>> handles;
  std::vector<int> popped;
  std::vector<int> expected;
  std::uint64_t seq = 0;
  int next_id = 0;
  std::int64_t now = 0;

  auto ref_min = [&]() -> RefEv* {
    RefEv* best = nullptr;
    for (auto& e : ref) {
      if (e.cancelled) continue;
      if (!best || e.time < best->time ||
          (e.time == best->time && e.seq < best->seq)) {
        best = &e;
      }
    }
    return best;
  };

  auto random_time = [&]() -> std::int64_t {
    // Mix of near-cursor (staged / level-0), mid-range (level-1/2) and
    // beyond-horizon (heap spill) targets, all >= the last popped time.
    switch (rng() % 6) {
      case 0: return now;                                        // tie / staged
      case 1: return now + static_cast<std::int64_t>(rng() % kL0);
      case 2: return now + static_cast<std::int64_t>(rng() % kL1);
      case 3: return now + static_cast<std::int64_t>(rng() % kL2);
      case 4: return now + static_cast<std::int64_t>(rng() % (400ll * kL2));
      default: // exact bucket boundaries, the historical failure mode
        return (now / kL1 + 1 + static_cast<std::int64_t>(rng() % 3)) * kL1 -
               static_cast<std::int64_t>(rng() % 2);
    }
  };

  for (int op = 0; op < 6000; ++op) {
    const std::uint64_t r = rng() % 10;
    if (r < 5) {
      const std::int64_t t = random_time();
      const int id = next_id++;
      if (rng() % 3 == 0) {
        q.post(SimTime(t), [&popped, id] { popped.push_back(id); });
      } else {
        handles.emplace_back(
            id, q.schedule(SimTime(t), [&popped, id] { popped.push_back(id); }));
      }
      ref.push_back(RefEv{t, seq++, id});
    } else if (r < 6 && !handles.empty()) {
      const std::size_t k = rng() % handles.size();
      handles[k].second.cancel();
      for (auto& e : ref) {
        if (e.id == handles[k].first) e.cancelled = true;
      }
      handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      RefEv* want = ref_min();
      auto got = q.try_pop();
      ASSERT_EQ(got.has_value(), want != nullptr) << "op " << op;
      if (!got) continue;
      got->fn();
      ASSERT_EQ(got->time.ns(), want->time) << "op " << op;
      ASSERT_EQ(popped.back(), want->id) << "op " << op;
      expected.push_back(want->id);
      now = want->time;
      want->cancelled = true; // consumed
    }
  }
  // Drain both to the end.
  while (RefEv* want = ref_min()) {
    auto got = q.try_pop();
    ASSERT_TRUE(got.has_value());
    got->fn();
    ASSERT_EQ(got->time.ns(), want->time);
    ASSERT_EQ(popped.back(), want->id);
    expected.push_back(want->id);
    want->cancelled = true;
  }
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(popped, expected);
}

TEST(WheelDeterminismTest, PurgeDeadReclaimsCancelledHeads) {
  EventQueue q;
  // Cancelled entries at the heap front and in the activated window are
  // reclaimed eagerly by purge_dead() without firing anything.
  auto far = q.schedule(SimTime(600ll * kL2), [] {});  // heap spill
  auto near = q.schedule(SimTime(10), [] {});
  q.schedule(SimTime(20), [] {});
  near.cancel();
  far.cancel();
  q.purge_dead();
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.live_size(), 1u);
  auto e = q.try_pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->time, SimTime(20));
  EXPECT_TRUE(q.empty());
}

TEST(WheelDeterminismTest, TryPopAtOrBeforeRespectsLimit) {
  EventQueue q;
  q.schedule(SimTime(100), [] {});
  q.schedule(SimTime(kL1 + 100), [] {});
  EXPECT_FALSE(q.try_pop_at_or_before(SimTime(99)).has_value());
  auto a = q.try_pop_at_or_before(SimTime(100));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->time, SimTime(100));
  // The limit must not pop the far event early...
  EXPECT_FALSE(q.try_pop_at_or_before(SimTime(kL1)).has_value());
  // ...and the refusal must not have lost it.
  auto b = q.try_pop_at_or_before(SimTime(kL1 + 100));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->time, SimTime(kL1 + 100));
}


// Lockstep pair: every operation goes to the queue and to a linear-scan
// reference of (time, seq, id); each pop checks that both agree. Event
// closures record the id they were scheduled with.
class Lockstep {
 public:
  EventQueue q;

  int post(std::int64_t t) {
    const int id = add(t);
    q.post(SimTime(t), [this, id] { fired_ = id; });
    return id;
  }
  int schedule(std::int64_t t) {
    const int id = add(t);
    handles_.resize(static_cast<std::size_t>(id) + 1);
    handles_[static_cast<std::size_t>(id)] =
        q.schedule(SimTime(t), [this, id] { fired_ = id; });
    return id;
  }
  void cancel(int id) {
    handles_[static_cast<std::size_t>(id)].cancel();
    ref_[static_cast<std::size_t>(id)].gone = true;
  }
  bool pending(int id) const {
    return handles_[static_cast<std::size_t>(id)].pending();
  }
  /// Forget the reference's events (mirrors EventQueue::clear()).
  void clear() {
    q.clear();
    for (auto& e : ref_) e.gone = true;
  }

  /// Pops one event from both sides; returns (time, id) or nullopt when
  /// both are empty. Fails the test on any disagreement.
  std::optional<std::pair<std::int64_t, int>> pop() {
    Ref* want = nullptr;
    for (auto& e : ref_) {
      if (e.gone) continue;
      if (!want || e.time < want->time ||
          (e.time == want->time && e.seq < want->seq)) {
        want = &e;
      }
    }
    auto got = q.try_pop();
    EXPECT_EQ(got.has_value(), want != nullptr);
    if (!got || !want) return std::nullopt;
    fired_ = -1;
    got->fn();
    EXPECT_EQ(got->time.ns(), want->time);
    EXPECT_EQ(fired_, want->id);
    want->gone = true;
    return std::make_pair(want->time, want->id);
  }

  std::size_t live() const {
    return static_cast<std::size_t>(
        std::count_if(ref_.begin(), ref_.end(), [](const Ref& e) { return !e.gone; }));
  }

 private:
  struct Ref {
    std::int64_t time;
    std::uint64_t seq;
    int id;
    bool gone = false;
  };
  int add(std::int64_t t) {
    const int id = static_cast<int>(ref_.size());
    ref_.push_back(Ref{t, seq_++, id});
    return id;
  }
  std::vector<Ref> ref_;
  std::vector<EventHandle> handles_;
  std::uint64_t seq_ = 0;
  int fired_ = -1;
};

// Keys swapped into windows come only from behind-cursor inserts, each at
// most once: no batch is ever re-merged with the window it lands behind.
void expect_no_remerge(const QueueStats& s) {
  EXPECT_LE(s.refilled_keys, s.staged_inserts);
}

class BusyBucketTest : public ::testing::TestWithParam<int> {};

// One level-0 bucket holds N entries; every pop posts a follow-up less
// than a bucket span ahead, inside the bucket the cursor just activated.
// Those inserts land behind the cursor while the window is still
// populated -- the pattern of calibration probes and mailbox drains.
TEST_P(BusyBucketTest, FollowUpsInsidePopulatedBucketKeepOrder) {
  const int n = GetParam();
  const std::int64_t base = 7 * kL1 + 3 * kL0; // an arbitrary bucket
  const std::int64_t end = base + kL0;
  std::mt19937_64 rng(static_cast<std::uint64_t>(n));
  Lockstep s;
  for (int i = 0; i < n; ++i) {
    s.post(base + static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(kL0)));
  }
  int budget = 2 * n;
  while (auto e = s.pop()) {
    if (budget-- <= 0) continue;
    const std::int64_t room = end - e->first; // keep it in this bucket
    const std::int64_t t = e->first + static_cast<std::int64_t>(
                                          rng() % static_cast<std::uint64_t>(room));
    if (rng() % 4 == 0) {
      s.schedule(t);
    } else {
      s.post(t);
    }
  }
  EXPECT_TRUE(s.q.empty());
  EXPECT_EQ(s.live(), 0u);
  EXPECT_EQ(s.q.stats().fired, static_cast<std::uint64_t>(3 * n));
  if (n > 1) {
    EXPECT_GT(s.q.stats().staged_inserts, 0u);
  }
  expect_no_remerge(s.q.stats());
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, BusyBucketTest,
                         ::testing::Values(1, 64, 1024, 4096));

// Behind-cursor keys that overflowed to the heap can be cancelled, purged
// and re-ordered against the window like any other heap entry.
TEST(WheelDeterminismTest, CancelsBehindCursorHeapEntriesAndPurges) {
  Lockstep s;
  const std::int64_t base = 5 * kL0;
  for (int i = 0; i < 32; ++i) s.post(base + 100 * i);
  auto first = s.pop(); // activates the bucket; window keeps 31 entries
  ASSERT_TRUE(first.has_value());
  std::vector<int> behind;
  for (int i = 0; i < 16; ++i) behind.push_back(s.schedule(base + 1 + 37 * i));
  EXPECT_EQ(s.q.next_time(), SimTime(base + 1)); // files them on the heap
  // Cancel the heap top and every other one after it.
  for (std::size_t i = 0; i < behind.size(); i += 2) s.cancel(behind[i]);
  for (std::size_t i = 0; i < behind.size(); ++i) {
    EXPECT_EQ(s.pending(behind[i]), i % 2 == 1);
  }
  s.q.purge_dead();
  EXPECT_EQ(s.q.live_size(), s.live());
  EXPECT_EQ(s.q.next_time(), SimTime(base + 1 + 37));
  // More behind-cursor inserts among the survivors, then drain.
  for (int i = 0; i < 8; ++i) s.post(base + 250 + 11 * i);
  while (s.pop()) {
  }
  EXPECT_TRUE(s.q.empty());
  EXPECT_EQ(s.q.stats().cancelled, 8u);
  expect_no_remerge(s.q.stats());
}

TEST(WheelDeterminismTest, ClearDropsBehindCursorHeapEntries) {
  Lockstep s;
  const std::int64_t base = 9 * kL0;
  for (int i = 0; i < 8; ++i) s.post(base + 200 * i);
  ASSERT_TRUE(s.pop().has_value());
  std::vector<int> behind;
  for (int i = 0; i < 4; ++i) behind.push_back(s.schedule(base + 50 + i));
  s.q.next_time(); // behind-cursor keys now sit on the heap
  s.post(base + 60); // and one more is staged
  s.clear();
  EXPECT_TRUE(s.q.empty());
  EXPECT_EQ(s.q.size_upper_bound(), 0u);
  for (int id : behind) EXPECT_FALSE(s.pending(id));
  EXPECT_FALSE(s.q.try_pop().has_value());
  // Restore-style re-arming at and after the old cursor position.
  for (int i = 0; i < 6; ++i) s.schedule(base + 1000 - 150 * i);
  s.post(base + 100 * kL0);
  while (s.pop()) {
  }
  EXPECT_TRUE(s.q.empty());
  expect_no_remerge(s.q.stats());
}

// After a jump past the level-2 horizon (a fast-forward window, say) the
// cursor re-anchors at the new time: later inserts land in wheel buckets
// instead of all spilling to the heap.
TEST(WheelDeterminismTest, ReanchorsCursorAfterJumpPastHorizon) {
  Lockstep s;
  s.post(10);
  ASSERT_TRUE(s.pop().has_value());
  const std::int64_t jump = 1000 * kL2 + 12345;
  s.post(jump);
  s.post(jump + 3 * kL2); // inside the new horizon, outside the old one
  EXPECT_EQ(s.q.stats().heap_spills, 2u);
  auto e = s.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->first, jump);
  const std::uint64_t spills = s.q.stats().heap_spills;
  std::int64_t now = jump;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    switch (rng() % 4) {
      case 0: s.post(now); break;
      case 1: s.post(now + static_cast<std::int64_t>(rng() % kL0)); break;
      case 2: s.post(now + static_cast<std::int64_t>(rng() % kL1)); break;
      default: s.schedule(now + static_cast<std::int64_t>(rng() % (100 * kL2))); break;
    }
    if (rng() % 2 == 0) {
      auto p = s.pop();
      ASSERT_TRUE(p.has_value());
      now = p->first;
    }
  }
  EXPECT_EQ(s.q.stats().heap_spills - spills, 0u);
  while (s.pop()) {
  }
  EXPECT_TRUE(s.q.empty());
  expect_no_remerge(s.q.stats());
}

} // namespace
} // namespace tsn::sim
