// FTSHMEM: the user-space shared memory region between the M ptp4l
// instances of a clock synchronization VM (paper section II-B, Fig. 1).
//
// Contents, exactly as the paper lists them:
//   * the latest M grandmaster offsets
//   * an array of M booleans flagging GMs whose offset deviates from the
//     remaining GMs beyond a configurable threshold
//   * adjust_last, the timestamp of the most recent frequency adjustment
//     (it doubles as the aggregation gate: the first instance observing
//     adjust_last + sync_interval <= now performs the aggregation)
//   * the PI controller state shared by the instances
//
// All fields use lock-free primitives with the concurrency semantics a
// process-shared memory region would need; the suite exercises them with
// real threads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>

#include "core/seqlock.hpp"

namespace tsn::core {

inline constexpr std::size_t kMaxDomains = 8;

/// One GM offset slot (written by that domain's ptp4l instance).
struct GmOffsetRecord {
  double offset_ns = 0.0;
  std::int64_t local_rx_ts = 0; ///< PHC time the Sync was received
  double rate_ratio = 1.0;
  std::uint32_t sample_count = 0; ///< monotonically increasing per slot
};

enum class SyncPhase : std::uint8_t {
  kStartup = 0, ///< slaving every node to the initial domain's GM
  kFta = 1,     ///< fault-tolerant multi-domain aggregation active
};

class FtShmem {
 public:
  explicit FtShmem(std::size_t num_domains);

  FtShmem(const FtShmem&) = delete;
  FtShmem& operator=(const FtShmem&) = delete;

  std::size_t num_domains() const { return num_domains_; }

  /// Store the newest offset for domain slot `idx`; bumps sample_count.
  void store_offset(std::size_t idx, const GmOffsetRecord& record);

  /// Snapshot of slot `idx`; nullopt until the first store.
  std::optional<GmOffsetRecord> load_offset(std::size_t idx) const;

  /// The aggregation gate. Atomically checks `adjust_last + interval <=
  /// now` and, if so, advances adjust_last to `now`; returns whether this
  /// caller won the gate (paper eq. 2.1).
  bool try_acquire_gate(std::int64_t now, std::int64_t interval_ns);

  std::int64_t adjust_last() const { return adjust_last_.load(std::memory_order_acquire); }
  /// Reset the gate, e.g. when a standby VM takes over mid-interval.
  void set_adjust_last(std::int64_t t) { adjust_last_.store(t, std::memory_order_release); }

  /// GM validity flags maintained by the aggregating instance.
  void set_gm_valid(std::size_t idx, bool valid);
  bool gm_valid(std::size_t idx) const;

  /// Shared PI controller state.
  void store_servo_integral(double ppb) { servo_integral_.store(ppb, std::memory_order_release); }
  double servo_integral() const { return servo_integral_.load(std::memory_order_acquire); }

  SyncPhase phase() const { return static_cast<SyncPhase>(phase_.load(std::memory_order_acquire)); }
  void set_phase(SyncPhase p) { phase_.store(static_cast<std::uint8_t>(p), std::memory_order_release); }

  std::uint64_t aggregations_performed() const {
    return aggregations_.load(std::memory_order_acquire);
  }
  void count_aggregation() { aggregations_.fetch_add(1, std::memory_order_acq_rel); }

  // -- Snapshot / fast-forward support -------------------------------------
  template <class Ar> void persist(Ar& ar);
  /// Fast-forward: shift the gate stamp and the rx stamps of slots that
  /// were *fresh at window entry* (`entry_now_ns`, same timebase as
  /// local_rx_ts -- the owning VM's PHC) by `shift_ns`. Stale slots keep
  /// their old stamps, so a down GM's slot stays classified stale after
  /// the jump instead of briefly looking fresh-but-ancient.
  void ff_shift(std::int64_t shift_ns, std::int64_t entry_now_ns,
                std::int64_t freshness_ns);

 private:
  std::size_t num_domains_;
  std::array<SeqLock<GmOffsetRecord>, kMaxDomains> offsets_;
  std::array<std::atomic<std::uint32_t>, kMaxDomains> sample_counts_;
  std::array<std::atomic<bool>, kMaxDomains> valid_;
  std::atomic<std::int64_t> adjust_last_{INT64_MIN};
  std::atomic<double> servo_integral_{0.0};
  std::atomic<std::uint8_t> phase_{0};
  std::atomic<std::uint64_t> aggregations_{0};
};

} // namespace tsn::core
