// STSHMEM: the hypervisor-shared clock parameter page (paper section II-A).
//
// ACRN exposes this page to all co-located VMs through a virtual PCI
// device; the active clock synchronization VM publishes the parameters of
// CLOCK_SYNCTIME into it and every VM derives the synchronized time as
//     synctime(tsc) = base_sync + rate * (tsc - base_tsc).
// The page also carries per-VM heartbeats for the hypervisor monitor and
// the active-VM/generation bookkeeping used for fail-over.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>

#include "core/seqlock.hpp"

namespace tsn::hv {

inline constexpr std::size_t kMaxClockSyncVms = 4;

struct SyncTimeParams {
  std::int64_t base_tsc = 0;
  std::int64_t base_sync = 0;
  double rate = 1.0; ///< d(synctime)/d(tsc)
  std::uint32_t generation = 0;
  bool valid = false;
};

class StShmem {
 public:
  StShmem() {
    for (auto& h : heartbeats_) h.store(INT64_MIN, std::memory_order_relaxed);
  }

  StShmem(const StShmem&) = delete;
  StShmem& operator=(const StShmem&) = delete;

  void publish_params(const SyncTimeParams& p) { params_.store(p); }
  SyncTimeParams read_params() const { return params_.load(); }

  /// Per-VM liveness heartbeat, stamped with the ECD TSC.
  void heartbeat(std::size_t vm_index, std::int64_t tsc_now) {
    heartbeats_.at(vm_index).store(tsc_now, std::memory_order_release);
  }
  /// Age of a VM's last heartbeat in TSC ns (INT64_MAX if never beaten).
  std::int64_t heartbeat_age(std::size_t vm_index, std::int64_t tsc_now) const {
    const std::int64_t last = heartbeats_.at(vm_index).load(std::memory_order_acquire);
    return last == INT64_MIN ? INT64_MAX : tsc_now - last;
  }

  std::size_t active_vm() const { return active_vm_.load(std::memory_order_acquire); }
  void set_active_vm(std::size_t idx) { active_vm_.store(idx, std::memory_order_release); }

  std::uint32_t generation() const { return generation_.load(std::memory_order_acquire); }
  std::uint32_t bump_generation() {
    return generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  /// Per-VM *candidate* parameters: every running clock synchronization VM
  /// publishes its view here (not only the active one), enabling the
  /// monitor's 2f+1 majority vote under the fail-consistent hypothesis
  /// (paper sec. II-A; needs >= 3 VMs / NICs per node).
  void publish_candidate(std::size_t vm_index, const SyncTimeParams& p) {
    candidates_.at(vm_index).store(p);
  }
  SyncTimeParams read_candidate(std::size_t vm_index) const {
    return candidates_.at(vm_index).load();
  }

  // -- Snapshot support ------------------------------------------------------
  // No ff_shift needed: the timestamps here are heartbeats and base_tsc
  // values in the ECD TSC timebase, and every *running* updater republishes
  // params + heartbeat in its own ff_advance before the monitor's first
  // post-resume poll. Down VMs' heartbeats stay stale, which is exactly the
  // classification the monitor should see after the jump.
  template <class Ar> void persist(Ar& ar);

 private:
  core::SeqLock<SyncTimeParams> params_;
  std::array<core::SeqLock<SyncTimeParams>, kMaxClockSyncVms> candidates_;
  std::array<std::atomic<std::int64_t>, kMaxClockSyncVms> heartbeats_;
  std::atomic<std::size_t> active_vm_{0};
  std::atomic<std::uint32_t> generation_{0};
};

/// CLOCK_SYNCTIME as read by any co-located VM: derive the synchronized
/// time from the shared parameters and the current TSC. Returns nullopt
/// until the first parameter publication.
std::optional<std::int64_t> read_synctime(const StShmem& shmem, std::int64_t tsc_now);

} // namespace tsn::hv
