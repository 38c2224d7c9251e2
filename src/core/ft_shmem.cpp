#include "core/ft_shmem.hpp"

#include <stdexcept>

#include "sim/persist.hpp"

namespace tsn::core {

FtShmem::FtShmem(std::size_t num_domains) : num_domains_(num_domains) {
  if (num_domains == 0 || num_domains > kMaxDomains) {
    throw std::invalid_argument("FtShmem: unsupported domain count");
  }
  for (std::size_t i = 0; i < kMaxDomains; ++i) {
    sample_counts_[i].store(0, std::memory_order_relaxed);
    valid_[i].store(true, std::memory_order_relaxed);
  }
}

void FtShmem::store_offset(std::size_t idx, const GmOffsetRecord& record) {
  if (idx >= num_domains_) throw std::out_of_range("FtShmem: bad domain index");
  GmOffsetRecord r = record;
  r.sample_count = sample_counts_[idx].fetch_add(1, std::memory_order_acq_rel) + 1;
  offsets_[idx].store(r);
}

std::optional<GmOffsetRecord> FtShmem::load_offset(std::size_t idx) const {
  if (idx >= num_domains_) throw std::out_of_range("FtShmem: bad domain index");
  if (sample_counts_[idx].load(std::memory_order_acquire) == 0) return std::nullopt;
  return offsets_[idx].load();
}

bool FtShmem::try_acquire_gate(std::int64_t now, std::int64_t interval_ns) {
  std::int64_t last = adjust_last_.load(std::memory_order_acquire);
  while (last == INT64_MIN || last + interval_ns <= now) {
    if (adjust_last_.compare_exchange_weak(last, now, std::memory_order_acq_rel)) {
      return true;
    }
    // `last` reloaded by compare_exchange; re-check the gate condition.
  }
  return false;
}

void FtShmem::set_gm_valid(std::size_t idx, bool valid) {
  if (idx >= num_domains_) throw std::out_of_range("FtShmem: bad domain index");
  valid_[idx].store(valid, std::memory_order_release);
}

bool FtShmem::gm_valid(std::size_t idx) const {
  if (idx >= num_domains_) throw std::out_of_range("FtShmem: bad domain index");
  return valid_[idx].load(std::memory_order_acquire);
}

template <class Ar>
void FtShmem::persist(Ar& ar) {
  for (std::size_t i = 0; i < num_domains_; ++i) {
    ar.u32(sample_counts_[i]);
    GmOffsetRecord rec;
    if constexpr (!Ar::kLoading) {
      if (sample_counts_[i].load(std::memory_order_acquire) != 0) rec = offsets_[i].load();
    }
    ar.f64(rec.offset_ns);
    ar.i64(rec.local_rx_ts);
    ar.f64(rec.rate_ratio);
    ar.u32(rec.sample_count);
    if constexpr (Ar::kLoading) offsets_[i].store(rec);
    ar.b(valid_[i]);
  }
  ar.i64(adjust_last_);
  ar.f64(servo_integral_);
  ar.u8(phase_);
  ar.u64(aggregations_);
}
TSN_PERSIST_INSTANTIATE(FtShmem);

void FtShmem::ff_shift(std::int64_t shift_ns, std::int64_t entry_now_ns,
                       std::int64_t freshness_ns) {
  for (std::size_t i = 0; i < num_domains_; ++i) {
    if (sample_counts_[i].load(std::memory_order_acquire) == 0) continue;
    GmOffsetRecord rec = offsets_[i].load();
    if (entry_now_ns - rec.local_rx_ts <= freshness_ns) {
      rec.local_rx_ts += shift_ns;
      offsets_[i].store(rec);
    }
  }
  const std::int64_t last = adjust_last_.load(std::memory_order_acquire);
  if (last != INT64_MIN) {
    adjust_last_.store(last + shift_ns, std::memory_order_release);
  }
}

} // namespace tsn::core
