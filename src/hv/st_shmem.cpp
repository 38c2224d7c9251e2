#include "hv/st_shmem.hpp"

#include <cmath>
#include <optional>

#include "sim/persist.hpp"

namespace tsn::hv {

namespace {

template <class Ar>
void persist_params(Ar& ar, core::SeqLock<SyncTimeParams>& slot) {
  SyncTimeParams p = Ar::kLoading ? SyncTimeParams{} : slot.load();
  ar.i64(p.base_tsc);
  ar.i64(p.base_sync);
  ar.f64(p.rate);
  ar.u32(p.generation);
  ar.b(p.valid);
  if constexpr (Ar::kLoading) slot.store(p);
}

} // namespace

template <class Ar>
void StShmem::persist(Ar& ar) {
  persist_params(ar, params_);
  for (auto& c : candidates_) persist_params(ar, c);
  for (auto& h : heartbeats_) ar.i64(h);
  ar.u64(active_vm_);
  ar.u32(generation_);
}
TSN_PERSIST_INSTANTIATE(StShmem);

std::optional<std::int64_t> read_synctime(const StShmem& shmem, std::int64_t tsc_now) {
  const SyncTimeParams p = shmem.read_params();
  if (!p.valid) return std::nullopt;
  const double elapsed = static_cast<double>(tsc_now - p.base_tsc);
  return p.base_sync + static_cast<std::int64_t>(std::llround(elapsed * p.rate));
}

} // namespace tsn::hv
