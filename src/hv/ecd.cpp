#include "hv/ecd.hpp"

namespace tsn::hv {

Ecd::Ecd(sim::Simulation& sim, const EcdConfig& cfg, obs::ObsContext obs)
    : sim_(sim),
      cfg_(cfg),
      obs_(obs),
      tsc_(sim, cfg.tsc, cfg.name + "/tsc"),
      monitor_(sim, st_shmem_, tsc_, cfg.monitor, cfg.name + "/monitor", obs) {}

ClockSyncVm& Ecd::add_clock_sync_vm(const ClockSyncVmConfig& cfg) {
  vms_.push_back(std::make_unique<ClockSyncVm>(sim_, st_shmem_, tsc_, cfg, vms_.size(), obs_));
  monitor_.add_vm(vms_.back().get());
  return *vms_.back();
}

void Ecd::start() {
  for (auto& vm : vms_) vm->boot(/*first_boot=*/true);
  if (!vms_.empty()) {
    st_shmem_.set_active_vm(0);
    vms_[0]->set_active(true);
  }
  monitor_.start();
}

template <class Ar>
void Ecd::persist(Ar& ar) {
  tsc_.persist(ar);
  st_shmem_.persist(ar);
  for (auto& vm : vms_) vm->persist(ar);
  monitor_.persist(ar);
}
TSN_PERSIST_INSTANTIATE(Ecd);

std::size_t Ecd::live_events() const {
  std::size_t n = monitor_.live_events();
  for (const auto& vm : vms_) n += vm->live_events();
  return n;
}

void Ecd::ff_park() {
  for (auto& vm : vms_) vm->ff_park();
  monitor_.ff_park();
}

void Ecd::ff_advance(const sim::FfWindow& w) {
  for (auto& vm : vms_) vm->ff_advance(w);
  monitor_.ff_advance(w);
}

void Ecd::ff_resume() {
  for (auto& vm : vms_) vm->ff_resume();
  monitor_.ff_resume();
}

} // namespace tsn::hv
