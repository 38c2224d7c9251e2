#include "hv/clock_sync_vm.hpp"

#include "sim/persist.hpp"
#include "util/log.hpp"

namespace tsn::hv {

ClockSyncVm::ClockSyncVm(sim::Simulation& sim, StShmem& st_shmem, time::PhcClock& ecd_tsc,
                         const ClockSyncVmConfig& cfg, std::size_t vm_index, obs::ObsContext obs)
    : sim_(sim),
      st_shmem_(st_shmem),
      cfg_(cfg),
      vm_index_(vm_index),
      obs_(obs),
      kernel_version_(cfg.kernel_version),
      nic_(sim, cfg.phc, cfg.mac, cfg.name + "/nic") {
  updater_ = std::make_unique<SyncTimeUpdater>(sim, nic_.phc(), ecd_tsc, st_shmem_,
                                               cfg_.synctime, cfg_.name + "/phc2sys");
  updater_->set_obs(obs_);
  nic_.set_up(false); // powered but VM not booted yet
}

std::uint64_t ClockSyncVm::total_tx_timestamp_timeouts() const {
  std::uint64_t total = past_tx_timeouts_;
  if (stack_) {
    for (const auto& inst : const_cast<ClockSyncVm*>(this)->stack_->instances()) {
      total += inst->counters().tx_timestamp_timeouts;
    }
  }
  return total;
}

std::uint64_t ClockSyncVm::total_deadline_misses() const {
  std::uint64_t total = past_deadline_misses_;
  if (stack_) {
    for (const auto& inst : const_cast<ClockSyncVm*>(this)->stack_->instances()) {
      total += inst->counters().deadline_misses;
    }
  }
  return total;
}

void ClockSyncVm::build_stack() {
  if (cfg_.aggregate) {
    ft_shmem_ = std::make_unique<core::FtShmem>(cfg_.domains.size());
    core::CoordinatorConfig coord_cfg = cfg_.coordinator;
    coord_cfg.domains = cfg_.domains;
    coordinator_ = std::make_unique<core::MultiDomainCoordinator>(
        sim_, nic_.phc(), *ft_shmem_, coord_cfg, cfg_.name + "/fta", obs_);
  }

  stack_ = std::make_unique<gptp::PtpStack>(sim_, nic_, cfg_.link_delay, cfg_.name);
  for (std::uint8_t domain : cfg_.domains) {
    gptp::InstanceConfig icfg = cfg_.instance;
    icfg.domain = domain;
    // External port configuration (paper setup).
    icfg.role = (cfg_.gm_domain && *cfg_.gm_domain == domain) ? gptp::PortRole::kMaster
                                                              : gptp::PortRole::kSlave;
    auto& inst = stack_->add_instance(icfg);
    if (coordinator_) {
      inst.set_offset_callback(
          [this](const gptp::MasterOffsetSample& s) { coordinator_->on_offset(s); });
    }
    inst.set_fault_model(fault_model_);
    inst.set_fault_callback([this, name = inst.name()](const std::string& kind) {
      if (fault_cb_) fault_cb_(cfg_.name, kind);
    });
    if (icfg.role == gptp::PortRole::kMaster && malicious_pot_offset_ns_ != 0) {
      inst.set_malicious_pot_offset(malicious_pot_offset_ns_);
    }
  }
}

void ClockSyncVm::boot(bool first_boot) {
  if (running_) return;
  TSN_LOG_DEBUG("hv", "%s: boot (%s)", cfg_.name.c_str(), first_boot ? "cold" : "warm");
  running_ = true;
  nic_.set_up(true);

  // Warm rejoin (NIC PHC still running) skips the startup phase; a cold
  // boot honours whatever the deployment configured.
  if (!first_boot) cfg_.coordinator.skip_startup = true;
  build_stack();
  stack_->start();
  updater_->start(vm_index_);
}

void ClockSyncVm::shutdown() {
  if (!running_) return;
  TSN_LOG_DEBUG("hv", "%s: fail-silent shutdown", cfg_.name.c_str());
  // Preserve application-fault totals across the reboot.
  if (stack_) {
    for (const auto& inst : stack_->instances()) {
      past_tx_timeouts_ += inst->counters().tx_timestamp_timeouts;
      past_deadline_misses_ += inst->counters().deadline_misses;
    }
  }
  tear_down();
}

void ClockSyncVm::tear_down() {
  running_ = false;
  updater_->stop();
  if (stack_) stack_->stop();
  nic_.set_up(false);
  stack_.reset();
  coordinator_.reset();
  ft_shmem_.reset();
}

void ClockSyncVm::takeover_irq() {
  if (!running_) return;
  TSN_LOG_INFO("hv", "%s: takeover IRQ - maintaining CLOCK_SYNCTIME", cfg_.name.c_str());
  updater_->set_publishing(true);
}

void ClockSyncVm::set_active(bool active) {
  if (updater_) updater_->set_publishing(active && running_);
}

void ClockSyncVm::compromise(std::int64_t malicious_pot_offset_ns) {
  malicious_pot_offset_ns_ = malicious_pot_offset_ns;
  if (stack_ && cfg_.gm_domain) {
    if (auto* inst = stack_->instance_for_domain(*cfg_.gm_domain)) {
      inst->set_malicious_pot_offset(malicious_pot_offset_ns);
    }
  }
}

template <class Ar>
void ClockSyncVm::persist(Ar& ar) {
  bool was_running = running_;
  ar.b(was_running);
  ar.i64(malicious_pot_offset_ns_);
  ar.str(kernel_version_);
  ar.u64(past_tx_timeouts_);
  ar.u64(past_deadline_misses_);
  ar.b(cfg_.coordinator.skip_startup); // boot(!first) mutates this
  if constexpr (Ar::kLoading) {
    // Reconcile the boot state before restoring component state into it.
    if (was_running && !running_) {
      running_ = true;
      nic_.set_up(true);
      build_stack();
    } else if (!was_running && running_) {
      // Not shutdown(): it would fold live counters into the `past_`
      // totals just restored.
      tear_down();
    }
  }
  nic_.phc().persist(ar);
  updater_->persist(ar);
  if (running_) {
    if (ft_shmem_) ft_shmem_->persist(ar);
    if (coordinator_) coordinator_->persist(ar);
    stack_->persist(ar);
  }
}
TSN_PERSIST_INSTANTIATE(ClockSyncVm);

std::size_t ClockSyncVm::live_events() const {
  std::size_t n = updater_->live_events();
  if (stack_) n += stack_->live_events();
  return n;
}

void ClockSyncVm::ff_park() {
  ff_entry_phc_ = nic_.phc().read();
  if (stack_) stack_->ff_park();
  updater_->ff_park();
}

void ClockSyncVm::ff_advance(const sim::FfWindow& w) {
  // The analytic stepper has already advanced the NIC PHC; shift the
  // FTSHMEM stamps (which live in this PHC's timebase) by the same amount,
  // preserving at-entry freshness classification.
  const std::int64_t shift = nic_.phc().read() - ff_entry_phc_;
  if (ft_shmem_) {
    ft_shmem_->ff_shift(shift, ff_entry_phc_, cfg_.coordinator.validity.freshness_window_ns);
  }
  if (stack_) stack_->ff_advance(w);
  updater_->ff_advance(w);
}

void ClockSyncVm::ff_resume() {
  if (stack_) stack_->ff_resume();
  updater_->ff_resume();
}

void ClockSyncVm::set_fault_model(const gptp::InstanceFaultModel& m) {
  fault_model_ = m;
  if (stack_) {
    for (auto& inst : stack_->instances()) inst->set_fault_model(m);
  }
}

} // namespace tsn::hv
