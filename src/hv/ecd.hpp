// An edge computing device (ECD): the ACRN-virtualized node of the paper's
// testbed. Hosts the hypervisor state (TSC, STSHMEM, monitor) and the
// clock synchronization VMs. The integrated TSN switch is modelled
// separately (net::Switch + gptp::TimeAwareBridge) and wired up by the
// experiment scenario builder.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hv/clock_sync_vm.hpp"
#include "hv/monitor.hpp"
#include "hv/st_shmem.hpp"
#include "obs/obs.hpp"
#include "sim/persist.hpp"
#include "sim/simulation.hpp"
#include "tsn_time/phc_clock.hpp"

namespace tsn::hv {

struct EcdConfig {
  std::string name;
  /// The platform TSC: free-running, never servo-adjusted.
  time::PhcModel tsc;
  MonitorConfig monitor;
};

class Ecd : public sim::Persistent {
 public:
  Ecd(sim::Simulation& sim, const EcdConfig& cfg, obs::ObsContext obs = {});

  Ecd(const Ecd&) = delete;
  Ecd& operator=(const Ecd&) = delete;

  /// Add a clock synchronization VM; the first added VM is initially active.
  ClockSyncVm& add_clock_sync_vm(const ClockSyncVmConfig& cfg);

  /// Boot all VMs (cold) and start the monitor. VM 0 starts publishing.
  void start();

  const std::string& name() const { return cfg_.name; }
  /// The Simulation this ECD schedules on (its region's, when the scenario
  /// is partitioned; the single shared one otherwise).
  sim::Simulation& sim() { return sim_; }
  time::PhcClock& tsc() { return tsc_; }
  StShmem& st_shmem() { return st_shmem_; }
  HvMonitor& monitor() { return monitor_; }
  std::size_t vm_count() const { return vms_.size(); }
  ClockSyncVm& vm(std::size_t idx) { return *vms_.at(idx); }

  /// CLOCK_SYNCTIME as a co-located application VM would read it.
  std::optional<std::int64_t> read_synctime() { return hv::read_synctime(st_shmem_, tsc_.read()); }

  // -- sim::Persistent: the ECD is one snapshot/ff unit. Internal order
  // mirrors boot order (VMs in index order, then the monitor) so the
  // re-armed chains keep their relative event ordering.
  const char* persist_name() const override { return cfg_.name.c_str(); }
  void save_state(sim::StateWriter& w) override { persist(w); }
  void load_state(sim::StateReader& r) override { persist(r); }
  std::size_t live_events() const override;
  void ff_park() override;
  void ff_advance(const sim::FfWindow& w) override;
  void ff_resume() override;

 private:
  template <class Ar> void persist(Ar& ar);

  sim::Simulation& sim_;
  EcdConfig cfg_;
  obs::ObsContext obs_;
  time::PhcClock tsc_;
  StShmem st_shmem_;
  HvMonitor monitor_;
  std::vector<std::unique_ptr<ClockSyncVm>> vms_;
};

} // namespace tsn::hv
