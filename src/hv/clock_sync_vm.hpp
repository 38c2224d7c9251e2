// A clock synchronization VM (paper section II): runs M ptp4l instances
// with the FTSHMEM-based multi-domain aggregation, disciplines its
// passthrough NIC's PHC, and -- when active -- maintains CLOCK_SYNCTIME in
// the hypervisor's STSHMEM via the SyncTimeUpdater.
//
// The VM can be shut down (fail-silent fault injection) and booted again;
// the NIC hardware (and its PHC state) survives reboots, so a rebooted VM
// rejoins directly in FTA phase with a warm clock.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/coordinator.hpp"
#include "core/ft_shmem.hpp"
#include "gptp/stack.hpp"
#include "hv/st_shmem.hpp"
#include "hv/synctime_updater.hpp"
#include "net/nic.hpp"
#include "obs/obs.hpp"
#include "sim/simulation.hpp"

namespace tsn::sim {
struct FfWindow;
} // namespace tsn::sim

namespace tsn::hv {

struct ClockSyncVmConfig {
  std::string name;
  std::string kernel_version = "5.10.0";
  net::MacAddress mac;
  time::PhcModel phc;
  /// All gPTP domains this VM aggregates.
  std::vector<std::uint8_t> domains;
  /// Domain for which this VM acts as grandmaster, if any.
  std::optional<std::uint8_t> gm_domain;
  core::CoordinatorConfig coordinator; ///< .domains is overwritten from `domains`
  /// When false the VM runs its ptp4l instances WITHOUT multi-domain
  /// aggregation (no FTSHMEM/coordinator): a GM transmits from its
  /// free-running clock, slaves compute offsets nobody consumes. This is
  /// the Kyriakakis et al. baseline the paper argues against, where GM
  /// clocks of different domains are never synchronized with each other.
  bool aggregate = true;
  gptp::LinkDelayConfig link_delay;
  gptp::InstanceConfig instance; ///< template: domain/role overwritten per instance
  SyncTimeUpdaterConfig synctime;
};

class ClockSyncVm {
 public:
  ClockSyncVm(sim::Simulation& sim, StShmem& st_shmem, time::PhcClock& ecd_tsc,
              const ClockSyncVmConfig& cfg, std::size_t vm_index, obs::ObsContext obs = {});

  ClockSyncVm(const ClockSyncVm&) = delete;
  ClockSyncVm& operator=(const ClockSyncVm&) = delete;

  /// Boot the VM. `first_boot` selects a cold start (startup phase, paper's
  /// fault-free initial synchronization) vs. a warm rejoin (FTA phase with
  /// the NIC PHC still running).
  void boot(bool first_boot);
  /// Fail silently: all protocol activity and heartbeats stop at once.
  void shutdown();
  bool running() const { return running_; }

  /// Hypervisor monitor injected the takeover interrupt: start maintaining
  /// CLOCK_SYNCTIME.
  void takeover_irq();
  void set_active(bool active);
  bool is_active() const { return updater_ && updater_->publishing(); }

  /// Attack model: replace the benign ptp4l of the GM domain with one that
  /// distributes shifted preciseOriginTimestamps.
  void compromise(std::int64_t malicious_pot_offset_ns);
  bool compromised() const { return malicious_pot_offset_ns_ != 0; }

  /// Transient software-fault model applied to all instances.
  void set_fault_model(const gptp::InstanceFaultModel& m);
  using FaultCallback = std::function<void(const std::string& vm, const std::string& kind)>;
  void set_fault_callback(FaultCallback cb) { fault_cb_ = std::move(cb); }

  const std::string& name() const { return cfg_.name; }
  const std::string& kernel_version() const { return kernel_version_; }
  void set_kernel_version(std::string v) { kernel_version_ = std::move(v); }
  std::size_t vm_index() const { return vm_index_; }
  bool is_gm() const { return cfg_.gm_domain.has_value(); }
  std::optional<std::uint8_t> gm_domain() const { return cfg_.gm_domain; }

  net::Nic& nic() { return nic_; }
  gptp::PtpStack* stack() { return stack_.get(); }
  core::MultiDomainCoordinator* coordinator() { return coordinator_.get(); }
  core::FtShmem* ft_shmem() { return ft_shmem_.get(); }
  SyncTimeUpdater* updater() { return updater_.get(); }

  /// Aggregate ptp4l application-fault counters across reboots.
  std::uint64_t total_tx_timestamp_timeouts() const;
  std::uint64_t total_deadline_misses() const;

  // -- Snapshot / fast-forward support -------------------------------------
  // Captures the NIC PHC plus the whole software stack; a load reconciles
  // the boot state first (building or tearing down the stack to match the
  // snapshot) and then restores into the live components. The
  // externally-owned fault model is config, not state: the harness that
  // drives faults re-applies it after a restore.
  template <class Ar> void persist(Ar& ar);
  std::size_t live_events() const;
  void ff_park();
  void ff_advance(const sim::FfWindow& w);
  void ff_resume();

 private:
  void build_stack();
  /// Stop and destroy the software stack (no counter folding).
  void tear_down();

  sim::Simulation& sim_;
  StShmem& st_shmem_;
  ClockSyncVmConfig cfg_;
  std::size_t vm_index_;
  obs::ObsContext obs_;
  std::string kernel_version_;
  net::Nic nic_;

  std::unique_ptr<core::FtShmem> ft_shmem_;
  std::unique_ptr<gptp::PtpStack> stack_;
  std::unique_ptr<core::MultiDomainCoordinator> coordinator_;
  std::unique_ptr<SyncTimeUpdater> updater_;

  bool running_ = false;
  std::int64_t malicious_pot_offset_ns_ = 0;
  gptp::InstanceFaultModel fault_model_;
  FaultCallback fault_cb_;
  std::uint64_t past_tx_timeouts_ = 0;
  std::uint64_t past_deadline_misses_ = 0;

  /// NIC PHC reading at ff_park, for FTSHMEM's freshness-preserving shift.
  std::int64_t ff_entry_phc_ = 0;
};

} // namespace tsn::hv
