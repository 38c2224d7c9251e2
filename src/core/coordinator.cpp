#include "core/coordinator.hpp"

#include <cmath>
#include <stdexcept>

#include "sim/persist.hpp"
#include "util/log.hpp"

namespace tsn::core {

MultiDomainCoordinator::MultiDomainCoordinator(sim::Simulation& sim, time::PhcClock& phc,
                                               FtShmem& shmem, const CoordinatorConfig& cfg,
                                               const std::string& name, obs::ObsContext obs)
    : sim_(sim), phc_(phc), shmem_(shmem), cfg_(cfg), name_(name), servo_(cfg.servo) {
  if (cfg_.domains.empty() || cfg_.domains.size() != shmem.num_domains()) {
    throw std::invalid_argument("coordinator: domain list must match FTSHMEM size");
  }
  for (std::size_t i = 0; i < cfg_.domains.size(); ++i) {
    slot_map_[cfg_.domains[i]] = i;
  }
  if (slot_map_.size() != cfg_.domains.size()) {
    throw std::invalid_argument("coordinator: duplicate domain numbers");
  }
  if (slot_map_.count(cfg_.initial_domain) == 0) {
    throw std::invalid_argument("coordinator: initial domain not in domain list");
  }
  last_validity_.assign(cfg_.domains.size(), true);
  bind_metrics(obs);
  // Warm start: inherit the shared servo state left in FTSHMEM.
  servo_.set_integral_ppb(shmem_.servo_integral());
  if (cfg_.skip_startup) {
    shmem_.set_phase(SyncPhase::kFta);
  }
}

void MultiDomainCoordinator::bind_metrics(obs::ObsContext obs) {
  obs::MetricsRegistry* reg = obs.metrics;
  if (!reg) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    reg = own_metrics_.get();
  }
  const std::string p = name_ + ".";
  c_samples_stored_ = &reg->counter(p + "samples_stored");
  c_aggregations_ = &reg->counter(p + "aggregations");
  c_skipped_no_quorum_ = &reg->counter(p + "aggregation_skipped_no_quorum");
  c_startup_adjustments_ = &reg->counter(p + "startup_adjustments");
  c_excluded_stale_ = &reg->counter(p + "gms_excluded_stale");
  c_excluded_disagreeing_ = &reg->counter(p + "gms_excluded_disagreeing");
  c_clock_steps_ = &reg->counter(p + "clock_steps");
  trace_ = obs.trace;
  if (trace_) trace_src_ = trace_->intern(name_);
  servo_.attach_obs(obs::ObsContext{reg, obs.trace}, name_ + ".servo");
}

void MultiDomainCoordinator::trace(obs::TraceKind kind, std::uint32_t a, std::uint32_t mask,
                                   std::int64_t v0, std::int64_t v1) const {
  if (!trace_) return;
  obs::TraceRecord rec;
  rec.t_ns = phc_.read();
  rec.kind = kind;
  rec.source = trace_src_;
  rec.a = a;
  rec.mask = mask;
  rec.v0 = v0;
  rec.v1 = v1;
  trace_->push(rec);
}

CoordinatorStats MultiDomainCoordinator::stats() const {
  CoordinatorStats s;
  s.samples_stored = c_samples_stored_->value();
  s.aggregations = c_aggregations_->value();
  s.aggregation_skipped_no_quorum = c_skipped_no_quorum_->value();
  s.startup_adjustments = c_startup_adjustments_->value();
  s.gms_excluded_stale = c_excluded_stale_->value();
  s.gms_excluded_disagreeing = c_excluded_disagreeing_->value();
  s.clock_steps = c_clock_steps_->value();
  return s;
}

std::size_t MultiDomainCoordinator::slot_of(std::uint8_t domain) const {
  return slot_map_.at(domain);
}

void MultiDomainCoordinator::on_offset(const gptp::MasterOffsetSample& sample) {
  const auto it = slot_map_.find(sample.domain);
  if (it == slot_map_.end()) return; // domain we do not aggregate
  const std::size_t slot = it->second;

  GmOffsetRecord record;
  record.offset_ns = sample.offset_ns;
  record.local_rx_ts = sample.local_rx_ts;
  record.rate_ratio = sample.rate_ratio;
  shmem_.store_offset(slot, record);
  c_samples_stored_->inc();

  if (shmem_.phase() == SyncPhase::kStartup) {
    startup_step(slot, sample);
  } else {
    fta_step(sample);
  }
}

void MultiDomainCoordinator::apply_servo(double offset_ns, std::int64_t local_ts) {
  const auto res = servo_.sample(static_cast<std::int64_t>(std::llround(offset_ns)), local_ts);
  switch (res.state) {
    case gptp::PiServo::State::kUnlocked:
      break;
    case gptp::PiServo::State::kJump:
      phc_.step(-static_cast<std::int64_t>(std::llround(offset_ns)));
      phc_.adj_frequency(res.freq_ppb);
      c_clock_steps_->inc();
      break;
    case gptp::PiServo::State::kLocked:
      phc_.adj_frequency(res.freq_ppb);
      break;
  }
  shmem_.store_servo_integral(servo_.integral_ppb());
}

void MultiDomainCoordinator::startup_step(std::size_t slot,
                                          const gptp::MasterOffsetSample& sample) {
  // During startup only the initial domain disciplines the clock.
  if (sample.domain != cfg_.initial_domain) return;
  apply_servo(sample.offset_ns, sample.local_rx_ts);
  c_startup_adjustments_->inc();

  // Leave startup once every domain's offset is fresh and small, for
  // startup_consecutive initial-domain intervals in a row.
  const std::int64_t now = phc_.read();
  bool all_small = true;
  for (std::size_t i = 0; i < shmem_.num_domains(); ++i) {
    const auto rec = shmem_.load_offset(i);
    if (!rec || (now - rec->local_rx_ts) > cfg_.validity.freshness_window_ns ||
        std::abs(rec->offset_ns) > cfg_.startup_threshold_ns) {
      all_small = false;
      break;
    }
  }
  startup_ok_streak_ = all_small ? startup_ok_streak_ + 1 : 0;
  if (startup_ok_streak_ >= cfg_.startup_consecutive) {
    enter_fta_phase();
  }
}

void MultiDomainCoordinator::enter_fta_phase() {
  shmem_.set_phase(SyncPhase::kFta);
  shmem_.set_adjust_last(phc_.read());
  TSN_LOG_INFO("fta", "%s: entering FTA phase", name_.c_str());
  trace(obs::TraceKind::kPhaseChange, static_cast<std::uint32_t>(SyncPhase::kFta), 0, 0, 0);
  if (on_phase_change) on_phase_change(SyncPhase::kFta);
}

template <class Ar>
void MultiDomainCoordinator::persist(Ar& ar) {
  servo_.persist(ar);
  ar.i64(startup_ok_streak_);
  std::uint64_t n = last_validity_.size();
  ar.u64(n);
  if constexpr (Ar::kLoading) last_validity_.assign(n, false);
  ar.bits(last_validity_);
  // Counters live in the metrics registry, which is observational and
  // deliberately outside snapshot state.
}
TSN_PERSIST_INSTANTIATE(MultiDomainCoordinator);

void MultiDomainCoordinator::fta_step(const gptp::MasterOffsetSample& sample) {
  const std::int64_t now = phc_.read();
  if (!shmem_.try_acquire_gate(now, cfg_.sync_interval_ns)) return;
  trace(obs::TraceKind::kGateAcquire, static_cast<std::uint32_t>(sample.domain), 0, now, 0);

  // This instance won the gate: aggregate all stored offsets.
  std::vector<std::optional<GmOffsetRecord>> slots;
  slots.reserve(shmem_.num_domains());
  for (std::size_t i = 0; i < shmem_.num_domains(); ++i) {
    slots.push_back(shmem_.load_offset(i));
  }
  const auto verdicts = evaluate_validity(slots, now, cfg_.validity);

  std::vector<double> usable;
  std::uint32_t valid_mask = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const bool valid = verdicts[i].usable();
    if (valid) {
      usable.push_back(slots[i]->offset_ns);
      if (i < 32) valid_mask |= (1u << i);
    } else if (!verdicts[i].fresh) {
      c_excluded_stale_->inc();
    } else {
      c_excluded_disagreeing_->inc();
    }
    shmem_.set_gm_valid(i, valid);
    if (valid != last_validity_[i]) {
      last_validity_[i] = valid;
      if (on_validity_change) on_validity_change(i, valid);
    }
  }

  const auto aggregated = aggregate(usable, cfg_.method, cfg_.fta_f);
  if (!aggregated) {
    // Too few usable clocks: hold the current frequency (free-run) rather
    // than following a possibly-faulty minority.
    c_skipped_no_quorum_->inc();
    trace(obs::TraceKind::kNoQuorum, static_cast<std::uint32_t>(usable.size()), valid_mask, 0,
          0);
    return;
  }

  apply_servo(*aggregated, sample.local_rx_ts);
  c_aggregations_->inc();
  trace(obs::TraceKind::kAggregate, static_cast<std::uint32_t>(usable.size()), valid_mask,
        static_cast<std::int64_t>(std::llround(*aggregated)), 0);
  shmem_.count_aggregation();
  if (on_aggregate) on_aggregate(*aggregated, static_cast<int>(usable.size()));
}

} // namespace tsn::core
