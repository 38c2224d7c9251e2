#include "hv/synctime_updater.hpp"

#include <cmath>

#include "sim/persist.hpp"

namespace tsn::hv {

SyncTimeUpdater::SyncTimeUpdater(sim::Simulation& sim, time::PhcClock& phc, time::PhcClock& tsc,
                                 StShmem& shmem, const SyncTimeUpdaterConfig& cfg,
                                 const std::string& name)
    : sim_(sim), phc_(phc), tsc_(tsc), shmem_(shmem), cfg_(cfg), name_(name),
      servo_(cfg.servo) {}

void SyncTimeUpdater::set_obs(obs::ObsContext ctx) {
  obs_ = ctx;
  servo_.attach_obs(obs_, name_ + ".servo");
}

void SyncTimeUpdater::start(std::size_t vm_index) {
  if (running_) return;
  vm_index_ = vm_index;
  running_ = true;
  virt_initialized_ = false;
  ff_anchor_.reset();
  ff_count_ = 0;
  rate_ = 1.0;
  servo_ = gptp::PiServo(cfg_.servo);
  // The assignment above wiped the servo's obs handles; re-attach.
  if (obs_) servo_.attach_obs(obs_, name_ + ".servo");
  parked_.park_at(sim_.now().ns());
  ff_resume();
}

void SyncTimeUpdater::stop() {
  periodic_.cancel();
  running_ = false;
  publishing_ = false;
}

void SyncTimeUpdater::set_publishing(bool on) {
  const bool was = publishing_;
  publishing_ = on;
  if (on && !was && running_) {
    // Take over immediately: publish the current state of our clock.
    const std::int64_t tsc = tsc_.read();
    if (virt_initialized_) {
      publish(last_tsc_, static_cast<std::int64_t>(std::llroundl(virt_value_)), rate_);
    } else {
      publish(tsc, phc_.read(), 1.0);
    }
  }
}

void SyncTimeUpdater::tick() {
  shmem_.heartbeat(vm_index_, tsc_.read());
  const std::int64_t tsc = tsc_.read();
  const std::int64_t phc = phc_.read();
  if (cfg_.mode == SyncTimeMode::kFeedForward) {
    tick_feed_forward(tsc, phc);
  } else {
    tick_feedback(tsc, phc);
  }
}

void SyncTimeUpdater::tick_feedback(std::int64_t tsc, std::int64_t phc) {
  if (!virt_initialized_) {
    virt_initialized_ = true;
    virt_value_ = static_cast<long double>(phc);
    last_tsc_ = tsc;
    rate_ = 1.0;
    publish(tsc, phc, rate_);
    return;
  }
  // Advance the virtual clock at its programmed rate, then discipline it
  // toward the PHC with the PI servo -- phc2sys semantics.
  virt_value_ += static_cast<long double>(tsc - last_tsc_) * static_cast<long double>(rate_);
  last_tsc_ = tsc;
  const double err = static_cast<double>(virt_value_ - static_cast<long double>(phc));
  last_error_ns_ = err;
  const auto res = servo_.sample(static_cast<std::int64_t>(std::llround(err)), tsc);
  switch (res.state) {
    case gptp::PiServo::State::kUnlocked:
      break;
    case gptp::PiServo::State::kJump:
      virt_value_ = static_cast<long double>(phc);
      rate_ = 1.0 + res.freq_ppb * 1e-9;
      break;
    case gptp::PiServo::State::kLocked:
      rate_ = 1.0 + res.freq_ppb * 1e-9;
      break;
  }
  publish(tsc, static_cast<std::int64_t>(std::llroundl(virt_value_)), rate_);
}

void SyncTimeUpdater::tick_feed_forward(std::int64_t tsc, std::int64_t phc) {
  // Rate over a long, fixed baseline: immune to servo-induced wiggle but
  // slower to follow genuine frequency changes. The published value snaps
  // to the PHC -- no feedback loop at all.
  if (ff_anchor_ && tsc != ff_anchor_->first) {
    rate_ = static_cast<double>(phc - ff_anchor_->second) /
            static_cast<double>(tsc - ff_anchor_->first);
  }
  if (!ff_anchor_ || ++ff_count_ >= cfg_.feed_forward_window) {
    ff_anchor_ = {tsc, phc};
    ff_count_ = 0;
  }
  last_tsc_ = tsc;
  virt_value_ = static_cast<long double>(phc);
  virt_initialized_ = true;
  publish(tsc, phc, rate_);
}

template <class Ar>
void SyncTimeUpdater::persist(Ar& ar) {
  parked_.persist(ar, periodic_);
  ar.u64(vm_index_);
  ar.b(running_);
  ar.b(publishing_);
  servo_.persist(ar);
  ar.b(virt_initialized_);
  ar.ld(virt_value_);
  ar.i64(last_tsc_);
  ar.f64(rate_);
  ar.f64(last_error_ns_);
  ar.opt(ff_anchor_, [&ar](auto& a) {
    ar.i64(a.first);
    ar.i64(a.second);
  });
  ar.i64(ff_count_);
  ar.i64(corruption_ns_);
  ar.f64(rate_corruption_);
  ar.u64(publications_);
  if constexpr (Ar::kLoading) ff_resume();
}
TSN_PERSIST_INSTANTIATE(SyncTimeUpdater);

void SyncTimeUpdater::ff_park() {
  parked_.park(periodic_);
  if (!virt_initialized_) {
    park_residual_ = 0.0L;
    return;
  }
  // virt_value_ is a snapshot at last_tsc_, up to one period old; the PHC
  // read below is current. Integrate the virtual clock forward to the park
  // instant first, or the elapsed wall time folds into the residual and
  // ff_advance re-anchors CLOCK_SYNCTIME that far off -- a phase step the
  // feedback servo answers with a railed frequency excursion.
  const std::int64_t tsc = tsc_.read();
  virt_value_ +=
      static_cast<long double>(tsc - last_tsc_) * static_cast<long double>(rate_);
  last_tsc_ = tsc;
  park_residual_ = virt_value_ - static_cast<long double>(phc_.read());
}

void SyncTimeUpdater::ff_advance(const sim::FfWindow&) {
  if (!running_) return;
  const std::int64_t tsc = tsc_.read();
  const std::int64_t phc = phc_.read();
  if (virt_initialized_) {
    // Keep the at-park offset from the PHC rather than re-integrating the
    // rate across the window: the servo was locked (quiescence gate), so
    // the residual is the steady-state error.
    virt_value_ = static_cast<long double>(phc) + park_residual_;
    last_tsc_ = tsc;
  }
  // A rate baseline straddling the analytic jump would regress across the
  // ensemble-pull discontinuity; restart it, keep the current estimate.
  if (ff_anchor_) {
    ff_anchor_ = {tsc, phc};
    ff_count_ = 0;
  }
  shmem_.heartbeat(vm_index_, tsc);
  if (virt_initialized_) {
    publish(last_tsc_, static_cast<std::int64_t>(std::llroundl(virt_value_)), rate_);
  }
}

void SyncTimeUpdater::ff_resume() {
  parked_.resume(sim_, periodic_, cfg_.period_ns, [this](sim::SimTime) { tick(); });
}

void SyncTimeUpdater::publish(std::int64_t base_tsc, std::int64_t base_sync, double rate) {
  SyncTimeParams p;
  p.base_tsc = base_tsc;
  p.base_sync = base_sync + corruption_ns_;
  p.rate = rate + rate_corruption_;
  p.generation = shmem_.generation();
  p.valid = true;
  // Candidate slot: every running VM's view, for the monitor's vote.
  shmem_.publish_candidate(vm_index_, p);
  if (publishing_) {
    shmem_.publish_params(p);
    ++publications_;
  }
}

} // namespace tsn::hv
