#include "gptp/servo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "sim/persist.hpp"

namespace tsn::gptp {

PiServo::PiServo(const PiServoConfig& cfg) : cfg_(cfg) {}

double PiServo::clamp_freq(double ppb) const {
  return std::clamp(ppb, -cfg_.max_frequency_ppb, cfg_.max_frequency_ppb);
}

void PiServo::reset() {
  state_ = State::kUnlocked;
  sample_count_ = 0;
  // The integral (learned frequency error) survives a reset on purpose:
  // losing it after a reference switch would re-learn the oscillator's
  // static drift from scratch. Call set_integral_ppb(0) for a cold reset.
}

template <class Ar>
void PiServo::persist(Ar& ar) {
  ar.u8(state_);
  ar.i64(sample_count_);
  ar.i64(first_offset_);
  ar.i64(first_ts_);
  ar.f64(integral_ppb_);
}
TSN_PERSIST_INSTANTIATE(PiServo);

void PiServo::attach_obs(obs::ObsContext ctx, const std::string& name) {
  if (ctx.metrics) {
    c_samples_ = &ctx.metrics->counter(name + ".samples");
    c_jumps_ = &ctx.metrics->counter(name + ".jumps");
    c_unlock_resets_ = &ctx.metrics->counter(name + ".unlock_resets");
  }
  trace_ = ctx.trace;
  if (trace_) trace_src_ = trace_->intern(name);
}

void PiServo::note_state(State prev, std::int64_t local_ts_ns, double freq_ppb) {
  if (state_ == prev || !trace_) return;
  obs::TraceRecord rec;
  rec.t_ns = local_ts_ns;
  rec.kind = obs::TraceKind::kServoState;
  rec.source = trace_src_;
  rec.a = static_cast<std::uint32_t>(state_);
  rec.v0 = static_cast<std::int64_t>(freq_ppb);
  rec.v1 = static_cast<std::int64_t>(prev);
  trace_->push(rec);
}

PiServo::Result PiServo::sample(std::int64_t offset_ns, std::int64_t local_ts_ns) {
  Result res;
  const State prev = state_;
  if (c_samples_) c_samples_->inc();

  if (state_ != State::kUnlocked && cfg_.step_threshold_ns > 0 &&
      std::llabs(offset_ns) > cfg_.step_threshold_ns) {
    // Runaway offset: fall back to acquisition.
    state_ = State::kUnlocked;
    sample_count_ = 0;
    if (c_unlock_resets_) c_unlock_resets_->inc();
  }

  switch (state_) {
    case State::kUnlocked: {
      if (sample_count_ == 0) {
        first_offset_ = offset_ns;
        first_ts_ = local_ts_ns;
        ++sample_count_;
        res.state = State::kUnlocked;
        res.freq_ppb = clamp_freq(-integral_ppb_);
        note_state(prev, local_ts_ns, res.freq_ppb);
        return res;
      }
      // Second sample: estimate the frequency error between the two
      // offsets, then decide whether to step the phase.
      const double dt = static_cast<double>(local_ts_ns - first_ts_);
      if (dt > 0) {
        const double drift_ppb = static_cast<double>(offset_ns - first_offset_) / dt * 1e9;
        integral_ppb_ = clamp_freq(integral_ppb_ + drift_ppb);
      }
      sample_count_ = 0;
      if (cfg_.first_step_threshold_ns > 0 &&
          std::llabs(offset_ns) > cfg_.first_step_threshold_ns) {
        // Hold kJump until the next sample so the trace shows the
        // Unlocked -> Jump -> Locked sequence; the next sample's
        // kLocked handling records the Jump -> Locked edge.
        state_ = State::kJump;
        res.state = State::kJump;
        res.freq_ppb = clamp_freq(-integral_ppb_);
        if (c_jumps_) c_jumps_->inc();
        note_state(prev, local_ts_ns, res.freq_ppb);
        return res;
      }
      state_ = State::kLocked;
      [[fallthrough]];
    }
    case State::kJump:
    case State::kLocked: {
      integral_ppb_ = clamp_freq(integral_ppb_ + cfg_.ki * static_cast<double>(offset_ns));
      const double out = clamp_freq(-(cfg_.kp * static_cast<double>(offset_ns) + integral_ppb_));
      state_ = State::kLocked;
      res.state = State::kLocked;
      res.freq_ppb = out;
      note_state(prev, local_ts_ns, out);
      return res;
    }
  }
  return res;
}

} // namespace tsn::gptp
