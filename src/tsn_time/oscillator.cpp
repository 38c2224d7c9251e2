#include "tsn_time/oscillator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/persist.hpp"

namespace tsn::time {
namespace {

double initial_drift(const OscillatorModel& model, util::RngStream& rng) {
  if (std::isnan(model.initial_drift_ppm)) {
    return rng.uniform(-model.max_drift_ppm, model.max_drift_ppm);
  }
  return model.initial_drift_ppm;
}

} // namespace

Oscillator::Oscillator(const OscillatorModel& model, util::RngStream rng)
    : model_(model),
      rng_(std::move(rng)),
      drift_(0.0, model.wander_sigma_ppm, model.max_drift_ppm),
      next_wander_at_ns_(model.wander_step_ns) {
  drift_ = util::BoundedRandomWalk(initial_drift(model_, rng_), model_.wander_sigma_ppm,
                                   model_.max_drift_ppm);
}

long double Oscillator::integrate_segment(std::int64_t dt_ns) const {
  const long double rate = 1.0L + static_cast<long double>(drift_.value()) * 1e-6L;
  return static_cast<long double>(dt_ns) * rate;
}

void Oscillator::wander_step() { drift_.step(rng_); }

template <class Ar>
void Oscillator::persist(Ar& ar) {
  double drift = drift_.value();
  std::int64_t last_ns = last_.ns();
  ar.f64(drift);
  ar.rng(rng_);
  ar.i64(last_ns);
  ar.i64(next_wander_at_ns_);
  if constexpr (Ar::kLoading) {
    drift_.set_value(drift);
    last_ = sim::SimTime{last_ns};
  }
}
TSN_PERSIST_INSTANTIATE(Oscillator);

double Oscillator::fold_drift(double v) const {
  const double b = model_.max_drift_ppm;
  const double period = 4.0 * b;
  double x = std::fmod(v + b, period);
  if (x < 0.0) x += period;
  return x <= 2.0 * b ? x - b : 3.0 * b - x;
}

long double Oscillator::advance_coarse(sim::SimTime to) {
  assert(to >= last_);
  const std::int64_t target = to.ns();
  // Wander boundaries inside (last_, target]. Below the cutoff the exact
  // walk is cheap and keeps short advances draw-identical to advance().
  constexpr std::int64_t kCoarseMinQuanta = 64;
  const std::int64_t boundaries =
      next_wander_at_ns_ <= target
          ? (target - next_wander_at_ns_) / model_.wander_step_ns + 1
          : 0;
  if (boundaries < kCoarseMinQuanta) return advance(to);

  // Decomposition mirroring advance(): head segment at the entry drift v0,
  // M = boundaries-1 full quanta at drifts v_1..v_M, one final wander step
  // at the last boundary, tail segment at the exit drift.
  //
  // With i.i.d. steps xi_i ~ N(0, sigma^2) and S_j = xi_1 + .. + xi_j:
  //   A = S_M             ~ N(0, M sigma^2)
  //   B = sum_{j<=M} S_j,   Var(B) = sigma^2 M(M+1)(2M+1)/6,
  //                         Cov(A,B) = sigma^2 M(M+1)/2
  // so B | A ~ N((M+1)/2 * A, sigma^2 M(M+1)(M-1)/12) and the quanta
  // integral is M*delta*(1 + (v0 + B/M)*1e-6).
  long double elapsed = integrate_segment(next_wander_at_ns_ - last_.ns());
  const std::int64_t quanta = boundaries - 1;
  const double v0 = drift_.value();
  const double sigma = model_.wander_sigma_ppm;
  const double m = static_cast<double>(quanta);
  double walk_sum = 0.0;
  if (quanta > 0) {
    walk_sum = rng_.normal(0.0, sigma * std::sqrt(m));
    double integral = (m + 1.0) / 2.0 * walk_sum;
    if (quanta > 1) {
      integral +=
          rng_.normal(0.0, sigma * std::sqrt(m * (m + 1.0) * (m - 1.0) / 12.0));
    }
    const double avg = std::clamp(v0 + integral / m, -model_.max_drift_ppm,
                                  model_.max_drift_ppm);
    elapsed += static_cast<long double>(quanta) *
               static_cast<long double>(model_.wander_step_ns) *
               (1.0L + static_cast<long double>(avg) * 1e-6L);
  }
  const double exit_drift = fold_drift(v0 + walk_sum + rng_.normal(0.0, sigma));
  drift_.set_value(exit_drift);
  const std::int64_t last_boundary =
      next_wander_at_ns_ + quanta * model_.wander_step_ns;
  elapsed += static_cast<long double>(target - last_boundary) *
             (1.0L + static_cast<long double>(exit_drift) * 1e-6L);
  next_wander_at_ns_ = last_boundary + model_.wander_step_ns;
  last_ = to;
  return elapsed;
}

long double Oscillator::advance(sim::SimTime to) {
  assert(to >= last_);
  long double elapsed_local = 0.0L;
  std::int64_t t = last_.ns();
  const std::int64_t target = to.ns();
  while (t < target) {
    const std::int64_t seg_end = std::min(target, next_wander_at_ns_);
    elapsed_local += integrate_segment(seg_end - t);
    t = seg_end;
    if (t == next_wander_at_ns_) {
      wander_step();
      next_wander_at_ns_ += model_.wander_step_ns;
    }
  }
  last_ = to;
  return elapsed_local;
}

} // namespace tsn::time
