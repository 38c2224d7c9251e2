#include "util/rng.hpp"

namespace tsn::util {

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

RngStream::RngStream(std::uint64_t master_seed, std::string_view stream_name) {
  std::seed_seq seq{master_seed, fnv1a64(stream_name), std::uint64_t{0x9e3779b97f4a7c15ULL}};
  engine_.seed(seq);
}

double RngStream::uniform01() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double RngStream::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t RngStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double RngStream::normal(double mean, double stddev) {
  // Scale a standard normal rather than pass `stddev` to the distribution:
  // its precondition is stddev > 0, and callers pass 0 (noise-free clock
  // models). libstdc++ computes the same expression, so draws are
  // bit-identical.
  return std::normal_distribution<double>()(engine_) * stddev + mean;
}

double RngStream::exponential(double mean) {
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

bool RngStream::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double BoundedRandomWalk::step(RngStream& rng) {
  value_ += rng.normal(0.0, step_sigma_);
  // Reflect at the bounds so long runs stay well-mixed instead of sticking.
  if (value_ > bound_) value_ = 2 * bound_ - value_;
  if (value_ < -bound_) value_ = -2 * bound_ - value_;
  if (value_ > bound_) value_ = bound_;   // pathological large step
  if (value_ < -bound_) value_ = -bound_;
  return value_;
}

} // namespace tsn::util
