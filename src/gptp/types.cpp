#include "gptp/types.hpp"

#include "util/str.hpp"

namespace tsn::gptp {

ClockIdentity ClockIdentity::from_u64(std::uint64_t v) {
  std::array<std::uint8_t, 8> b{};
  for (int i = 7; i >= 0; --i) {
    b[i] = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;
  }
  return ClockIdentity(b);
}

std::uint64_t ClockIdentity::to_u64() const {
  std::uint64_t v = 0;
  for (auto byte : bytes_) v = (v << 8) | byte;
  return v;
}

std::string ClockIdentity::to_string() const {
  return util::format("%02x%02x%02x.%02x%02x.%02x%02x%02x", bytes_[0], bytes_[1], bytes_[2],
                      bytes_[3], bytes_[4], bytes_[5], bytes_[6], bytes_[7]);
}

std::string PortIdentity::to_string() const {
  return clock.to_string() + util::format("-%u", port);
}

Timestamp Timestamp::from_ns(std::int64_t ns) {
  Timestamp ts;
  if (ns < 0) ns = 0; // PTP timestamps are unsigned; the sim epoch is 0
  ts.seconds = static_cast<std::uint64_t>(ns / 1'000'000'000) & 0xFFFFFFFFFFFFULL;
  ts.nanoseconds = static_cast<std::uint32_t>(ns % 1'000'000'000);
  return ts;
}

std::int64_t Timestamp::to_ns() const {
  return static_cast<std::int64_t>(seconds) * 1'000'000'000 +
         static_cast<std::int64_t>(nanoseconds);
}

} // namespace tsn::gptp
