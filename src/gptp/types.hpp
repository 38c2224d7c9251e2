// IEEE 802.1AS / IEEE 1588 base types.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>

namespace tsn::gptp {

/// EUI-64 clock identity.
class ClockIdentity {
 public:
  constexpr ClockIdentity() = default;
  constexpr explicit ClockIdentity(std::array<std::uint8_t, 8> b) : bytes_(b) {}
  static ClockIdentity from_u64(std::uint64_t v);

  const std::array<std::uint8_t, 8>& bytes() const { return bytes_; }
  std::uint64_t to_u64() const;
  std::string to_string() const;

  /// Snapshot archive image: the identity as one u64 (sim/persist.hpp).
  template <class Ar>
  void persist(Ar& ar) {
    std::uint64_t v = to_u64();
    ar.u64(v);
    if constexpr (Ar::kLoading) *this = from_u64(v);
  }

  friend constexpr auto operator<=>(const ClockIdentity&, const ClockIdentity&) = default;

 private:
  std::array<std::uint8_t, 8> bytes_{};
};

struct PortIdentity {
  ClockIdentity clock;
  std::uint16_t port = 0;

  friend constexpr auto operator<=>(const PortIdentity&, const PortIdentity&) = default;
  std::string to_string() const;
  template <class Ar>
  void persist(Ar& ar) {
    clock.persist(ar);
    ar.u16(port);
  }
};

/// PTP timestamp: 48-bit seconds + 32-bit nanoseconds.
struct Timestamp {
  std::uint64_t seconds = 0; // only low 48 bits are valid on the wire
  std::uint32_t nanoseconds = 0;

  static Timestamp from_ns(std::int64_t ns);
  std::int64_t to_ns() const;

  friend constexpr auto operator<=>(const Timestamp&, const Timestamp&) = default;
};

/// Correction field semantics: signed nanoseconds scaled by 2^16.
namespace scaled_ns {
constexpr std::int64_t kOne = 1 << 16;
constexpr std::int64_t from_ns(double ns) {
  return static_cast<std::int64_t>(ns * static_cast<double>(kOne));
}
constexpr double to_ns(std::int64_t scaled) {
  return static_cast<double>(scaled) / static_cast<double>(kOne);
}
} // namespace scaled_ns

/// cumulativeScaledRateOffset semantics: (rateRatio - 1.0) * 2^41.
namespace rate_offset {
constexpr double kScale = 2199023255552.0; // 2^41
inline std::int32_t from_ratio(double rate_ratio) {
  return static_cast<std::int32_t>((rate_ratio - 1.0) * kScale);
}
inline double to_ratio(std::int32_t scaled) {
  return 1.0 + static_cast<double>(scaled) / kScale;
}
} // namespace rate_offset

/// IEEE 1588 clockQuality.
struct ClockQuality {
  std::uint8_t clock_class = 248;            // default, application specific
  std::uint8_t clock_accuracy = 0xFE;        // unknown
  std::uint16_t offset_scaled_log_variance = 0x4E5D; // 802.1AS default

  friend constexpr auto operator<=>(const ClockQuality&, const ClockQuality&) = default;
};

enum class PortRole : std::uint8_t {
  kDisabled = 0,
  kMaster = 1,
  kSlave = 2,
  kPassive = 3,
};

const char* to_string(PortRole role);

} // namespace tsn::gptp
