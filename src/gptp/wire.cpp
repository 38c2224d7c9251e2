#include "gptp/wire.hpp"

namespace tsn::gptp {

bool ByteReader::take(std::size_t n) {
  if (!ok_ || pos_ + n > size_) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  const std::uint16_t hi = u8();
  return static_cast<std::uint16_t>((hi << 8) | u8());
}

std::uint32_t ByteReader::u32() {
  const std::uint32_t hi = u16();
  return (hi << 16) | u16();
}

std::uint64_t ByteReader::u48() {
  const std::uint64_t hi = u16();
  return (hi << 32) | u32();
}

std::uint64_t ByteReader::u64() {
  const std::uint64_t hi = u32();
  return (hi << 32) | u32();
}

void ByteReader::skip(std::size_t n) {
  if (take(n)) pos_ += n;
}

Timestamp ByteReader::timestamp() {
  Timestamp ts;
  ts.seconds = u48();
  ts.nanoseconds = u32();
  if (ts.seconds > Timestamp::kMaxSeconds) ok_ = false; // to_ns() would overflow
  return ts;
}

ClockIdentity ByteReader::clock_identity() {
  std::array<std::uint8_t, 8> b{};
  for (auto& byte : b) byte = u8();
  return ClockIdentity(b);
}

PortIdentity ByteReader::port_identity() {
  PortIdentity id;
  id.clock = clock_identity();
  id.port = u16();
  return id;
}

} // namespace tsn::gptp
