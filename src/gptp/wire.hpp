// Big-endian (network order) byte stream primitives for PTP wire formats.
//
// The writer is generic over the output container (std::vector<uint8_t> or
// net::Payload) so hot paths can serialize straight into a pooled frame's
// inline payload without an intermediate heap vector.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "gptp/types.hpp"

namespace tsn::gptp {

template <class Buf>
class BasicByteWriter {
 public:
  explicit BasicByteWriter(Buf& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u48(std::uint64_t v) {
    u16(static_cast<std::uint16_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void bytes(const std::uint8_t* data, std::size_t n) {
    out_.insert(out_.end(), data, data + n);
  }
  void zeros(std::size_t n) { out_.insert(out_.end(), n, 0); }
  void timestamp(const Timestamp& ts) { // 10 bytes: 48-bit s + 32-bit ns
    u48(ts.seconds);
    u32(ts.nanoseconds);
  }
  void clock_identity(const ClockIdentity& id) {
    bytes(id.bytes().data(), id.bytes().size());
  }
  void port_identity(const PortIdentity& id) {
    clock_identity(id.clock);
    u16(id.port);
  }

  std::size_t size() const { return out_.size(); }
  /// Patch a previously written big-endian u16 at `offset`.
  void patch_u16(std::size_t offset, std::uint16_t v) {
    out_[offset] = static_cast<std::uint8_t>(v >> 8);
    out_[offset + 1] = static_cast<std::uint8_t>(v);
  }

 private:
  Buf& out_;
};

using ByteWriter = BasicByteWriter<std::vector<std::uint8_t>>;

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  /// From any contiguous byte container (std::vector, net::Payload, ...).
  template <class C, typename = std::enable_if_t<!std::is_same_v<std::decay_t<C>, ByteReader>,
                                                 decltype(std::declval<const C&>().data())>>
  explicit ByteReader(const C& buf) : data_(buf.data()), size_(buf.size()) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u48();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  void skip(std::size_t n);
  /// Fails the reader on seconds beyond Timestamp::kMaxSeconds.
  Timestamp timestamp();
  ClockIdentity clock_identity();
  PortIdentity port_identity();

 private:
  bool take(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

} // namespace tsn::gptp
