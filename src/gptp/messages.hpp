// IEEE 802.1AS message set with exact wire-format (de)serialization.
//
// Layouts follow IEEE 1588-2019 clause 13 with the 802.1AS media-dependent
// profile: transportSpecific = 1, Ethernet multicast 01-80-C2-00-00-0E,
// two-step Sync + FollowUp carrying the Follow_Up information TLV
// (cumulativeScaledRateOffset), and the peer-delay mechanism.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "gptp/types.hpp"

namespace tsn::net {
class Payload; // net/frame.hpp
}

namespace tsn::gptp {

enum class MessageType : std::uint8_t {
  kSync = 0x0,
  kDelayReq = 0x1, // IEEE 1588 end-to-end mechanism (not used by 802.1AS)
  kPdelayReq = 0x2,
  kPdelayResp = 0x3,
  kFollowUp = 0x8,
  kDelayResp = 0x9,
  kPdelayRespFollowUp = 0xA,
  // No Announce (0xB): every port role is configured externally, so
  // parse() rejects it like any other unknown messageType.
};

/// Common PTP header (34 bytes on the wire).
struct MessageHeader {
  MessageType type = MessageType::kSync;
  std::uint8_t domain = 0;
  bool two_step = false;
  std::int64_t correction_scaled = 0; // nanoseconds * 2^16
  PortIdentity source_port;
  std::uint16_t sequence_id = 0;
  std::int8_t log_message_interval = 0;

  double correction_ns() const { return scaled_ns::to_ns(correction_scaled); }
};

struct SyncMessage {
  MessageHeader header;
  // 802.1AS two-step Sync carries a reserved (zero) originTimestamp.
};

struct FollowUpMessage {
  MessageHeader header;
  Timestamp precise_origin;
  /// Follow_Up information TLV.
  std::int32_t cumulative_scaled_rate_offset = 0;
  std::uint16_t gm_time_base_indicator = 0;
  std::int32_t scaled_last_gm_freq_change = 0;

  double rate_ratio() const { return rate_offset::to_ratio(cumulative_scaled_rate_offset); }
};

struct PdelayReqMessage {
  MessageHeader header;
};

/// IEEE 1588 end-to-end delay request (the default PTP profile's
/// mechanism; provided as a baseline -- 802.1AS itself is P2P-only).
struct DelayReqMessage {
  MessageHeader header;
};

struct DelayRespMessage {
  MessageHeader header;
  Timestamp receive_timestamp;
  PortIdentity requesting_port;
};

struct PdelayRespMessage {
  MessageHeader header;
  Timestamp request_receipt;
  PortIdentity requesting_port;
};

struct PdelayRespFollowUpMessage {
  MessageHeader header;
  Timestamp response_origin;
  PortIdentity requesting_port;
};

using Message = std::variant<SyncMessage, FollowUpMessage, PdelayReqMessage, PdelayRespMessage,
                             PdelayRespFollowUpMessage, DelayReqMessage, DelayRespMessage>;

/// Access the common header of any message alternative.
const MessageHeader& header_of(const Message& msg);
MessageHeader& header_of(Message& msg);

/// Serialize to the exact wire representation.
std::vector<std::uint8_t> serialize(const Message& msg);

/// Append the wire representation to an existing buffer. The Payload
/// overload is the hot path: writes straight into a pooled frame's inline
/// storage, no intermediate vector.
void serialize_into(const Message& msg, std::vector<std::uint8_t>& out);
void serialize_into(const Message& msg, net::Payload& out);

/// Parse from wire bytes; nullopt on malformed/truncated/unknown input.
std::optional<Message> parse(const std::uint8_t* data, std::size_t size);
template <class C>
std::optional<Message> parse(const C& bytes) {
  return parse(bytes.data(), bytes.size());
}

} // namespace tsn::gptp
