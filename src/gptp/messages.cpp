#include "gptp/messages.hpp"

#include "gptp/wire.hpp"
#include "net/frame.hpp"

namespace tsn::gptp {
namespace {

constexpr std::uint8_t kTransportSpecific = 1; // 802.1AS
constexpr std::uint8_t kVersionPtp = 2;
constexpr std::uint16_t kFlagTwoStep = 0x0200;     // flagField[0] bit 1
constexpr std::uint16_t kFlagPtpTimescale = 0x0008; // flagField[1] bit 3

constexpr std::uint16_t kTlvOrgExtension = 0x0003;

std::uint8_t control_field(MessageType type) {
  switch (type) {
    case MessageType::kSync: return 0;
    case MessageType::kFollowUp: return 2;
    default: return 5;
  }
}

template <class Buf>
void write_header(BasicByteWriter<Buf>& w, const MessageHeader& h) {
  w.u8(static_cast<std::uint8_t>((kTransportSpecific << 4) |
                                 static_cast<std::uint8_t>(h.type)));
  w.u8(kVersionPtp);
  w.u16(0); // messageLength, patched at offset 2 once the body is complete
  w.u8(h.domain);
  w.u8(0); // minorSdoId
  w.u16(static_cast<std::uint16_t>((h.two_step ? kFlagTwoStep : 0) | kFlagPtpTimescale));
  w.i64(h.correction_scaled);
  w.u32(0); // messageTypeSpecific
  w.port_identity(h.source_port);
  w.u16(h.sequence_id);
  w.u8(control_field(h.type));
  w.u8(static_cast<std::uint8_t>(h.log_message_interval));
}

bool read_header(ByteReader& r, MessageHeader& h) {
  const std::uint8_t type_byte = r.u8();
  if ((type_byte >> 4) != kTransportSpecific) return false;
  h.type = static_cast<MessageType>(type_byte & 0x0F);
  const std::uint8_t version = r.u8();
  if ((version & 0x0F) != kVersionPtp) return false;
  r.u16(); // messageLength (validated against buffer size by the reader)
  h.domain = r.u8();
  r.u8(); // minorSdoId
  const std::uint16_t flags = r.u16();
  h.two_step = (flags & kFlagTwoStep) != 0;
  h.correction_scaled = r.i64();
  r.u32(); // messageTypeSpecific
  h.source_port = r.port_identity();
  h.sequence_id = r.u16();
  r.u8(); // controlField
  h.log_message_interval = static_cast<std::int8_t>(r.u8());
  return r.ok();
}

// Appends at the current end of `out`; the messageLength field is patched
// relative to `base`, so serialization composes with non-empty buffers.
template <class Buf>
struct SerializerT {
  Buf& out;
  std::size_t base;

  void finish(BasicByteWriter<Buf>& w) {
    w.patch_u16(base + 2, static_cast<std::uint16_t>(out.size() - base));
  }

  void operator()(const SyncMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.zeros(10); // reserved originTimestamp
    finish(w);
  }

  void operator()(const FollowUpMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.timestamp(m.precise_origin);
    // Follow_Up information TLV (802.1AS 11.4.4.3).
    w.u16(kTlvOrgExtension);
    w.u16(28);
    w.u8(0x00); w.u8(0x80); w.u8(0xC2); // organizationId
    w.u8(0); w.u8(0); w.u8(1);          // organizationSubType = 1
    w.i32(m.cumulative_scaled_rate_offset);
    w.u16(m.gm_time_base_indicator);
    w.zeros(12); // lastGmPhaseChange
    w.i32(m.scaled_last_gm_freq_change);
    finish(w);
  }

  void operator()(const PdelayReqMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.zeros(20); // reserved
    finish(w);
  }

  void operator()(const DelayReqMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.zeros(10); // originTimestamp (zero: HW timestamping)
    finish(w);
  }

  void operator()(const DelayRespMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.timestamp(m.receive_timestamp);
    w.port_identity(m.requesting_port);
    finish(w);
  }

  void operator()(const PdelayRespMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.timestamp(m.request_receipt);
    w.port_identity(m.requesting_port);
    finish(w);
  }

  void operator()(const PdelayRespFollowUpMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.timestamp(m.response_origin);
    w.port_identity(m.requesting_port);
    finish(w);
  }
};

std::optional<Message> parse_body(ByteReader& r, const MessageHeader& h) {
  switch (h.type) {
    case MessageType::kSync: {
      SyncMessage m{h};
      r.skip(10);
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kFollowUp: {
      FollowUpMessage m;
      m.header = h;
      m.precise_origin = r.timestamp();
      if (r.u16() != kTlvOrgExtension) return std::nullopt;
      if (r.u16() != 28) return std::nullopt;
      r.skip(6); // organizationId + subtype
      m.cumulative_scaled_rate_offset = r.i32();
      m.gm_time_base_indicator = r.u16();
      r.skip(12);
      m.scaled_last_gm_freq_change = r.i32();
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kPdelayReq: {
      PdelayReqMessage m{h};
      r.skip(20);
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kDelayReq: {
      DelayReqMessage m{h};
      r.skip(10);
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kDelayResp: {
      DelayRespMessage m;
      m.header = h;
      m.receive_timestamp = r.timestamp();
      m.requesting_port = r.port_identity();
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kPdelayResp: {
      PdelayRespMessage m;
      m.header = h;
      m.request_receipt = r.timestamp();
      m.requesting_port = r.port_identity();
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kPdelayRespFollowUp: {
      PdelayRespFollowUpMessage m;
      m.header = h;
      m.response_origin = r.timestamp();
      m.requesting_port = r.port_identity();
      if (!r.ok()) return std::nullopt;
      return m;
    }
  }
  return std::nullopt;
}

} // namespace

const MessageHeader& header_of(const Message& msg) {
  return std::visit([](const auto& m) -> const MessageHeader& { return m.header; }, msg);
}

MessageHeader& header_of(Message& msg) {
  return std::visit([](auto& m) -> MessageHeader& { return m.header; }, msg);
}

std::vector<std::uint8_t> serialize(const Message& msg) {
  std::vector<std::uint8_t> out;
  serialize_into(msg, out);
  return out;
}

void serialize_into(const Message& msg, std::vector<std::uint8_t>& out) {
  std::visit(SerializerT<std::vector<std::uint8_t>>{out, out.size()}, msg);
}

void serialize_into(const Message& msg, net::Payload& out) {
  std::visit(SerializerT<net::Payload>{out, out.size()}, msg);
}

std::optional<Message> parse(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  MessageHeader h;
  if (!read_header(r, h)) return std::nullopt;
  return parse_body(r, h);
}

} // namespace tsn::gptp
