#include <gtest/gtest.h>

#include "gptp/messages.hpp"
#include "gptp/wire.hpp"

namespace tsn::gptp {
namespace {

MessageHeader sample_header(MessageType type) {
  MessageHeader h;
  h.type = type;
  h.domain = 3;
  h.two_step = (type == MessageType::kSync);
  h.correction_scaled = scaled_ns::from_ns(12345.5);
  h.source_port = {ClockIdentity::from_u64(0x0011223344556677ULL), 2};
  h.sequence_id = 0xBEEF;
  h.log_message_interval = -3;
  return h;
}

TEST(WireTest, U16U32U48U64RoundTrip) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u48(0x0000123456789ABCULL);
  w.u64(0xFEDCBA9876543210ULL);
  ByteReader r(buf);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u48(), 0x0000123456789ABCULL);
  EXPECT_EQ(r.u64(), 0xFEDCBA9876543210ULL);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, BigEndianOnTheWire) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u16(0x1234);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0x12);
  EXPECT_EQ(buf[1], 0x34);
}

TEST(WireTest, ReaderUnderflowSetsNotOk) {
  std::vector<std::uint8_t> buf{1, 2};
  ByteReader r(buf);
  r.u32();
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, TimestampRoundTrip) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  const Timestamp ts = Timestamp::from_ns(1'234'567'890'123LL);
  w.timestamp(ts);
  EXPECT_EQ(buf.size(), 10u);
  ByteReader r(buf);
  EXPECT_EQ(r.timestamp(), ts);
}

TEST(TypesTest, TimestampConversion) {
  const Timestamp ts = Timestamp::from_ns(5'000'000'123LL);
  EXPECT_EQ(ts.seconds, 5u);
  EXPECT_EQ(ts.nanoseconds, 123u);
  EXPECT_EQ(ts.to_ns(), 5'000'000'123LL);
  EXPECT_EQ(Timestamp::from_ns(-5).to_ns(), 0); // clamped at the epoch
}

TEST(TypesTest, ScaledNsRoundTrip) {
  EXPECT_DOUBLE_EQ(scaled_ns::to_ns(scaled_ns::from_ns(1000.25)), 1000.25);
  EXPECT_EQ(scaled_ns::from_ns(1.0), 65536);
  EXPECT_DOUBLE_EQ(scaled_ns::to_ns(-65536), -1.0);
}

TEST(TypesTest, RateOffsetRoundTrip) {
  // +5 ppm rate ratio survives the 2^-41 quantization to ~1e-12.
  const double ratio = 1.000005;
  EXPECT_NEAR(rate_offset::to_ratio(rate_offset::from_ratio(ratio)), ratio, 1e-11);
  EXPECT_EQ(rate_offset::from_ratio(1.0), 0);
}

TEST(TypesTest, ClockIdentityString) {
  const auto id = ClockIdentity::from_u64(0x0011223344556677ULL);
  EXPECT_EQ(id.to_string(), "001122.3344.556677");
  EXPECT_EQ(id.to_u64(), 0x0011223344556677ULL);
}

TEST(MessagesTest, SyncRoundTrip) {
  SyncMessage m{sample_header(MessageType::kSync)};
  const auto bytes = serialize(Message{m});
  EXPECT_EQ(bytes.size(), 44u); // 34 header + 10 reserved
  const auto parsed = parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  const auto* sync = std::get_if<SyncMessage>(&*parsed);
  ASSERT_NE(sync, nullptr);
  EXPECT_EQ(sync->header.domain, 3);
  EXPECT_TRUE(sync->header.two_step);
  EXPECT_EQ(sync->header.sequence_id, 0xBEEF);
  EXPECT_EQ(sync->header.correction_scaled, scaled_ns::from_ns(12345.5));
  EXPECT_EQ(sync->header.source_port.port, 2);
  EXPECT_EQ(sync->header.log_message_interval, -3);
}

TEST(MessagesTest, FollowUpRoundTripWithTlv) {
  FollowUpMessage m;
  m.header = sample_header(MessageType::kFollowUp);
  m.precise_origin = Timestamp::from_ns(987'654'321'000LL);
  m.cumulative_scaled_rate_offset = rate_offset::from_ratio(1.0000042);
  m.gm_time_base_indicator = 7;
  m.scaled_last_gm_freq_change = -42;
  const auto bytes = serialize(Message{m});
  EXPECT_EQ(bytes.size(), 76u); // 34 + 10 + 32 TLV
  const auto parsed = parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  const auto* fup = std::get_if<FollowUpMessage>(&*parsed);
  ASSERT_NE(fup, nullptr);
  EXPECT_EQ(fup->precise_origin.to_ns(), 987'654'321'000LL);
  EXPECT_EQ(fup->cumulative_scaled_rate_offset, m.cumulative_scaled_rate_offset);
  EXPECT_EQ(fup->gm_time_base_indicator, 7);
  EXPECT_EQ(fup->scaled_last_gm_freq_change, -42);
  EXPECT_NEAR(fup->rate_ratio(), 1.0000042, 1e-11);
}

TEST(MessagesTest, PdelayReqRoundTrip) {
  PdelayReqMessage m{sample_header(MessageType::kPdelayReq)};
  const auto bytes = serialize(Message{m});
  EXPECT_EQ(bytes.size(), 54u);
  const auto parsed = parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NE(std::get_if<PdelayReqMessage>(&*parsed), nullptr);
}

TEST(MessagesTest, PdelayRespRoundTrip) {
  PdelayRespMessage m;
  m.header = sample_header(MessageType::kPdelayResp);
  m.request_receipt = Timestamp::from_ns(123'456'789LL);
  m.requesting_port = {ClockIdentity::from_u64(0xAA), 9};
  const auto bytes = serialize(Message{m});
  const auto parsed = parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  const auto* resp = std::get_if<PdelayRespMessage>(&*parsed);
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->request_receipt.to_ns(), 123'456'789LL);
  EXPECT_EQ(resp->requesting_port.port, 9);
}

TEST(MessagesTest, PdelayRespFollowUpRoundTrip) {
  PdelayRespFollowUpMessage m;
  m.header = sample_header(MessageType::kPdelayRespFollowUp);
  m.response_origin = Timestamp::from_ns(42);
  m.requesting_port = {ClockIdentity::from_u64(0xBB), 1};
  const auto parsed = parse(serialize(Message{m}));
  ASSERT_TRUE(parsed.has_value());
  const auto* fup = std::get_if<PdelayRespFollowUpMessage>(&*parsed);
  ASSERT_NE(fup, nullptr);
  EXPECT_EQ(fup->response_origin.to_ns(), 42);
}

TEST(MessagesTest, MessageLengthFieldMatches) {
  SyncMessage m{sample_header(MessageType::kSync)};
  const auto bytes = serialize(Message{m});
  const std::uint16_t len = static_cast<std::uint16_t>((bytes[2] << 8) | bytes[3]);
  EXPECT_EQ(len, bytes.size());
}

TEST(MessagesTest, TruncatedInputRejected) {
  SyncMessage m{sample_header(MessageType::kSync)};
  auto bytes = serialize(Message{m});
  bytes.resize(bytes.size() - 5);
  EXPECT_FALSE(parse(bytes).has_value());
}

TEST(MessagesTest, EmptyAndGarbageRejected) {
  EXPECT_FALSE(parse(std::vector<std::uint8_t>{}).has_value());
  EXPECT_FALSE(parse(std::vector<std::uint8_t>(44, 0xFF)).has_value());
}

TEST(MessagesTest, WrongTransportSpecificRejected) {
  SyncMessage m{sample_header(MessageType::kSync)};
  auto bytes = serialize(Message{m});
  bytes[0] = (0x0 << 4) | 0x0; // transportSpecific = 0 (non-802.1AS)
  EXPECT_FALSE(parse(bytes).has_value());
}

TEST(MessagesTest, FollowUpWithMangledTlvRejected) {
  FollowUpMessage m;
  m.header = sample_header(MessageType::kFollowUp);
  auto bytes = serialize(Message{m});
  bytes[44] = 0xFF; // corrupt the TLV type
  EXPECT_FALSE(parse(bytes).has_value());
}

TEST(MessagesTest, HeaderOfAccessors) {
  Message m = SyncMessage{sample_header(MessageType::kSync)};
  EXPECT_EQ(header_of(m).sequence_id, 0xBEEF);
  header_of(m).sequence_id = 7;
  EXPECT_EQ(header_of(m).sequence_id, 7);
}

} // namespace
} // namespace tsn::gptp
