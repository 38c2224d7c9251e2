// Robustness of the wire-format parser: arbitrary and mutated inputs must
// never crash, and every accepted message must re-serialize consistently.
#include <gtest/gtest.h>

#include "gptp/messages.hpp"
#include "util/rng.hpp"

namespace tsn::gptp {
namespace {

Message sample_message(MessageType type, util::RngStream& rng) {
  MessageHeader h;
  h.type = type;
  h.domain = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  h.two_step = rng.chance(0.5);
  h.correction_scaled = rng.uniform_int(-1'000'000'000, 1'000'000'000);
  h.source_port = {ClockIdentity::from_u64(static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30))),
                   static_cast<std::uint16_t>(rng.uniform_int(0, 65535))};
  h.sequence_id = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  h.log_message_interval = static_cast<std::int8_t>(rng.uniform_int(-8, 8));
  switch (type) {
    case MessageType::kSync: return SyncMessage{h};
    case MessageType::kDelayReq: return DelayReqMessage{h};
    case MessageType::kPdelayReq: return PdelayReqMessage{h};
    case MessageType::kFollowUp: {
      FollowUpMessage m;
      m.header = h;
      m.precise_origin = Timestamp::from_ns(rng.uniform_int(0, INT64_MAX / 4));
      m.cumulative_scaled_rate_offset = static_cast<std::int32_t>(rng.uniform_int(-1e9, 1e9));
      m.gm_time_base_indicator = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
      m.scaled_last_gm_freq_change = static_cast<std::int32_t>(rng.uniform_int(-1e9, 1e9));
      return m;
    }
    case MessageType::kDelayResp: {
      DelayRespMessage m;
      m.header = h;
      m.receive_timestamp = Timestamp::from_ns(rng.uniform_int(0, INT64_MAX / 4));
      m.requesting_port = h.source_port;
      return m;
    }
    case MessageType::kPdelayResp: {
      PdelayRespMessage m;
      m.header = h;
      m.request_receipt = Timestamp::from_ns(rng.uniform_int(0, INT64_MAX / 4));
      m.requesting_port = h.source_port;
      return m;
    }
    case MessageType::kPdelayRespFollowUp: {
      PdelayRespFollowUpMessage m;
      m.header = h;
      m.response_origin = Timestamp::from_ns(rng.uniform_int(0, INT64_MAX / 4));
      m.requesting_port = h.source_port;
      return m;
    }
  }
  return SyncMessage{h};
}

const MessageType kAllTypes[] = {
    MessageType::kSync,       MessageType::kDelayReq,  MessageType::kPdelayReq,
    MessageType::kPdelayResp, MessageType::kFollowUp,  MessageType::kDelayResp,
    MessageType::kPdelayRespFollowUp,
};

TEST(FuzzParseTest, RandomBytesNeverCrash) {
  util::RngStream rng(4242, "fuzz-random");
  int accepted = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 120));
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (parse(bytes)) ++accepted;
  }
  // Random bytes essentially never form a valid 802.1AS message (the
  // transportSpecific/version/TLV checks reject them).
  EXPECT_LT(accepted, 60); // ~1/512 pass the header nibble gates
}

TEST(FuzzParseTest, DoubleRoundTripIsStable) {
  util::RngStream rng(7, "fuzz-rt");
  for (int trial = 0; trial < 2'000; ++trial) {
    const auto type = kAllTypes[rng.uniform_int(0, std::size(kAllTypes) - 1)];
    const Message original = sample_message(type, rng);
    const auto bytes1 = serialize(original);
    const auto parsed = parse(bytes1);
    ASSERT_TRUE(parsed.has_value()) << "type " << static_cast<int>(type);
    const auto bytes2 = serialize(*parsed);
    EXPECT_EQ(bytes1, bytes2) << "type " << static_cast<int>(type);
  }
}

TEST(FuzzParseTest, TruncationsNeverCrashOrMisparse) {
  util::RngStream rng(11, "fuzz-trunc");
  for (int trial = 0; trial < 500; ++trial) {
    const auto type = kAllTypes[rng.uniform_int(0, std::size(kAllTypes) - 1)];
    auto bytes = serialize(sample_message(type, rng));
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
      const auto parsed = parse(cut);
      if (parsed) {
        // A shorter prefix that still parses must be a self-contained
        // message of the same type (no message has an optional tail).
        EXPECT_EQ(header_of(*parsed).type, type);
      }
    }
  }
}

TEST(FuzzParseTest, SingleByteMutationsNeverCrash) {
  util::RngStream rng(13, "fuzz-mut");
  for (int trial = 0; trial < 2'000; ++trial) {
    const auto type = kAllTypes[rng.uniform_int(0, std::size(kAllTypes) - 1)];
    auto bytes = serialize(sample_message(type, rng));
    const std::size_t pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    (void)parse(bytes); // must not crash; accept/reject both fine
  }
}

} // namespace
} // namespace tsn::gptp
