// Wire input a compromised or broken neighbour can send: correction fields
// whose sums overflow int64, timestamps whose nanosecond value does not fit
// in int64, and Announce PDUs (a messageType this stack does not speak).
// Each must be dropped and counted, never turned into an offset or a relay.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gptp/bridge.hpp"
#include "gptp/stack.hpp"
#include "gptp/wire.hpp"
#include "gptp_test_util.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/switch.hpp"
#include "sim/simulation.hpp"

namespace tsn::gptp {
namespace {

using namespace tsn::sim::literals;
using testutil::phc_with_drift;
using testutil::StackPair;
using testutil::symmetric_link;
using tsn::sim::SimTime;

const PortIdentity kRogue{ClockIdentity::from_u64(0xBAD), 1};

void inject(net::Nic& nic, const std::vector<std::uint8_t>& pdu) {
  net::EthernetFrame f;
  f.dst = net::MacAddress::gptp_multicast();
  f.ethertype = net::kEtherTypePtp;
  f.payload = net::Payload(pdu);
  nic.send(std::move(f));
}

/// A two-step Sync and its FollowUp from kRogue, with the given corrections.
void inject_sync_pair(net::Nic& nic, std::uint16_t seq, std::int64_t sync_corr,
                      std::int64_t fup_corr) {
  SyncMessage sync;
  sync.header.type = MessageType::kSync;
  sync.header.two_step = true;
  sync.header.source_port = kRogue;
  sync.header.sequence_id = seq;
  sync.header.correction_scaled = sync_corr;
  FollowUpMessage fup;
  fup.header = sync.header;
  fup.header.type = MessageType::kFollowUp;
  fup.header.two_step = false;
  fup.header.correction_scaled = fup_corr;
  fup.precise_origin = Timestamp::from_ns(1'000'000'000);
  inject(nic, serialize(Message{sync}));
  inject(nic, serialize(Message{fup}));
}

/// A hand-built IEEE 1588 Announce (messageType 0xB) claiming the best
/// possible grandmaster, optionally with a one-hop PATH_TRACE TLV.
std::vector<std::uint8_t> announce_pdu(bool with_path_trace) {
  const ClockIdentity gm = kRogue.clock;
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(0x1B); // transportSpecific 1 | messageType 0xB
  w.u8(2);    // versionPTP
  w.u16(0);   // messageLength, patched below
  w.u8(0);    // domainNumber
  w.u8(0);    // minorSdoId
  w.u16(0x0008);
  w.i64(0); // correctionField
  w.u32(0);
  w.port_identity(kRogue);
  w.u16(1); // sequenceId
  w.u8(5);  // controlField
  w.u8(0);  // logMessageInterval
  w.zeros(10); // originTimestamp
  w.u16(0);    // currentUtcOffset
  w.u8(0);
  w.u8(0); // grandmasterPriority1
  w.u8(6); // clockClass
  w.u8(0x20);
  w.u16(0x4E5D);
  w.u8(0); // grandmasterPriority2
  w.clock_identity(gm);
  w.u16(0);    // stepsRemoved
  w.u8(0x20);  // timeSource
  if (with_path_trace) {
    w.u16(0x0008); // PATH_TRACE
    w.u16(8);
    w.clock_identity(gm);
  }
  w.patch_u16(2, static_cast<std::uint16_t>(out.size()));
  return out;
}

/// Injector NIC -- bridge -- slave NIC, domain 0 relayed from port 0 to 1.
struct BridgeRig {
  sim::Simulation sim{5};
  net::Nic rogue_nic{sim, phc_with_drift(0.0), net::MacAddress::from_u64(0xA), "rogue"};
  net::Nic slave_nic{sim, phc_with_drift(0.0), net::MacAddress::from_u64(0xB), "slave"};
  net::Switch sw{sim, switch_config(), "sw"};
  net::Link l_rogue{sim, rogue_nic.port(), sw.port(0), symmetric_link(600), "rogue-sw"};
  net::Link l_slave{sim, slave_nic.port(), sw.port(1), symmetric_link(900), "sw-slave"};
  PtpStack rogue_stack{sim, rogue_nic, {}, "rogue"}; // answers the bridge's Pdelay
  PtpStack slave_stack{sim, slave_nic, {}, "slave"};
  TimeAwareBridge bridge{sim, sw, bridge_config(), "br"};

  static net::SwitchConfig switch_config() {
    net::SwitchConfig cfg;
    cfg.port_count = 2;
    cfg.residence_base_ns = 2'000;
    return cfg;
  }
  static BridgeConfig bridge_config() {
    BridgeDomainConfig d;
    d.slave_port = 0;
    d.master_ports = {1};
    BridgeConfig cfg;
    cfg.domains = {d};
    return cfg;
  }
  void start_and_settle() {
    rogue_stack.start();
    slave_stack.start();
    bridge.start();
    sim.run_until(SimTime(5_s));
    ASSERT_TRUE(bridge.port_link_delay(0).valid());
  }
};

TEST(HostileWireTest, CorrectionOverflowDropsSlaveSample) {
  StackPair p(0.0, 0.0, symmetric_link(500));
  InstanceConfig cfg;
  cfg.role = PortRole::kSlave;
  auto& slave = p.stack_b.add_instance(cfg);
  int delivered = 0;
  slave.set_offset_callback([&](const MasterOffsetSample&) { ++delivered; });
  p.stack_a.start(); // no instance: only answers Pdelay
  p.stack_b.start();
  p.sim.run_until(SimTime(5_s));
  ASSERT_TRUE(p.stack_b.link_delay().valid());

  inject_sync_pair(p.nic_a, 1, 1, 0); // control: a sane pair yields an offset
  p.sim.run_until(SimTime(6_s));
  ASSERT_EQ(delivered, 1);

  inject_sync_pair(p.nic_a, 2, 1, INT64_MAX);
  p.sim.run_until(SimTime(7_s));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(slave.counters().offsets_computed, 1u);
  EXPECT_EQ(slave.counters().malformed_messages, 1u);
}

TEST(HostileWireTest, CorrectionOverflowDropsBridgeRelay) {
  BridgeRig r;
  int delivered = 0;
  InstanceConfig cfg;
  cfg.role = PortRole::kSlave;
  r.slave_stack.add_instance(cfg).set_offset_callback(
      [&](const MasterOffsetSample&) { ++delivered; });
  r.start_and_settle();

  inject_sync_pair(r.rogue_nic, 1, 1, 0); // control: relayed end to end
  r.sim.run_until(SimTime(6_s));
  ASSERT_EQ(r.bridge.counters().syncs_relayed, 1u);
  ASSERT_EQ(r.bridge.counters().followups_relayed, 1u);
  ASSERT_EQ(delivered, 1);

  // Sync + FollowUp corrections overflow: nothing leaves the bridge.
  inject_sync_pair(r.rogue_nic, 2, 1, INT64_MAX);
  r.sim.run_until(SimTime(7_s));
  EXPECT_EQ(r.bridge.counters().syncs_relayed, 1u);
  EXPECT_EQ(r.bridge.counters().followups_relayed, 1u);
  EXPECT_EQ(r.bridge.counters().malformed, 1u);

  // The upstream sum fits, but adding the residence time overflows: the
  // Sync is already out, its FollowUp is dropped.
  inject_sync_pair(r.rogue_nic, 3, 0, INT64_MAX);
  r.sim.run_until(SimTime(8_s));
  EXPECT_EQ(r.bridge.counters().syncs_relayed, 2u);
  EXPECT_EQ(r.bridge.counters().followups_relayed, 1u);
  EXPECT_EQ(r.bridge.counters().malformed, 2u);
  EXPECT_EQ(delivered, 1);
}

TEST(HostileWireTest, ParseRejectsTimestampsBeyondInt64Nanoseconds) {
  const Timestamp huge{(std::uint64_t{1} << 48) - 1, 0};
  const Timestamp edge{Timestamp::kMaxSeconds, UINT32_MAX};
  const Timestamp past_edge{Timestamp::kMaxSeconds + 1, 0};
  const auto with_ts = [](MessageType type, const Timestamp& ts) -> Message {
    MessageHeader h;
    h.type = type;
    switch (type) {
      case MessageType::kFollowUp: {
        FollowUpMessage m;
        m.header = h;
        m.precise_origin = ts;
        return m;
      }
      case MessageType::kPdelayResp: {
        PdelayRespMessage m;
        m.header = h;
        m.request_receipt = ts;
        return m;
      }
      case MessageType::kPdelayRespFollowUp: {
        PdelayRespFollowUpMessage m;
        m.header = h;
        m.response_origin = ts;
        return m;
      }
      default: {
        DelayRespMessage m;
        m.header = h;
        m.receive_timestamp = ts;
        return m;
      }
    }
  };
  for (const auto type : {MessageType::kFollowUp, MessageType::kPdelayResp,
                          MessageType::kPdelayRespFollowUp, MessageType::kDelayResp}) {
    SCOPED_TRACE(static_cast<int>(type));
    EXPECT_FALSE(parse(serialize(with_ts(type, huge))).has_value());
    EXPECT_FALSE(parse(serialize(with_ts(type, past_edge))).has_value());
    EXPECT_TRUE(parse(serialize(with_ts(type, edge))).has_value());
  }
  EXPECT_EQ(edge.to_ns(), static_cast<std::int64_t>(Timestamp::kMaxSeconds) * 1'000'000'000 +
                              std::int64_t{UINT32_MAX});
}

TEST(HostileWireTest, AnnounceIsMalformed) {
  EXPECT_FALSE(parse(announce_pdu(false)).has_value());
  EXPECT_FALSE(parse(announce_pdu(true)).has_value());

  StackPair p(0.0, 0.0, symmetric_link(500));
  p.stack_a.start();
  p.stack_b.start();
  inject(p.nic_a, announce_pdu(true));
  p.sim.run_until(SimTime(1_s));
  EXPECT_EQ(p.stack_b.malformed_frames(), 1u);

  BridgeRig r;
  r.start_and_settle();
  inject(r.rogue_nic, announce_pdu(true));
  r.sim.run_until(SimTime(6_s));
  EXPECT_EQ(r.bridge.counters().malformed, 1u);
  EXPECT_EQ(r.bridge.counters().syncs_relayed, 0u);
  EXPECT_EQ(r.bridge.counters().followups_relayed, 0u);
  EXPECT_EQ(r.slave_stack.malformed_frames(), 0u);
}

} // namespace
} // namespace tsn::gptp
