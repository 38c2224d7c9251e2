// Shared fixtures for gPTP protocol tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gptp/stack.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "sim/persist.hpp"
#include "sim/simulation.hpp"

namespace tsn::gptp::testutil {

inline time::PhcModel phc_with_drift(double ppm, double ts_jitter_ns = 0.0,
                                     double wander_ppm = 0.0) {
  time::PhcModel m;
  m.oscillator.initial_drift_ppm = ppm;
  m.oscillator.wander_sigma_ppm = wander_ppm;
  m.timestamp_jitter_ns = ts_jitter_ns;
  return m;
}

inline net::LinkConfig symmetric_link(std::int64_t delay_ns, double jitter_ns = 0.0) {
  net::LinkConfig cfg;
  cfg.a_to_b = {delay_ns, jitter_ns};
  cfg.b_to_a = {delay_ns, jitter_ns};
  return cfg;
}

/// Two directly connected NICs, each with a PtpStack.
struct StackPair {
  sim::Simulation sim;
  net::Nic nic_a;
  net::Nic nic_b;
  net::Link link;
  PtpStack stack_a;
  PtpStack stack_b;

  StackPair(double drift_a_ppm, double drift_b_ppm, net::LinkConfig link_cfg,
            double ts_jitter_ns = 0.0, std::uint64_t seed = 1,
            LinkDelayConfig ld_cfg = {})
      : sim(seed),
        nic_a(sim, phc_with_drift(drift_a_ppm, ts_jitter_ns), net::MacAddress::from_u64(0xA),
              "nicA"),
        nic_b(sim, phc_with_drift(drift_b_ppm, ts_jitter_ns), net::MacAddress::from_u64(0xB),
              "nicB"),
        link(sim, nic_a.port(), nic_b.port(), link_cfg, "ab"),
        stack_a(sim, nic_a, ld_cfg, "A"),
        stack_b(sim, nic_b, ld_cfg, "B") {}
};

/// Save `obj`, load the image back into it (with the event queue cleared
/// first, as a snapshot restore does) and save again: the two archives
/// must be byte-identical.
template <class T>
void expect_save_load_save_identical(sim::Simulation& sim, T& obj) {
  sim::StateWriter first;
  obj.persist(first);
  sim.queue().clear();
  sim::StateReader r(first.data());
  obj.persist(r);
  EXPECT_TRUE(r.at_end());
  sim::StateWriter second;
  obj.persist(second);
  EXPECT_EQ(second.data(), first.data());
  EXPECT_EQ(second.hash(), first.hash());
}

} // namespace tsn::gptp::testutil
