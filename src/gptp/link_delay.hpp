// Peer-to-peer delay mechanism (802.1AS MDPdelayReq/Resp state machines).
//
// One service instance runs per physical port and is shared by all gPTP
// domains on that port, mirroring 802.1AS-2020's CMLDS. It measures:
//   * meanLinkDelay: one-way propagation delay in the local timebase
//   * neighborRateRatio: d(neighbor clock)/d(local clock)
//
// Transmission is allocation-free in steady state: the three Pdelay PDUs
// are pre-serialized once as MessageTemplates and only the per-exchange
// fields (sequenceId, timestamps, requesting port) are patched before the
// image is copied into a pooled frame.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gptp/messages.hpp"
#include "gptp/msg_template.hpp"
#include "net/frame_pool.hpp"
#include "sim/persist.hpp"
#include "sim/simulation.hpp"
#include "util/inline_fn.hpp"

namespace tsn::gptp {

struct LinkDelayConfig {
  std::int64_t pdelay_interval_ns = 1'000'000'000;
  /// Number of (t3, t4) samples spanned by the rate-ratio estimate.
  std::size_t nrr_window = 8;
  /// EWMA weight for new meanLinkDelay samples.
  double delay_smoothing = 0.25;
  /// Exchanges missed before the measurement is declared invalid.
  int lost_responses_allowed = 3;
};

class LinkDelayService {
 public:
  /// Egress-timestamp delivery: invoked once the frame left the port with
  /// the HW tx timestamp, or nullopt on failure. Rides the event queue, so
  /// it uses inline no-allocation storage (move-only, small captures).
  using TxTsFn = util::InlineFunction<void(std::optional<std::int64_t>), 32>;
  /// `send` transmits a pooled gPTP frame out of the port. The callback may
  /// be empty when the sender does not need the egress timestamp.
  using SendFn = std::function<void(net::FrameRef, TxTsFn)>;

  LinkDelayService(sim::Simulation& sim, PortIdentity identity, SendFn send,
                   const LinkDelayConfig& cfg, const std::string& name);

  /// Start periodic PdelayReq transmission (initiator role). The responder
  /// role is always active.
  void start();
  void stop();

  /// Feed any received Pdelay* message with its HW rx timestamp.
  void on_message(const Message& msg, std::int64_t rx_ts);

  /// Pdelay-turnaround manipulation (attack library, responder side):
  /// tamper the t3 this responder reports in PdelayRespFollowUp by a
  /// constant `bias_ns` plus `skew_ppm` of the time elapsed since the
  /// attack started. The peer *initiator* then under-measures its
  /// meanLinkDelay by ~bias/2 and mis-estimates neighbor_rate_ratio_ by
  /// ~skew_ppm (the reported remote clock appears to run fast/slow).
  void set_turnaround_attack(double bias_ns, double skew_ppm);
  void clear_turnaround_attack();

  // -- Snapshot / fast-forward support (driven by the owning stack/bridge,
  //    which is the Persistent; see sim/persist.hpp) ------------------------
  template <class Ar> void persist(Ar& ar);
  std::size_t live_events() const { return periodic_.active() ? 1 : 0; }
  void ff_park();
  void ff_advance(const sim::FfWindow& w);
  void ff_resume();

  bool valid() const { return valid_; }
  double mean_link_delay_ns() const { return mean_link_delay_ns_; }
  /// Most recent raw (unsmoothed) delay sample.
  double raw_link_delay_ns() const { return raw_link_delay_ns_; }
  double neighbor_rate_ratio() const { return neighbor_rate_ratio_; }
  std::uint64_t completed_exchanges() const { return completed_; }
  const PortIdentity& identity() const { return identity_; }

 private:
  void send_request();
  void complete_exchange();
  std::int64_t tampered_t3(std::int64_t t3);

  sim::Simulation& sim_;
  PortIdentity identity_;
  SendFn send_;
  LinkDelayConfig cfg_;
  std::string name_;
  sim::Simulation::PeriodicHandle periodic_;

  // Pre-built PDU images; per transmission only seq/timestamps/requesting
  // port are patched.
  MessageTemplate req_tpl_;
  MessageTemplate resp_tpl_;
  MessageTemplate resp_fup_tpl_;

  // Initiator state for the in-flight exchange.
  std::uint16_t seq_ = 0;
  std::optional<std::int64_t> t1_; // our PdelayReq egress
  std::optional<std::int64_t> t2_; // neighbor's receipt (remote timebase)
  std::optional<std::int64_t> t3_; // neighbor's response egress (remote)
  std::optional<std::int64_t> t4_; // our PdelayResp ingress
  bool exchange_open_ = false;
  int consecutive_misses_ = 0;

  // Rate ratio estimation history: (t3, t4) of the last nrr_window completed
  // exchanges in a fixed ring (preallocated; no steady-state churn).
  std::vector<std::pair<std::int64_t, std::int64_t>> nrr_ring_;
  std::size_t nrr_head_ = 0;  // index of the oldest retained sample
  std::size_t nrr_count_ = 0;

  // Responder-side t3 tamper (inert unless src/attack arms it). The skew
  // epoch is the first tampered t3 after activation, so the linear term
  // grows from zero in the responder's own timebase.
  bool atk_turnaround_ = false;
  double atk_t3_bias_ns_ = 0.0;
  double atk_t3_skew_ppm_ = 0.0;
  std::optional<std::int64_t> atk_t3_epoch_ns_;

  bool valid_ = false;
  double mean_link_delay_ns_ = 0.0;
  double raw_link_delay_ns_ = 0.0;
  double neighbor_rate_ratio_ = 1.0;
  std::uint64_t completed_ = 0;

  sim::ParkedTimer parked_;
};

} // namespace tsn::gptp
