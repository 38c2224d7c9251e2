#include "gptp/instance.hpp"

#include <cmath>

#include "util/log.hpp"

namespace tsn::gptp {
namespace {

Message make_sync_proto(const InstanceConfig& cfg, const PortIdentity& identity) {
  SyncMessage sync;
  sync.header.type = MessageType::kSync;
  sync.header.domain = cfg.domain;
  sync.header.two_step = true;
  sync.header.source_port = identity;
  sync.header.log_message_interval = -3; // 125 ms
  return sync;
}

Message make_fup_proto(const InstanceConfig& cfg, const PortIdentity& identity) {
  FollowUpMessage fup;
  fup.header.type = MessageType::kFollowUp;
  fup.header.domain = cfg.domain;
  fup.header.source_port = identity;
  fup.header.log_message_interval = -3;
  fup.cumulative_scaled_rate_offset = 0; // we are the GM timebase
  return fup;
}

Message make_delay_req_proto(const InstanceConfig& cfg, const PortIdentity& identity) {
  DelayReqMessage req;
  req.header.type = MessageType::kDelayReq;
  req.header.domain = cfg.domain;
  req.header.source_port = identity;
  return req;
}

Message make_delay_resp_proto(const InstanceConfig& cfg, const PortIdentity& identity) {
  DelayRespMessage resp;
  resp.header.type = MessageType::kDelayResp;
  resp.header.domain = cfg.domain;
  resp.header.source_port = identity;
  return resp;
}

} // namespace

PtpInstance::PtpInstance(sim::Simulation& sim, net::Nic& nic, LinkDelayService& link_delay,
                         const InstanceConfig& cfg, const std::string& name)
    : sim_(sim),
      nic_(nic),
      link_delay_(link_delay),
      cfg_(cfg),
      name_(name),
      identity_{ClockIdentity::from_u64(nic.mac().to_u64()), 1},
      role_(cfg.role),
      fault_rng_(sim.make_rng("ptp-fault/" + name)),
      sync_tpl_(make_sync_proto(cfg, identity_)),
      fup_tpl_(make_fup_proto(cfg, identity_)),
      delay_req_tpl_(make_delay_req_proto(cfg, identity_)),
      delay_resp_tpl_(make_delay_resp_proto(cfg, identity_)) {
  if (cfg_.use_bmca) {
    BmcaEngine::Config bc;
    bc.local.priority1 = cfg_.priority1;
    bc.local.priority2 = cfg_.priority2;
    bc.local.quality = cfg_.quality;
    bc.local.identity = identity_.clock;
    bc.announce_timeout_ns = 3 * cfg_.announce_interval_ns;
    bmca_ = BmcaEngine(bc);
    role_ = PortRole::kMaster; // assume master until a better clock is heard
  }
}

void PtpInstance::fault(const std::string& kind) {
  if (fault_cb_) fault_cb_(kind);
}

void PtpInstance::send_message(const Message& msg, std::optional<std::int64_t> launch_time,
                               net::TxCallback on_complete) {
  net::FrameRef frame = net::FramePool::local().acquire();
  net::EthernetFrame& eth = frame.writable();
  eth.dst = net::MacAddress::gptp_multicast();
  eth.ethertype = net::kEtherTypePtp;
  serialize_into(msg, eth.payload);
  net::TxOptions opts;
  opts.launch_time = launch_time;
  opts.on_complete = std::move(on_complete);
  opts.owner = this;
  nic_.send(std::move(frame), std::move(opts));
}

void PtpInstance::send_template(const MessageTemplate& tpl, std::optional<std::int64_t> launch_time,
                                net::TxCallback on_complete) {
  net::TxOptions opts;
  opts.launch_time = launch_time;
  opts.on_complete = std::move(on_complete);
  opts.owner = this;
  nic_.send(make_ptp_frame(tpl), std::move(opts));
}

void PtpInstance::start() {
  if (running_) return;
  running_ = true;
  const std::int64_t now = sim_.now().ns();
  if (role_ == PortRole::kSlave || cfg_.use_bmca) {
    park_sync_check_.park_at(now + cfg_.sync_interval_ns);
    if (cfg_.delay_mechanism == DelayMechanism::kE2E) {
      park_delay_req_.park_at(now + cfg_.delay_req_interval_ns);
    }
  }
  if (cfg_.use_bmca) {
    park_announce_.park_at(now);
    park_bmca_.park_at(now + cfg_.announce_interval_ns);
  }
  resume_timers([this] { schedule_next_sync_tx(); }); // a BMCA port starts as master
}

void PtpInstance::resume_timers(const std::function<void()>& sync_hop) {
  if (!cfg_.use_bmca) sync_hop();
  park_sync_check_.resume(sim_, sync_check_, cfg_.sync_interval_ns,
                          [this](sim::SimTime t) { check_sync_receipt(t); });
  park_delay_req_.resume(sim_, delay_req_timer_, cfg_.delay_req_interval_ns,
                         [this](sim::SimTime) { send_delay_req(); });
  park_announce_.resume(sim_, announce_tx_, cfg_.announce_interval_ns,
                        [this](sim::SimTime) { send_announce(); });
  park_bmca_.resume(sim_, bmca_eval_, cfg_.announce_interval_ns,
                    [this](sim::SimTime) { evaluate_bmca(); });
  if (cfg_.use_bmca) sync_hop();
}

void PtpInstance::stop() {
  running_ = false;
  ++epoch_;
  sync_check_.cancel();
  delay_req_timer_.cancel();
  announce_tx_.cancel();
  bmca_eval_.cancel();
  pending_sync_.reset();
  gm_receiving_ = false;
  last_sync_rx_sim_ns_ = -1;
  // Nothing that captures `this` may outlive the stop: cancel the pending
  // one-shots and empty this instance's callbacks in the port's ETF queue
  // (the launches themselves stay, so PHC reads are unchanged).
  for (auto& h : one_shots_) h.cancel();
  one_shots_.clear();
  nic_.port().drop_callbacks(this);
}

void PtpInstance::track(sim::EventHandle h) {
  std::erase_if(one_shots_, [](const sim::EventHandle& e) { return !e.pending(); });
  one_shots_.push_back(h);
}

void PtpInstance::schedule_at_phc(std::int64_t target_phc, std::function<void()> fn) {
  const std::int64_t now_phc = nic_.phc().read();
  const std::int64_t remaining = target_phc - now_phc;
  if (remaining <= 0) {
    fn();
    return;
  }
  const double rate = nic_.phc().effective_rate();
  const auto dt = static_cast<std::int64_t>(std::llround(static_cast<double>(remaining) / rate));
  const std::uint64_t epoch = epoch_;
  const std::int64_t delay = std::max<std::int64_t>(dt, 1);
  hop_due_ns_ = sim_.now().ns() + delay;
  track(sim_.after(delay, [this, target_phc, fn = std::move(fn), epoch]() mutable {
    if (epoch != epoch_ || !running_) return;
    schedule_at_phc(target_phc, std::move(fn));
  }));
}

void PtpInstance::schedule_next_sync_tx() {
  if (!running_ || role_ != PortRole::kMaster) return;
  const std::int64_t S = cfg_.sync_interval_ns;
  const std::int64_t now_phc = nic_.phc().read();
  if (cfg_.align_launch) {
    // Next boundary with strictly more than launch_guard of preparation
    // room (strict: with the guard landing exactly on now, a synchronous
    // send-failure callback would otherwise re-enter this function at the
    // same instant forever).
    std::int64_t boundary = (now_phc / S + 1) * S;
    if (boundary - now_phc <= cfg_.launch_guard_ns) boundary += S;
    next_boundary_phc_ = boundary;
    schedule_at_phc(boundary - cfg_.launch_guard_ns,
                    [this, boundary] { prepare_sync_tx(boundary); });
  } else {
    next_boundary_phc_ = now_phc + S;
    schedule_at_phc(next_boundary_phc_, [this] { prepare_sync_tx(0); });
  }
}

void PtpInstance::prepare_sync_tx(std::int64_t launch_phc) {
  if (!running_ || role_ != PortRole::kMaster) return;
  if (cfg_.align_launch && fault_model_.p_late_launch > 0 &&
      fault_rng_.chance(fault_model_.p_late_launch)) {
    // Software stack hiccup: the Sync is enqueued after its launch time
    // already passed; the ETF qdisc rejects it (deadline miss).
    const std::uint64_t epoch = epoch_;
    const std::int64_t until_launch = std::max<std::int64_t>(launch_phc - nic_.phc().read(), 0);
    track(sim_.after(fault_model_.late_launch_delay_ns + until_launch,
                     [this, launch_phc, epoch] {
                       if (epoch != epoch_ || !running_) return;
                       transmit_sync(launch_phc);
                     }));
    return;
  }
  transmit_sync(launch_phc);
}

void PtpInstance::transmit_sync(std::int64_t launch_phc) {
  if (!running_ || role_ != PortRole::kMaster) return;
  sync_tpl_.set_sequence_id(++sync_seq_);

  const std::uint64_t epoch = epoch_;
  const std::uint16_t seq = sync_seq_;
  send_template(
      sync_tpl_, cfg_.align_launch ? std::optional<std::int64_t>(launch_phc) : std::nullopt,
      [this, seq, epoch](const net::TxReport& report) {
        if (epoch != epoch_ || !running_) return;
        switch (report.status) {
          case net::TxReport::Status::kSent:
            ++counters_.syncs_sent;
            break;
          case net::TxReport::Status::kDeadlineMissed:
          case net::TxReport::Status::kInvalidLaunch:
            ++counters_.deadline_misses;
            fault("deadline_miss");
            schedule_next_sync_tx();
            return;
          case net::TxReport::Status::kPortDown:
            schedule_next_sync_tx();
            return;
        }
        if (fault_model_.p_tx_timestamp_timeout > 0 &&
            fault_rng_.chance(fault_model_.p_tx_timestamp_timeout)) {
          // The kernel never delivered the egress timestamp: ptp4l times
          // out and cannot send the FollowUp; slaves drop this Sync.
          ++counters_.tx_timestamp_timeouts;
          fault("tx_timeout");
          schedule_next_sync_tx();
          return;
        }
        if (!report.hw_tx_ts) {
          schedule_next_sync_tx();
          return;
        }
        const Timestamp precise_origin =
            Timestamp::from_ns(*report.hw_tx_ts + malicious_pot_offset_ns_);
        fup_tpl_.set_sequence_id(seq);
        fup_tpl_.set_body_timestamp(precise_origin);
        send_template(fup_tpl_, std::nullopt, {});
        ++counters_.followups_sent;

        // The grandmaster's own clock participates in multi-domain
        // aggregation with a zero offset to itself.
        if (offset_cb_) {
          MasterOffsetSample self;
          self.domain = cfg_.domain;
          self.offset_ns = 0.0;
          self.local_rx_ts = *report.hw_tx_ts;
          self.precise_origin = precise_origin;
          self.rate_ratio = 1.0;
          self.sequence_id = seq;
          offset_cb_(self);
        }
        schedule_next_sync_tx();
      });
}

void PtpInstance::handle_message(const Message& msg, std::int64_t rx_ts) {
  if (!running_) return;
  if (header_of(msg).domain != cfg_.domain) return;
  if (const auto* sync = std::get_if<SyncMessage>(&msg)) {
    on_sync(*sync, rx_ts);
  } else if (const auto* fup = std::get_if<FollowUpMessage>(&msg)) {
    on_follow_up(*fup);
  } else if (const auto* ann = std::get_if<AnnounceMessage>(&msg)) {
    on_announce_msg(*ann);
  } else if (const auto* dreq = std::get_if<DelayReqMessage>(&msg)) {
    on_delay_req(*dreq, rx_ts);
  } else if (const auto* dresp = std::get_if<DelayRespMessage>(&msg)) {
    on_delay_resp(*dresp);
  }
}

void PtpInstance::send_delay_req() {
  if (!running_ || role_ != PortRole::kSlave) return;
  delay_req_tpl_.set_sequence_id(++delay_req_seq_);
  e2e_t3_.reset();
  const std::uint64_t epoch = epoch_;
  send_template(delay_req_tpl_, std::nullopt,
                [this, epoch, seq = delay_req_seq_](const net::TxReport& r) {
                  if (epoch != epoch_ || !running_) return;
                  if (r.status == net::TxReport::Status::kSent && r.hw_tx_ts &&
                      seq == delay_req_seq_) {
                    e2e_t3_ = *r.hw_tx_ts;
                  }
                });
}

void PtpInstance::on_delay_req(const DelayReqMessage& msg, std::int64_t rx_ts) {
  if (role_ != PortRole::kMaster || cfg_.delay_mechanism != DelayMechanism::kE2E) return;
  delay_resp_tpl_.set_sequence_id(msg.header.sequence_id);
  delay_resp_tpl_.set_body_timestamp(Timestamp::from_ns(rx_ts));
  delay_resp_tpl_.set_requesting_port(msg.header.source_port);
  ++counters_.delay_reqs_answered;
  send_template(delay_resp_tpl_, std::nullopt, {});
}

void PtpInstance::on_delay_resp(const DelayRespMessage& msg) {
  if (role_ != PortRole::kSlave || !e2e_t3_ || msg.requesting_port != identity_ ||
      msg.header.sequence_id != delay_req_seq_ || !e2e_last_sync_) {
    return;
  }
  ++counters_.delay_resps_received;
  // IEEE 1588 E2E: d = ((t2 - t1) + (t4 - t3)) / 2.
  const auto [t1, t2] = *e2e_last_sync_;
  const double t3 = static_cast<double>(*e2e_t3_);
  const double t4 = static_cast<double>(msg.receive_timestamp.to_ns());
  const double d = ((static_cast<double>(t2) - t1) + (t4 - t3)) / 2.0;
  if (std::isnan(e2e_delay_ns_)) {
    e2e_delay_ns_ = d;
  } else {
    e2e_delay_ns_ += 0.25 * (d - e2e_delay_ns_); // linuxptp-ish smoothing
  }
  e2e_t3_.reset();
}

void PtpInstance::on_sync(const SyncMessage& msg, std::int64_t rx_ts) {
  if (role_ != PortRole::kSlave) return;
  ++counters_.syncs_received;
  pending_sync_ = PendingSync{msg.header.sequence_id, rx_ts, msg.header.correction_scaled,
                              msg.header.source_port};
}

void PtpInstance::on_follow_up(const FollowUpMessage& msg) {
  if (role_ != PortRole::kSlave || !pending_sync_) return;
  if (msg.header.sequence_id != pending_sync_->seq ||
      msg.header.source_port != pending_sync_->source) {
    return;
  }
  const PendingSync sync = *pending_sync_;
  pending_sync_.reset();

  const double correction_ns =
      scaled_ns::to_ns(sync.correction_scaled + msg.header.correction_scaled);

  if (cfg_.delay_mechanism == DelayMechanism::kE2E) {
    const double t1 = static_cast<double>(msg.precise_origin.to_ns()) + correction_ns;
    e2e_last_sync_ = {t1, sync.rx_ts};
    if (std::isnan(e2e_delay_ns_)) return; // no delay estimate yet
    MasterOffsetSample sample;
    sample.domain = cfg_.domain;
    sample.offset_ns = static_cast<double>(sync.rx_ts) - t1 - e2e_delay_ns_;
    sample.local_rx_ts = sync.rx_ts;
    sample.precise_origin = msg.precise_origin;
    sample.rate_ratio = msg.rate_ratio();
    sample.sequence_id = sync.seq;
    ++counters_.offsets_computed;
    last_sync_rx_sim_ns_ = sim_.now().ns();
    gm_receiving_ = true;
    deliver_offset(sample);
    return;
  }

  if (!link_delay_.valid()) return; // no usable path delay yet
  // Cumulative GM-to-local rate ratio: sender's GM ratio times the
  // neighbor rate ratio measured on our ingress link.
  const double rate_ratio = msg.rate_ratio() * link_delay_.neighbor_rate_ratio();
  const double delay_gm_ns = link_delay_.mean_link_delay_ns() * rate_ratio;

  MasterOffsetSample sample;
  sample.domain = cfg_.domain;
  sample.offset_ns = static_cast<double>(sync.rx_ts) -
                     (static_cast<double>(msg.precise_origin.to_ns()) + correction_ns +
                      delay_gm_ns);
  sample.local_rx_ts = sync.rx_ts;
  sample.precise_origin = msg.precise_origin;
  sample.rate_ratio = rate_ratio;
  sample.sequence_id = sync.seq;
  ++counters_.offsets_computed;

  last_sync_rx_sim_ns_ = sim_.now().ns();
  gm_receiving_ = true;

  deliver_offset(sample);
}

void PtpInstance::deliver_offset(const MasterOffsetSample& sample) {
  if (offset_cb_) {
    offset_cb_(sample);
    return;
  }
  if (local_servo_) {
    const auto res = local_servo_->sample(static_cast<std::int64_t>(sample.offset_ns),
                                          sample.local_rx_ts);
    switch (res.state) {
      case PiServo::State::kUnlocked:
        break;
      case PiServo::State::kJump:
        nic_.phc().step(-static_cast<std::int64_t>(sample.offset_ns));
        nic_.phc().adj_frequency(res.freq_ppb);
        break;
      case PiServo::State::kLocked:
        nic_.phc().adj_frequency(res.freq_ppb);
        break;
    }
  }
}

void PtpInstance::enable_local_servo(const PiServoConfig& cfg) { local_servo_ = PiServo(cfg); }

void PtpInstance::check_sync_receipt(sim::SimTime now) {
  if (role_ != PortRole::kSlave) return;
  const std::int64_t timeout =
      cfg_.sync_receipt_timeout_intervals * cfg_.sync_interval_ns;
  if (last_sync_rx_sim_ns_ < 0) return; // never synchronized yet
  if (gm_receiving_ && now.ns() - last_sync_rx_sim_ns_ > timeout) {
    gm_receiving_ = false;
    ++counters_.sync_receipt_timeouts;
    fault("sync_receipt_timeout");
    if (local_servo_) local_servo_->reset();
  }
}

void PtpInstance::send_announce() {
  if (!running_ || role_ != PortRole::kMaster || !bmca_) return;
  AnnounceMessage ann;
  ann.header.type = MessageType::kAnnounce;
  ann.header.domain = cfg_.domain;
  ann.header.source_port = identity_;
  ann.header.sequence_id = ++announce_seq_;
  ann.grandmaster_priority1 = cfg_.priority1;
  ann.grandmaster_priority2 = cfg_.priority2;
  ann.grandmaster_quality = cfg_.quality;
  ann.grandmaster_identity = identity_.clock;
  ann.steps_removed = 0;
  ann.path_trace = {identity_.clock};
  send_message(ann, std::nullopt, {});
}

void PtpInstance::on_announce_msg(const AnnounceMessage& msg) {
  if (!bmca_) return;
  bmca_->on_announce(msg, sim_.now().ns());
}

void PtpInstance::arm_sync_hop_at(std::int64_t due_ns) {
  const std::uint64_t epoch = epoch_;
  hop_due_ns_ = due_ns;
  if (cfg_.align_launch) {
    const std::int64_t boundary = next_boundary_phc_;
    track(sim_.at(sim::SimTime{due_ns}, [this, boundary, epoch] {
      if (epoch != epoch_ || !running_) return;
      schedule_at_phc(boundary - cfg_.launch_guard_ns,
                      [this, boundary] { prepare_sync_tx(boundary); });
    }));
  } else {
    track(sim_.at(sim::SimTime{due_ns}, [this, epoch] {
      if (epoch != epoch_ || !running_) return;
      schedule_at_phc(next_boundary_phc_, [this] { prepare_sync_tx(0); });
    }));
  }
}

template <class Ar>
void PtpInstance::persist(Ar& ar) {
  if constexpr (Ar::kLoading) ++epoch_; // invalidate anything captured before the restore
  ar.b(running_);
  ar.u8(role_);
  ar.u16(sync_seq_);
  ar.i64(next_boundary_phc_);
  ar.i64(hop_due_ns_);
  ar.rng(fault_rng_);
  ar.opt_sparse(pending_sync_, [&ar](PendingSync& p) {
    ar.u16(p.seq);
    ar.i64(p.rx_ts);
    ar.i64(p.correction_scaled);
    p.source.persist(ar);
  });
  ar.i64(last_sync_rx_sim_ns_);
  ar.opt(e2e_last_sync_, [&ar](auto& s) {
    ar.f64(s.first);
    ar.i64(s.second);
  });
  ar.u16(delay_req_seq_);
  ar.opt_i64(e2e_t3_);
  ar.f64(e2e_delay_ns_);
  ar.b(gm_receiving_);
  park_sync_check_.persist(ar, sync_check_);
  park_delay_req_.persist(ar, delay_req_timer_);
  park_announce_.persist(ar, announce_tx_);
  park_bmca_.persist(ar, bmca_eval_);
  if (bmca_) bmca_->persist(ar);
  ar.u16(announce_seq_);
  ar.opt_sparse(local_servo_, [&ar](PiServo& s) { s.persist(ar); });
  ar.i64(malicious_pot_offset_ns_);
  ar.u64(counters_.syncs_sent);
  ar.u64(counters_.followups_sent);
  ar.u64(counters_.syncs_received);
  ar.u64(counters_.offsets_computed);
  ar.u64(counters_.tx_timestamp_timeouts);
  ar.u64(counters_.deadline_misses);
  ar.u64(counters_.sync_receipt_timeouts);
  ar.u64(counters_.malformed_messages);
  ar.u64(counters_.delay_reqs_answered);
  ar.u64(counters_.delay_resps_received);
  if constexpr (Ar::kLoading) {
    if (!running_) {
      hop_due_ns_ = -1;
      return;
    }
    resume_timers([this] {
      if (role_ == PortRole::kMaster && hop_due_ns_ >= 0) arm_sync_hop_at(hop_due_ns_);
    });
  }
}
TSN_PERSIST_INSTANTIATE(PtpInstance);

std::size_t PtpInstance::live_events() const {
  if (!running_) return 0;
  std::size_t n = 0;
  if (role_ == PortRole::kMaster) ++n; // the sync-chain hop
  if (sync_check_.active()) ++n;
  if (delay_req_timer_.active()) ++n;
  if (announce_tx_.active()) ++n;
  if (bmca_eval_.active()) ++n;
  return n;
}

void PtpInstance::ff_park() {
  park_sync_check_.park(sync_check_);
  park_delay_req_.park(delay_req_timer_);
  park_announce_.park(announce_tx_);
  park_bmca_.park(bmca_eval_);
  ++epoch_; // kills the sync-chain hop and any in-flight tx callbacks
}

void PtpInstance::ff_advance(const sim::FfWindow& w) {
  if (last_sync_rx_sim_ns_ >= 0) last_sync_rx_sim_ns_ += w.span_ns();
  e2e_t3_.reset(); // force a clean first post-resume E2E exchange
  if (bmca_) bmca_->ff_advance(w);
}

void PtpInstance::ff_resume() {
  if (!running_) return;
  // Masters recompute the next launch boundary from the (analytically
  // advanced) PHC -- the sync grid is PHC-aligned, not sim-time-aligned.
  resume_timers([this] { schedule_next_sync_tx(); });
}

void PtpInstance::evaluate_bmca() {
  if (!bmca_ || !running_) return;
  const auto decision = bmca_->evaluate(sim_.now().ns());
  if (decision.role == role_) return;
  TSN_LOG_DEBUG("ptp", "%s: BMCA role change %s -> %s", name_.c_str(), to_string(role_),
                to_string(decision.role));
  role_ = decision.role;
  if (role_ == PortRole::kMaster) {
    pending_sync_.reset();
    schedule_next_sync_tx();
  } else {
    if (local_servo_) local_servo_->reset();
  }
}

} // namespace tsn::gptp
