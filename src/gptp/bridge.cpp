#include "gptp/bridge.hpp"

#include "util/log.hpp"
#include "util/str.hpp"

namespace tsn::gptp {
namespace {

Message make_relay_sync_proto() {
  SyncMessage sync;
  sync.header.type = MessageType::kSync;
  sync.header.two_step = true;
  return sync;
}

Message make_relay_fup_proto() {
  FollowUpMessage fup;
  fup.header.type = MessageType::kFollowUp;
  return fup;
}

} // namespace

TimeAwareBridge::TimeAwareBridge(sim::Simulation& sim, net::Switch& sw, const BridgeConfig& cfg,
                                 const std::string& name)
    : sim_(sim),
      sw_(sw),
      cfg_(cfg),
      name_(name),
      identity_(ClockIdentity::from_u64(util::fnv1a64("bridge/" + name))),
      sync_tpl_(make_relay_sync_proto()),
      fup_tpl_(make_relay_fup_proto()) {
  for (std::size_t i = 0; i < sw_.port_count(); ++i) {
    link_delay_.push_back(std::make_unique<LinkDelayService>(
        sim, port_identity(i),
        [this, i](net::FrameRef frame, LinkDelayService::TxTsFn on_tx) {
          send_on_port(i, std::move(frame), std::move(on_tx));
        },
        cfg_.link_delay, util::format("%s/P%zu/pdelay", name.c_str(), i)));
  }
  for (const auto& dc : cfg_.domains) {
    domains_[dc.domain] = DomainState{dc, std::nullopt};
  }
  sw_.set_ptp_sink([this](std::size_t idx, const net::EthernetFrame& frame,
                          const net::RxMeta& meta) { on_ptp(idx, frame, meta); });
}

PortIdentity TimeAwareBridge::port_identity(std::size_t port_idx) const {
  return PortIdentity{identity_, static_cast<std::uint16_t>(port_idx + 1)};
}

void TimeAwareBridge::send_on_port(std::size_t port_idx, net::FrameRef frame,
                                   LinkDelayService::TxTsFn on_tx) {
  frame.writable().src = net::MacAddress::from_u64(identity_.to_u64() & 0xFFFFFFFFFFFF);
  net::TxOptions opts;
  if (on_tx) {
    opts.on_complete = [on_tx = std::move(on_tx)](const net::TxReport& r) mutable {
      on_tx(r.status == net::TxReport::Status::kSent ? r.hw_tx_ts : std::nullopt);
    };
  }
  sw_.send_from_port(port_idx, std::move(frame), std::move(opts));
}

void TimeAwareBridge::send_message_on_port(std::size_t port_idx, const Message& msg,
                                           LinkDelayService::TxTsFn on_tx) {
  net::FrameRef frame = net::FramePool::local().acquire();
  net::EthernetFrame& eth = frame.writable();
  eth.dst = net::MacAddress::gptp_multicast();
  eth.ethertype = net::kEtherTypePtp;
  serialize_into(msg, eth.payload);
  send_on_port(port_idx, std::move(frame), std::move(on_tx));
}

std::uint32_t TimeAwareBridge::alloc_relay_slot() {
  if (!relay_free_.empty()) {
    const std::uint32_t slot = relay_free_.back();
    relay_free_.pop_back();
    return slot;
  }
  relay_ctx_.emplace_back();
  return static_cast<std::uint32_t>(relay_ctx_.size() - 1);
}

void TimeAwareBridge::start() {
  started_ = true;
  for (auto& ld : link_delay_) {
    ld->start();
  }
}

void TimeAwareBridge::stop() {
  started_ = false;
  for (auto& ld : link_delay_) ld->stop();
  stop_sync_storm();
}

void TimeAwareBridge::set_correction_attack(std::uint8_t domain, double bias_ns) {
  atk_corr_domain_ = domain;
  atk_corr_bias_ns_ = bias_ns;
}

void TimeAwareBridge::clear_correction_attack() {
  atk_corr_domain_.reset();
  atk_corr_bias_ns_ = 0.0;
}

void TimeAwareBridge::start_sync_storm(std::uint8_t domain, std::int64_t period_ns) {
  if (storm_.active()) return;
  storm_domain_ = domain;
  storm_period_ns_ = period_ns;
  storm_parked_.park_at(sim_.now().ns());
  resume_storm();
}

void TimeAwareBridge::resume_storm() {
  storm_parked_.resume(sim_, storm_, storm_period_ns_, [this](sim::SimTime) {
    SyncMessage sync;
    sync.header.type = MessageType::kSync;
    sync.header.two_step = false; // standalone: no FollowUp ever comes
    sync.header.domain = storm_domain_;
    sync.header.sequence_id = ++storm_seq_;
    for (std::size_t p = 0; p < sw_.port_count(); ++p) {
      if (!sw_.port(p).connected()) continue;
      sync.header.source_port = port_identity(p);
      ++counters_.storm_syncs_sent;
      send_message_on_port(p, sync, {});
    }
  });
}

void TimeAwareBridge::stop_sync_storm() { storm_.cancel(); }

template <class Ar>
void TimeAwareBridge::persist(Ar& ar) {
  ar.b(started_);
  ar.u64(counters_.syncs_relayed);
  ar.u64(counters_.followups_relayed);
  ar.u64(counters_.syncs_on_non_slave_port);
  ar.u64(counters_.malformed);
  ar.u64(counters_.storm_syncs_sent);
  for (auto& ld : link_delay_) ld->persist(ar);
  for (auto& [domain, ds] : domains_) {
    ar.opt(ds.pending, [&ar](PendingSync& p) {
      ar.u16(p.seq);
      ar.i64(p.rx_ts);
      ar.i64(p.correction_scaled);
      p.source.persist(ar);
    });
  }
  ar.opt(atk_corr_domain_, [&ar](std::uint8_t& d) { ar.u8(d); });
  ar.f64(atk_corr_bias_ns_);
  storm_parked_.persist(ar, storm_);
  ar.u16(storm_seq_);
  ar.u8(storm_domain_);
  ar.i64(storm_period_ns_);
  if constexpr (Ar::kLoading) resume_storm();
}

std::size_t TimeAwareBridge::live_events() const {
  std::size_t n = storm_.active() ? 1u : 0u;
  for (const auto& ld : link_delay_) n += ld->live_events();
  return n;
}

void TimeAwareBridge::ff_park() {
  for (auto& ld : link_delay_) ld->ff_park();
  storm_parked_.park(storm_);
}

void TimeAwareBridge::ff_advance(const sim::FfWindow& w) {
  for (auto& ld : link_delay_) ld->ff_advance(w);
  // A Sync whose FollowUp has not arrived by a multi-second quiescent
  // window is an abandoned relay; its seq is long gone after the jump.
  for (auto& [domain, ds] : domains_) ds.pending.reset();
}

void TimeAwareBridge::ff_resume() {
  for (auto& ld : link_delay_) ld->ff_resume();
  resume_storm();
}

void TimeAwareBridge::on_ptp(std::size_t port_idx, const net::EthernetFrame& frame,
                             const net::RxMeta& meta) {
  if (!started_) return;
  const auto msg = parse(frame.payload);
  if (!msg) {
    ++counters_.malformed;
    return;
  }
  const std::int64_t rx_ts = meta.hw_rx_ts.value_or(0);
  const auto& header = header_of(*msg);

  if (header.type == MessageType::kPdelayReq || header.type == MessageType::kPdelayResp ||
      header.type == MessageType::kPdelayRespFollowUp) {
    link_delay_[port_idx]->on_message(*msg, rx_ts);
    return;
  }

  auto it = domains_.find(header.domain);
  if (it == domains_.end()) return; // domain not configured here
  DomainState& ds = it->second;

  if (const auto* sync = std::get_if<SyncMessage>(&*msg)) {
    if (port_idx != ds.cfg.slave_port) {
      ++counters_.syncs_on_non_slave_port; // passive port: ignore
      return;
    }
    ds.pending = PendingSync{sync->header.sequence_id, rx_ts, sync->header.correction_scaled,
                             sync->header.source_port};
    return;
  }

  if (const auto* fup = std::get_if<FollowUpMessage>(&*msg)) {
    if (port_idx != ds.cfg.slave_port) return;
    if (!ds.pending || ds.pending->seq != fup->header.sequence_id ||
        ds.pending->source != fup->header.source_port) {
      return;
    }
    relay_follow_up(ds, *fup);
  }
}

void TimeAwareBridge::relay_follow_up(DomainState& ds, const FollowUpMessage& fup) {
  const PendingSync pending = *ds.pending;
  ds.pending.reset();

  const auto base_correction =
      scaled_ns::checked_add(pending.correction_scaled, fup.header.correction_scaled);
  if (!base_correction) {
    ++counters_.malformed;
    return;
  }
  LinkDelayService& ingress_ld = *link_delay_[ds.cfg.slave_port];
  if (!ingress_ld.valid()) return; // upstream link delay not yet measured

  // Cumulative rate ratio from the GM to this bridge's clock.
  const double rate_ratio = fup.rate_ratio() * ingress_ld.neighbor_rate_ratio();
  const double upstream_delay_ns = ingress_ld.mean_link_delay_ns();

  for (std::size_t out_port : ds.cfg.master_ports) {
    sync_tpl_.set_domain(ds.cfg.domain);
    sync_tpl_.set_source_port(port_identity(out_port));
    sync_tpl_.set_sequence_id(pending.seq);
    sync_tpl_.set_log_message_interval(fup.header.log_message_interval);

    const std::uint32_t slot = alloc_relay_slot();
    RelayCtx& ctx = relay_ctx_[slot];
    ctx.domain = ds.cfg.domain;
    ctx.log_interval = fup.header.log_message_interval;
    ctx.seq = pending.seq;
    ctx.out_port = out_port;
    ctx.rx_ts = pending.rx_ts;
    ctx.base_correction = *base_correction;
    ctx.precise_origin = fup.precise_origin;
    ctx.gm_time_base_indicator = fup.gm_time_base_indicator;
    ctx.freq_change = fup.scaled_last_gm_freq_change;
    ctx.rate_ratio = rate_ratio;
    ctx.upstream_delay_ns = upstream_delay_ns;

    ++counters_.syncs_relayed;
    send_on_port(out_port, make_ptp_frame(sync_tpl_),
                 LinkDelayService::TxTsFn([this, slot](std::optional<std::int64_t> tx_ts) {
                   finish_relay(slot, tx_ts);
                 }));
  }
}

void TimeAwareBridge::finish_relay(std::uint32_t slot, std::optional<std::int64_t> tx_ts) {
  const RelayCtx ctx = relay_ctx_[slot];
  relay_free_.push_back(slot);
  if (!tx_ts || !started_) return;
  // Residence time in the bridge's local clock, plus the upstream link
  // delay, both converted to GM time.
  const double residence_ns = static_cast<double>(*tx_ts - ctx.rx_ts);
  double added_ns = ctx.rate_ratio * (residence_ns + ctx.upstream_delay_ns);
  // Compromised-bridge correction tamper: the FollowUp claims more (or
  // less) residence than actually elapsed for the attacked domain.
  if (atk_corr_domain_ && *atk_corr_domain_ == ctx.domain) added_ns += atk_corr_bias_ns_;
  const auto correction =
      scaled_ns::checked_add(ctx.base_correction, scaled_ns::from_ns(added_ns));
  if (!correction) {
    ++counters_.malformed;
    return;
  }

  fup_tpl_.set_domain(ctx.domain);
  fup_tpl_.set_source_port(port_identity(ctx.out_port));
  fup_tpl_.set_sequence_id(ctx.seq);
  fup_tpl_.set_log_message_interval(ctx.log_interval);
  fup_tpl_.set_correction_scaled(*correction);
  fup_tpl_.set_body_timestamp(ctx.precise_origin);
  fup_tpl_.set_cumulative_scaled_rate_offset(rate_offset::from_ratio(ctx.rate_ratio));
  fup_tpl_.set_gm_time_base_indicator(ctx.gm_time_base_indicator);
  fup_tpl_.set_scaled_last_gm_freq_change(ctx.freq_change);
  ++counters_.followups_relayed;
  send_on_port(ctx.out_port, make_ptp_frame(fup_tpl_), {});
}

} // namespace tsn::gptp
