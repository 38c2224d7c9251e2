#include "gptp/stack.hpp"

#include "sim/persist.hpp"
#include "util/log.hpp"
#include "util/str.hpp"

namespace tsn::gptp {

PtpStack::PtpStack(sim::Simulation& sim, net::Nic& nic, const LinkDelayConfig& ld_cfg,
                   const std::string& name)
    : sim_(sim),
      nic_(nic),
      name_(name),
      link_delay_(
          sim, PortIdentity{ClockIdentity::from_u64(nic.mac().to_u64()), 1},
          [this](net::FrameRef frame, LinkDelayService::TxTsFn on_tx) {
            // No launch time: the port reports inside send(), so no port
            // queue ever holds on_tx (or the `this` it captures).
            net::TxOptions opts;
            if (on_tx) {
              opts.on_complete = [on_tx = std::move(on_tx)](const net::TxReport& r) mutable {
                on_tx(r.status == net::TxReport::Status::kSent ? r.hw_tx_ts : std::nullopt);
              };
            }
            nic_.send(std::move(frame), std::move(opts));
          },
          ld_cfg, name + "/pdelay") {
  nic_.set_rx_handler(net::kEtherTypePtp, [this](const net::EthernetFrame& frame,
                                                 const net::RxMeta& meta) { on_rx(frame, meta); });
}

PtpInstance& PtpStack::add_instance(const InstanceConfig& cfg) {
  instances_.push_back(std::make_unique<PtpInstance>(
      sim_, nic_, link_delay_, cfg, util::format("%s/dom%u", name_.c_str(), cfg.domain)));
  return *instances_.back();
}

PtpInstance* PtpStack::instance_for_domain(std::uint8_t domain) {
  for (auto& inst : instances_) {
    if (inst->config().domain == domain) return inst.get();
  }
  return nullptr;
}

void PtpStack::start() {
  if (started_) return;
  started_ = true;
  link_delay_.start();
  for (auto& inst : instances_) inst->start();
}

void PtpStack::stop() {
  started_ = false;
  link_delay_.stop();
  for (auto& inst : instances_) inst->stop();
}

template <class Ar>
void PtpStack::persist(Ar& ar) {
  ar.b(started_);
  ar.u64(malformed_);
  link_delay_.persist(ar);
  for (auto& inst : instances_) inst->persist(ar);
}
TSN_PERSIST_INSTANTIATE(PtpStack);

std::size_t PtpStack::live_events() const {
  std::size_t n = link_delay_.live_events();
  for (const auto& inst : instances_) n += inst->live_events();
  return n;
}

void PtpStack::ff_park() {
  link_delay_.ff_park();
  for (auto& inst : instances_) inst->ff_park();
}

void PtpStack::ff_advance(const sim::FfWindow& w) {
  link_delay_.ff_advance(w);
  for (auto& inst : instances_) inst->ff_advance(w);
}

void PtpStack::ff_resume() {
  link_delay_.ff_resume();
  for (auto& inst : instances_) inst->ff_resume();
}

void PtpStack::on_rx(const net::EthernetFrame& frame, const net::RxMeta& meta) {
  if (!started_) return;
  const auto msg = parse(frame.payload);
  if (!msg) {
    ++malformed_;
    TSN_LOG_DEBUG("ptp", "%s: malformed gPTP frame dropped", name_.c_str());
    return;
  }
  const std::int64_t rx_ts = meta.hw_rx_ts.value_or(0);
  const auto type = header_of(*msg).type;
  if (type == MessageType::kPdelayReq || type == MessageType::kPdelayResp ||
      type == MessageType::kPdelayRespFollowUp) {
    link_delay_.on_message(*msg, rx_ts);
    return;
  }
  if (PtpInstance* inst = instance_for_domain(header_of(*msg).domain)) {
    inst->handle_message(*msg, rx_ts);
  }
}

} // namespace tsn::gptp
