#include "net/switch.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/persist.hpp"
#include "util/log.hpp"
#include "util/str.hpp"

namespace tsn::net {

Switch::Switch(sim::Simulation& sim, const SwitchConfig& cfg, const std::string& name)
    : sim_(sim),
      cfg_(cfg),
      name_(name),
      phc_(sim, cfg.phc, name + "/phc"),
      residence_rng_(sim.make_rng("switch-res/" + name)) {
  ports_.reserve(cfg.port_count);
  for (std::size_t i = 0; i < cfg.port_count; ++i) {
    ports_.push_back(
        std::make_unique<Port>(sim, util::format("%s/P%zu", name.c_str(), i), &phc_));
    ports_.back()->set_sink(this);
  }
}

void Switch::add_vlan_member(std::uint16_t vid, std::size_t port_idx) {
  assert(port_idx < ports_.size());
  vlan_members_[vid].insert(port_idx);
}

void Switch::add_fdb_entry(std::uint16_t vid, MacAddress mac, std::size_t port_idx) {
  assert(port_idx < ports_.size());
  fdb_[{vid, mac.to_u64()}].insert(port_idx);
}

std::size_t Switch::index_of(const Port& p) const {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i].get() == &p) return i;
  }
  assert(false && "port does not belong to this switch");
  return 0;
}

bool Switch::is_member(std::uint16_t vid, std::size_t port_idx) const {
  if (vid == 0) return true; // default VLAN spans all ports
  auto it = vlan_members_.find(vid);
  return it != vlan_members_.end() && it->second.count(port_idx) > 0;
}

template <class Ar>
void Switch::persist(Ar& ar) {
  phc_.persist(ar);
  ar.rng(residence_rng_);
}
TSN_PERSIST_INSTANTIATE(Switch);

std::int64_t Switch::draw_residence_ns() {
  const double jitter = residence_rng_.normal(0.0, cfg_.residence_jitter_ns);
  const std::int64_t d = cfg_.residence_base_ns + static_cast<std::int64_t>(std::llround(jitter));
  return std::max<std::int64_t>(d, cfg_.residence_base_ns / 2);
}

void Switch::forward_to(std::size_t out_idx, const FrameRef& frame) {
  const std::int64_t residence = draw_residence_ns();
  Port* out = ports_[out_idx].get();
  // Fan-out shares the buffer: one refcount bump per egress port, no copy.
  sim_.after(residence, [out, frame] {
    if (out->connected()) out->transmit(frame);
  });
}

void Switch::forward(std::size_t ingress_idx, const FrameRef& frame) {
  const std::uint16_t vid = frame->vlan ? frame->vlan->vid : 0;
  const std::uint64_t dst = frame->dst.to_u64();
  auto it = fdb_.find({vid, dst});
  if (it != fdb_.end()) {
    for (std::size_t out_idx : it->second) {
      if (out_idx == ingress_idx || !is_member(vid, out_idx)) continue;
      forward_to(out_idx, frame);
    }
    return;
  }
  if (cfg_.drop_unknown_unicast) return; // strict static forwarding
  // Unknown destination: flood within the VLAN.
  for (std::size_t out_idx = 0; out_idx < ports_.size(); ++out_idx) {
    if (out_idx == ingress_idx || !is_member(vid, out_idx)) continue;
    forward_to(out_idx, frame);
  }
}

void Switch::send_from_port(std::size_t port_idx, FrameRef frame, TxOptions opts) {
  ports_.at(port_idx)->transmit(std::move(frame), std::move(opts));
}

void Switch::send_from_port(std::size_t port_idx, EthernetFrame frame, TxOptions opts) {
  send_from_port(port_idx, FramePool::local().adopt(std::move(frame)), std::move(opts));
}

void Switch::handle_frame(Port& ingress, const FrameRef& frame, const RxMeta& meta) {
  const std::size_t idx = index_of(ingress);
  if (frame->ethertype == kEtherTypePtp) {
    // A time-aware bridge terminates PTP (link-local); a PTP-unaware
    // ("dumb") switch without one just forwards the frames -- the setting
    // the plain IEEE 1588 E2E mechanism is designed for.
    if (ptp_sink_) {
      ptp_sink_(idx, *frame, meta);
      return;
    }
  }
  forward(idx, frame);
}

} // namespace tsn::net
