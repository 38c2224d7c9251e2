#include "net/link.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "net/port.hpp"
#include "sim/partition.hpp"
#include "sim/persist.hpp"

namespace tsn::net {

Link::Link(sim::Simulation& sim, Port& end_a, Port& end_b, const LinkConfig& cfg,
           const std::string& name)
    : sim_(sim), a_(end_a), b_(end_b), cfg_(cfg), name_(name), rng_(sim.make_rng("link/" + name)) {
  a_.attach_link(this);
  b_.attach_link(this);
}

Link::Link(sim::PartitionRuntime& rt, std::size_t region_a, Port& end_a,
           std::size_t region_b, Port& end_b, const LinkConfig& cfg,
           const std::string& name)
    : sim_(rt.region_sim(region_a)),
      sim_b_(&rt.region_sim(region_b)),
      a_(end_a),
      b_(end_b),
      cfg_(cfg),
      name_(name),
      // Per-direction streams: each is only ever advanced by its sender's
      // region, so the draws are race-free and independent of how regions
      // interleave. (The serial path keeps the single legacy stream, which
      // both directions share — boundary and local delay sequences differ
      // by design; determinism is across partition counts >= 1, see
      // Scenario.)
      rng_(rt.region_sim(region_a).make_rng("link/" + name + "/ab")),
      rt_(&rt),
      rng_ba_(rt.region_sim(region_b).make_rng("link/" + name + "/ba")) {
  a_.attach_link(this);
  b_.attach_link(this);
  ch_ab_ = rt.add_channel(region_a, region_b, min_delay_ns(true));
  ch_ba_ = rt.add_channel(region_b, region_a, min_delay_ns(false));
}

std::unique_ptr<Link> Link::make_boundary(sim::PartitionRuntime& rt,
                                          std::size_t region_a, Port& end_a,
                                          std::size_t region_b, Port& end_b,
                                          const LinkConfig& cfg,
                                          const std::string& name) {
  return std::unique_ptr<Link>(
      new Link(rt, region_a, end_a, region_b, end_b, cfg, name));
}

Port& Link::peer_of(Port& end) const {
  assert(&end == &a_ || &end == &b_);
  return (&end == &a_) ? b_ : a_;
}

std::int64_t Link::serialization_ns(const EthernetFrame& frame) const {
  // +20 bytes preamble/SFD/IFG overhead on the wire.
  const double bits = static_cast<double>(frame.wire_size() + 20) * 8.0;
  return static_cast<std::int64_t>(std::llround(bits / cfg_.rate_bps * 1e9));
}

sim::Simulation& Link::sender_sim(bool from_a) {
  return (!from_a && sim_b_) ? *sim_b_ : sim_;
}

std::int64_t Link::draw_delay(bool from_a) {
  const DelayModel& m = from_a ? cfg_.a_to_b : cfg_.b_to_a;
  util::RngStream& rng = (!from_a && rng_ba_) ? *rng_ba_ : rng_;
  const double jitter = rng.normal(0.0, m.jitter_sigma_ns);
  std::int64_t d = m.base_ns + static_cast<std::int64_t>(std::llround(jitter));
  const DelayAttack& atk = from_a ? atk_ab_ : atk_ba_;
  if (atk.active) {
    const double elapsed_s =
        static_cast<double>(sender_sim(from_a).now().ns() - atk.start_ns) * 1e-9;
    d += atk.bias_ns +
         static_cast<std::int64_t>(std::llround(atk.ramp_ns_per_s * std::max(0.0, elapsed_s)));
  }
  // The floor holds under attack too: min_delay_ns() stays a valid
  // lookahead for boundary channels whatever the adversary injects.
  return std::max(d, m.base_ns / 2);
}

void Link::set_delay_attack(bool from_a, std::int64_t bias_ns, double ramp_ns_per_s) {
  DelayAttack& atk = from_a ? atk_ab_ : atk_ba_;
  atk.active = true;
  atk.bias_ns = bias_ns;
  atk.ramp_ns_per_s = ramp_ns_per_s;
  atk.start_ns = sender_sim(from_a).now().ns();
}

void Link::clear_delay_attack(bool from_a) {
  (from_a ? atk_ab_ : atk_ba_).active = false;
}

template <class Ar>
void Link::persist(Ar& ar) {
  ar.rng(rng_);
  bool has_ba = rng_ba_.has_value();
  ar.b(has_ba);
  if (has_ba != rng_ba_.has_value()) {
    throw std::runtime_error("Link::load_state: boundary topology mismatch for " + name_);
  }
  if (rng_ba_) ar.rng(*rng_ba_);
  for (DelayAttack* atk : {&atk_ab_, &atk_ba_}) {
    ar.b(atk->active);
    ar.i64(atk->bias_ns);
    ar.f64(atk->ramp_ns_per_s);
    ar.i64(atk->start_ns);
  }
}
TSN_PERSIST_INSTANTIATE(Link);

std::int64_t Link::min_delay_ns(bool from_a) const {
  const DelayModel& m = from_a ? cfg_.a_to_b : cfg_.b_to_a;
  // draw_delay() never returns below base/2, and serialization time is
  // monotone in frame size, so the empty frame (padded to the Ethernet
  // minimum) bounds every delivery from below.
  return m.base_ns / 2 + serialization_ns(EthernetFrame{});
}

void Link::transmit_from(Port& from, const FrameRef& frame) {
  Port& to = peer_of(from);
  const bool from_a = (&from == &a_);
  const std::int64_t ser = serialization_ns(*frame);
  const std::int64_t delay = ser + draw_delay(from_a);
  Port* dst = &to;
  if (rt_ == nullptr) {
    sim_.after(delay, [dst, frame, ser] { dst->deliver(frame, ser); });
    return;
  }
  // Boundary crossing: arrival time is stamped in the sender's region
  // clock; the frame is copied by value (FrameRefs must not cross
  // regions) and re-adopted into the destination region's pool when the
  // delivery executes over there.
  sim::Simulation& src = from_a ? sim_ : *sim_b_;
  const sim::SimTime at{src.now().ns() + delay};
  rt_->post_remote(from_a ? ch_ab_ : ch_ba_, at,
                   [dst, ser, f = EthernetFrame(*frame)]() mutable {
                     const FrameRef ref = FramePool::local().adopt(std::move(f));
                     dst->deliver(ref, ser);
                   });
}

} // namespace tsn::net
