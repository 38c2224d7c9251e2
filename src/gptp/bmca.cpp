#include "gptp/bmca.hpp"

#include "sim/persist.hpp"

namespace tsn::gptp {

PriorityVector PriorityVector::from_announce(const AnnounceMessage& msg) {
  PriorityVector v;
  v.priority1 = msg.grandmaster_priority1;
  v.quality = msg.grandmaster_quality;
  v.priority2 = msg.grandmaster_priority2;
  v.identity = msg.grandmaster_identity;
  v.steps_removed = msg.steps_removed;
  return v;
}

int compare_priority(const PriorityVector& a, const PriorityVector& b) {
  auto cmp = [](auto x, auto y) { return (x < y) ? -1 : (x > y ? 1 : 0); };
  if (int c = cmp(a.priority1, b.priority1)) return c;
  if (int c = cmp(a.quality.clock_class, b.quality.clock_class)) return c;
  if (int c = cmp(a.quality.clock_accuracy, b.quality.clock_accuracy)) return c;
  if (int c = cmp(a.quality.offset_scaled_log_variance, b.quality.offset_scaled_log_variance)) {
    return c;
  }
  if (int c = cmp(a.priority2, b.priority2)) return c;
  if (int c = cmp(a.identity.to_u64(), b.identity.to_u64())) return c;
  return cmp(a.steps_removed, b.steps_removed);
}

void BmcaEngine::on_announce(const AnnounceMessage& msg, std::int64_t now_ns) {
  // Announces advertising ourselves as GM are reflections; ignore them.
  if (msg.grandmaster_identity == cfg_.local.identity) return;
  // Path-trace loop prevention: ignore announces that already traversed us.
  for (const auto& hop : msg.path_trace) {
    if (hop == cfg_.local.identity) return;
  }
  Foreign f;
  f.vector = PriorityVector::from_announce(msg);
  // Messages from a foreign port have travelled one hop more.
  f.vector.steps_removed = static_cast<std::uint16_t>(f.vector.steps_removed + 1);
  f.source = msg.header.source_port;
  f.last_seen_ns = now_ns;
  foreign_[msg.header.source_port.clock.to_u64()] = f;
}

BmcaEngine::Decision BmcaEngine::evaluate(std::int64_t now_ns) {
  for (auto it = foreign_.begin(); it != foreign_.end();) {
    if (now_ns - it->second.last_seen_ns > cfg_.announce_timeout_ns) {
      it = foreign_.erase(it);
    } else {
      ++it;
    }
  }

  const Foreign* best = nullptr;
  for (const auto& [id, f] : foreign_) {
    if (best == nullptr || compare_priority(f.vector, best->vector) < 0) best = &f;
  }

  Decision d;
  if (best == nullptr || compare_priority(cfg_.local, best->vector) < 0) {
    d.role = PortRole::kMaster;
    d.grandmaster = cfg_.local.identity;
  } else {
    d.role = PortRole::kSlave;
    d.grandmaster = best->vector.identity;
    d.parent_port = best->source;
  }
  return d;
}

template <class Ar>
void BmcaEngine::persist(Ar& ar) {
  ar.map(foreign_, [&ar](auto& id, Foreign& f) {
    ar.u64(id);
    ar.u8(f.vector.priority1);
    ar.u8(f.vector.quality.clock_class);
    ar.u8(f.vector.quality.clock_accuracy);
    ar.u16(f.vector.quality.offset_scaled_log_variance);
    ar.u8(f.vector.priority2);
    f.vector.identity.persist(ar);
    ar.u16(f.vector.steps_removed);
    f.source.persist(ar);
    ar.i64(f.last_seen_ns);
  });
}
TSN_PERSIST_INSTANTIATE(BmcaEngine);

void BmcaEngine::ff_advance(const sim::FfWindow& w) {
  for (auto& [id, f] : foreign_) f.last_seen_ns += w.span_ns();
}

} // namespace tsn::gptp
