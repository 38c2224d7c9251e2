#include "sim/snapshot.hpp"

#include <stdexcept>

#include "sim/simulation.hpp"

namespace tsn::sim {

std::size_t expected_live_events(const std::vector<Persistent*>& targets) {
  std::size_t n = 0;
  for (const Persistent* p : targets) n += p->live_events();
  return n;
}

bool components_quiescent(const Simulation& sim,
                          const std::vector<Persistent*>& targets) {
  return sim.queue().live_size() == expected_live_events(targets);
}

SimSnapshot take_snapshot(const Simulation& sim,
                          const std::vector<Persistent*>& targets) {
  StateWriter w;
  w.begin_section("sim");
  const std::int64_t now_ns = sim.now().ns();
  const std::uint64_t count = targets.size();
  w.i64(now_ns);
  w.u64(count);
  for (Persistent* p : targets) {
    w.begin_section(p->persist_name());
    p->save_state(w);
  }
  SimSnapshot snap;
  snap.now_ns = sim.now().ns();
  snap.events_executed = sim.events_executed();
  snap.hash = w.hash();
  snap.bytes = w.data();
  return snap;
}

void restore_snapshot(Simulation& sim,
                      const std::vector<Persistent*>& targets,
                      const SimSnapshot& snap) {
  sim.queue().clear();
  sim.restore_now(SimTime{snap.now_ns});
  StateReader r(snap.bytes);
  r.begin_section("sim");
  std::int64_t now_ns = 0;
  std::uint64_t count = 0;
  r.i64(now_ns);
  r.u64(count);
  if (now_ns != snap.now_ns) {
    throw std::runtime_error("SimSnapshot: header time does not match snapshot");
  }
  if (count != targets.size()) {
    throw std::runtime_error("SimSnapshot: component count changed since capture");
  }
  for (Persistent* p : targets) {
    r.begin_section(p->persist_name());
    p->load_state(r);
  }
  if (!r.at_end()) {
    throw std::runtime_error("SimSnapshot: trailing bytes after restore");
  }
}

} // namespace tsn::sim
