// Best Master Clock Algorithm (IEEE 1588 dataset comparison, 802.1AS
// profile). The paper's experiments disable BMCA in favour of external port
// configuration, but the library implements it for completeness and for
// single-domain deployments.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "gptp/messages.hpp"
#include "gptp/types.hpp"

namespace tsn::sim {
struct FfWindow;
} // namespace tsn::sim

namespace tsn::gptp {

/// The fields compared by the BMCA, in comparison order.
struct PriorityVector {
  std::uint8_t priority1 = 246;
  ClockQuality quality;
  std::uint8_t priority2 = 248;
  ClockIdentity identity;
  std::uint16_t steps_removed = 0;

  static PriorityVector from_announce(const AnnounceMessage& msg);
};

/// Three-way comparison: negative when `a` is the better master.
int compare_priority(const PriorityVector& a, const PriorityVector& b);

/// Foreign-master tracking and master selection for a single-port
/// time-aware end station.
class BmcaEngine {
 public:
  struct Config {
    PriorityVector local;
    /// Announce receipt timeout: a foreign master is forgotten when no
    /// Announce arrives within this window.
    std::int64_t announce_timeout_ns = 3'000'000'000;
  };

  explicit BmcaEngine(const Config& cfg) : cfg_(cfg) {}

  /// Record a received Announce at local time `now_ns`.
  void on_announce(const AnnounceMessage& msg, std::int64_t now_ns);

  struct Decision {
    PortRole role = PortRole::kMaster;
    /// Identity of the selected grandmaster (the local clock when master).
    ClockIdentity grandmaster;
    /// Source port of the best foreign announce (valid when slave).
    std::optional<PortIdentity> parent_port;
  };

  /// Purge expired foreign masters and decide the local port role.
  Decision evaluate(std::int64_t now_ns);

  std::size_t foreign_master_count() const { return foreign_.size(); }
  const Config& config() const { return cfg_; }

  /// Snapshot support: the foreign-master table.
  template <class Ar> void persist(Ar& ar);
  /// Fast-forward: shift last-seen stamps so foreign masters keep the age
  /// they had when the window opened.
  void ff_advance(const sim::FfWindow& w);

 private:
  struct Foreign {
    PriorityVector vector;
    PortIdentity source;
    std::int64_t last_seen_ns = 0;
  };

  Config cfg_;
  std::map<std::uint64_t, Foreign> foreign_; // keyed by sender clock identity
};

} // namespace tsn::gptp
