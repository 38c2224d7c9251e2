// Proportional-integral clock servo, modelled on LinuxPTP's pi.c.
//
// The servo consumes master-offset samples (slave time minus master time)
// and produces the frequency adjustment to program into the disciplined
// clock. Conventions match LinuxPTP: the returned value is the adjustment
// passed to clockadj_set_freq, i.e. a clock running fast (positive offset)
// yields a negative frequency adjustment.
#pragma once

#include <cstdint>
#include <string>

#include "obs/obs.hpp"

namespace tsn::gptp {

struct PiServoConfig {
  double kp = 0.7;
  double ki = 0.3;
  /// Maximum |frequency adjustment| in ppb.
  double max_frequency_ppb = 62'499'999.0;
  /// Offsets larger than this on the *first* update step the clock
  /// (linuxptp first_step_threshold, default 20 us).
  std::int64_t first_step_threshold_ns = 20'000;
  /// Offsets larger than this at any time step the clock and reset the
  /// servo; 0 disables stepping after startup (linuxptp step_threshold).
  std::int64_t step_threshold_ns = 0;
};

class PiServo {
 public:
  enum class State {
    kUnlocked, ///< gathering the first sample
    kJump,     ///< caller must step the clock by -offset and keep frequency
    kLocked,   ///< caller must program the returned frequency
  };

  struct Result {
    State state = State::kUnlocked;
    /// Frequency to program when state == kLocked (ppb; also valid after
    /// kJump as the held frequency).
    double freq_ppb = 0.0;
  };

  explicit PiServo(const PiServoConfig& cfg = {});

  /// Feed one offset sample taken at `local_ts_ns` (monotonic local clock).
  Result sample(std::int64_t offset_ns, std::int64_t local_ts_ns);

  /// Forget all state (e.g. after the reference changed).
  void reset();

  /// Seed the integral term, used when a warm standby takes over with the
  /// predecessor's servo state (the paper's FTSHMEM carries servo state).
  void set_integral_ppb(double ppb) { integral_ppb_ = ppb; }
  double integral_ppb() const { return integral_ppb_; }

  State state() const { return state_; }

  /// Snapshot support: discipline state only (obs attachments are not
  /// persisted -- re-attach after restoring into a fresh servo).
  template <class Ar> void persist(Ar& ar);

  /// Attach observability under `name` (e.g. "c11/fta.servo"): counts
  /// samples, phase jumps and runaway unlock-resets in `<name>.*` and
  /// traces every state transition (record time = the sample's local
  /// timestamp). Survives copies; re-attach after assigning a fresh servo.
  void attach_obs(obs::ObsContext ctx, const std::string& name);

 private:
  double clamp_freq(double ppb) const;
  void note_state(State prev, std::int64_t local_ts_ns, double freq_ppb);

  PiServoConfig cfg_;
  State state_ = State::kUnlocked;
  int sample_count_ = 0;
  std::int64_t first_offset_ = 0;
  std::int64_t first_ts_ = 0;
  double integral_ppb_ = 0.0;

  obs::Counter* c_samples_ = nullptr;
  obs::Counter* c_jumps_ = nullptr;
  obs::Counter* c_unlock_resets_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
  std::uint16_t trace_src_ = 0;
};

} // namespace tsn::gptp
