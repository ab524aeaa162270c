// BIST controller FSM (paper Fig. 1 "Controller").
//
// Pure-BIST external interface: Start begins self-test, Finish signals
// completion, Result reports pass/fail from the on-chip signature compare.
// The FSM walks the schedule events the clock-gating block emits and keeps
// the pattern counter; the signature comparison itself is fed in by the
// session (core/bist_session) once the final MISR states are known.
#pragma once

#include <cstdint>
#include <string_view>

#include "bist/clocking.hpp"

namespace lbist::bist {

/// States of the controller FSM, in the order a self-test walks them.
enum class ControllerState : uint8_t {
  kIdle,        // waiting for Start
  kSeedLoad,    // loading PRPG seeds / golden signature via Boundary-Scan
  kShift,       // shift window (SE high)
  kCaptureGap,  // d1: SE settling low
  kCapture,     // capture window pulses
  kUnloadGap,   // d5: SE settling high (response shifts with next pattern)
  kCompare,     // final signature comparison
  kDone,        // Finish high, Result valid
};

/// Display name of `s` ("Shift", "Capture", ...).
[[nodiscard]] std::string_view controllerStateName(ControllerState s);

/// The controller FSM of the file comment: walks schedule events, counts
/// patterns and pulses, requests interval checkpoints, reports Result.
class BistController {
 public:
  BistController() = default;

  // --- external pin interface --------------------------------------------
  void start();
  /// Finish pin: high once the final compare is done.
  [[nodiscard]] bool finish() const { return state_ == ControllerState::kDone; }
  /// Result pin: valid with Finish, high when every signature matched.
  [[nodiscard]] bool result() const {
    return finish() && signatures_match_;
  }

  // --- event-driven FSM ----------------------------------------------------
  /// Seeds are loaded (Boundary-Scan done); transitions kSeedLoad->kShift.
  void seedsLoaded();

  /// Advances the FSM on a schedule event. Throws std::logic_error on an
  /// event that is illegal in the current state (hardware would hang; we
  /// prefer to fail loudly in simulation).
  void onEvent(const ScheduleEvent& ev);

  /// The session reports whether every domain's signature matched.
  void setSignatureMatch(bool match);

  // --- interval-signature windows ----------------------------------------
  /// With a non-zero interval the controller requests a MISR snapshot
  /// every `k` completed patterns: checkpointDue() is true right after
  /// the qualifying kPatternEnd event. Signature-based diagnosis
  /// (src/diag) uses the snapshots to narrow a failing run to failing
  /// windows before replaying. Set before start().
  void setSignatureInterval(int64_t k) { signature_interval_ = k; }
  /// True right after a kPatternEnd that completes an interval.
  [[nodiscard]] bool checkpointDue() const { return checkpoint_due_; }

  /// Current FSM state.
  [[nodiscard]] ControllerState state() const { return state_; }
  /// Patterns completed (kPatternEnd events seen) since start().
  [[nodiscard]] int64_t patternsDone() const { return patterns_done_; }
  /// Shift pulses seen since start().
  [[nodiscard]] uint64_t shiftPulses() const { return shift_pulses_; }
  /// Launch and capture pulses seen since start().
  [[nodiscard]] uint64_t capturePulses() const { return capture_pulses_; }

 private:
  ControllerState state_ = ControllerState::kIdle;
  bool se_ = true;
  bool signatures_match_ = false;
  bool match_provided_ = false;
  int64_t patterns_done_ = 0;
  uint64_t shift_pulses_ = 0;
  uint64_t capture_pulses_ = 0;
  int64_t signature_interval_ = 0;
  bool checkpoint_due_ = false;
};

}  // namespace lbist::bist
