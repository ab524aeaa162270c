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

[[nodiscard]] std::string_view controllerStateName(ControllerState s);

class BistController {
 public:
  BistController() = default;

  // --- external pin interface --------------------------------------------
  void start();
  [[nodiscard]] bool finish() const { return state_ == ControllerState::kDone; }
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
  [[nodiscard]] bool checkpointDue() const { return checkpoint_due_; }

  [[nodiscard]] ControllerState state() const { return state_; }
  [[nodiscard]] int64_t patternsDone() const { return patterns_done_; }
  [[nodiscard]] uint64_t shiftPulses() const { return shift_pulses_; }
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
