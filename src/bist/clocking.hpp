// At-speed test timing control via double capture (paper section 2.2,
// Fig. 2) and the clock-gating block that realizes it.
//
// Each test pattern is a shift window followed by a capture window. In
// the capture window every clock domain receives exactly two pulses
// (launch C1, capture C2) spaced by that domain's *functional* period —
// no test-frequency manipulation — while the programmable slow gaps d1
// (shift->capture), d3 (between domain pairs) and d5 (capture->shift)
// allow one low-speed scan-enable signal to serve every domain and absorb
// inter-domain clock skew (d3 > max skew).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netlist/ids.hpp"
#include "netlist/netlist.hpp"
#include "sim/waveform.hpp"

namespace lbist::bist {

/// The edge timing of one self-test (paper Fig. 2): slow shift clock,
/// SE settling gaps d1/d5, and the inter-domain capture gap d3.
struct AtSpeedTimingConfig {
  uint64_t shift_period_ps = 10'000;  // slow shift clock (100 MHz default)
  uint64_t pulse_width_ps = 400;      // drawn width of clock pulses
  uint64_t d1_ps = 20'000;            // last shift edge -> first capture edge
  uint64_t d3_ps = 6'000;             // between capture pairs of domains
  uint64_t d5_ps = 20'000;            // last capture edge -> next shift edge
  /// Capture both edges per domain at functional speed; when false a
  /// single capture pulse per domain is issued (slow, stuck-at-only
  /// testing — the ablation baseline).
  bool double_capture = true;

  /// Why this timing cannot drive `domains` (an empty string when it
  /// can): the shift clock must be the slowest clock and every gap must
  /// leave the slow SE room to settle.
  [[nodiscard]] std::string validate(
      std::span<const ClockDomain> domains) const;
};

/// One edge or marker of the self-test timeline.
struct ScheduleEvent {
  /// What happens at the event.
  enum class Kind : uint8_t {
    kSeFall,        // scan enable 1 -> 0 (inside the d1 gap)
    kSeRise,        // scan enable 0 -> 1 (inside the d5 gap)
    kShiftPulse,    // one slow shift edge to ALL domains + PRPG + MISR
    kLaunchPulse,   // capture pulse C1 of `domain` (launch)
    kCapturePulse,  // capture pulse C2 of `domain` (at-speed response)
    kPatternEnd,    // bookkeeping marker after a capture window
    kSessionEnd,    // Finish goes high
  };
  Kind kind;
  uint64_t time_ps = 0;
  DomainId domain;        // valid for launch/capture pulses
  int64_t pattern = 0;    // pattern index this event belongs to
  int shift_index = 0;    // valid for kShiftPulse
};

/// Lazily generates the full self-test edge timeline, one pattern at a
/// time: shift_cycles shift pulses, SE fall, per-domain (C1, C2) pairs in
/// netlist domain order, SE rise. The d3 gap between consecutive domain
/// pairs is what absorbs inter-domain clock skew.
class BistSchedule {
 public:
  /// Schedules `n_patterns` patterns of `shift_cycles` shift pulses each
  /// over `domains`. Throws std::invalid_argument when the timing fails
  /// validate() or a count is not positive.
  BistSchedule(std::span<const ClockDomain> domains,
               const AtSpeedTimingConfig& cfg, int shift_cycles,
               int64_t n_patterns);

  /// Next event in time order; nullopt after kSessionEnd was returned.
  std::optional<ScheduleEvent> next();

  /// Patterns the schedule runs.
  [[nodiscard]] int64_t patterns() const { return n_patterns_; }

  /// Renders the first `max_patterns` patterns as a waveform with one TCK
  /// trace per domain, the common PRPG/MISR clock CCK, and SE — the
  /// executable form of the paper's Fig. 2.
  [[nodiscard]] sim::Waveform renderWaveform(int64_t max_patterns = 1) const;

 private:
  [[nodiscard]] uint64_t patternLengthPs() const;

  std::vector<ClockDomain> domains_;
  AtSpeedTimingConfig cfg_;
  int shift_cycles_;
  int64_t n_patterns_;

  // Generator state.
  enum class Phase : uint8_t {
    kShift,
    kSeFall,
    kCapture,
    kSeRise,
    kPatternEnd,
    kSessionEnd,
    kDone,
  };
  Phase phase_ = Phase::kShift;
  int64_t pattern_ = 0;
  int shift_i_ = 0;
  size_t capture_domain_i_ = 0;
  int capture_pulse_i_ = 0;  // 0 = launch, 1 = capture
  uint64_t pattern_t0_ = 0;

  [[nodiscard]] uint64_t lastShiftEdge() const;
  [[nodiscard]] uint64_t captureEdge(size_t domain_i, int pulse_i) const;
};

}  // namespace lbist::bist
