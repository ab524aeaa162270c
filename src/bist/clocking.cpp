#include "bist/clocking.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace lbist::bist {

std::string AtSpeedTimingConfig::validate(
    std::span<const ClockDomain> domains) const {
  if (domains.empty()) return "no clock domains";
  uint64_t max_period = 0;
  for (const ClockDomain& d : domains) {
    if (d.period_ps == 0) return "domain '" + d.name + "' has zero period";
    max_period = std::max(max_period, d.period_ps);
  }
  if (shift_period_ps < max_period) {
    return "shift clock must not be faster than the slowest functional "
           "clock (shift is the slow, easy-to-route clock)";
  }
  if (pulse_width_ps == 0 || pulse_width_ps * 2 > max_period) {
    return "pulse width must be positive and below half the slowest period";
  }
  if (d1_ps < shift_period_ps / 2) {
    return "d1 must leave room for the slow SE to fall after the last "
           "shift pulse";
  }
  if (d5_ps < shift_period_ps / 2) {
    return "d5 must leave room for the slow SE to rise before the next "
           "shift window";
  }
  if (d3_ps == 0) {
    return "d3 must exceed the maximum inter-domain clock skew; zero "
           "cannot";
  }
  return {};
}

BistSchedule::BistSchedule(std::span<const ClockDomain> domains,
                           const AtSpeedTimingConfig& cfg, int shift_cycles,
                           int64_t n_patterns)
    : domains_(domains.begin(), domains.end()),
      cfg_(cfg),
      shift_cycles_(shift_cycles),
      n_patterns_(n_patterns) {
  const std::string problem = cfg.validate(domains);
  if (!problem.empty()) {
    throw std::invalid_argument("invalid BIST timing: " + problem);
  }
  if (shift_cycles <= 0 || n_patterns <= 0) {
    throw std::invalid_argument("need >= 1 shift cycle and >= 1 pattern");
  }
  // One idle shift period of lead-in after Start, so the first shift edge
  // is a real 0->1 transition on every gated clock.
  pattern_t0_ = cfg_.shift_period_ps;
}

uint64_t BistSchedule::lastShiftEdge() const {
  return pattern_t0_ +
         static_cast<uint64_t>(shift_cycles_ - 1) * cfg_.shift_period_ps;
}

uint64_t BistSchedule::captureEdge(size_t domain_i, int pulse_i) const {
  uint64_t t = lastShiftEdge() + cfg_.d1_ps;
  for (size_t j = 0; j < domain_i; ++j) {
    if (cfg_.double_capture) {
      t += domains_[j].period_ps;  // C1 -> C2 span
    }
    t += cfg_.d3_ps;  // stagger gap to the next domain pair
  }
  if (pulse_i == 1) t += domains_[domain_i].period_ps;
  return t;
}

uint64_t BistSchedule::patternLengthPs() const {
  const size_t last = domains_.size() - 1;
  const int last_pulse = cfg_.double_capture ? 1 : 0;
  const uint64_t last_capture = captureEdge(last, last_pulse);
  return last_capture - pattern_t0_ + cfg_.d5_ps;
}

std::optional<ScheduleEvent> BistSchedule::next() {
  switch (phase_) {
    case Phase::kShift: {
      ScheduleEvent ev{ScheduleEvent::Kind::kShiftPulse,
                       pattern_t0_ + static_cast<uint64_t>(shift_i_) *
                                         cfg_.shift_period_ps,
                       DomainId{}, pattern_, shift_i_};
      if (++shift_i_ >= shift_cycles_) {
        shift_i_ = 0;
        phase_ = Phase::kSeFall;
      }
      return ev;
    }
    case Phase::kSeFall: {
      phase_ = Phase::kCapture;
      capture_domain_i_ = 0;
      capture_pulse_i_ = 0;
      return ScheduleEvent{ScheduleEvent::Kind::kSeFall,
                           lastShiftEdge() + cfg_.d1_ps / 2, DomainId{},
                           pattern_, 0};
    }
    case Phase::kCapture: {
      const DomainId dom{static_cast<uint16_t>(capture_domain_i_)};
      const bool is_launch = cfg_.double_capture && capture_pulse_i_ == 0;
      ScheduleEvent ev{is_launch ? ScheduleEvent::Kind::kLaunchPulse
                                 : ScheduleEvent::Kind::kCapturePulse,
                       captureEdge(capture_domain_i_, capture_pulse_i_), dom,
                       pattern_, 0};
      if (cfg_.double_capture && capture_pulse_i_ == 0) {
        capture_pulse_i_ = 1;
      } else {
        capture_pulse_i_ = 0;
        if (++capture_domain_i_ >= domains_.size()) {
          phase_ = Phase::kSeRise;
        }
      }
      return ev;
    }
    case Phase::kSeRise: {
      const size_t last = domains_.size() - 1;
      const int last_pulse = cfg_.double_capture ? 1 : 0;
      const uint64_t t = captureEdge(last, last_pulse) + cfg_.d5_ps / 2;
      phase_ = Phase::kPatternEnd;
      return ScheduleEvent{ScheduleEvent::Kind::kSeRise, t, DomainId{},
                           pattern_, 0};
    }
    case Phase::kPatternEnd: {
      const uint64_t next_t0 = pattern_t0_ + patternLengthPs();
      ScheduleEvent ev{ScheduleEvent::Kind::kPatternEnd, next_t0, DomainId{},
                       pattern_, 0};
      ++pattern_;
      pattern_t0_ = next_t0;
      phase_ = pattern_ >= n_patterns_ ? Phase::kSessionEnd : Phase::kShift;
      return ev;
    }
    case Phase::kSessionEnd: {
      phase_ = Phase::kDone;
      return ScheduleEvent{ScheduleEvent::Kind::kSessionEnd, pattern_t0_,
                           DomainId{}, pattern_, 0};
    }
    case Phase::kDone:
      return std::nullopt;
  }
  return std::nullopt;
}

sim::Waveform BistSchedule::renderWaveform(int64_t max_patterns) const {
  sim::Waveform wf;
  std::vector<sim::Waveform::SignalId> tck;
  tck.reserve(domains_.size());
  for (const ClockDomain& d : domains_) {
    tck.push_back(wf.addSignal("TCK_" + d.name));
  }
  const auto cck = wf.addSignal("CCK");  // PRPG/MISR clock (shift only)
  const auto se = wf.addSignal("SE", sim::WireValue::kHigh);

  BistSchedule gen(domains_, cfg_, shift_cycles_,
                   std::min<int64_t>(max_patterns, n_patterns_));
  while (auto ev = gen.next()) {
    switch (ev->kind) {
      case ScheduleEvent::Kind::kShiftPulse:
        for (auto sig : tck) wf.pulse(sig, ev->time_ps, cfg_.pulse_width_ps);
        wf.pulse(cck, ev->time_ps, cfg_.pulse_width_ps);
        break;
      case ScheduleEvent::Kind::kLaunchPulse:
      case ScheduleEvent::Kind::kCapturePulse:
        wf.pulse(tck[ev->domain.v], ev->time_ps, cfg_.pulse_width_ps);
        break;
      case ScheduleEvent::Kind::kSeFall:
        wf.change(se, ev->time_ps, sim::WireValue::kLow);
        break;
      case ScheduleEvent::Kind::kSeRise:
        wf.change(se, ev->time_ps, sim::WireValue::kHigh);
        break;
      case ScheduleEvent::Kind::kPatternEnd:
      case ScheduleEvent::Kind::kSessionEnd:
        break;
    }
  }
  return wf;
}

}  // namespace lbist::bist
