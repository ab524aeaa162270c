// Digital waveform recording with VCD export and ASCII rendering.
//
// The clock-gating block records TCKi/SE/window activity here; the Fig. 2
// bench replays the paper's timing diagram from a recording.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace lbist::sim {

enum class WireValue : uint8_t { kLow = 0, kHigh = 1, kX = 2 };

class Waveform {
 public:
  using SignalId = uint32_t;

  /// Registers a signal; initial value applies at time 0.
  SignalId addSignal(std::string_view name,
                     WireValue initial = WireValue::kLow);

  /// Records a value change at an absolute time in picoseconds. Times may
  /// arrive out of order across signals; they are sorted on export.
  void change(SignalId sig, uint64_t time_ps, WireValue value);

  /// Convenience: a positive pulse [t, t+width) on `sig`.
  void pulse(SignalId sig, uint64_t t_ps, uint64_t width_ps);

  [[nodiscard]] size_t numSignals() const { return names_.size(); }

  /// Value of `sig` at time t (last change at or before t).
  [[nodiscard]] WireValue valueAt(SignalId sig, uint64_t time_ps) const;

  /// Rising-edge times of `sig` (Low->High transitions), ascending.
  [[nodiscard]] std::vector<uint64_t> risingEdges(SignalId sig) const;

  [[nodiscard]] uint64_t endTime() const;

  /// IEEE 1364 VCD dump (1ps timescale).
  void writeVcd(std::ostream& os, std::string_view module_name = "lbist") const;

  /// Terminal rendering: one row per signal, `cols` time buckets wide.
  [[nodiscard]] std::string renderAscii(size_t cols = 100) const;

 private:
  struct Event {
    uint64_t time_ps;
    WireValue value;
  };
  std::vector<std::string> names_;
  std::vector<std::vector<Event>> events_;  // per signal, kept sorted

  [[nodiscard]] const std::vector<Event>& sorted(SignalId sig) const;
};

}  // namespace lbist::sim
