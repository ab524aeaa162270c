// Word-parallel two-valued combinational simulator.
//
// Each bit lane is an independent test pattern. The simulator carries a
// runtime lane width of `laneWords()` 64-bit words per gate (1, 4, or 8
// — see sim/lane.hpp), so one eval() pass simulates up to 64*W patterns
// (PPSFP substrate). Values are stored gate-major with stride W: gate
// g's lanes live at words [g*W, g*W + W) of rawValues(). Sequential
// behaviour is layered on top by SeqSimulator / the fault simulator,
// which treat DFF outputs as pseudo primary inputs and DFF D pins as
// pseudo primary outputs.
//
// eval() runs on the compiled kernel (sim/compiled.hpp): a linear sweep
// over the flat opcode stream with no Gate record access, dispatched to
// the evalW<W> instantiation matching the runtime width. The
// gate-record-walking path survives as evalInterpreted()/evalGate() — the
// reference the differential tests pin the kernel against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"
#include "sim/lane.hpp"

namespace lbist::sim {

/// Word-parallel two-valued simulator on the compiled kernel; each bit
/// lane of a W-word block is an independent pattern.
class Simulator2v {
 public:
  /// Binds the netlist and lowers it to the compiled tables once.
  /// `lane_words` is the per-gate block width in 64-bit words (one of
  /// isSupportedLaneWords(); default 1 keeps the classic 64-lane shape).
  explicit Simulator2v(const Netlist& nl, size_t lane_words = 1);

  /// Lane-block width in 64-bit words (the W of the storage layout).
  [[nodiscard]] size_t laneWords() const { return lane_words_; }
  /// Number of pattern lanes per eval() pass (64 * laneWords()).
  [[nodiscard]] size_t lanes() const { return lane_words_ * 64; }

  /// Broadcasts one 64-bit word into every lane word of a source gate
  /// (primary input, X-source stand-in, or DFF output acting as
  /// pseudo-PI). For per-pattern stimulus beyond 64 lanes use
  /// setSourceWord/setSourceRow; broadcast is the right semantic for
  /// forced and fixed control pins, which are constant across lanes.
  void setSource(GateId id, uint64_t word) {
    uint64_t* p = values_.data() + size_t{id.v} * lane_words_;
    for (size_t i = 0; i < lane_words_; ++i) p[i] = word;
  }

  /// Sets word `wi` (lanes [wi*64, wi*64+64)) of a source gate's block.
  void setSourceWord(GateId id, size_t wi, uint64_t word) {
    values_[size_t{id.v} * lane_words_ + wi] = word;
  }

  /// Copies a full laneWords()-wide row into a source gate's block.
  void setSourceRow(GateId id, const uint64_t* row) {
    uint64_t* p = values_.data() + size_t{id.v} * lane_words_;
    for (size_t i = 0; i < lane_words_; ++i) p[i] = row[i];
  }

  /// Full-pass evaluation of every combinational gate in level order,
  /// on the compiled kernel, dispatched by lane width.
  void eval();

  /// Reference full pass over the Gate records (bit-identical to eval();
  /// kept for differential testing of the compiled kernel).
  void evalInterpreted();

  /// First value word of a gate after eval() (lanes 0..63 — the classic
  /// 64-lane accessor; wider blocks read valueWord/valueRow).
  [[nodiscard]] uint64_t value(GateId id) const {
    return values_[size_t{id.v} * lane_words_];
  }

  /// Word `wi` of a gate's value block (lanes [wi*64, wi*64+64)).
  [[nodiscard]] uint64_t valueWord(GateId id, size_t wi) const {
    return values_[size_t{id.v} * lane_words_ + wi];
  }

  /// The full laneWords()-wide value row of a gate, as a LaneMask view
  /// (borrowing this simulator's buffer — valid until the next eval or
  /// source write).
  [[nodiscard]] LaneMask valueRow(GateId id) const {
    return LaneMask(values_.data() + size_t{id.v} * lane_words_,
                    lane_words_);
  }

  /// First word of the value presented at a DFF's data pin (its next
  /// state after a capture), lanes 0..63.
  [[nodiscard]] uint64_t dffNextState(GateId dff) const {
    return values_[size_t{nl_->gate(dff).fanins[0].v} * lane_words_];
  }

  /// The bound netlist.
  [[nodiscard]] const Netlist& netlist() const { return *nl_; }

  /// Compiled tables, shared with engines layered on top (the fault
  /// simulator's overlay evaluation reads the same arrays).
  [[nodiscard]] const CompiledNetlist& compiled() const { return compiled_; }

  /// Mutable access for engines layered on top (fault injection).
  /// Gate-major, stride laneWords(): gate g at [g*W, g*W + W).
  [[nodiscard]] std::span<uint64_t> rawValues() { return values_; }
  /// Read-only view of the per-gate value words (same layout).
  [[nodiscard]] std::span<const uint64_t> rawValues() const { return values_; }

  /// Recomputes word `wi` of one gate from current fanin values
  /// (interpreted path). Source kinds (inputs, constants, X-sources, DFF
  /// outputs) hold their externally set words.
  [[nodiscard]] uint64_t evalGate(GateId id, size_t wi = 0) const;

 private:
  const Netlist* nl_;
  Levelized lev_;
  CompiledNetlist compiled_;
  size_t lane_words_;
  std::vector<uint64_t> values_;
  // Lifetime accounting of values_ under sim.lane_bytes: the per-gate
  // lane block is the simulator's dominant allocation and scales with
  // lane_words, the knob BENCH_fsim sweeps.
  obs::GaugeCharge lane_charge_;
};

}  // namespace lbist::sim
