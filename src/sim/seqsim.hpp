// Multi-clock-domain sequential simulators (two- and three-valued).
//
// A "pulse" is one active clock edge delivered to a *set* of domains at
// the same instant: combinational logic is evaluated from the current
// state, then exactly the flip-flops of the pulsed domains load their D
// values. The BIST clock-gating block (src/bist/clocking.*) lowers its
// edge timeline onto sequences of pulse() calls, which is what makes the
// double-capture scheme and inter-domain capture staggering (paper
// Fig. 2) cycle-accurate in simulation. A reduced pulse (pulseOps)
// evaluates a caller-chosen slice of the logic instead; BistSession's
// shift pulses use it, and pulse() is its full-eval reference.
//
// Lane-masked stuck-at forces turn the 64 lanes of SeqSimulator into 64
// machines, each with its own faults: parallel-fault sequential
// simulation in the manner of PROOFS (Niermann, Cheng & Patel, IEEE
// TCAD 1992). A force acts exactly as fault::injectStuckAt rewires a
// netlist copy, so lane k of a forced run equals a one-machine run of
// the die with lane k's faults injected. A one-machine run is the
// no-force case of the same loops.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/sim2v.hpp"
#include "sim/sim3v.hpp"

namespace lbist::sim {

/// Two-valued sequential simulator: word-parallel state + per-domain
/// clock pulses over the compiled combinational core.
class SeqSimulator {
 public:
  /// Binds the netlist; DFF states start at 0.
  explicit SeqSimulator(const Netlist& nl);

  /// Sets a primary-input word for subsequent evaluation.
  void setInput(GateId pi, uint64_t word) { sim_.setSource(pi, word); }
  /// Overwrites one DFF's state word (scan load).
  void setState(GateId dff, uint64_t word) { sim_.setSource(dff, word); }
  /// Current state word of a DFF.
  [[nodiscard]] uint64_t state(GateId dff) const { return sim_.value(dff); }

  /// Sets every DFF state to `word` (per-lane broadcast).
  void resetState(uint64_t word = 0);

  /// Force::pin value naming the gate's output stem.
  static constexpr uint8_t kStem = 0xff;
  /// One lane-masked stuck-at force: in the lanes set in `lanes`, the
  /// output stem of `gate` (pin == kStem) or its fanin slot `pin` reads
  /// `value`.
  struct Force {
    GateId gate;
    uint8_t pin = kStem;
    bool value = false;
    uint64_t lanes = 0;
  };
  /// Replaces the forces in effect; an empty span removes them all.
  /// Forces on one gate combine lane by lane. A forced combinational
  /// stem takes its constant after the gate evaluates; a forced pin
  /// re-evaluates the gate with that pin's word substituted; a forced
  /// flop D pin masks what the flop loads. A stem force on a source (an
  /// input, a constant, an X-source or a flop) acts on every pin that
  /// reads the source, as injection rewires them, so the source's own
  /// value() and a flop's state() stay unforced: a forced output on a
  /// chain's last cell still shows its captured state at SO. Throws
  /// std::invalid_argument on a pin the gate does not have.
  void setForces(std::span<const Force> forces);
  /// Combinational gates some force acts on (forced stems, forced pins
  /// and the readers of forced sources), ascending.
  [[nodiscard]] std::vector<GateId> forcedGates() const;

  /// One active edge for each domain in `domains` simultaneously.
  void pulse(std::span<const DomainId> domains);
  /// Single-domain convenience overload of pulse().
  void pulse(DomainId domain) { pulse({&domain, 1}); }
  /// One active edge for every domain (classic synchronous cycle).
  void pulseAll();

  /// One flop load of a reduced pulse: `dff` takes the value of `from`.
  struct Load {
    GateId dff;
    GateId from;
  };
  /// Reduced active edge: evaluates only `ops` (compiled op indices in
  /// ascending, hence topological, order), then every `loads` flop takes
  /// its source's value at once. It equals a pulse() of those flops only
  /// if every other gate the ops and loads read already holds its value;
  /// the caller guarantees that. Under forces, `loads` must be in
  /// ascending flop order, and a load whose source bypasses a forced
  /// gate (a MUX walked through to its selected input) is the caller's
  /// error: forcedGates() lists the gates to stop at.
  void pulseOps(std::span<const uint32_t> ops, std::span<const Load> loads);

  /// Evaluates combinational logic without clocking anything (to inspect
  /// steady-state values, e.g. PO reads between pulses).
  void settle();

  /// Value word of any gate after the last pulse()/settle().
  [[nodiscard]] uint64_t value(GateId id) const { return sim_.value(id); }
  /// The bound netlist.
  [[nodiscard]] const Netlist& netlist() const { return sim_.netlist(); }
  /// The compiled tables pulse() evaluates (op indices for pulseOps()).
  [[nodiscard]] const CompiledNetlist& compiled() const {
    return sim_.compiled();
  }

 private:
  // Lane-masked constant: a word w reads (w & keep) | set.
  struct LaneConst {
    uint64_t keep = ~uint64_t{0};
    uint64_t set = 0;
    // Forces `value` in `lanes`.
    void add(uint64_t lanes, bool value) {
      keep &= ~lanes;
      set = (set & ~lanes) | (value ? lanes : 0);
    }
    // `w` as the forced lanes read it.
    [[nodiscard]] uint64_t apply(uint64_t w) const { return (w & keep) | set; }
  };
  // One forced op: its output constant and its forced fanin slots.
  struct ForcedOp {
    uint32_t op = 0;
    LaneConst out;
    std::vector<std::pair<uint32_t, LaneConst>> pins;
  };
  // One forced flop D pin.
  struct ForcedLoad {
    GateId dff;
    DomainId domain;
    LaneConst d;
  };

  [[nodiscard]] uint64_t evalForcedOp(const ForcedOp& f,
                                      const uint64_t* v) const;

  Simulator2v sim_;
  std::vector<std::vector<GateId>> dffs_by_domain_;
  std::vector<uint64_t> next_;  // captured D values, one per loaded DFF
  // The forces in effect, in ascending op and flop order.
  std::vector<ForcedOp> forced_ops_;
  std::vector<ForcedLoad> forced_loads_;
};

/// Three-valued counterpart of SeqSimulator (power-on X analysis,
/// X-bounding verification).
class SeqSimulator3v {
 public:
  /// Binds the netlist; DFF states start at X.
  explicit SeqSimulator3v(const Netlist& nl);

  /// Sets a primary-input word for subsequent evaluation.
  void setInput(GateId pi, Word3v w) { sim_.setSource(pi, w); }
  /// Overwrites one DFF's state word (scan load).
  void setState(GateId dff, Word3v w) { sim_.setSource(dff, w); }
  /// Current state word of a DFF.
  [[nodiscard]] Word3v state(GateId dff) const { return sim_.value(dff); }

  /// Sets every DFF state to unknown (power-on).
  void resetStateAllX();
  /// Sets every DFF state to a known word (per-lane broadcast).
  void resetState(uint64_t word);

  /// One active edge for each domain in `domains` simultaneously.
  void pulse(std::span<const DomainId> domains);
  /// Single-domain convenience overload of pulse().
  void pulse(DomainId domain) { pulse({&domain, 1}); }
  /// One active edge for every domain (classic synchronous cycle).
  void pulseAll();
  /// Evaluates combinational logic without clocking anything.
  void settle() { sim_.eval(); }

  /// Value word of any gate after the last pulse()/settle().
  [[nodiscard]] Word3v value(GateId id) const { return sim_.value(id); }
  /// The bound netlist.
  [[nodiscard]] const Netlist& netlist() const { return sim_.netlist(); }

 private:
  Simulator3v sim_;
  std::vector<std::vector<GateId>> dffs_by_domain_;
  std::vector<Word3v> next_;
};

}  // namespace lbist::sim
