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
#pragma once

#include <cstdint>
#include <span>
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
  /// the caller guarantees that.
  void pulseOps(std::span<const uint32_t> ops, std::span<const Load> loads);

  /// Evaluates combinational logic without clocking anything (to inspect
  /// steady-state values, e.g. PO reads between pulses).
  void settle() { sim_.eval(); }

  /// Value word of any gate after the last pulse()/settle().
  [[nodiscard]] uint64_t value(GateId id) const { return sim_.value(id); }
  /// The bound netlist.
  [[nodiscard]] const Netlist& netlist() const { return sim_.netlist(); }
  /// The compiled tables pulse() evaluates (op indices for pulseOps()).
  [[nodiscard]] const CompiledNetlist& compiled() const {
    return sim_.compiled();
  }

 private:
  Simulator2v sim_;
  std::vector<std::vector<GateId>> dffs_by_domain_;
  std::vector<uint64_t> next_;  // captured D values, one per loaded DFF
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
