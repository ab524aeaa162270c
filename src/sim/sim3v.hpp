// Word-parallel three-valued (01X) combinational simulator.
//
// Used by the X-bounding pass to find which observation paths an unbounded
// X source can corrupt, and by BIST signature analysis to prove the
// BIST-ready core drives no X into a MISR.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/cell.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"

namespace lbist::sim {

/// Word-parallel 01X simulator over interpreted Gate records (the
/// compiled scalar counterpart lives in CompiledNetlist::evalOp3).
class Simulator3v {
 public:
  /// Binds the netlist; constants and X-sources get their fixed values.
  explicit Simulator3v(const Netlist& nl);

  /// Sets a source word (canonicalized so equal signals compare equal).
  void setSource(GateId id, Word3v w) { values_[id.v] = w.canonical(); }
  /// Sets every lane of a source to X.
  void setSourceAllX(GateId id) { values_[id.v] = {0, ~uint64_t{0}}; }

  /// Full-pass evaluation of the combinational core in level order.
  void eval();

  /// Value of a gate after eval().
  [[nodiscard]] Word3v value(GateId id) const { return values_[id.v]; }
  /// Value presented at a DFF's data pin (its next state on capture).
  [[nodiscard]] Word3v dffNextState(GateId dff) const {
    return values_[nl_->gate(dff).fanins[0].v];
  }

  /// The bound netlist.
  [[nodiscard]] const Netlist& netlist() const { return *nl_; }

 private:
  const Netlist* nl_;
  Levelized lev_;
  std::vector<Word3v> values_;
  std::vector<Word3v> ins_;
};

}  // namespace lbist::sim
