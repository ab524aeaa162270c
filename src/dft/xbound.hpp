// X-bounding: making a core "BIST-ready" by blocking every unknown-value
// source (paper section 2.1: "a full-scan circuit with unknown value (X)
// sources properly blocked").
//
// An X reaching a MISR corrupts the signature permanently, so unlike
// ATPG-based scan testing, BIST tolerates no X at any observed net. X
// sources here are kXSource cells (memories, analog outputs, floating
// buses) and non-scannable flip-flops; each is forced to a constant 0 in
// test mode through an AND gate with the inverted test_mode signal.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.hpp"

namespace lbist::dft {

struct XBoundResult {
  size_t bounded_xsources = 0;
  size_t bounded_noscan_ffs = 0;
  std::vector<GateId> blocking_gates;
};

/// Blocks all X sources in place behind the kTestModePort input
/// (dft/scan.hpp); returns what was done. Idempotent: already-bounded
/// sources (kFlagXBounded) are skipped.
XBoundResult boundAllX(Netlist& nl);

/// Verifies, by three-valued simulation of `cycles` capture cycles with
/// every X source driven to X and all flip-flops starting at X except
/// scan cells (which BIST loads to known values), that no X can reach a
/// primary output or scan-cell D pin in test mode. Returns the offending
/// net ids (empty == clean).
std::vector<GateId> verifyNoXToObservation(const Netlist& nl, int cycles = 4);

}  // namespace lbist::dft
