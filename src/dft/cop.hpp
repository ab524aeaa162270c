// COP (Controllability/Observability Program) testability metrics.
//
// Classic probability propagation: C1(g) is the probability the net is 1
// under independent uniformly random inputs; O(g) the probability a value
// change at the net propagates to an observation. Previous logic BIST
// schemes select test points from these static estimates; the paper
// replaces that with fault-simulation guidance (section 2.1) and this
// module supplies the prior-art baseline for the TPI ablation bench, plus
// the controllability guidance PODEM's backtrace uses.
#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace lbist::dft {

struct CopMetrics {
  std::vector<double> c1;   // P(net == 1), indexed by gate id
  std::vector<double> obs;  // P(change at net seen at an observation)
};

/// `observed` is the set of nets the tester sees (PO drivers, scan-cell D
/// drivers); their observability is 1.
[[nodiscard]] CopMetrics computeCop(const Netlist& nl,
                                    std::span<const GateId> observed);

}  // namespace lbist::dft
