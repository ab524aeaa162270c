#include "dft/xbound.hpp"

#include <algorithm>

#include "dft/scan.hpp"
#include "sim/seqsim.hpp"

namespace lbist::dft {

XBoundResult boundAllX(Netlist& nl) {
  XBoundResult result;
  const GateId test_mode = ensureTestModePort(nl);
  const GateId not_tm = nl.addGate(CellKind::kNot, {test_mode});
  nl.setFlag(not_tm, kFlagDftInserted);

  auto block = [&](GateId src) {
    // users(src) -> AND(src, !test_mode): forces 0 whenever testing.
    const GateId gate = nl.addGate(CellKind::kAnd, {src, not_tm});
    nl.setFlag(gate, kFlagDftInserted);
    size_t rewired = 0;
    nl.forEachGate([&](GateId id, const Gate& g) {
      if (id == gate) return;
      for (size_t s = 0; s < g.fanins.size(); ++s) {
        if (g.fanins[s] == src) {
          nl.setFanin(id, s, gate);
          ++rewired;
        }
      }
    });
    for (size_t i = 0; i < nl.outputs().size(); ++i) {
      if (nl.outputs()[i].driver == src) nl.setOutputDriver(i, gate);
    }
    nl.setFlag(src, kFlagXBounded);
    result.blocking_gates.push_back(gate);
    return rewired;
  };

  for (GateId x : nl.xsources()) {
    if (nl.hasFlag(x, kFlagXBounded)) continue;
    block(x);
    ++result.bounded_xsources;
  }
  for (GateId dff : nl.dffs()) {
    if (!nl.hasFlag(dff, kFlagNoScan) || nl.hasFlag(dff, kFlagXBounded)) {
      continue;
    }
    block(dff);
    ++result.bounded_noscan_ffs;
  }
  return result;
}

std::vector<GateId> verifyNoXToObservation(const Netlist& nl, int cycles) {
  sim::SeqSimulator3v sim(nl);
  // Power-on pessimism: every FF unknown...
  sim.resetStateAllX();
  // ...except scan cells, which BIST loads with known values, and the
  // test-mode port held at 1.
  for (GateId dff : nl.dffs()) {
    if (nl.hasFlag(dff, kFlagScanCell)) sim.setState(dff, {0, 0});
  }
  for (GateId pi : nl.inputs()) {
    sim.setInput(pi, {0, 0});
  }
  if (auto tm = nl.findGateByName(kTestModePort)) {
    sim.setInput(*tm, {~uint64_t{0}, 0});
  }

  std::vector<GateId> offenders;
  auto check = [&] {
    for (const OutputPort& po : nl.outputs()) {
      if (sim.value(po.driver).x != 0) offenders.push_back(po.driver);
    }
    for (GateId dff : nl.dffs()) {
      if (!nl.hasFlag(dff, kFlagScanCell)) continue;
      const GateId d = nl.gate(dff).fanins[0];
      if (sim.value(d).x != 0) offenders.push_back(d);
    }
  };

  for (int c = 0; c < cycles; ++c) {
    sim.settle();
    check();
    if (!offenders.empty()) break;
    sim.pulseAll();
  }
  std::sort(offenders.begin(), offenders.end());
  offenders.erase(std::unique(offenders.begin(), offenders.end()),
                  offenders.end());
  return offenders;
}

}  // namespace lbist::dft
