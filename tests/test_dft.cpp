// DFT transforms: scan insertion, X-bounding, test points, COP, retiming.
#include <gtest/gtest.h>

#include <random>

#include "dft/cop.hpp"
#include "dft/retime.hpp"
#include "dft/scan.hpp"
#include "dft/test_points.hpp"
#include "dft/xbound.hpp"
#include "fault/fsim.hpp"
#include "gen/ipcore.hpp"
#include "gen/refcircuits.hpp"
#include "sim/seqsim.hpp"

namespace lbist::dft {
namespace {

Netlist smallCore(uint64_t seed = 11, int domains = 2) {
  gen::IpCoreSpec spec;
  spec.seed = seed;
  spec.target_comb_gates = 600;
  spec.target_ffs = 60;
  spec.num_inputs = 16;
  spec.num_outputs = 12;
  spec.num_domains = domains;
  spec.num_xsources = 2;
  spec.num_noscan_ffs = 3;
  return gen::generateIpCore(spec);
}

TEST(Scan, ChainsAreBalancedAndPerDomain) {
  Netlist nl = smallCore();
  boundAllX(nl);
  ScanConfig cfg;
  cfg.num_chains = 6;
  const ScanResult scan = insertScan(nl, cfg);
  EXPECT_EQ(nl.validate(), "");
  EXPECT_EQ(scan.chains.size(), 6u);
  size_t cells = 0;
  for (const ScanChain& c : scan.chains) {
    EXPECT_FALSE(c.cells.empty());
    cells += c.cells.size();
    for (GateId cell : c.cells) {
      EXPECT_EQ(nl.gate(cell).domain, c.domain)
          << "chains must not cross clock domains";
      EXPECT_TRUE(nl.hasFlag(cell, kFlagScanCell));
    }
    EXPECT_LE(c.cells.size(), scan.max_chain_length);
  }
  EXPECT_EQ(cells, scan.scan_cells);
  // Every scannable (non-noscan) DFF is in exactly one chain.
  size_t scannable = 0;
  for (GateId dff : nl.dffs()) {
    if (!nl.hasFlag(dff, kFlagNoScan)) ++scannable;
  }
  EXPECT_EQ(cells, scannable);
}

TEST(Scan, ShiftMovesDataThroughChain) {
  Netlist nl = smallCore(5, 1);
  boundAllX(nl);
  ScanConfig cfg;
  cfg.num_chains = 2;
  cfg.wrap_ios = false;
  const ScanResult scan = insertScan(nl, cfg);
  const ScanChain& chain = scan.chains[0];

  sim::SeqSimulator sim(nl);
  sim.resetState(0);
  for (GateId pi : nl.inputs()) sim.setInput(pi, 0);
  sim.setInput(scan.se_port, ~uint64_t{0});  // shift mode
  if (scan.test_mode_port.valid()) {
    sim.setInput(scan.test_mode_port, ~uint64_t{0});
  }
  if (auto tm = nl.findGateByName(kTestModePort)) {
    sim.setInput(*tm, ~uint64_t{0});
  }

  // Shift a recognizable pattern into the chain.
  std::mt19937_64 rng(99);
  std::vector<uint64_t> stream(chain.cells.size());
  for (auto& w : stream) w = rng();
  for (uint64_t w : stream) {
    sim.setInput(chain.si_port, w);
    sim.pulseAll();
  }
  // After N shifts, cell j holds stream[N-1-j].
  for (size_t j = 0; j < chain.cells.size(); ++j) {
    EXPECT_EQ(sim.state(chain.cells[j]),
              stream[chain.cells.size() - 1 - j])
        << "cell " << j;
  }
  // And the SO presents the last cell's state.
  sim.settle();
  EXPECT_EQ(sim.value(chain.so_driver), stream[0]);
}

TEST(Scan, CaptureModePreservesFunctionalNextState) {
  // With SE=0 and test_mode=0, the scan-inserted netlist must compute the
  // same next state as the original.
  Netlist orig = gen::buildMiniAlu(4);
  Netlist scanned = gen::buildMiniAlu(4);
  const ScanResult scan = insertScan(scanned, {.num_chains = 1});

  sim::SeqSimulator s_orig(orig);
  sim::SeqSimulator s_scan(scanned);
  std::mt19937_64 rng(4);
  for (GateId pi : orig.inputs()) {
    const uint64_t w = rng();
    s_orig.setInput(pi, w);
    s_scan.setInput(*scanned.findGateByName(orig.gateName(pi)), w);
  }
  s_scan.setInput(scan.se_port, 0);
  if (scan.test_mode_port.valid()) s_scan.setInput(scan.test_mode_port, 0);
  s_orig.resetState(0);
  s_scan.resetState(0);
  for (int t = 0; t < 4; ++t) {
    s_orig.pulseAll();
    s_scan.pulseAll();
  }
  for (GateId dff : orig.dffs()) {
    const std::string name = orig.gateName(dff);
    EXPECT_EQ(s_orig.state(dff), s_scan.state(*scanned.findGateByName(name)))
        << name;
  }
}

TEST(Scan, WrapperCellsCoverAllIos) {
  Netlist nl = gen::buildMiniAlu(4);
  const size_t pis = nl.inputs().size();
  const size_t pos = nl.outputs().size();
  const ScanResult scan = insertScan(nl, {.num_chains = 2});
  // +1 input for test_mode, +1 SI per chain, SE.
  EXPECT_EQ(scan.wrapper_cells, pis + pos);
  EXPECT_EQ(nl.validate(), "");
}

TEST(Scan, RejectsDoubleInsertion) {
  Netlist nl = smallCore();
  boundAllX(nl);
  (void)insertScan(nl, {.num_chains = 4});
  EXPECT_THROW(insertScan(nl, {.num_chains = 4}), std::invalid_argument);
}

TEST(Scan, RejectsChainBudgetBelowDomains) {
  Netlist nl = smallCore(7, 4);
  boundAllX(nl);
  EXPECT_THROW(insertScan(nl, {.num_chains = 2}), std::invalid_argument);
}

TEST(XBound, BlocksAllSourcesAndVerifies) {
  Netlist nl = smallCore();
  const XBoundResult xb = boundAllX(nl);
  EXPECT_EQ(xb.bounded_xsources, 2u);
  EXPECT_EQ(xb.bounded_noscan_ffs, 3u);
  (void)insertScan(nl, {.num_chains = 4});
  EXPECT_EQ(nl.validate(), "");
  const auto offenders = verifyNoXToObservation(nl);
  EXPECT_TRUE(offenders.empty())
      << offenders.size() << " nets still see X, first: "
      << nl.gateName(offenders.empty() ? GateId{0} : offenders[0]);
}

TEST(XBound, UnboundedCoreFailsVerification) {
  Netlist nl = smallCore();
  (void)insertScan(nl, {.num_chains = 4});  // scan without X-bounding
  const auto offenders = verifyNoXToObservation(nl);
  EXPECT_FALSE(offenders.empty())
      << "X sources must corrupt observation without bounding";
}

TEST(XBound, Idempotent) {
  Netlist nl = smallCore();
  boundAllX(nl);
  const size_t gates_after_first = nl.numGates();
  const XBoundResult again = boundAllX(nl);
  EXPECT_EQ(again.bounded_xsources, 0u);
  EXPECT_EQ(again.bounded_noscan_ffs, 0u);
  // Only the NOT gate of the second pass is added (no sources rewired).
  EXPECT_LE(nl.numGates(), gates_after_first + 1);
}

TEST(Cop, ControllabilityMatchesIntuition) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId c = nl.addInput("c");
  const GateId d = nl.addInput("d");
  const GateId and4 = nl.addGate(CellKind::kAnd, {a, b, c, d});
  const GateId or2 = nl.addGate(CellKind::kOr, {a, b});
  const GateId xo = nl.addGate(CellKind::kXor, {a, b});
  nl.addOutput(and4, "o1");
  nl.addOutput(or2, "o2");
  nl.addOutput(xo, "o3");
  const CopMetrics m = computeCop(nl, std::vector<GateId>{and4, or2, xo});
  EXPECT_NEAR(m.c1[and4.v], 0.0625, 1e-12);
  EXPECT_NEAR(m.c1[or2.v], 0.75, 1e-12);
  EXPECT_NEAR(m.c1[xo.v], 0.5, 1e-12);
  EXPECT_NEAR(m.obs[and4.v], 1.0, 1e-12);
  // a's observability through the AND4 requires b=c=d=1 (1/8), through
  // OR requires b=0 (1/2), through XOR always: max = 1.
  EXPECT_NEAR(m.obs[a.v], 1.0, 1e-12);
}

TEST(Cop, DeepAndTreeHasLowObservability) {
  // A wide AND cone: leaves are nearly unobservable, and COP says so.
  Netlist nl;
  std::vector<GateId> leaves;
  for (int i = 0; i < 16; ++i) {
    leaves.push_back(nl.addInput("i" + std::to_string(i)));
  }
  GateId acc = leaves[0];
  for (int i = 1; i < 16; ++i) {
    acc = nl.addGate(CellKind::kAnd, {acc, leaves[static_cast<size_t>(i)]});
  }
  nl.addOutput(acc, "y");
  const CopMetrics m = computeCop(nl, std::vector<GateId>{acc});
  EXPECT_LT(m.obs[leaves[0].v], 1e-3);
}

TEST(Tpi, FaultSimGuidedPointsRaiseCoverage) {
  gen::IpCoreSpec spec;
  spec.seed = 21;
  spec.target_comb_gates = 1500;
  spec.target_ffs = 80;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_domains = 1;
  spec.num_xsources = 0;
  spec.num_noscan_ffs = 0;
  spec.resistant_fraction = 0.15;  // heavy random-resistant content
  Netlist nl = gen::generateIpCore(spec);

  TpiConfig cfg;
  cfg.max_points = 24;
  cfg.warmup_patterns = 1024;
  cfg.guidance_patterns = 256;
  const TpiResult tpi = selectObservePointsFaultSim(nl, cfg);
  ASSERT_FALSE(tpi.points.empty());
  EXPECT_LE(tpi.points.size(), 24u);

  // Measure coverage with and without the points under the same budget.
  auto measure = [](Netlist core, std::span<const GateId> points) {
    if (!points.empty()) insertObservePoints(core, points);
    fault::FaultList faults = fault::FaultList::enumerateStuckAt(core);
    std::vector<GateId> obs;
    for (const OutputPort& po : core.outputs()) obs.push_back(po.driver);
    for (GateId dff : core.dffs()) obs.push_back(core.gate(dff).fanins[0]);
    std::sort(obs.begin(), obs.end());
    obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
    fault::FaultSimulator fsim(core, faults, obs);
    fsim.classifyUntestable();
    std::mt19937_64 rng(77);
    for (int64_t base = 0; base < 4096; base += 64) {
      for (GateId pi : core.inputs()) fsim.setSource(pi, rng());
      for (GateId dff : core.dffs()) fsim.setSource(dff, rng());
      fsim.simulateBlockStuckAt(base, 64);
    }
    return faults.coverage().faultCoveragePercent();
  };

  const double base = measure(nl, {});
  const double with_points = measure(nl, tpi.points);
  EXPECT_GT(with_points, base + 0.5)
      << "observation points must raise random-pattern coverage";
}

TEST(Tpi, SelectionMatchesTheRecordedPoints) {
  // The point list and predicted detections of the default TpiConfig on
  // an X-bounded seeded core. Any change to the warm-up or guidance
  // pattern streams, the candidate pool or the greedy cover fails here.
  // Recorded while the guidance seed, round count, pool size, fault cap
  // and minimum gain were still TpiConfig options.
  Netlist nl = smallCore();
  boundAllX(nl);
  const TpiResult tpi = selectObservePointsFaultSim(nl, TpiConfig{});
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(tpi.points.size());
  for (GateId g : tpi.points) mix(g.v);
  mix(tpi.predicted_new_detections);
  EXPECT_EQ(tpi.points.size(), 15u);
  EXPECT_EQ(tpi.predicted_new_detections, 160u);
  EXPECT_EQ(h, 0x3ce246ee0061cbc4ull) << std::hex << "0x" << h;
}

TEST(Tpi, CopBaselineSelectsLowObservabilityNets) {
  Netlist nl = smallCore(31, 1);
  const auto points = selectObservePointsCop(nl, 10);
  EXPECT_EQ(points.size(), 10u);
  const CopMetrics m = computeCop(nl, std::vector<GateId>(
      nl.outputs().empty() ? std::vector<GateId>{}
                           : std::vector<GateId>{nl.outputs()[0].driver}));
  (void)m;  // selection itself checked for determinism below
  const auto again = selectObservePointsCop(nl, 10);
  EXPECT_EQ(points.size(), again.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i], again[i]) << "COP selection must be deterministic";
  }
}

TEST(Tpi, InsertObservePointsGroupsByXor) {
  Netlist nl = smallCore(41, 1);
  const size_t gates_before = nl.numGates();
  std::vector<GateId> nets;
  nl.forEachGate([&](GateId id, const Gate& g) {
    if (isCombinational(g.kind) && nets.size() < 8) nets.push_back(id);
  });
  const auto cells = insertObservePoints(nl, nets, {.group_size = 4});
  EXPECT_EQ(cells.size(), 2u);  // 8 nets / 4 per FF
  EXPECT_EQ(nl.numGates(), gates_before + 2 /*xor*/ + 2 /*dff*/);
  for (GateId c : cells) {
    EXPECT_TRUE(nl.hasFlag(c, kFlagObservePoint));
  }
  EXPECT_EQ(nl.validate(), "");
}

// --- retiming / Fig. 3 -------------------------------------------------------

TEST(Retime, SkewCausesHoldThenPhaseAheadConfinesIt) {
  // Without countermeasures, negative skew (chain clock early) breaks
  // hold on prpg->chain; positive skew breaks setup on chain->misr.
  Fig3Params p;
  p.skew_ps = -800;
  EXPECT_FALSE(buildFig3Model(p).clean());

  // Phase-ahead alone fixes nothing by itself if lead is too small...
  p.prpg_phase_lead_ps = 200;
  EXPECT_FALSE(buildFig3Model(p).clean());

  // ...but with the documented recipe (lead > |skew| plus retime stage)
  // the shift path closes.
  p.prpg_phase_lead_ps = 1000;
  p.retimed = true;
  EXPECT_TRUE(buildFig3Model(p).clean());
}

TEST(Retime, ViolationPolarityMatchesPaper) {
  // With the PRPG/MISR clock ahead in phase, the paper asserts only hold
  // can fail on prpg->chain and only setup on chain->misr. Sweep skew over
  // the range where the lead actually keeps the PRPG clock ahead
  // (skew >= -lead) and check the polarity claim.
  for (int64_t skew = -500; skew <= 2000; skew += 250) {
    Fig3Params p;
    p.skew_ps = skew;
    p.prpg_phase_lead_ps = 500;
    const auto checks = buildFig3Model(p).check();
    for (const HopCheck& c : checks) {
      if (c.name.find("prpg->") == 0) {
        EXPECT_FALSE(c.setup_violation)
            << "skew " << skew << ": phase-ahead PRPG must not fail setup";
      }
      if (c.name == "chain->misr") {
        EXPECT_FALSE(c.hold_violation)
            << "skew " << skew << ": MISR hop must not fail hold";
      }
    }
  }
}

TEST(Retime, StructuralLockupPreservesShiftStream) {
  Netlist nl = smallCore(51, 2);
  boundAllX(nl);
  ScanConfig cfg;
  cfg.num_chains = 2;
  cfg.wrap_ios = false;
  ScanResult scan = insertScan(nl, cfg);
  ScanChain& chain = scan.chains[0];
  const size_t len = chain.cells.size();
  const GateId lockup = insertRetimingFlop(nl, chain);
  EXPECT_TRUE(nl.hasFlag(lockup, kFlagRetimeFf));
  EXPECT_EQ(nl.validate(), "");

  // The stream now takes len+1 cycles to fill but arrives intact.
  sim::SeqSimulator sim(nl);
  sim.resetState(0);
  for (GateId pi : nl.inputs()) sim.setInput(pi, 0);
  sim.setInput(scan.se_port, ~uint64_t{0});
  if (auto tm = nl.findGateByName(kTestModePort)) {
    sim.setInput(*tm, ~uint64_t{0});
  }
  std::mt19937_64 rng(123);
  std::vector<uint64_t> stream(len + 1);
  for (auto& w : stream) w = rng();
  for (uint64_t w : stream) {
    sim.setInput(chain.si_port, w);
    sim.pulseAll();
  }
  // The chain is now one stage deeper: after len+1 pulses, cell j holds
  // the word injected at pulse (len+1) - 2 - j = len-1-j.
  for (size_t j = 0; j < len; ++j) {
    EXPECT_EQ(sim.state(chain.cells[j]), stream[len - 1 - j])
        << "cell " << j;
  }
}

}  // namespace
}  // namespace lbist::dft
