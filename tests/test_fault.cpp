// Fault models, collapsing, and the PPSFP fault simulator — including a
// brute-force cross-check on random circuits, which is the ground truth
// for every coverage number in the benches.
#include <gtest/gtest.h>

#include <random>

#include "fault/fault.hpp"
#include "fault/fsim.hpp"
#include "gen/ipcore.hpp"
#include "gen/refcircuits.hpp"
#include "sim/sim2v.hpp"

namespace lbist::fault {
namespace {

std::vector<GateId> poDrivers(const Netlist& nl) {
  std::vector<GateId> obs;
  for (const OutputPort& po : nl.outputs()) obs.push_back(po.driver);
  std::sort(obs.begin(), obs.end());
  obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
  return obs;
}

TEST(FaultList, C17CollapsedCount) {
  // c17 under standard equivalence collapsing: NAND input sa0 collapses
  // onto the output sa1; branch faults exist only at multi-fanout stems
  // (in3, g2, g3 have fanout 2).
  Netlist nl = gen::buildC17();
  FaultList fl = FaultList::enumerateStuckAt(nl);
  // 11 stems (5 PI + 6 gates) x 2 = 22, plus branch faults: fanout
  // branches at in3 (2 branches), g2 (2), g3 (2) = 6 branch sites, each
  // keeping only sa1 (sa0 collapses into the NAND output) = 6.
  EXPECT_EQ(fl.size(), 28u);
}

TEST(FaultList, UncollapsedIsLarger) {
  Netlist nl = gen::buildC17();
  FaultListOptions opts;
  opts.collapse = false;
  FaultList full = FaultList::enumerateStuckAt(nl, opts);
  FaultList collapsed = FaultList::enumerateStuckAt(nl);
  EXPECT_GT(full.size(), collapsed.size());
  // Uncollapsed: every stem (11) and every pin (12) twice = 46.
  EXPECT_EQ(full.size(), 46u);
}

TEST(FaultList, ConstStemFaultsAreUntestable) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId zero = nl.addConst(false);
  const GateId g = nl.addGate(CellKind::kOr, {a, zero});
  nl.addOutput(g, "y");
  FaultList fl = FaultList::enumerateStuckAt(nl);
  size_t untestable = 0;
  for (size_t i = 0; i < fl.size(); ++i) {
    if (fl.record(i).status == FaultStatus::kUntestable) {
      ++untestable;
      EXPECT_EQ(fl.record(i).fault.gate, zero);
      EXPECT_EQ(fl.record(i).fault.type, FaultType::kStuckAt0);
    }
  }
  EXPECT_EQ(untestable, 1u);
}

TEST(FaultList, TransitionFaultsOnTiedNetsUntestable) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId one = nl.addConst(true);
  const GateId g = nl.addGate(CellKind::kAnd, {a, one});
  nl.addOutput(g, "y");
  FaultList fl = FaultList::enumerateTransition(nl);
  size_t untestable = 0;
  for (const FaultRecord& r : fl.records()) {
    if (r.status == FaultStatus::kUntestable) ++untestable;
  }
  EXPECT_EQ(untestable, 2u) << "both delay faults on the tied net";
}

TEST(FaultList, CoverageArithmetic) {
  Netlist nl = gen::buildC17();
  FaultList fl = FaultList::enumerateStuckAt(nl);
  fl.recordDetection(0, 5);
  fl.recordDetection(1, 9);
  fl.setStatus(2, FaultStatus::kUntestable);
  const Coverage c = fl.coverage();
  EXPECT_EQ(c.total, fl.size());
  EXPECT_EQ(c.detected, 2u);
  EXPECT_EQ(c.untestable, 1u);
  EXPECT_NEAR(c.faultCoveragePercent(),
              100.0 * 2 / static_cast<double>(fl.size()), 1e-9);
  EXPECT_NEAR(c.testCoveragePercent(),
              100.0 * 2 / static_cast<double>(fl.size() - 1), 1e-9);
  EXPECT_EQ(fl.record(0).first_detect_pattern, 5);
}

// --- brute-force cross-check -------------------------------------------------

/// Serial reference: full re-simulation with the fault forced, one fault
/// at a time, over the whole netlist.
uint64_t bruteForceDetectMask(const Netlist& nl,
                              const std::vector<uint64_t>& sources,
                              const Fault& f,
                              std::span<const GateId> obs) {
  sim::Simulator2v good(nl);
  sim::Simulator2v bad(nl);
  nl.forEachGate([&](GateId id, const Gate& g) {
    if (isSource(g.kind) && g.kind != CellKind::kConst0 &&
        g.kind != CellKind::kConst1) {
      good.setSource(id, sources[id.v]);
      bad.setSource(id, sources[id.v]);
    }
  });
  good.eval();
  // Faulty machine: evaluate level by level with the forcing applied.
  const uint64_t forced =
      f.type == FaultType::kStuckAt1 ? ~uint64_t{0} : uint64_t{0};
  const Levelized lev(nl);
  auto vals = bad.rawValues();
  if (f.pin == kOutputPin) vals[f.gate.v] = forced;
  for (GateId id : lev.combOrder()) {
    const Gate& g = nl.gate(id);
    uint64_t v;
    if (id == f.gate && f.pin != kOutputPin) {
      // Evaluate with one pin forced.
      std::vector<uint64_t> ins;
      for (size_t s = 0; s < g.fanins.size(); ++s) {
        ins.push_back(s == f.pin ? forced : vals[g.fanins[s].v]);
      }
      v = evalWord2v(g.kind, ins);
    } else {
      v = bad.evalGate(id);
    }
    if (id == f.gate && f.pin == kOutputPin) v = forced;
    vals[id.v] = v;
  }
  uint64_t detect = 0;
  for (GateId o : obs) detect |= vals[o.v] ^ good.value(o);
  return detect;
}

TEST(Fsim, MatchesBruteForceOnRandomCircuits) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    gen::IpCoreSpec spec;
    spec.seed = seed;
    spec.target_comb_gates = 300;
    spec.target_ffs = 24;
    spec.num_inputs = 12;
    spec.num_outputs = 10;
    spec.num_domains = 1;
    spec.num_xsources = 0;
    spec.num_noscan_ffs = 0;
    Netlist nl = gen::generateIpCore(spec);
    ASSERT_EQ(nl.validate(), "");
    // Observe POs and all DFF D pins (full-scan assumption).
    std::vector<GateId> obs = poDrivers(nl);
    for (GateId dff : nl.dffs()) obs.push_back(nl.gate(dff).fanins[0]);
    std::sort(obs.begin(), obs.end());
    obs.erase(std::unique(obs.begin(), obs.end()), obs.end());

    FaultList fl = FaultList::enumerateStuckAt(nl);
    FaultSimulator fsim(nl, fl, obs, FsimOptions{1, /*drop=*/false});

    std::mt19937_64 rng(seed * 1234567);
    std::vector<uint64_t> sources(nl.numGates(), 0);
    nl.forEachGate([&](GateId id, const Gate& g) {
      if (g.kind == CellKind::kInput || g.kind == CellKind::kDff) {
        sources[id.v] = rng();
        fsim.setSource(id, sources[id.v]);
      }
    });
    fsim.simulateBlockStuckAt(0, 64);

    size_t checked = 0;
    for (size_t i = 0; i < fl.size(); ++i) {
      const FaultRecord& r = fl.record(i);
      if (r.status == FaultStatus::kUntestable) continue;
      // DFF D-pin faults are "direct detect" in the engine; replicate.
      const Gate& g = nl.gate(r.fault.gate);
      uint64_t expect;
      if (r.fault.pin != kOutputPin && g.kind == CellKind::kDff) {
        continue;  // covered by dedicated test below
      }
      expect = bruteForceDetectMask(nl, sources, r.fault, obs);
      const bool detected = r.status == FaultStatus::kDetected;
      EXPECT_EQ(detected, expect != 0)
          << "seed " << seed << " fault " << fl.describe(nl, i);
      ++checked;
    }
    EXPECT_GT(checked, 100u);
  }
}

TEST(Fsim, NDetectCountsAllDetectingPatterns) {
  Netlist nl = gen::buildC17();
  FaultList fl = FaultList::enumerateStuckAt(nl);
  FaultSimulator fsim(nl, fl, poDrivers(nl), FsimOptions{1, /*drop=*/false});
  // Exhaustive 32-pattern block.
  for (int bit = 0; bit < 5; ++bit) {
    uint64_t w = 0;
    for (int lane = 0; lane < 32; ++lane) {
      if ((lane >> bit) & 1) w |= uint64_t{1} << lane;
    }
    fsim.setSource(nl.inputs()[static_cast<size_t>(bit)], w);
  }
  fsim.simulateBlockStuckAt(0, 32);
  // c17 is fully testable: every fault detected by the exhaustive set.
  const Coverage c = fl.coverage();
  EXPECT_EQ(c.detected, fl.size());
  for (const FaultRecord& r : fl.records()) {
    EXPECT_GE(r.detect_count, 1u);
  }
}

TEST(Fsim, DropDetectedShrinksActiveSet) {
  Netlist nl = gen::buildRippleAdder(8);
  FaultList fl = FaultList::enumerateStuckAt(nl);
  FaultSimulator fsim(nl, fl, poDrivers(nl));
  const size_t before = fsim.liveFaultCount();
  std::mt19937_64 rng(3);
  for (GateId pi : nl.inputs()) fsim.setSource(pi, rng());
  fsim.simulateBlockStuckAt(0, 64);
  EXPECT_LT(fsim.liveFaultCount(), before);
  EXPECT_EQ(fsim.liveFaultCount(), fl.undetectedIndices().size());
}

TEST(Fsim, ClassifyWithNoPinsFindsDanglingCone) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId used = nl.addGate(CellKind::kAnd, {a, b});
  const GateId dead = nl.addGate(CellKind::kOr, {a, b});
  const GateId dead2 = nl.addGate(CellKind::kNot, {dead});
  (void)dead2;
  nl.addOutput(used, "y");
  FaultList fl = FaultList::enumerateStuckAt(nl);
  FaultSimulator fsim(nl, fl, poDrivers(nl));
  const size_t marked = fsim.classifyUntestable();
  EXPECT_GE(marked, 4u);  // dead & dead2 stems at least
  for (size_t i = 0; i < fl.size(); ++i) {
    const bool in_dead_cone = fl.record(i).fault.gate == dead ||
                              fl.record(i).fault.gate == dead2;
    EXPECT_EQ(fl.record(i).status, in_dead_cone ? FaultStatus::kUntestable
                                                : FaultStatus::kUndetected)
        << fl.describe(nl, i);
  }
  EXPECT_EQ(fsim.liveFaultCount(), fl.size() - marked);
}

/// The structural check classifyUntestable replaced, kept as the
/// reference for its no-pins form: a fault is untestable when no path
/// leads from its gate to an observed gate, and a flop's D-pin fault
/// when the flop is not a scan cell.
void markStructurallyUnobservable(const Netlist& nl, FaultList& fl,
                                  const std::vector<GateId>& observed) {
  std::vector<uint8_t> reaches(nl.numGates(), 0);
  std::vector<GateId> queue = observed;
  for (GateId o : observed) reaches[o.v] = 1;
  while (!queue.empty()) {
    const GateId g = queue.back();
    queue.pop_back();
    if (!isCombinational(nl.gate(g).kind)) continue;
    for (GateId f : nl.gate(g).fanins) {
      if (reaches[f.v] == 0) {
        reaches[f.v] = 1;
        queue.push_back(f);
      }
    }
  }
  for (size_t i = 0; i < fl.size(); ++i) {
    FaultRecord& rec = fl.record(i);
    if (rec.status != FaultStatus::kUndetected) continue;
    const Gate& g = nl.gate(rec.fault.gate);
    const bool observable =
        rec.fault.pin != kOutputPin && g.kind == CellKind::kDff
            ? (g.flags & kFlagScanCell) != 0
            : reaches[rec.fault.gate.v] != 0;
    if (!observable) rec.status = FaultStatus::kUntestable;
  }
}

TEST(Fsim, ClassifyWithNoPinsMatchesTheStructuralCheck) {
  // Seeded cores with non-scan flops, X sources and half the scan
  // cells unobserved, so some cones reach no observation point. With no
  // pins the pass marks exactly what the structural check marks; with
  // two inputs held it marks a strict superset.
  for (const uint64_t seed : {3u, 4u, 5u}) {
    gen::IpCoreSpec spec;
    spec.seed = seed;
    spec.target_comb_gates = 400;
    spec.target_ffs = 32;
    spec.num_inputs = 12;
    spec.num_outputs = 8;
    spec.num_domains = 1;
    spec.num_xsources = 2;
    spec.num_noscan_ffs = 4;
    Netlist nl = gen::generateIpCore(spec);
    std::vector<GateId> obs = poDrivers(nl);
    bool observe = true;
    for (GateId dff : nl.dffs()) {
      if ((nl.gate(dff).flags & kFlagNoScan) != 0) continue;
      nl.setFlag(dff, kFlagScanCell);
      if (observe) obs.push_back(nl.gate(dff).fanins[0]);
      observe = !observe;
    }
    FaultList ref = FaultList::enumerateStuckAt(nl);
    markStructurallyUnobservable(nl, ref, obs);
    FaultList got = FaultList::enumerateStuckAt(nl);
    FaultSimulator(nl, got, obs).classifyUntestable();
    FaultList held = FaultList::enumerateStuckAt(nl);
    FaultSimulator(nl, held, obs)
        .classifyUntestable({{{nl.inputs()[0], false},
                              {nl.inputs()[1], true}}});
    size_t structural = 0;
    size_t extra = 0;
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got.record(i).status, ref.record(i).status)
          << "seed " << seed << ": " << ref.describe(nl, i);
      const bool marked = ref.record(i).status == FaultStatus::kUntestable;
      structural += marked ? 1 : 0;
      if (marked) {
        EXPECT_EQ(held.record(i).status, FaultStatus::kUntestable)
            << "seed " << seed << ": " << ref.describe(nl, i);
      } else if (held.record(i).status == FaultStatus::kUntestable) {
        ++extra;
      }
    }
    EXPECT_GT(structural, 0u) << "seed " << seed;
    EXPECT_GT(extra, 0u) << "seed " << seed;
  }
}

TEST(Fsim, HeldPinsTieAndBlockCones) {
  // te is held 0: it ties blk, and as the MUX select it blocks d1. g1
  // reaches y only through blk, so g1, a and b lose every path; c
  // reaches y through the selected MUX input and stays open.
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId c = nl.addInput("c");
  const GateId te = nl.addInput("te");
  const GateId g1 = nl.addGate(CellKind::kAnd, {a, b});
  const GateId blk = nl.addGate(CellKind::kAnd, {g1, te});
  const GateId m = nl.addGate(CellKind::kMux2, {c, b, te});
  const GateId y = nl.addGate(CellKind::kOr, {blk, m});
  nl.addOutput(y, "y");
  const std::vector<std::pair<GateId, bool>> held = {{te, false}};
  const FaultListOptions all{.collapse = false,
                             .include_pin_faults = true,
                             .mark_chain_faults = false};

  // Held at 0: te, blk and every pin they drive. Blocked: every fault
  // on a, b or g1 (stems and pins), blk.in0 (its gate is held) and
  // m.in1 (the unselected input). A stuck-at fault is untestable when
  // blocked or held at its stuck value; a held site with the opposite
  // stuck value (te sa1, say) is left open.
  const auto on_held_line = [&](const Fault& f) {
    return f.gate == te || (f.gate == blk && f.pin != 0) ||
           (f.gate == m && f.pin == 2) || (f.gate == y && f.pin == 0);
  };
  const auto blocked = [&](const Fault& f) {
    return f.gate == a || f.gate == b || f.gate == g1 ||
           (f.gate == blk && f.pin == 0) || (f.gate == m && f.pin == 1);
  };
  FaultList fl = FaultList::enumerateStuckAt(nl, all);
  {
    FaultSimulator fsim(nl, fl, poDrivers(nl));
    EXPECT_EQ(fsim.classifyUntestable(), 0u) << "every gate reaches y";
    const size_t marked = fsim.classifyUntestable(held);
    size_t expected = 0;
    for (size_t i = 0; i < fl.size(); ++i) {
      const Fault& f = fl.record(i).fault;
      const bool u = blocked(f) ||
                     (on_held_line(f) && f.type == FaultType::kStuckAt0);
      expected += u ? 1 : 0;
      EXPECT_EQ(fl.record(i).status,
                u ? FaultStatus::kUntestable : FaultStatus::kUndetected)
          << fl.describe(nl, i);
    }
    EXPECT_EQ(marked, expected);
    EXPECT_EQ(fsim.liveFaultCount(), fl.size() - marked);
  }

  // A held line never transitions: both delay faults on it are tied.
  FaultList tl = FaultList::enumerateTransition(nl, all);
  FaultSimulator tsim(nl, tl, poDrivers(nl));
  tsim.classifyUntestable(held);
  for (size_t i = 0; i < tl.size(); ++i) {
    const Fault& f = tl.record(i).fault;
    EXPECT_EQ(tl.record(i).status, blocked(f) || on_held_line(f)
                                       ? FaultStatus::kUntestable
                                       : FaultStatus::kUndetected)
        << tl.describe(nl, i);
  }
}

TEST(Fsim, ScanCellDPinFaultDirectlyDetected) {
  Netlist nl;
  const DomainId clk = nl.addClockDomain("clk", 1000);
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId g = nl.addGate(CellKind::kAnd, {a, b});
  const GateId g2 = nl.addGate(CellKind::kOr, {g, a});  // give g fanout 2
  const GateId ff = nl.addDff(g, clk, "ff");
  nl.setFlag(ff, kFlagScanCell);
  nl.addOutput(ff, "q");
  nl.addOutput(g2, "y");

  FaultList fl = FaultList::enumerateStuckAt(nl);
  // Find the DFF D-pin sa0 fault.
  size_t idx = fl.size();
  for (size_t i = 0; i < fl.size(); ++i) {
    const Fault& f = fl.record(i).fault;
    if (f.gate == ff && f.pin == 0 && f.type == FaultType::kStuckAt0) {
      idx = i;
    }
  }
  ASSERT_LT(idx, fl.size());

  std::vector<GateId> obs{g};  // scan observation = D driver
  FaultSimulator fsim(nl, fl, obs);
  fsim.setSource(a, ~uint64_t{0});
  fsim.setSource(b, ~uint64_t{0});  // D value 1, sa0 activated
  fsim.simulateBlockStuckAt(0, 64);
  EXPECT_EQ(fl.record(idx).status, FaultStatus::kDetected);
}

// --- transition faults -------------------------------------------------------

TEST(FsimTransition, DetectsSlowToRiseOnLaunchedTransition) {
  // y = DFF(a AND s): launch a rising transition through the AND.
  Netlist nl;
  const DomainId clk = nl.addClockDomain("clk", 1000);
  const GateId a = nl.addInput("a");
  const GateId zero = nl.addConst(false);
  const GateId s = nl.addDff(zero, clk, "s");
  nl.setFlag(s, kFlagScanCell);
  const GateId g = nl.addGate(CellKind::kAnd, {a, s});
  const GateId ff = nl.addDff(g, clk, "ff");
  nl.setFlag(ff, kFlagScanCell);
  nl.setFanin(s, 0, a);  // s follows a
  nl.addOutput(ff, "q");

  FaultList fl = FaultList::enumerateTransition(nl);
  std::vector<GateId> obs{g, a};
  FaultSimulator fsim(nl, fl, obs);
  // Launch state: s = 0, a = 1 -> cycle 1: g = 0; capture: s becomes 1,
  // g rises to 1. A slow-to-rise at g holds it at 0: detected at the
  // capture of ff.
  fsim.setSource(a, ~uint64_t{0});
  fsim.setSource(s, 0);
  fsim.setSource(ff, 0);
  fsim.simulateBlockTransition(0, 64);

  bool g_str_detected = false;
  for (size_t i = 0; i < fl.size(); ++i) {
    const FaultRecord& r = fl.record(i);
    if (r.fault.gate == g && r.fault.pin == kOutputPin &&
        r.fault.type == FaultType::kSlowToRise) {
      g_str_detected = r.status == FaultStatus::kDetected;
    }
  }
  EXPECT_TRUE(g_str_detected);
}

TEST(FsimTransition, NoTransitionNoDetection) {
  Netlist nl;
  const DomainId clk = nl.addClockDomain("clk", 1000);
  const GateId a = nl.addInput("a");
  const GateId ff = nl.addDff(a, clk, "ff");
  nl.setFlag(ff, kFlagScanCell);
  nl.addOutput(ff, "q");
  FaultList fl = FaultList::enumerateTransition(nl);
  std::vector<GateId> obs{a};
  FaultSimulator fsim(nl, fl, obs);
  fsim.setSource(a, ~uint64_t{0});  // static 1: no launch possible
  fsim.setSource(ff, ~uint64_t{0});
  fsim.simulateBlockTransition(0, 64);
  for (const FaultRecord& r : fl.records()) {
    if (r.fault.gate == a) {
      EXPECT_EQ(r.status, FaultStatus::kUndetected)
          << "static net cannot launch a transition";
    }
  }
}

TEST(FaultList, ChainFaultsPreMarked) {
  Netlist nl;
  const DomainId clk = nl.addClockDomain("clk", 1000);
  const GateId d = nl.addInput("d");
  const GateId si = nl.addInput("si");
  const GateId se = nl.addInput("se");
  const GateId mux = nl.addGate(CellKind::kMux2, {d, si, se});
  nl.setFlag(mux, kFlagScanMux);
  const GateId ff = nl.addDff(mux, clk, "ff");
  nl.setFlag(ff, kFlagScanCell);
  nl.addOutput(ff, "q");
  // Give si and se fanout > 1 so their branch faults exist.
  nl.addOutput(nl.addGate(CellKind::kXor, {si, se}), "t");

  FaultList fl = FaultList::enumerateStuckAt(nl);
  size_t chain_marked = 0;
  for (const FaultRecord& r : fl.records()) {
    if (r.status == FaultStatus::kChainTested) {
      ++chain_marked;
      EXPECT_EQ(r.fault.gate, mux);
      EXPECT_TRUE(r.fault.pin == 1 || r.fault.pin == 2);
    }
  }
  EXPECT_GT(chain_marked, 0u);
}

}  // namespace
}  // namespace lbist::fault
