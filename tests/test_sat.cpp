// SAT-based ATPG: the CDCL engine proven correct differentially against
// compiled PODEM, exhaustive input enumeration, and the fault
// simulator.
//
// The contract under test (ARCHITECTURE.md contract 7, "engine
// agreement"): any two ATPG engines must agree on detectable vs
// redundant for every fault they both complete on; every cube any
// engine emits must be verified by fault simulation; a SAT UNSAT
// verdict must be confirmed by exhaustive enumeration wherever
// enumeration is feasible (<= 16 assignable sources); and every fault
// the held-value pass (FaultSimulator::classifyUntestable) marks must
// be refuted by SAT and undetected by enumeration with the same pins
// held.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "atpg/podem.hpp"
#include "atpg/sat.hpp"
#include "atpg/topup.hpp"
#include "core/architect.hpp"
#include "core/flow.hpp"
#include "core/pattern_source.hpp"
#include "fault/fsim.hpp"
#include "gen/ipcore.hpp"
#include "gen/refcircuits.hpp"
#include "netlist/levelize.hpp"
#include "sim/compiled.hpp"

namespace lbist::atpg {
namespace {

std::vector<GateId> poDrivers(const Netlist& nl) {
  std::vector<GateId> obs;
  for (const OutputPort& po : nl.outputs()) obs.push_back(po.driver);
  std::sort(obs.begin(), obs.end());
  obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
  return obs;
}

struct ScanSetup {
  std::vector<GateId> observed;
  std::vector<GateId> assignable;
};

/// Full-scan harness: every DFF scannable, observation at POs plus every
/// scan cell's D input, stimulus at PIs plus scan-cell outputs.
ScanSetup scanSetup(Netlist& nl) {
  for (GateId dff : nl.dffs()) nl.setFlag(dff, kFlagScanCell);
  ScanSetup s;
  s.observed = poDrivers(nl);
  for (GateId dff : nl.dffs()) s.observed.push_back(nl.gate(dff).fanins[0]);
  std::sort(s.observed.begin(), s.observed.end());
  s.observed.erase(std::unique(s.observed.begin(), s.observed.end()),
                   s.observed.end());
  s.assignable.assign(nl.inputs().begin(), nl.inputs().end());
  for (GateId dff : nl.dffs()) s.assignable.push_back(dff);
  return s;
}

/// Simulates a cube (X-filled with zeros) and checks the fault is seen
/// at an observed net — the ground-truth check for every emitted cube.
bool cubeDetects(const Netlist& nl, const TestCube& cube,
                 const fault::Fault& f, const std::vector<GateId>& obs) {
  fault::FaultList all = fault::FaultList::enumerateStuckAt(
      nl, {.collapse = false, .include_pin_faults = true,
           .mark_chain_faults = false});
  size_t idx = all.size();
  for (size_t i = 0; i < all.size(); ++i) {
    if (all.record(i).fault == f) idx = i;
  }
  if (idx == all.size()) return false;

  fault::FaultSimulator fsim(nl, all, obs, fault::FsimOptions{1, false});
  nl.forEachGate([&](GateId id, const Gate& g) {
    if (g.kind == CellKind::kInput || g.kind == CellKind::kDff) {
      fsim.setSource(id, 0);
    }
  });
  for (size_t i = 0; i < cube.care_sources.size(); ++i) {
    fsim.setSource(cube.care_sources[i],
                   cube.care_values[i] != 0 ? ~uint64_t{0} : 0);
  }
  fsim.simulateBlockStuckAt(0, 1);
  return all.record(idx).status == fault::FaultStatus::kDetected;
}

/// Exhaustive ground truth for small circuits: simulates every one of
/// the 2^|assignable| binary stimulus vectors (64 per PPSFP block), with
/// the `held` sources at their values, and reports whether any of them
/// detects `f`. For a transition fault each vector is a launch state and
/// simulateBlockTransition computes the capture cycle from it.
bool exhaustiveDetects(
    const Netlist& nl, const fault::Fault& f, const std::vector<GateId>& obs,
    const std::vector<GateId>& assignable,
    const std::vector<std::pair<GateId, bool>>& held = {}) {
  const size_t n = assignable.size();
  EXPECT_LE(n, 16u) << "exhaustive enumeration capped at 2^16 vectors";
  const bool transition = f.type == fault::FaultType::kSlowToRise ||
                          f.type == fault::FaultType::kSlowToFall;
  const fault::FaultListOptions opts{.collapse = false,
                                     .include_pin_faults = true,
                                     .mark_chain_faults = false};
  fault::FaultList all =
      transition ? fault::FaultList::enumerateTransition(nl, opts)
                 : fault::FaultList::enumerateStuckAt(nl, opts);
  size_t idx = all.size();
  for (size_t i = 0; i < all.size(); ++i) {
    if (all.record(i).fault == f) idx = i;
  }
  if (idx == all.size()) return false;

  fault::FaultSimulator fsim(nl, all, obs, fault::FsimOptions{1, false});
  const uint64_t total = uint64_t{1} << n;
  for (uint64_t base = 0; base < total; base += 64) {
    const int lanes = static_cast<int>(std::min<uint64_t>(64, total - base));
    nl.forEachGate([&](GateId id, const Gate& g) {
      if (g.kind == CellKind::kInput || g.kind == CellKind::kDff) {
        fsim.setSource(id, 0);
      }
    });
    for (size_t i = 0; i < n; ++i) {
      uint64_t word = 0;
      for (int lane = 0; lane < lanes; ++lane) {
        if (((base + static_cast<uint64_t>(lane)) >> i) & 1u) {
          word |= uint64_t{1} << lane;
        }
      }
      fsim.setSource(assignable[i], word);
    }
    for (const auto& [id, v] : held) fsim.setSource(id, v ? ~uint64_t{0} : 0);
    if (transition) {
      fsim.simulateBlockTransition(static_cast<int64_t>(base), lanes);
    } else {
      fsim.simulateBlockStuckAt(static_cast<int64_t>(base), lanes);
    }
    if (all.record(idx).status == fault::FaultStatus::kDetected) return true;
  }
  return false;
}

// ------------------------------------------------------ basic soundness

TEST(SatEngine, C17EveryFaultCubedVerifiedAndAgreesWithPodem) {
  Netlist nl = gen::buildC17();
  const auto obs = poDrivers(nl);
  std::vector<GateId> assignable(nl.inputs().begin(), nl.inputs().end());
  SatEngine sat(nl, obs, assignable);
  Podem podem(nl, obs, assignable);

  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
  for (size_t i = 0; i < fl.size(); ++i) {
    TestCube sat_cube;
    TestCube podem_cube;
    const AtpgStatus sat_st = sat.generate(fl.record(i).fault, sat_cube);
    const AtpgStatus podem_st =
        podem.generate(fl.record(i).fault, podem_cube);
    EXPECT_EQ(sat_st, AtpgStatus::kDetected)
        << "c17 is fully testable: " << fl.describe(nl, i);
    EXPECT_EQ(sat_st, podem_st) << fl.describe(nl, i);
    EXPECT_TRUE(cubeDetects(nl, sat_cube, fl.record(i).fault, obs))
        << "SAT cube fails to detect " << fl.describe(nl, i);
  }
  EXPECT_EQ(sat.engineStats().cubes, fl.size());
  EXPECT_EQ(sat.engineStats().redundant, 0u);
  EXPECT_EQ(sat.engineStats().aborted, 0u);
}

TEST(SatEngine, ProvesRedundancyAndExhaustiveEnumerationConfirms) {
  // z = a OR (a AND b): the AND output s-a-0 is classically redundant.
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId and_g = nl.addGate(CellKind::kAnd, {a, b});
  const GateId or_g = nl.addGate(CellKind::kOr, {a, and_g});
  nl.addOutput(or_g, "z");
  const auto obs = poDrivers(nl);
  const std::vector<GateId> assignable = {a, b};

  SatEngine sat(nl, obs, assignable);
  TestCube cube;
  const fault::Fault sa0{and_g, fault::kOutputPin,
                         fault::FaultType::kStuckAt0};
  EXPECT_EQ(sat.generate(sa0, cube), AtpgStatus::kUntestable);
  EXPECT_FALSE(exhaustiveDetects(nl, sa0, obs, assignable))
      << "exhaustive enumeration contradicts the UNSAT verdict";
  EXPECT_EQ(sat.engineStats().redundant, 1u);

  const fault::Fault sa1{and_g, fault::kOutputPin,
                         fault::FaultType::kStuckAt1};
  EXPECT_EQ(sat.generate(sa1, cube), AtpgStatus::kDetected);
  EXPECT_TRUE(cubeDetects(nl, cube, sa1, obs));
}

TEST(SatEngine, HonorsFixedSources) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId g = nl.addGate(CellKind::kAnd, {a, b});
  nl.addOutput(g, "z");
  SatEngine sat(nl, poDrivers(nl), {a, b});
  sat.fixSource(b, false);
  TestCube cube;
  // g s-a-0 requires a=b=1: impossible with b held 0.
  EXPECT_EQ(
      sat.generate(
          fault::Fault{g, fault::kOutputPin, fault::FaultType::kStuckAt0},
          cube),
      AtpgStatus::kUntestable);
  EXPECT_EQ(
      sat.generate(
          fault::Fault{g, fault::kOutputPin, fault::FaultType::kStuckAt1},
          cube),
      AtpgStatus::kDetected);
  for (size_t i = 0; i < cube.care_sources.size(); ++i) {
    EXPECT_NE(cube.care_sources[i].v, b.v)
        << "fixed source leaked into a cube";
  }
}

TEST(SatEngine, MiniAluVerdictsMatchExhaustiveEnumeration) {
  // Mux2/Xor/And/Or-rich circuit small enough to enumerate completely:
  // every SAT verdict — detected AND untestable — is checked against
  // the 2^8 ground truth, which pins the CNF encoding of every cell
  // kind the ALU uses.
  Netlist nl = gen::buildMiniAlu(2);
  const ScanSetup s = scanSetup(nl);
  ASSERT_LE(s.assignable.size(), 16u);

  SatEngine sat(nl, s.observed, s.assignable);
  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
  size_t checked = 0;
  for (size_t i = 0; i < fl.size(); ++i) {
    if (fl.record(i).status != fault::FaultStatus::kUndetected) continue;
    TestCube cube;
    const AtpgStatus st = sat.generate(fl.record(i).fault, cube);
    ASSERT_NE(st, AtpgStatus::kAborted)
        << "tiny miters must never exhaust the conflict budget: "
        << fl.describe(nl, i);
    const bool truth =
        exhaustiveDetects(nl, fl.record(i).fault, s.observed, s.assignable);
    EXPECT_EQ(st == AtpgStatus::kDetected, truth) << fl.describe(nl, i);
    if (st == AtpgStatus::kDetected) {
      EXPECT_TRUE(cubeDetects(nl, cube, fl.record(i).fault, s.observed))
          << fl.describe(nl, i);
    }
    ++checked;
  }
  EXPECT_GT(checked, 50u);
}

// ------------------------------------------------- cross-engine fuzzing

TEST(SatEngine, FuzzRandomCircuitsAgreeWithPodem) {
  // Seeded sweep of generated circuits x every undetected stuck-at
  // fault against the production PODEM: a cube on one side and a
  // completed-proof verdict on the other is an instant failure, and
  // every cube of either engine must detect its fault. Aborts make no
  // claim and are skipped from the equality check (but a SAT cube still
  // forbids a PODEM redundancy proof and vice versa).
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    gen::IpCoreSpec spec;
    spec.seed = seed;
    spec.target_comb_gates = 220;
    spec.target_ffs = 16;
    spec.num_inputs = 8;
    spec.num_outputs = 6;
    spec.num_domains = 1;
    spec.num_xsources = 0;
    spec.num_noscan_ffs = 0;
    spec.resistant_fraction = 0.1;
    Netlist nl = gen::generateIpCore(spec);
    const ScanSetup s = scanSetup(nl);

    SatEngine sat(nl, s.observed, s.assignable);
    Podem podem(nl, s.observed, s.assignable);
    fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
    size_t compared = 0;
    for (size_t i = 0; i < fl.size(); ++i) {
      if (fl.record(i).status != fault::FaultStatus::kUndetected) continue;
      TestCube sat_cube;
      TestCube podem_cube;
      const AtpgStatus sat_st = sat.generate(fl.record(i).fault, sat_cube);
      const AtpgStatus podem_st =
          podem.generate(fl.record(i).fault, podem_cube);
      if (sat_st == AtpgStatus::kDetected) {
        EXPECT_TRUE(
            cubeDetects(nl, sat_cube, fl.record(i).fault, s.observed))
            << "seed " << seed << ": " << fl.describe(nl, i);
        EXPECT_NE(podem_st, AtpgStatus::kUntestable)
            << "seed " << seed << ": SAT cube vs PODEM redundancy proof on "
            << fl.describe(nl, i);
      }
      if (podem_st == AtpgStatus::kDetected) {
        EXPECT_TRUE(
            cubeDetects(nl, podem_cube, fl.record(i).fault, s.observed))
            << "seed " << seed << ": " << fl.describe(nl, i);
      }
      if (sat_st == AtpgStatus::kUntestable) {
        EXPECT_NE(podem_st, AtpgStatus::kDetected)
            << "seed " << seed << ": SAT UNSAT vs PODEM cube on "
            << fl.describe(nl, i);
      }
      if (sat_st != AtpgStatus::kAborted &&
          podem_st != AtpgStatus::kAborted) {
        EXPECT_EQ(sat_st, podem_st)
            << "seed " << seed << ": " << fl.describe(nl, i);
        ++compared;
      }
    }
    EXPECT_GT(compared, 100u) << "seed " << seed;
  }
}

// -------------------------------------- the PODEM-hard / SAT-easy trap

TEST(SatTrap, XorTrapAbortsPodemButSatRefutesAndEnumerationAgrees) {
  // The PR 8 gotcha, now constructible on demand: an inconsistent
  // random 3-XOR system is exponential for chronological backtracking
  // but a few hundred conflicts for clause learning.
  Netlist nl = gen::buildXorTrap(14, 24, 0xA11CE);
  const auto obs = poDrivers(nl);
  std::vector<GateId> assignable(nl.inputs().begin(), nl.inputs().end());
  const fault::Fault sa0{obs[0], fault::kOutputPin,
                         fault::FaultType::kStuckAt0};

  // PODEM burns its whole default budget (including restarts) and gives
  // up without a verdict.
  Podem podem(nl, obs, assignable);
  TestCube cube;
  EXPECT_EQ(podem.generate(sa0, cube), AtpgStatus::kAborted);

  // CDCL proves redundancy well inside its budget.
  SatEngine sat(nl, obs, assignable);
  EXPECT_EQ(sat.generate(sa0, cube), AtpgStatus::kUntestable);
  EXPECT_LT(sat.engineStats().conflicts, SatEngine::kConflictLimit / 10);

  // Exhaustive enumeration (2^14 vectors) confirms the proof.
  EXPECT_FALSE(exhaustiveDetects(nl, sa0, obs, assignable));

  // The satisfiable variant of the same system yields a verified cube.
  Netlist sat_nl = gen::buildXorTrap(14, 24, 0xA11CE, /*satisfiable=*/true);
  const auto sat_obs = poDrivers(sat_nl);
  std::vector<GateId> sat_pis(sat_nl.inputs().begin(),
                              sat_nl.inputs().end());
  SatEngine sat2(sat_nl, sat_obs, sat_pis);
  const fault::Fault sat_sa0{sat_obs[0], fault::kOutputPin,
                             fault::FaultType::kStuckAt0};
  EXPECT_EQ(sat2.generate(sat_sa0, cube), AtpgStatus::kDetected);
  EXPECT_TRUE(cubeDetects(sat_nl, cube, sat_sa0, sat_obs));
}

// ------------------------------------------------- escalation in topup

TEST(TopUpEscalation, ResolvesEveryStrandedTargetOnTheTrap) {
  // Without escalation the trap's redundant output fault strands as an
  // abort; with escalation every stranded target ends as a verified
  // cube or a redundancy proof and nothing is left unresolved.
  Netlist nl = gen::buildXorTrap(14, 24, 0xBEEF);
  const auto obs = poDrivers(nl);
  std::vector<GateId> assignable(nl.inputs().begin(), nl.inputs().end());

  TopUpConfig cfg;
  cfg.threads = 1;
  {
    fault::FaultList stranded_fl = fault::FaultList::enumerateStuckAt(nl);
    fault::FaultSimulator fsim(nl, stranded_fl, obs);
    const TopUpResult r =
        runTopUp(nl, stranded_fl, fsim, obs, assignable, {}, cfg);
    EXPECT_GT(r.aborted, 0u) << "the trap must strand PODEM";
    EXPECT_EQ(r.proven_redundant, 0u);
  }

  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
  cfg.sat_escalate = true;
  fault::FaultSimulator fsim(nl, fl, obs);
  const TopUpResult r = runTopUp(nl, fl, fsim, obs, assignable, {}, cfg);
  EXPECT_EQ(r.aborted, 0u) << "every stranded target must be resolved";
  EXPECT_GT(r.sat_escalated, 0u);
  EXPECT_GT(r.proven_redundant, 0u);
  EXPECT_EQ(r.final_coverage.redundant, r.proven_redundant);
  // Redundant faults leave the test-coverage denominator.
  EXPECT_GT(r.final_coverage.testCoveragePercent(),
            r.final_coverage.faultCoveragePercent());
  size_t redundant_status = 0;
  for (size_t i = 0; i < fl.size(); ++i) {
    if (fl.record(i).status == fault::FaultStatus::kRedundant) {
      ++redundant_status;
      // Each proof is double-checked exhaustively (14 inputs).
      EXPECT_FALSE(
          exhaustiveDetects(nl, fl.record(i).fault, obs, assignable))
          << fl.describe(nl, i);
    }
  }
  EXPECT_EQ(redundant_status, r.proven_redundant);
}

TEST(TopUpEscalation, BitIdenticalAcrossThreadCounts) {
  gen::IpCoreSpec spec;
  spec.seed = 77;
  spec.target_comb_gates = 900;
  spec.target_ffs = 48;
  spec.num_inputs = 12;
  spec.num_outputs = 10;
  spec.num_domains = 1;
  spec.num_xsources = 0;
  spec.num_noscan_ffs = 0;
  spec.resistant_fraction = 0.15;
  Netlist nl = gen::generateIpCore(spec);
  const ScanSetup s = scanSetup(nl);
  fault::FaultList base = fault::FaultList::enumerateStuckAt(nl);
  {
    // Short random phase so the escalation sweep starts from a
    // realistic hard tail rather than the full universe.
    fault::FaultSimulator fsim(nl, base, s.observed);
    fsim.classifyUntestable();
    std::mt19937_64 rng(5);
    for (int64_t b = 0; b < 256; b += 64) {
      for (GateId src : s.assignable) fsim.setSource(src, rng());
      fsim.simulateBlockStuckAt(b, 64);
    }
  }

  struct Run {
    TopUpResult result;
    fault::FaultList fl;
  };
  std::vector<Run> runs;
  for (uint32_t threads : {1u, 2u, 4u, 0u}) {
    Run run{.result = {}, .fl = base};
    TopUpConfig cfg;
    cfg.threads = threads;
    cfg.sat_escalate = true;
    fault::FaultSimulator fsim(nl, run.fl, s.observed);
    run.result =
        runTopUp(nl, run.fl, fsim, s.observed, s.assignable, {}, cfg);
    runs.push_back(std::move(run));
  }
  ASSERT_GT(runs[0].result.sat_escalated, 0u)
      << "the sweep must actually exercise the escalation path";

  const Run& ref = runs[0];
  for (size_t r = 1; r < runs.size(); ++r) {
    const Run& run = runs[r];
    EXPECT_EQ(run.result.targeted, ref.result.targeted);
    EXPECT_EQ(run.result.atpg_detected, ref.result.atpg_detected);
    EXPECT_EQ(run.result.fortuitous_detected,
              ref.result.fortuitous_detected);
    EXPECT_EQ(run.result.proven_untestable, ref.result.proven_untestable);
    EXPECT_EQ(run.result.proven_redundant, ref.result.proven_redundant);
    EXPECT_EQ(run.result.aborted, ref.result.aborted);
    EXPECT_EQ(run.result.backtracks, ref.result.backtracks);
    EXPECT_EQ(run.result.sat_escalated, ref.result.sat_escalated);
    EXPECT_EQ(run.result.sat_detected, ref.result.sat_detected);
    EXPECT_EQ(run.result.sat_conflicts, ref.result.sat_conflicts);
    EXPECT_EQ(run.result.sat_learned, ref.result.sat_learned);
    EXPECT_EQ(run.result.patterns_before_compact,
              ref.result.patterns_before_compact);
    EXPECT_EQ(run.result.final_coverage, ref.result.final_coverage);
    ASSERT_EQ(run.result.patterns.size(), ref.result.patterns.size());
    for (size_t p = 0; p < ref.result.patterns.size(); ++p) {
      EXPECT_EQ(run.result.patterns[p].sources,
                ref.result.patterns[p].sources);
      EXPECT_EQ(run.result.patterns[p].values,
                ref.result.patterns[p].values);
    }
    ASSERT_EQ(run.result.aborted_targets.size(),
              ref.result.aborted_targets.size());
    for (size_t a = 0; a < ref.result.aborted_targets.size(); ++a) {
      EXPECT_EQ(run.result.aborted_targets[a].fault_index,
                ref.result.aborted_targets[a].fault_index);
      EXPECT_EQ(run.result.aborted_targets[a].backtracks,
                ref.result.aborted_targets[a].backtracks);
    }
    for (size_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(run.fl.record(i).status, ref.fl.record(i).status)
          << "fault " << i;
      ASSERT_EQ(run.fl.record(i).first_detect_pattern,
                ref.fl.record(i).first_detect_pattern)
          << "drop order diverged at fault " << i;
      ASSERT_EQ(run.fl.record(i).detect_count,
                ref.fl.record(i).detect_count)
          << "fault " << i;
    }
  }
}

TEST(TopUpEscalation, PrimarySatEngineRecordsRedundantStatus) {
  // SAT as the primary engine: its completed UNSAT proofs land as
  // kRedundant, never the heuristic kUntestable bucket, and no fault is
  // left unresolved.
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId and_g = nl.addGate(CellKind::kAnd, {a, b});
  const GateId or_g = nl.addGate(CellKind::kOr, {a, and_g});
  nl.addOutput(or_g, "z");
  const auto obs = poDrivers(nl);
  const std::vector<GateId> assignable = {a, b};

  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
  fault::FaultSimulator fsim(nl, fl, obs);
  TopUpConfig cfg;
  cfg.threads = 1;
  cfg.engine = AtpgEngine::kSat;
  const TopUpResult r = runTopUp(nl, fl, fsim, obs, assignable, {}, cfg);
  EXPECT_EQ(r.aborted, 0u);
  EXPECT_EQ(r.proven_untestable, 0u)
      << "a SAT primary never reports heuristic untestability";
  EXPECT_GT(r.proven_redundant, 0u);
  EXPECT_GT(r.atpg_detected, 0u);
  bool saw_redundant = false;
  for (size_t i = 0; i < fl.size(); ++i) {
    saw_redundant |=
        fl.record(i).status == fault::FaultStatus::kRedundant;
    EXPECT_NE(fl.record(i).status, fault::FaultStatus::kUndetected)
        << fl.describe(nl, i);
  }
  EXPECT_TRUE(saw_redundant);
}

// ----------------------------------------- deterministic solver reruns

TEST(SatEngine, RerunsAreBitIdentical) {
  // Two engines constructed identically produce identical verdicts,
  // cubes, and stats over the same fault stream — the purity the
  // escalation path's thread-invariance rests on.
  Netlist nl = gen::buildXorTrap(10, 14, 0x5EED, /*satisfiable=*/true);
  const auto obs = poDrivers(nl);
  std::vector<GateId> assignable(nl.inputs().begin(), nl.inputs().end());
  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);

  SatEngine e1(nl, obs, assignable);
  SatEngine e2(nl, obs, assignable);
  for (size_t i = 0; i < fl.size(); ++i) {
    TestCube c1;
    TestCube c2;
    const AtpgStatus s1 = e1.generate(fl.record(i).fault, c1);
    const AtpgStatus s2 = e2.generate(fl.record(i).fault, c2);
    ASSERT_EQ(s1, s2) << fl.describe(nl, i);
    ASSERT_EQ(e1.backtracksUsed(), e2.backtracksUsed())
        << fl.describe(nl, i);
    ASSERT_EQ(c1.care_sources, c2.care_sources) << fl.describe(nl, i);
    ASSERT_EQ(c1.care_values, c2.care_values) << fl.describe(nl, i);
  }
  EXPECT_EQ(e1.engineStats().conflicts, e2.engineStats().conflicts);
  EXPECT_EQ(e1.engineStats().learned, e2.engineStats().learned);
}

// ----------------------------------------------- reuse across targets

/// A seeded generated core for the whole-fault-list sweeps below: every
/// flop but the generator's no-scan ones is a scan cell (so DFF
/// data-pin targets are real justification targets, and the no-scan
/// ones trivially untestable), two X sources, and two primary inputs
/// pinned as test-mode constants.
struct SeededCore {
  Netlist nl;
  ScanSetup s;
  std::vector<std::pair<GateId, bool>> fixed;
};

SeededCore seededCore() {
  gen::IpCoreSpec spec;
  spec.seed = 21;
  spec.target_comb_gates = 300;
  spec.target_ffs = 24;
  spec.num_inputs = 10;
  spec.num_outputs = 8;
  spec.num_domains = 1;
  spec.num_xsources = 2;
  spec.num_noscan_ffs = 3;
  spec.resistant_fraction = 0.1;
  SeededCore c{gen::generateIpCore(spec), {}, {}};
  Netlist& nl = c.nl;
  for (GateId dff : nl.dffs()) {
    if ((nl.gate(dff).flags & kFlagNoScan) == 0) {
      nl.setFlag(dff, kFlagScanCell);
    }
  }
  c.s.observed = poDrivers(nl);
  c.s.assignable.assign(nl.inputs().begin(), nl.inputs().end());
  for (GateId dff : nl.dffs()) {
    if ((nl.gate(dff).flags & kFlagScanCell) == 0) continue;
    c.s.observed.push_back(nl.gate(dff).fanins[0]);
    c.s.assignable.push_back(dff);
  }
  std::sort(c.s.observed.begin(), c.s.observed.end());
  c.s.observed.erase(std::unique(c.s.observed.begin(), c.s.observed.end()),
                     c.s.observed.end());
  c.fixed = {{nl.inputs()[0], false}, {nl.inputs()[1], true}};
  return c;
}

fault::FaultList uncollapsedFaults(const Netlist& nl) {
  fault::FaultListOptions opts;
  opts.collapse = false;
  opts.mark_chain_faults = false;
  return fault::FaultList::enumerateStuckAt(nl, opts);
}

/// FNV-1a over the encoded miter of every fault of `nl`: variable
/// count, each clause's literals in order, the stimulus list and both
/// flags.
uint64_t miterHash(const Netlist& nl, const std::vector<GateId>& observed,
                   const std::vector<GateId>& assignable,
                   const std::vector<std::pair<GateId, bool>>& fixed) {
  const Levelized lev(nl);
  const sim::CompiledNetlist cn(nl, lev);
  MiterEncoder enc(nl, cn, observed, assignable);
  for (const auto& [id, v] : fixed) enc.fixSource(id, v);
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const fault::FaultList fl = uncollapsedFaults(nl);
  for (size_t i = 0; i < fl.size(); ++i) {
    const FaultMiter& m = enc.encodeFault(fl.record(i).fault);
    mix(m.cnf.numVars());
    mix(m.cnf.numClauses());
    for (size_t c = 0; c < m.cnf.numClauses(); ++c) {
      const std::span<const CnfLit> lits = m.cnf.clause(c);
      mix(lits.size());
      for (CnfLit l : lits) mix(l);
    }
    mix(m.stimulus.size());
    for (const StimulusVar& sv : m.stimulus) {
      mix(sv.source.v);
      mix(sv.var);
    }
    mix(m.trivially_untestable ? 1 : 0);
    mix(m.direct ? 1 : 0);
  }
  return h;
}

TEST(MiterEncoder, FormulasMatchTheRecordedEncoding) {
  // The encoder copies each target's good machine out of a once-per-
  // netlist encoding. These hashes were recorded from the per-target
  // encoder that preceded it, so any drift in a variable number, a
  // clause, a literal order, the stimulus list or a flag fails here —
  // and with it every verdict, cube and conflict count downstream.
  {
    const Netlist nl = gen::buildC17();
    const std::vector<GateId> pis(nl.inputs().begin(), nl.inputs().end());
    const uint64_t h = miterHash(nl, poDrivers(nl), pis, {});
    EXPECT_EQ(h, 0x2ba9a6002823bf8bull) << "c17";
  }
  {
    Netlist nl = gen::buildMiniAlu(2);
    const ScanSetup s = scanSetup(nl);
    const uint64_t h = miterHash(nl, s.observed, s.assignable, {});
    EXPECT_EQ(h, 0xaccaea9aace84562ull) << "mini ALU";
  }
  {
    const Netlist nl = gen::buildXorTrap(14, 24, 0xA11CE);
    const std::vector<GateId> pis(nl.inputs().begin(), nl.inputs().end());
    const uint64_t h = miterHash(nl, poDrivers(nl), pis, {});
    EXPECT_EQ(h, 0x76a13462b1ee46a3ull) << "XOR trap";
  }
  {
    const SeededCore c = seededCore();
    const uint64_t h = miterHash(c.nl, c.s.observed, c.s.assignable, c.fixed);
    EXPECT_EQ(h, 0x18139d359399bcf2ull) << "seeded core";
  }
}

TEST(TopUpEscalation, ResultsMatchTheRecordedRun) {
  // runTopUp with the default TopUpConfig plus SAT escalation (the
  // repository benchmark's setting) on the seeded core after a short
  // random phase. The hash covers the pattern set, every fault's final
  // status and drop pattern, and the result counters, so a change to
  // target order, dominance deferral, static compaction, escalation or
  // reverse compaction fails here. Recorded while static compaction and
  // dominance deferral were still TopUpConfig options.
  const SeededCore c = seededCore();
  fault::FaultList fl = fault::FaultList::enumerateStuckAt(c.nl);
  fault::FaultSimulator fsim(c.nl, fl, c.s.observed);
  fsim.classifyUntestable();
  std::mt19937_64 rng(5);
  for (int64_t b = 0; b < 128; b += 64) {
    for (GateId src : c.s.assignable) fsim.setSource(src, rng());
    fsim.simulateBlockStuckAt(b, 64);
  }
  TopUpConfig cfg;
  cfg.sat_escalate = true;
  const TopUpResult r = runTopUp(c.nl, fl, fsim, c.s.observed,
                                 c.s.assignable, c.fixed, cfg);
  EXPECT_GT(r.sat_escalated, 0u);

  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(r.patterns.size());
  for (const TopUpPattern& p : r.patterns) {
    for (GateId g : p.sources) mix(g.v);
    for (uint8_t v : p.values) mix(v);
  }
  for (size_t i = 0; i < fl.size(); ++i) {
    mix(static_cast<uint64_t>(fl.record(i).status));
    mix(static_cast<uint64_t>(fl.record(i).first_detect_pattern));
  }
  for (size_t n : {r.targeted, r.atpg_detected, r.fortuitous_detected,
                   r.proven_untestable, r.proven_redundant, r.aborted,
                   r.backtracks, r.sat_escalated, r.sat_detected,
                   r.sat_conflicts, r.sat_learned,
                   r.patterns_before_compact}) {
    mix(n);
  }
  for (const TopUpResult::TargetAbort& a : r.aborted_targets) {
    mix(a.fault_index);
    mix(a.backtracks);
  }
  EXPECT_EQ(h, 0xa22b083b861c3bfbull) << std::hex << "0x" << h;
}

TEST(SatEngine, AnswersDoNotDependOnSolveHistory) {
  // One engine reuses its encoder and solver buffers from target to
  // target. Sweeping the whole fault list forwards and backwards
  // through one engine each must give, per fault, exactly what a fresh
  // engine gives: same verdict, cube, conflicts and learned clauses.
  // RerunsAreBitIdentical runs two engines in the same order, so it
  // cannot see state leaking from one target into the next.
  const SeededCore c = seededCore();
  const fault::FaultList fl = uncollapsedFaults(c.nl);
  struct Answer {
    AtpgStatus status = AtpgStatus::kAborted;
    TestCube cube;
    size_t conflicts = 0;
    uint64_t learned = 0;
  };
  const auto makeEngine = [&] {
    auto e = std::make_unique<SatEngine>(c.nl, c.s.observed, c.s.assignable);
    for (const auto& [id, v] : c.fixed) e->fixSource(id, v);
    return e;
  };
  const auto solve = [&](SatEngine& e, size_t i) {
    Answer a;
    const uint64_t learned_before = e.engineStats().learned;
    a.status = e.generate(fl.record(i).fault, a.cube);
    a.conflicts = e.backtracksUsed();
    a.learned = e.engineStats().learned - learned_before;
    return a;
  };

  std::vector<Answer> fresh(fl.size());
  for (size_t i = 0; i < fl.size(); ++i) fresh[i] = solve(*makeEngine(), i);
  std::vector<Answer> forwards(fl.size());
  std::vector<Answer> backwards(fl.size());
  {
    const auto e = makeEngine();
    for (size_t i = 0; i < fl.size(); ++i) forwards[i] = solve(*e, i);
  }
  {
    const auto e = makeEngine();
    for (size_t i = fl.size(); i-- > 0;) backwards[i] = solve(*e, i);
  }

  size_t detected = 0;
  size_t untestable = 0;
  size_t direct = 0;
  uint64_t conflicts = 0;
  for (size_t i = 0; i < fl.size(); ++i) {
    for (const std::vector<Answer>* run : {&forwards, &backwards}) {
      const Answer& a = (*run)[i];
      const char* dir = run == &forwards ? "forwards" : "backwards";
      ASSERT_EQ(a.status, fresh[i].status)
          << dir << ": " << fl.describe(c.nl, i);
      ASSERT_EQ(a.cube.care_sources, fresh[i].cube.care_sources)
          << dir << ": " << fl.describe(c.nl, i);
      ASSERT_EQ(a.cube.care_values, fresh[i].cube.care_values)
          << dir << ": " << fl.describe(c.nl, i);
      ASSERT_EQ(a.conflicts, fresh[i].conflicts)
          << dir << ": " << fl.describe(c.nl, i);
      ASSERT_EQ(a.learned, fresh[i].learned)
          << dir << ": " << fl.describe(c.nl, i);
    }
    detected += fresh[i].status == AtpgStatus::kDetected ? 1 : 0;
    untestable += fresh[i].status == AtpgStatus::kUntestable ? 1 : 0;
    const Gate& site = c.nl.gate(fl.record(i).fault.gate);
    if (site.kind == CellKind::kDff &&
        fl.record(i).fault.pin != fault::kOutputPin) {
      ++direct;
    }
    conflicts += fresh[i].conflicts;
  }
  // The sweep must exercise every path the reuse touches.
  EXPECT_GT(detected, 100u);
  EXPECT_GT(untestable, 0u);
  EXPECT_GT(direct, 0u);
  EXPECT_GT(conflicts, 0u);
}

// ------------------------------------------- held-value classification

/// Runs FaultSimulator::classifyUntestable over `fl` with `held` and
/// returns the indices it marked.
std::vector<size_t> classifyHeld(
    const Netlist& nl, fault::FaultList& fl,
    const std::vector<GateId>& observed,
    const std::vector<std::pair<GateId, bool>>& held) {
  std::vector<fault::FaultStatus> before;
  for (const fault::FaultRecord& r : fl.records()) before.push_back(r.status);
  fault::FaultSimulator fsim(nl, fl, observed);
  const size_t marked = fsim.classifyUntestable(held);
  std::vector<size_t> out;
  for (size_t i = 0; i < fl.size(); ++i) {
    if (fl.record(i).status != before[i]) out.push_back(i);
  }
  EXPECT_EQ(out.size(), marked);
  return out;
}

/// Requires a SatEngine with `held` fixed to prove every fault in
/// `indices` untestable.
void expectSatRefutes(const Netlist& nl, const std::vector<GateId>& observed,
                      const std::vector<GateId>& assignable,
                      const std::vector<std::pair<GateId, bool>>& held,
                      const fault::FaultList& fl,
                      const std::vector<size_t>& indices) {
  SatEngine sat(nl, observed, assignable);
  for (const auto& [id, v] : held) sat.fixSource(id, v);
  for (size_t i : indices) {
    TestCube cube;
    EXPECT_EQ(sat.generate(fl.record(i).fault, cube), AtpgStatus::kUntestable)
        << fl.describe(nl, i);
  }
}

/// The sources of `s` minus the held ones: what the exhaustive oracle
/// enumerates.
std::vector<GateId> freeSources(
    const std::vector<GateId>& assignable,
    const std::vector<std::pair<GateId, bool>>& held) {
  std::vector<GateId> out;
  for (GateId g : assignable) {
    if (std::none_of(held.begin(), held.end(),
                     [&](const auto& h) { return h.first == g; })) {
      out.push_back(g);
    }
  }
  return out;
}

TEST(HeldValueClassification, SatRefutesEveryClassifiedFaultOnTheSeededCore) {
  // Contract 7's third verdict source: a fault the held-value pass marks
  // untestable must be untestable for the CDCL engine with the same
  // pins fixed.
  const SeededCore c = seededCore();
  fault::FaultList open = uncollapsedFaults(c.nl);
  const size_t structural = classifyHeld(c.nl, open, c.s.observed, {}).size();
  fault::FaultList fl = uncollapsedFaults(c.nl);
  const std::vector<size_t> marked =
      classifyHeld(c.nl, fl, c.s.observed, c.fixed);
  EXPECT_GT(marked.size(), structural) << "the held pins add no verdict";
  expectSatRefutes(c.nl, c.s.observed, c.s.assignable, c.fixed, fl, marked);
}

TEST(HeldValueClassification, SatRefutesEveryClassifiedFaultOnBistReadyCoreX) {
  // A toy-size Core X through the whole DFT flow, classified the way
  // CoverageFlow does it: SE held low and test-mode high, the values the
  // IO wrappers and X-bounding logic are built around.
  core::LbistConfig cfg;
  cfg.num_chains = 8;
  cfg.test_points = 8;
  cfg.tpi.warmup_patterns = 256;
  cfg.tpi.guidance_patterns = 128;
  const core::BistReadyCore ready = core::buildBistReadyCore(
      gen::generateIpCore(gen::coreXSpec(0.002)), cfg);
  const core::CoverageFlow flow(ready);
  fault::FaultList open = fault::FaultList::enumerateStuckAt(ready.netlist);
  const std::vector<fault::FaultRecord> enumerated(open.records().begin(),
                                                   open.records().end());
  const size_t structural =
      classifyHeld(ready.netlist, open, flow.observed(), {}).size();
  std::vector<size_t> marked;
  for (size_t i = 0; i < flow.faults().size(); ++i) {
    if (enumerated[i].status == fault::FaultStatus::kUndetected &&
        flow.faults().record(i).status == fault::FaultStatus::kUntestable) {
      marked.push_back(i);
    }
  }
  EXPECT_GT(marked.size(), structural + 50) << "the held pins add no verdict";
  const core::PrpgPatternSource pins(ready);
  expectSatRefutes(ready.netlist, flow.observed(), flow.assignable(),
                   pins.fixedPins(), flow.faults(), marked);
}

/// A circuit for the exhaustive oracles and the inputs it holds, each
/// in turn at every combination of values.
struct HeldCase {
  const char* name;
  Netlist nl;
  std::vector<GateId> held;
};

HeldCase heldCase(const char* name, Netlist nl,
                  std::initializer_list<const char*> pins) {
  HeldCase c{name, std::move(nl), {}};
  for (const char* pin : pins) c.held.push_back(*c.nl.findGateByName(pin));
  return c;
}

/// Every value combination of `c.held`.
std::vector<std::vector<std::pair<GateId, bool>>> heldValues(
    const HeldCase& c) {
  std::vector<std::vector<std::pair<GateId, bool>>> out;
  for (uint32_t v = 0; v < (1u << c.held.size()); ++v) {
    std::vector<std::pair<GateId, bool>> held;
    for (size_t j = 0; j < c.held.size(); ++j) {
      held.emplace_back(c.held[j], ((v >> j) & 1u) != 0);
    }
    out.push_back(std::move(held));
  }
  return out;
}

TEST(HeldValueClassification, NoStimulusDetectsAClassifiedStuckAtFault) {
  // Each classified fault goes undetected by all 2^n vectors with the
  // pins held, and SAT refutes it too.
  std::vector<HeldCase> cases;
  cases.push_back(heldCase("c17", gen::buildC17(), {"in3"}));
  cases.push_back(heldCase("adder4", gen::buildRippleAdder(4), {"cin"}));
  cases.push_back(heldCase("mini ALU", gen::buildMiniAlu(2), {"op0", "op1"}));
  cases.push_back(heldCase("counter4", gen::buildCounter(4), {"en"}));
  cases.push_back(
      heldCase("XOR trap", gen::buildXorTrap(8, 6, 0xA11CE, true), {"x0"}));
  size_t checked = 0;
  for (HeldCase& c : cases) {
    const ScanSetup s = scanSetup(c.nl);
    for (const auto& held : heldValues(c)) {
      const std::vector<GateId> free = freeSources(s.assignable, held);
      fault::FaultList fl = uncollapsedFaults(c.nl);
      const std::vector<size_t> marked =
          classifyHeld(c.nl, fl, s.observed, held);
      for (size_t i : marked) {
        EXPECT_FALSE(exhaustiveDetects(c.nl, fl.record(i).fault, s.observed,
                                       free, held))
            << c.name << ": " << fl.describe(c.nl, i);
      }
      expectSatRefutes(c.nl, s.observed, s.assignable, held, fl, marked);
      checked += marked.size();
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(HeldValueClassification, NoLaunchStateDetectsAClassifiedTransitionFault) {
  // Transition faults on circuits whose flops feed logic, so the capture
  // cycle differs from the launch: every classified fault goes
  // undetected from every launch state with the pins held.
  gen::IpCoreSpec spec;
  spec.seed = 5;
  spec.target_comb_gates = 80;
  spec.target_ffs = 8;
  spec.num_inputs = 5;
  spec.num_outputs = 4;
  spec.num_domains = 1;
  spec.num_xsources = 0;
  spec.num_noscan_ffs = 0;
  spec.resistant_fraction = 0.0;
  std::vector<HeldCase> cases;
  cases.push_back(heldCase("counter4", gen::buildCounter(4), {"en"}));
  cases.push_back(heldCase("mini ALU", gen::buildMiniAlu(2), {"op0", "op1"}));
  cases.push_back(heldCase("generated core", gen::generateIpCore(spec), {}));
  cases.back().held = {cases.back().nl.inputs()[0],
                       cases.back().nl.inputs()[1]};
  size_t checked = 0;
  size_t detectable = 0;
  for (HeldCase& c : cases) {
    const ScanSetup s = scanSetup(c.nl);
    for (const auto& held : heldValues(c)) {
      const std::vector<GateId> free = freeSources(s.assignable, held);
      ASSERT_LE(free.size(), 16u) << c.name;
      fault::FaultList fl = fault::FaultList::enumerateTransition(
          c.nl, {.collapse = false, .include_pin_faults = true,
                 .mark_chain_faults = false});
      const std::vector<size_t> marked =
          classifyHeld(c.nl, fl, s.observed, held);
      for (size_t i : marked) {
        EXPECT_FALSE(exhaustiveDetects(c.nl, fl.record(i).fault, s.observed,
                                       free, held))
            << c.name << ": " << fl.describe(c.nl, i);
      }
      checked += marked.size();
      // The oracle itself sees delay faults: some unclassified ones are
      // detected from some launch state.
      for (size_t i = 0; i < fl.size(); i += 7) {
        if (fl.record(i).status != fault::FaultStatus::kUndetected) continue;
        detectable += exhaustiveDetects(c.nl, fl.record(i).fault, s.observed,
                                        free, held)
                          ? 1
                          : 0;
      }
    }
  }
  EXPECT_GT(checked, 50u);
  EXPECT_GT(detectable, 10u);
}

TEST(CdclSolver, ZeroBudgetSearchesUpToTheFirstConflict) {
  // The budget is checked after each conflict, so conflict_limit = 0
  // does not stop before the search starts.
  CnfFormula refuted;  // x, (~x | y), ~y: unit propagation refutes it
  {
    const uint32_t x = refuted.newVar();
    const uint32_t y = refuted.newVar();
    refuted.addClause({posLit(x)});
    refuted.addClause({negLit(x), posLit(y)});
    refuted.addClause({negLit(y)});
  }
  CnfFormula needs_decision;  // (x | y): satisfiable, no unit to start
  {
    const uint32_t x = needs_decision.newVar();
    const uint32_t y = needs_decision.newVar();
    needs_decision.addClause({posLit(x), posLit(y)});
  }
  CnfFormula conflicts_first;  // (x | y), (x | ~y): deciding ~x conflicts
  {
    const uint32_t x = conflicts_first.newVar();
    const uint32_t y = conflicts_first.newVar();
    conflicts_first.addClause({posLit(x), posLit(y)});
    conflicts_first.addClause({posLit(x), negLit(y)});
  }

  CdclSolver solver;
  solver.load(refuted);
  EXPECT_EQ(solver.solve(0), SatResult::kUnsat);
  EXPECT_EQ(solver.stats().decisions, 0u);

  solver.load(needs_decision);
  EXPECT_EQ(solver.solve(0), SatResult::kSat);
  EXPECT_GT(solver.stats().decisions, 0u);
  EXPECT_EQ(solver.stats().conflicts, 0u);
  EXPECT_TRUE(solver.modelValue(0) || solver.modelValue(1));

  // Above level 0 a zero budget gives up at the first conflict, even
  // though the unit it learns would finish the search.
  solver.load(conflicts_first);
  EXPECT_EQ(solver.solve(0), SatResult::kUnknown);
  EXPECT_EQ(solver.stats().conflicts, 1u);
  solver.load(conflicts_first);
  EXPECT_EQ(solver.solve(2), SatResult::kSat);
  EXPECT_EQ(solver.stats().conflicts, 1u);
  EXPECT_TRUE(solver.modelValue(0));
}

}  // namespace
}  // namespace lbist::atpg

// ----------------------------------------------------- ADL regression
// PR 8 gotcha: ADL does not find atpg::runTopUp from TUs living in
// sibling lbist namespaces (no parameter type is declared in
// lbist::atpg once the config is defaulted). This block compiles a
// qualified call from inside lbist::robust, pinning the documented
// spelling for non-atpg callers.
namespace lbist::robust {
namespace {

atpg::TopUpResult topUpFromRobustNamespace(
    const Netlist& nl, fault::FaultList& fl, fault::FaultSimulator& fsim,
    const std::vector<GateId>& obs, const std::vector<GateId>& asg) {
  // An unqualified `runTopUp(...)` would not compile here.
  return atpg::runTopUp(nl, fl, fsim, obs, asg, {});
}

TEST(AdlRegression, QualifiedRunTopUpCompilesFromRobustNamespace) {
  Netlist nl = gen::buildC17();
  std::vector<GateId> obs;
  for (const OutputPort& po : nl.outputs()) obs.push_back(po.driver);
  std::sort(obs.begin(), obs.end());
  obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
  std::vector<GateId> assignable(nl.inputs().begin(), nl.inputs().end());
  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
  fault::FaultSimulator fsim(nl, fl, obs);
  const atpg::TopUpResult r =
      topUpFromRobustNamespace(nl, fl, fsim, obs, assignable);
  EXPECT_GT(r.targeted, 0u);
  EXPECT_EQ(r.final_coverage.faultCoveragePercent(), 100.0);
}

}  // namespace
}  // namespace lbist::robust
