// Differential suite for the compiled PODEM engine and the parallel
// top-up driver: Podem against the SAT engine's exact verdicts and
// fault-simulated cubes, a hash pin of Podem's per-fault answers,
// thread-count bit-identity of the generated pattern sets, and coverage
// preservation of the reverse-order compaction pass.
#include <gtest/gtest.h>

#include <random>

#include "atpg/podem.hpp"
#include "atpg/sat.hpp"
#include "atpg/topup.hpp"
#include "fault/fsim.hpp"
#include "gen/ipcore.hpp"
#include "gen/refcircuits.hpp"

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

/// Full-scan convention used across the ATPG tests: POs + DFF D drivers
/// observed, PIs + DFF outputs assignable, every DFF a scan cell.
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

/// Ground truth: simulates the cube (X-filled with zeros) and checks the
/// fault is seen at an observed net.
bool cubeDetects(const Netlist& nl, const TestCube& cube,
                 const fault::Fault& f, std::span<const GateId> obs) {
  fault::FaultList all = fault::FaultList::enumerateStuckAt(
      nl, {.collapse = false, .include_pin_faults = true,
           .mark_chain_faults = false});
  size_t idx = all.size();
  for (size_t i = 0; i < all.size(); ++i) {
    if (all.record(i).fault == f) idx = i;
  }
  if (idx == all.size()) return false;

  fault::FaultSimulator fsim(
      nl, all, std::vector<GateId>(obs.begin(), obs.end()),
      fault::FsimOptions{1, false});
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

/// Per-fault differential against the exact oracle. SatEngine completes
/// on every fault of these circuits (asserted), so its verdict is ground
/// truth: every compiled cube must detect its fault under fault
/// simulation, a compiled cube must never meet a SAT UNSAT, and a
/// compiled kUntestable must never meet a SAT cube. Compiled aborts make
/// no claim; `detected` and `aborted` count the compiled verdicts.
void crossCheckWithSat(Netlist& nl, size_t& faults, size_t& detected,
                       size_t& aborted) {
  const ScanSetup s = scanSetup(nl);
  Podem podem(nl, s.observed, s.assignable);
  SatEngine sat(nl, s.observed, s.assignable);

  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
  faults = fl.size();
  detected = 0;
  aborted = 0;
  for (size_t i = 0; i < fl.size(); ++i) {
    if (fl.record(i).status != fault::FaultStatus::kUndetected) continue;
    const fault::Fault f = fl.record(i).fault;
    TestCube pc, sc;
    const AtpgStatus ps = podem.generate(f, pc);
    const AtpgStatus ss = sat.generate(f, sc);
    ASSERT_NE(ss, AtpgStatus::kAborted)
        << "SAT must complete on " << fl.describe(nl, i);
    if (ps == AtpgStatus::kDetected) {
      EXPECT_TRUE(cubeDetects(nl, pc, f, s.observed))
          << "compiled cube fails to detect " << fl.describe(nl, i);
      EXPECT_EQ(ss, AtpgStatus::kDetected)
          << "compiled cube vs SAT UNSAT on " << fl.describe(nl, i);
      ++detected;
    } else if (ps == AtpgStatus::kUntestable) {
      EXPECT_EQ(ss, AtpgStatus::kUntestable)
          << "compiled untestability proof vs SAT cube on "
          << fl.describe(nl, i);
    } else {
      ++aborted;
    }
  }
  EXPECT_GT(detected, 0u);
}

/// The generated IP cores of the differential, seeds 2 to 4.
Netlist differentialCore(uint64_t seed) {
  gen::IpCoreSpec spec;
  spec.seed = seed;
  spec.target_comb_gates = 250;
  spec.target_ffs = 20;
  spec.num_inputs = 10;
  spec.num_outputs = 8;
  spec.num_domains = 1;
  spec.num_xsources = 0;
  spec.num_noscan_ffs = 0;
  return gen::generateIpCore(spec);
}

// C17 has no case here: SatEngine.C17EveryFaultCubedVerifiedAndAgreesWithPodem
// (test_sat) requires SAT and Podem to detect every C17 fault, and
// Podem.GeneratesTestsForAllC17Faults (test_atpg) fault-simulates every
// Podem cube.

TEST(PodemDifferential, MiniAlu) {
  Netlist nl = gen::buildMiniAlu(8);
  size_t faults = 0, detected = 0, aborted = 0;
  crossCheckWithSat(nl, faults, detected, aborted);
}

TEST(PodemDifferential, RandomIpCores) {
  for (uint64_t seed = 2; seed <= 4; ++seed) {
    Netlist nl = differentialCore(seed);
    size_t faults = 0, detected = 0, aborted = 0;
    crossCheckWithSat(nl, faults, detected, aborted);
    EXPECT_GT(detected, faults * 8 / 10)
        << "seed " << seed << ": most faults in a random circuit are testable";
    EXPECT_LT(aborted, faults / 10) << "seed " << seed;
  }
}

/// FNV-1a over Podem's answer for every undetected fault of `nl` under
/// the full-scan setup: fault index, status, backtracks used, and the
/// cube's care sources and values in order.
uint64_t podemAnswersHash(Netlist& nl) {
  const ScanSetup s = scanSetup(nl);
  Podem podem(nl, s.observed, s.assignable);
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
  mix(fl.size());
  for (size_t i = 0; i < fl.size(); ++i) {
    if (fl.record(i).status != fault::FaultStatus::kUndetected) continue;
    TestCube cube;
    const AtpgStatus st = podem.generate(fl.record(i).fault, cube);
    mix(i);
    mix(static_cast<uint64_t>(st));
    mix(podem.backtracksUsed());
    mix(cube.care_sources.size());
    for (size_t k = 0; k < cube.care_sources.size(); ++k) {
      mix(cube.care_sources[k].v);
      mix(cube.care_values[k]);
    }
  }
  return h;
}

TEST(PodemDifferential, AnswersMatchTheRecordedRun) {
  // The SAT differential above cannot see a compiled engine that starts
  // aborting where it used to detect, or that spends more backtracks.
  // These hashes pin every status, backtrack count and cube, so any
  // change to the search fails here.
  {
    Netlist nl = gen::buildC17();
    const uint64_t h = podemAnswersHash(nl);
    EXPECT_EQ(h, 0x7f24e65dba81075eull) << "c17: 0x" << std::hex << h;
  }
  {
    Netlist nl = gen::buildMiniAlu(8);
    const uint64_t h = podemAnswersHash(nl);
    EXPECT_EQ(h, 0x667a8d08b0caf058ull) << "mini ALU: 0x" << std::hex << h;
  }
  const uint64_t cores[] = {0xe630b31bf66a8b10ull, 0x84ac0ec9d3d2a452ull,
                            0x58b77f055f72a50aull};
  for (uint64_t seed = 2; seed <= 4; ++seed) {
    Netlist nl = differentialCore(seed);
    const uint64_t h = podemAnswersHash(nl);
    EXPECT_EQ(h, cores[seed - 2])
        << "seed " << seed << ": 0x" << std::hex << h;
  }
}

/// Shared top-up fixture: generated core with a random-resistant tail.
Netlist topUpCore(uint64_t seed) {
  gen::IpCoreSpec spec;
  spec.seed = seed;
  spec.target_comb_gates = 1500;
  spec.target_ffs = 64;
  spec.num_inputs = 12;
  spec.num_outputs = 10;
  spec.num_domains = 1;
  spec.num_xsources = 0;
  spec.num_noscan_ffs = 0;
  spec.resistant_fraction = 0.12;
  return gen::generateIpCore(spec);
}

/// Runs a short random phase, leaving an undetected tail for top-up.
void runRandomPhase(fault::FaultSimulator& fsim,
                    const std::vector<GateId>& assignable,
                    int64_t n_patterns = 256) {
  fsim.classifyUntestable();
  std::mt19937_64 rng(5);
  for (int64_t base = 0; base < n_patterns; base += 64) {
    for (GateId src : assignable) fsim.setSource(src, rng());
    fsim.simulateBlockStuckAt(base, 64);
  }
}

TEST(TopUpParallel, PatternsBitIdenticalAcrossThreadCounts) {
  Netlist nl = topUpCore(91);
  const ScanSetup s = scanSetup(nl);
  fault::FaultList base = fault::FaultList::enumerateStuckAt(nl);
  {
    fault::FaultSimulator fsim(nl, base, s.observed);
    runRandomPhase(fsim, s.assignable);
  }

  std::vector<TopUpResult> results;
  std::vector<fault::FaultList> lists;
  for (uint32_t threads : {1u, 2u, 4u}) {
    fault::FaultList fl = base;
    fault::FaultSimulator fsim(nl, fl, s.observed);
    TopUpConfig cfg;
    cfg.threads = threads;
    results.push_back(
        runTopUp(nl, fl, fsim, s.observed, s.assignable, {}, cfg));
    lists.push_back(std::move(fl));
  }

  const TopUpResult& ref = results[0];
  ASSERT_GT(ref.patterns.size(), 0u);
  for (size_t r = 1; r < results.size(); ++r) {
    const TopUpResult& got = results[r];
    EXPECT_EQ(got.targeted, ref.targeted);
    EXPECT_EQ(got.atpg_detected, ref.atpg_detected);
    EXPECT_EQ(got.fortuitous_detected, ref.fortuitous_detected);
    EXPECT_EQ(got.proven_untestable, ref.proven_untestable);
    EXPECT_EQ(got.aborted, ref.aborted);
    EXPECT_EQ(got.backtracks, ref.backtracks);
    EXPECT_EQ(got.patterns_before_compact, ref.patterns_before_compact);
    EXPECT_TRUE(got.final_coverage == ref.final_coverage);
    ASSERT_EQ(got.patterns.size(), ref.patterns.size());
    for (size_t p = 0; p < ref.patterns.size(); ++p) {
      EXPECT_EQ(got.patterns[p].sources, ref.patterns[p].sources);
      EXPECT_EQ(got.patterns[p].values, ref.patterns[p].values)
          << "pattern " << p << " diverges (run " << r << ")";
    }
    for (size_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(lists[r].record(i).status, lists[0].record(i).status)
          << "fault " << i << " status diverges";
    }
  }
}

TEST(TopUpParallel, EscalatedCoverageMatchesSatPrimary) {
  // SAT-primary top-up completes on every target, so its coverage is
  // exact for the starting state. Compiled PODEM with SAT escalation
  // must reach the same coverage: a PODEM untestability claim on a
  // testable fault, or a lost cube, would leave it short.
  // The adder is random-testable: 256 random patterns leave it no
  // target, so it gets no random phase, and 64 bits keep its SAT-primary
  // run short (273 targets).
  struct Workload {
    const char* name;
    Netlist nl;
    int64_t random_patterns;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"adder64", gen::buildRippleAdder(64), 0});
  workloads.push_back({"alu64", gen::buildMiniAlu(64), 256});
  workloads.push_back({"ipcore", topUpCore(92), 256});

  size_t escalations = 0;
  for (Workload& w : workloads) {
    const ScanSetup s = scanSetup(w.nl);
    fault::FaultList base = fault::FaultList::enumerateStuckAt(w.nl);
    {
      fault::FaultSimulator fsim(w.nl, base, s.observed);
      runRandomPhase(fsim, s.assignable, w.random_patterns);
    }

    TopUpResult res[2];
    int idx = 0;
    for (AtpgEngine engine : {AtpgEngine::kCompiled, AtpgEngine::kSat}) {
      fault::FaultList fl = base;
      fault::FaultSimulator fsim(w.nl, fl, s.observed);
      TopUpConfig cfg;
      cfg.engine = engine;
      cfg.sat_escalate = true;
      res[idx++] =
          runTopUp(w.nl, fl, fsim, s.observed, s.assignable, {}, cfg);
    }
    const fault::Coverage& escalated = res[0].final_coverage;
    const fault::Coverage& sat = res[1].final_coverage;
    // With no target, both top-ups return the starting state.
    EXPECT_GT(res[0].targeted, 0u) << w.name;
    EXPECT_GT(res[1].targeted, 0u) << w.name;
    EXPECT_EQ(res[1].aborted, 0u) << w.name;
    EXPECT_EQ(res[0].aborted, 0u) << w.name;
    escalations += res[0].sat_escalated;
    EXPECT_EQ(escalated.detected, sat.detected) << w.name;
    EXPECT_EQ(escalated.untestable + escalated.redundant,
              sat.untestable + sat.redundant)
        << w.name;
    EXPECT_EQ(escalated.faultCoveragePercent(), sat.faultCoveragePercent())
        << w.name << ": escalated top-up must reach the SAT-primary coverage";
  }
  EXPECT_GT(escalations, 0u) << "no PODEM abort reached the SAT engine";
}

TEST(TopUpParallel, ReverseCompactionPreservesDetection) {
  Netlist nl = topUpCore(93);
  const ScanSetup s = scanSetup(nl);
  fault::FaultList base = fault::FaultList::enumerateStuckAt(nl);
  {
    fault::FaultSimulator fsim(nl, base, s.observed);
    runRandomPhase(fsim, s.assignable);
  }

  // With compaction on and off: identical statuses, no more patterns on.
  TopUpResult with, without;
  fault::FaultList fl_with = base;
  {
    fault::FaultSimulator fsim(nl, fl_with, s.observed);
    TopUpConfig cfg;
    cfg.reverse_compact = true;
    with = runTopUp(nl, fl_with, fsim, s.observed, s.assignable, {}, cfg);
  }
  {
    fault::FaultList fl = base;
    fault::FaultSimulator fsim(nl, fl, s.observed);
    TopUpConfig cfg;
    cfg.reverse_compact = false;
    without = runTopUp(nl, fl, fsim, s.observed, s.assignable, {}, cfg);
    for (size_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(fl.record(i).status, fl_with.record(i).status);
    }
  }
  EXPECT_EQ(with.patterns_before_compact, without.patterns.size());
  EXPECT_LE(with.patterns.size(), without.patterns.size());
  EXPECT_TRUE(with.final_coverage == without.final_coverage);
  ASSERT_GT(with.patterns.size(), 0u);

  // The kept pattern set alone must re-detect every fault top-up
  // newly detected.
  fault::FaultList replay = base;
  fault::FaultSimulator fsim(nl, replay, s.observed);
  int64_t pbase = 0;
  size_t lane = 0;
  std::vector<uint64_t> lane_words(s.assignable.size(), 0);
  auto flush = [&] {
    if (lane == 0) return;
    for (GateId pi : nl.inputs()) fsim.setSource(pi, 0);
    for (GateId dff : nl.dffs()) fsim.setSource(dff, 0);
    for (size_t i = 0; i < s.assignable.size(); ++i) {
      fsim.setSource(s.assignable[i], lane_words[i]);
    }
    fsim.refreshActiveSet();
    fsim.simulateBlockStuckAt(pbase, static_cast<int>(lane));
    pbase += static_cast<int64_t>(lane);
    lane = 0;
    std::fill(lane_words.begin(), lane_words.end(), 0);
  };
  for (const TopUpPattern& pat : with.patterns) {
    for (size_t i = 0; i < s.assignable.size(); ++i) {
      if (pat.values[i] != 0) lane_words[i] |= uint64_t{1} << lane;
    }
    if (++lane == 64) flush();
  }
  flush();
  for (size_t i = 0; i < base.size(); ++i) {
    if (base.record(i).status == fault::FaultStatus::kUndetected &&
        fl_with.record(i).status == fault::FaultStatus::kDetected) {
      EXPECT_EQ(replay.record(i).status, fault::FaultStatus::kDetected)
          << "compacted set lost fault " << base.describe(nl, i);
    }
  }
}

TEST(TopUpParallel, HardwareConcurrencyThreadsWork) {
  Netlist nl = topUpCore(94);
  const ScanSetup s = scanSetup(nl);
  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
  fault::FaultSimulator fsim(nl, fl, s.observed);
  runRandomPhase(fsim, s.assignable);
  TopUpConfig cfg;
  cfg.threads = 0;  // hardware concurrency
  const TopUpResult res =
      runTopUp(nl, fl, fsim, s.observed, s.assignable, {}, cfg);
  EXPECT_GT(res.targeted, 0u);
}

}  // namespace
}  // namespace lbist::atpg
