// End-to-end: LbistArchitect flow, cycle-accurate BistSession, coverage
// flow, JTAG-driven LbistTop, and Table 1 reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <set>
#include <stdexcept>
#include <string>

#include "bist/prpg.hpp"
#include "core/architect.hpp"
#include "core/flow.hpp"
#include "core/lbist_top.hpp"
#include "core/pattern_source.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "core/thread_pool.hpp"
#include "dft/xbound.hpp"
#include "fault/fault.hpp"
#include "fault/inject.hpp"
#include "gen/ipcore.hpp"
#include "netlist/stats.hpp"
#include "obs/obs.hpp"
#include "sim/seqsim.hpp"
#include "sim/sim2v.hpp"

namespace lbist::core {
namespace {

Netlist testCore(uint64_t seed = 2024, int domains = 2) {
  gen::IpCoreSpec spec;
  spec.seed = seed;
  spec.target_comb_gates = 900;
  spec.target_ffs = 70;
  spec.num_inputs = 12;
  spec.num_outputs = 10;
  spec.num_domains = domains;
  spec.num_xsources = 2;
  spec.num_noscan_ffs = 2;
  return gen::generateIpCore(spec);
}

LbistConfig smallConfig() {
  LbistConfig cfg;
  cfg.num_chains = 4;
  cfg.test_points = 8;
  cfg.tpi.warmup_patterns = 256;
  cfg.tpi.guidance_patterns = 128;
  return cfg;
}

TEST(Architect, BuildsBistReadyCore) {
  const Netlist core = testCore();
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  EXPECT_EQ(ready.netlist.validate(), "");
  EXPECT_EQ(ready.scan.chains.size(), 4u);
  EXPECT_EQ(ready.domain_bist.size(), 2u);
  EXPECT_LE(ready.observe_cells.size(), 8u);
  EXPECT_GT(ready.observe_cells.size(), 0u);
  EXPECT_GT(ready.overheadPercent(), 0.0);
  // X sources blocked.
  EXPECT_EQ(ready.xbound.bounded_xsources, 2u);
  EXPECT_TRUE(dft::verifyNoXToObservation(ready.netlist).empty());
}

TEST(Architect, MisrAtLeastChainCountWithoutCompactor) {
  const Netlist core = testCore();
  LbistConfig cfg = smallConfig();
  cfg.num_chains = 6;
  cfg.misr_min_length = 4;
  cfg.use_space_compactor = false;
  const BistReadyCore ready = buildBistReadyCore(core, cfg);
  for (const DomainBist& db : ready.domain_bist) {
    EXPECT_GE(db.odc.misr_length,
              static_cast<int>(db.chain_indices.size()))
        << "paper: no compactor means MISR length >= chains";
  }
}

TEST(Architect, CopAndNoneTpiMethods) {
  const Netlist core = testCore(7);
  LbistConfig cfg = smallConfig();
  cfg.tpi_method = TpiMethod::kCop;
  const BistReadyCore cop = buildBistReadyCore(core, cfg);
  EXPECT_EQ(cop.observe_cells.size(), 8u);
  cfg.tpi_method = TpiMethod::kNone;
  const BistReadyCore none = buildBistReadyCore(core, cfg);
  EXPECT_TRUE(none.observe_cells.empty());
}

TEST(Session, GoldenRunIsDeterministicAndFinishes) {
  const Netlist core = testCore();
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  BistSession s1(ready, ready.netlist);
  BistSession s2(ready, ready.netlist);
  SessionOptions opts;
  opts.patterns = 8;
  const SessionResult r1 = s1.run(opts);
  const SessionResult r2 = s2.run(opts);
  EXPECT_TRUE(r1.finish);
  EXPECT_EQ(r1.patterns_done, 8);
  EXPECT_EQ(r1.signatures, r2.signatures);
  EXPECT_EQ(r1.signatures.size(), ready.domain_bist.size());
  EXPECT_EQ(r1.shift_pulses,
            static_cast<uint64_t>(8 * ready.shiftCyclesPerPattern()));
  // Two capture pulses per domain per pattern (double capture).
  EXPECT_EQ(r1.capture_pulses, static_cast<uint64_t>(8 * 2 * 2));
}

TEST(Session, InjectedFaultFlipsResult) {
  const Netlist core = testCore(4242);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  SessionOptions opts;
  opts.patterns = 16;

  BistSession golden_session(ready, ready.netlist);
  const SessionResult golden = golden_session.run(opts);

  // Good die against golden: pass.
  BistSession good_die(ready, ready.netlist);
  const SessionResult good = good_die.run(opts, &golden);
  EXPECT_TRUE(good.result_pass);

  // Defective die: pick an easily-excited site (a scan cell's D driver)
  // and verify Result fails through the real signature path.
  Netlist bad = ready.netlist;
  GateId site;
  for (GateId dff : ready.netlist.dffs()) {
    if (ready.netlist.hasFlag(dff, kFlagScanCell)) {
      site = ready.netlist.gate(dff).fanins[0];
      break;
    }
  }
  ASSERT_TRUE(site.valid());
  fault::injectStuckAt(
      bad, fault::Fault{site, fault::kOutputPin,
                        fault::FaultType::kStuckAt1});
  BistSession bad_die(ready, bad);
  const SessionResult failed = bad_die.run(opts, &golden);
  EXPECT_TRUE(failed.finish);
  EXPECT_FALSE(failed.result_pass) << "stuck scan data must corrupt a MISR";
}

TEST(Session, SingleCaptureModeRuns) {
  const Netlist core = testCore(11);
  LbistConfig cfg = smallConfig();
  cfg.timing.double_capture = false;
  const BistReadyCore ready = buildBistReadyCore(core, cfg);
  BistSession s(ready, ready.netlist);
  SessionOptions opts;
  opts.patterns = 4;
  const SessionResult r = s.run(opts);
  EXPECT_TRUE(r.finish);
  EXPECT_EQ(r.capture_pulses, static_cast<uint64_t>(4 * 2 * 1));
}

/// Reference for BistSession::run: the same schedule, PRPGs, MISRs and
/// controller, but every shift and capture pulse is a full-eval
/// SeqSimulator pulse that loads every flop of the pulsed domains.
SessionResult fullEvalRun(const BistReadyCore& core, const Netlist& die,
                          const SessionOptions& opts) {
  sim::SeqSimulator sim(die);
  for (GateId pi : die.inputs()) sim.setInput(pi, 0);
  if (core.scan.test_mode_port.valid()) {
    sim.setInput(core.scan.test_mode_port, ~uint64_t{0});
  }
  if (auto tm = die.findGateByName(dft::kTestModePort)) {
    sim.setInput(*tm, ~uint64_t{0});
  }
  std::vector<bist::Prpg> prpgs;
  std::vector<bist::Odc> odcs;
  for (const DomainBist& db : core.domain_bist) {
    prpgs.emplace_back(db.prpg);
    prpgs.back().loadSeed(db.prpg.seed);
    odcs.emplace_back(db.odc);
  }
  const auto shift = [&] {
    for (size_t i = 0; i < prpgs.size(); ++i) {
      const std::vector<size_t>& chains = core.domain_bist[i].chain_indices;
      std::vector<uint8_t> so;
      for (size_t ci : chains) {
        so.push_back(static_cast<uint8_t>(
            sim.state(core.scan.chains[ci].so_driver) & 1u));
      }
      odcs[i].compact(so);
      std::vector<uint8_t> si(chains.size(), 0);
      prpgs[i].nextSlice(si);
      for (size_t c = 0; c < chains.size(); ++c) {
        sim.setInput(core.scan.chains[chains[c]].si_port,
                     si[c] != 0 ? ~uint64_t{0} : 0);
      }
    }
    sim.pulseAll();
  };

  SessionResult res;
  bist::BistController ctrl;
  ctrl.setSignatureInterval(opts.signature_interval);
  ctrl.start();
  ctrl.seedsLoaded();
  const int shift_cycles = core.shiftCyclesPerPattern();
  bist::BistSchedule sched(
      die.domains(), opts.timing_override.value_or(core.config.timing),
      shift_cycles, opts.patterns);
  using Kind = bist::ScheduleEvent::Kind;
  while (auto ev = sched.next()) {
    ctrl.onEvent(*ev);
    if (ctrl.checkpointDue()) {
      SignatureCheckpoint cp;
      cp.patterns_done = ctrl.patternsDone();
      for (bist::Odc& odc : odcs) cp.domain_words.push_back(odc.signature());
      res.checkpoints.push_back(std::move(cp));
    }
    if (ev->kind == Kind::kShiftPulse || ev->kind == Kind::kSeRise) {
      sim.setInput(core.scan.se_port, ~uint64_t{0});
    }
    if (ev->kind == Kind::kSeFall) sim.setInput(core.scan.se_port, 0);
    if (ev->kind == Kind::kShiftPulse) shift();
    if (ev->kind == Kind::kLaunchPulse || ev->kind == Kind::kCapturePulse) {
      sim.pulse(ev->domain);
    }
    if (ev->kind == Kind::kSessionEnd) res.session_ps = ev->time_ps;
  }
  sim.setInput(core.scan.se_port, ~uint64_t{0});
  for (int s = 0; s < shift_cycles; ++s) shift();
  res.patterns_done = ctrl.patternsDone();
  res.shift_pulses = ctrl.shiftPulses();
  res.capture_pulses = ctrl.capturePulses();
  for (bist::Odc& odc : odcs) res.signature_words.push_back(odc.signature());
  return res;
}

/// FNV-1a over everything a session reports that diagnosis and the
/// campaign consume.
uint64_t sessionHash(const SessionResult& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto mixWords = [&](const std::vector<std::vector<uint64_t>>& ws) {
    mix(ws.size());
    for (const std::vector<uint64_t>& w : ws) {
      mix(w.size());
      for (uint64_t x : w) mix(x);
    }
  };
  mixWords(r.signature_words);
  mix(r.checkpoints.size());
  for (const SignatureCheckpoint& cp : r.checkpoints) {
    mix(static_cast<uint64_t>(cp.patterns_done));
    mixWords(cp.domain_words);
  }
  mix(static_cast<uint64_t>(r.patterns_done));
  mix(r.shift_pulses);
  mix(r.capture_pulses);
  mix(r.session_ps);
  mix(r.finish ? 1 : 0);
  return h;
}

/// A small two-domain core whose whole stuck-at universe replays in a
/// few seconds: it has X-sources, non-scan flops and wrapped IOs, so its
/// faults hit the SE and test_mode fanouts, the X-blocking ANDs, the
/// scan muxes and the non-scan flop outputs.
BistReadyCore sweepCore() {
  gen::IpCoreSpec spec;
  spec.seed = 3;
  spec.target_comb_gates = 120;
  spec.target_ffs = 14;
  spec.num_inputs = 5;
  spec.num_outputs = 4;
  spec.num_domains = 2;
  spec.num_xsources = 2;
  spec.num_noscan_ffs = 2;
  spec.resistant_cone_width = 6;
  LbistConfig cfg = smallConfig();
  cfg.test_points = 4;
  return buildBistReadyCore(gen::generateIpCore(spec), cfg);
}

TEST(Session, ShiftPulsesMatchTheFullEvalReference) {
  // BistSession's shift pulses evaluate only what the scan state they
  // load depends on; the reference evaluates the whole core on every
  // pulse. Both must agree on every die, including every single
  // stuck-at die of the sweep core.
  const BistReadyCore ready = sweepCore();
  ASSERT_EQ(ready.domain_bist.size(), 2u);
  ASSERT_GT(ready.xbound.bounded_xsources, 0u);
  ASSERT_GT(ready.xbound.bounded_noscan_ffs, 0u);
  ASSERT_GT(ready.scan.wrapper_cells, 0u);
  fault::FaultListOptions fo;
  fo.collapse = false;
  const fault::FaultList fl =
      fault::FaultList::enumerateStuckAt(ready.netlist, fo);

  for (bool double_capture : {false, true}) {
    SessionOptions opts;
    opts.patterns = 3;
    opts.signature_interval = 1;
    bist::AtSpeedTimingConfig timing = ready.config.timing;
    timing.double_capture = double_capture;
    opts.timing_override = timing;
    const auto check = [&](const Netlist& die, const std::string& what) {
      const SessionResult want = fullEvalRun(ready, die, opts);
      BistSession session(ready, die);
      const SessionResult got = session.run(opts);
      ASSERT_EQ(got.signature_words, want.signature_words) << what;
      ASSERT_EQ(got.checkpoints, want.checkpoints) << what;
      ASSERT_EQ(got.shift_pulses, want.shift_pulses) << what;
      ASSERT_EQ(got.capture_pulses, want.capture_pulses) << what;
    };
    const std::string mode =
        double_capture ? "double capture, " : "single capture, ";
    check(ready.netlist, mode + "golden die");
    for (size_t i = 0; i < fl.size(); ++i) {
      Netlist die = ready.netlist;
      const fault::Fault& f = fl.record(i).fault;
      fault::injectStuckAt(die, f);
      check(die, mode + f.describe(ready.netlist));
    }
  }
}

/// The lane oracle: passes of up to 63 faults over `ready`'s own
/// netlist, in single and double capture at interval 1, each lane
/// checked against fault::injectStuckAt plus a one-machine session.
void expectLanesMatchInjection(const BistReadyCore& ready,
                               const fault::FaultList& fl, int64_t patterns) {
  for (bool double_capture : {false, true}) {
    SessionOptions opts;
    opts.patterns = patterns;
    opts.signature_interval = 1;
    bist::AtSpeedTimingConfig timing = ready.config.timing;
    timing.double_capture = double_capture;
    opts.timing_override = timing;
    const std::string mode =
        double_capture ? "double capture, " : "single capture, ";
    BistSession lanes(ready, ready.netlist);
    const SessionResult golden = lanes.run(opts);
    const auto expectSame = [&](const SessionResult& got,
                                const SessionResult& want,
                                const std::string& what) {
      ASSERT_EQ(got.signatures, want.signatures) << what;
      ASSERT_EQ(got.signature_words, want.signature_words) << what;
      ASSERT_EQ(got.checkpoints, want.checkpoints) << what;
      ASSERT_EQ(got.patterns_done, want.patterns_done) << what;
      ASSERT_EQ(got.shift_pulses, want.shift_pulses) << what;
      ASSERT_EQ(got.capture_pulses, want.capture_pulses) << what;
      ASSERT_EQ(got.session_ps, want.session_ps) << what;
      ASSERT_EQ(got.finish, want.finish) << what;
      ASSERT_EQ(got.result_pass, want.result_pass) << what;
    };
    constexpr size_t kPass = BistSession::kMaxFaults;
    for (size_t begin = 0; begin < fl.size(); begin += kPass) {
      std::vector<fault::Fault> faults;
      for (size_t i = begin; i < std::min(fl.size(), begin + kPass); ++i) {
        faults.push_back(fl.record(i).fault);
      }
      const std::vector<SessionResult> got = lanes.run(opts, faults, &golden);
      ASSERT_EQ(got.size(), faults.size() + 1);
      expectSame(got[0], lanes.run(opts, &golden), mode + "die lane");
      for (size_t k = 0; k < faults.size(); ++k) {
        Netlist die = ready.netlist;
        fault::injectStuckAt(die, faults[k]);
        BistSession reference(ready, die);
        expectSame(got[k + 1], reference.run(opts, &golden),
                   mode + faults[k].describe(ready.netlist));
      }
    }
  }
}

fault::FaultList uncollapsedStuckAt(const Netlist& nl) {
  fault::FaultListOptions fo;
  fo.collapse = false;
  return fault::FaultList::enumerateStuckAt(nl, fo);
}

TEST(Session, LanesMatchTheInjectedDies) {
  // A lane pass forces up to 63 faults, one per lane, into the die's own
  // netlist. Each lane must equal the reference over the sweep core's
  // whole uncollapsed stuck-at universe.
  const BistReadyCore ready = sweepCore();
  expectLanesMatchInjection(ready, uncollapsedStuckAt(ready.netlist), 3);
}

TEST(Session, LanesFollowAFaultThatRevivesADeadFlop) {
  // Non-scan flop n is X-bounded, so on the intact die nothing a MISR
  // sees depends on it and shift pulses do not load it. A stuck-at-1 on
  // its blocking AND's test-mode pin lets n reach f3, so in that lane n
  // must shift like any live flop: the pass's shift program has to count
  // every forced site as unknown, not only the intact die's live cones.
  Netlist nl("revive");
  const DomainId clk = nl.addClockDomain("clk", 4000);
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId zero = nl.addConst(false);
  const GateId f1 = nl.addDff(zero, clk, "f1");
  const GateId f2 = nl.addDff(zero, clk, "f2");
  const GateId f3 = nl.addDff(zero, clk, "f3");
  const GateId n = nl.addDff(zero, clk, "n");
  nl.setFanin(f1, 0, nl.addGate(CellKind::kXor, {a, f2}));
  nl.setFanin(f2, 0, nl.addGate(CellKind::kXnor, {b, f1}));
  nl.setFanin(n, 0, nl.addGate(CellKind::kXor, {f1, f2}));
  nl.setFanin(f3, 0, nl.addGate(CellKind::kXor, {n, f1}));
  nl.setFlag(n, kFlagNoScan);
  nl.addOutput(f3, "o");
  LbistConfig cfg;
  cfg.num_chains = 1;
  cfg.tpi_method = TpiMethod::kNone;
  cfg.test_points = 0;
  const BistReadyCore ready = buildBistReadyCore(nl, cfg);
  ASSERT_EQ(ready.xbound.blocking_gates.size(), 1u);
  const GateId blocking = ready.xbound.blocking_gates[0];
  const fault::Fault revive{blocking, 1, fault::FaultType::kStuckAt1};
  const fault::FaultList fl = uncollapsedStuckAt(ready.netlist);
  bool listed = false;
  for (size_t i = 0; i < fl.size(); ++i) {
    listed = listed || fl.record(i).fault == revive;
  }
  ASSERT_TRUE(listed);
  expectLanesMatchInjection(ready, fl, 8);
}

TEST(Session, CoarseAndTruncatedRunsAreViewsOfTheIntervalOneRun) {
  // Diagnosis runs each machine once at interval 1 and reads coarser
  // checkpoint traces and truncated sessions off that run. The interval
  // only picks which MISR states a run records, and a run truncated
  // after p + 1 patterns unloads in what is pattern p + 1's shift
  // window in the full run, so it ends on the interval-1 checkpoint
  // after p + 2 patterns, or on the final signature at p + 1 = patterns.
  const BistReadyCore ready = sweepCore();
  const fault::FaultList fl = uncollapsedStuckAt(ready.netlist);
  std::vector<Netlist> dies{ready.netlist};
  std::mt19937_64 rng(18);
  for (int k = 0; k < 4; ++k) {
    dies.push_back(ready.netlist);
    fault::injectStuckAt(dies.back(), fl.record(rng() % fl.size()).fault);
  }
  constexpr int64_t kPatterns = 12;
  for (bool double_capture : {false, true}) {
    SCOPED_TRACE(double_capture ? "double capture" : "single capture");
    SessionOptions opts;
    bist::AtSpeedTimingConfig timing = ready.config.timing;
    timing.double_capture = double_capture;
    opts.timing_override = timing;
    for (size_t i = 0; i < dies.size(); ++i) {
      SCOPED_TRACE("die " + std::to_string(i));
      BistSession session(ready, dies[i]);
      opts.patterns = kPatterns;
      opts.signature_interval = 1;
      const SessionResult fine = session.run(opts);
      ASSERT_EQ(fine.checkpoints.size(), static_cast<size_t>(kPatterns));
      for (int64_t interval : {2, 3, 5, 12}) {
        opts.signature_interval = interval;
        const SessionResult coarse = session.run(opts);
        std::vector<SignatureCheckpoint> picked;
        for (const SignatureCheckpoint& cp : fine.checkpoints) {
          if (cp.patterns_done % interval == 0) picked.push_back(cp);
        }
        EXPECT_EQ(coarse.checkpoints, picked) << "interval " << interval;
        EXPECT_EQ(coarse.signature_words, fine.signature_words);
      }
      // ends[p]: the signature a run truncated after p + 1 patterns ends on.
      std::vector<std::vector<std::vector<uint64_t>>> ends;
      for (size_t c = 1; c < fine.checkpoints.size(); ++c) {
        ends.push_back(fine.checkpoints[c].domain_words);
      }
      ends.push_back(fine.signature_words);
      opts.signature_interval = 0;
      for (size_t p = 0; p < ends.size(); ++p) {
        opts.patterns = static_cast<int64_t>(p) + 1;
        EXPECT_EQ(session.run(opts).signature_words, ends[p])
            << "truncated after " << p + 1 << " patterns";
      }
    }
  }
}

TEST(Session, LanePassRejectsWhatItCannotForce) {
  const BistReadyCore ready = sweepCore();
  BistSession session(ready, ready.netlist);
  SessionOptions opts;
  opts.patterns = 1;
  const fault::Fault stuck{ready.scan.se_port};
  const std::vector<fault::Fault> too_many(BistSession::kMaxFaults + 1, stuck);
  EXPECT_THROW((void)session.run(opts, too_many), std::invalid_argument);
  const std::vector<fault::Fault> slow{
      {ready.scan.se_port, fault::kOutputPin, fault::FaultType::kSlowToRise}};
  EXPECT_THROW((void)session.run(opts, slow), std::invalid_argument);
}

TEST(Session, IntactDieShiftsEvaluateNoOps) {
  // session.ops counts the compiled ops the pulses evaluated: on an
  // intact die only the capture pulses evaluate any, the whole core each.
  const BistReadyCore ready = buildBistReadyCore(testCore(), smallConfig());
  SessionOptions opts;
  opts.patterns = 6;
  obs::setMetricsEnabled(true);
  obs::resetAll();
  BistSession session(ready, ready.netlist);
  const SessionResult r = session.run(opts);
  const uint64_t pulses = obs::counterValue("session.pulses");
  const uint64_t ops = obs::counterValue("session.ops");
  obs::setMetricsEnabled(false);
  obs::resetAll();
  const uint64_t unload =
      static_cast<uint64_t>(ready.shiftCyclesPerPattern());
  EXPECT_EQ(pulses, r.shift_pulses + unload + r.capture_pulses);
  EXPECT_EQ(ops, r.capture_pulses *
                     sim::SeqSimulator(ready.netlist).compiled().numOps());
}

TEST(Session, ResultsMatchTheRecordedSessions) {
  // Golden and three seeded defective dies of testCore(), in single and
  // double capture. The hashes were recorded from the full-eval session
  // that preceded the reduced shift pulses.
  const BistReadyCore ready = buildBistReadyCore(testCore(), smallConfig());
  const fault::FaultList fl =
      fault::FaultList::enumerateStuckAt(ready.netlist);
  std::vector<Netlist> dies{ready.netlist};
  std::mt19937_64 rng(14);
  for (int k = 0; k < 3; ++k) {
    dies.push_back(ready.netlist);
    fault::injectStuckAt(dies.back(), fl.record(rng() % fl.size()).fault);
  }
  std::vector<uint64_t> hashes;
  for (bool double_capture : {false, true}) {
    SessionOptions opts;
    opts.patterns = 12;
    opts.signature_interval = 4;
    bist::AtSpeedTimingConfig timing = ready.config.timing;
    timing.double_capture = double_capture;
    opts.timing_override = timing;
    for (const Netlist& die : dies) {
      BistSession session(ready, die);
      hashes.push_back(sessionHash(session.run(opts)));
    }
  }
  const std::vector<uint64_t> recorded{
      0x4ba7ba372df9722eull, 0x2f2912ae93176130ull, 0x279a429027ee3f62ull,
      0x7293b5ec8a370b43ull, 0x29c061debef29401ull, 0xf8d2b83f2e9648cfull,
      0x27647a584cef8b94ull, 0xa773fc27f8e0f3d2ull,
  };
  for (size_t i = 0; i < hashes.size(); ++i) {
    EXPECT_EQ(hashes[i], recorded[i])
        << (i < 4 ? "single" : "double") << " capture, die " << i % 4
        << std::hex << ": 0x" << hashes[i];
  }
}

TEST(Flow, RandomPhaseReachesReasonableCoverage) {
  const Netlist core = testCore(100, 1);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  CoverageFlow flow(ready);
  const RandomPhaseResult res = flow.runRandomPhase(2048);
  EXPECT_GT(res.coverage.faultCoveragePercent(), 70.0);
  EXPECT_LT(res.coverage.faultCoveragePercent(), 100.0);
  EXPECT_EQ(res.patterns, 2048);
}

TEST(Flow, TopUpRaisesCoverageBeyondRandom) {
  const Netlist core = testCore(101, 1);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  CoverageFlow flow(ready);
  const RandomPhaseResult rand_res = flow.runRandomPhase(1024);
  const atpg::TopUpResult topup = flow.runTopUp();
  EXPECT_GT(topup.final_coverage.faultCoveragePercent(),
            rand_res.coverage.faultCoveragePercent());
  EXPECT_GT(topup.final_coverage.testCoveragePercent(), 95.0);
}

TEST(Flow, PrpgExactStatesMatchSessionShift) {
  // The fast flow's computed scan states must equal what the
  // cycle-accurate session actually shifts in — run one pattern in the
  // session, stop before capture, and compare (done indirectly: both use
  // the same Prpg models; here we check the session's first-pattern
  // signature differs when the seed differs, proving seeds matter).
  const Netlist core = testCore(55);
  LbistConfig cfg = smallConfig();
  const BistReadyCore ready = buildBistReadyCore(core, cfg);
  BistReadyCore reseeded = ready;
  reseeded.domain_bist[0].prpg.seed ^= 0x5A5A;
  SessionOptions opts;
  opts.patterns = 4;
  BistSession a(ready, ready.netlist);
  BistSession b(reseeded, reseeded.netlist);
  EXPECT_NE(a.run(opts).signatures, b.run(opts).signatures);
}

/// The scalar load that PrpgPatternSource's bit-sliced model replaced:
/// every domain's Prpg steps once per lane and shift cycle, and the bit
/// it injects at cycle k lands in cell (L-1-k) of each chain. Returns
/// each block's per-gate rows, gate-major with stride `lane_words`.
class ScalarPrpgReference {
 public:
  ScalarPrpgReference(const BistReadyCore& core, size_t lane_words)
      : core_(&core), lane_words_(lane_words) {
    for (const DomainBist& db : core.domain_bist) {
      prpgs_.emplace_back(db.prpg);
    }
  }

  std::vector<uint64_t> nextBlock(int lanes) {
    const int shift_cycles = core_->shiftCyclesPerPattern();
    std::vector<uint64_t> words(core_->netlist.numGates() * lane_words_, 0);
    std::vector<uint8_t> slice;
    for (int lane = 0; lane < lanes; ++lane) {
      const size_t word = static_cast<size_t>(lane) / 64;
      const uint64_t bit = uint64_t{1} << (lane % 64);
      for (size_t i = 0; i < prpgs_.size(); ++i) {
        const DomainBist& db = core_->domain_bist[i];
        slice.assign(db.chain_indices.size(), 0);
        for (int k = 0; k < shift_cycles; ++k) {
          prpgs_[i].nextSlice(slice);
          const int cell_pos = shift_cycles - 1 - k;
          for (size_t c = 0; c < db.chain_indices.size(); ++c) {
            const dft::ScanChain& chain =
                core_->scan.chains[db.chain_indices[c]];
            if (cell_pos < static_cast<int>(chain.cells.size()) &&
                slice[c] != 0) {
              words[chain.cells[static_cast<size_t>(cell_pos)].v *
                        lane_words_ +
                    word] |= bit;
            }
          }
        }
      }
    }
    return words;
  }

 private:
  const BistReadyCore* core_;
  size_t lane_words_;
  std::vector<bist::Prpg> prpgs_;
};

TEST(PatternSource, BitSlicedLoadsMatchTheScalarPrpg) {
  LbistConfig cfg = smallConfig();
  cfg.num_chains = 7;
  BistReadyCore ready = buildBistReadyCore(testCore(31, 3), cfg);
  ASSERT_EQ(ready.domain_bist.size(), 3u);
  std::set<size_t> lengths;
  for (const dft::ScanChain& chain : ready.scan.chains) {
    lengths.insert(chain.cells.size());
  }
  ASSERT_GE(lengths.size(), 2u) << "want chains of unequal length";
  // Fewer phase-shifter channels than chains puts a space expander in
  // the widest domain's path.
  DomainBist& widest = *std::max_element(
      ready.domain_bist.begin(), ready.domain_bist.end(),
      [](const DomainBist& a, const DomainBist& b) {
        return a.chain_indices.size() < b.chain_indices.size();
      });
  ASSERT_GE(widest.chain_indices.size(), 3u);
  widest.prpg.ps_channels = 2;
  ASSERT_NE(bist::Prpg(widest.prpg).expander(), nullptr);

  for (const size_t w : {size_t{1}, size_t{4}, size_t{8}}) {
    // Eight full blocks with a partial one mid-stream and another last.
    std::vector<int> blocks(8, static_cast<int>(64 * w));
    blocks.insert(blocks.begin() + 4, 37);
    blocks.push_back(w == 4 ? 200 : 37);
    PrpgPatternSource source(ready, w);
    ScalarPrpgReference ref(ready, w);
    sim::Simulator2v sim(ready.netlist, w);
    for (size_t b = 0; b < blocks.size(); ++b) {
      source.loadBlock(sim, blocks[b]);
      const std::vector<uint64_t> want = ref.nextBlock(blocks[b]);
      for (const dft::ScanChain& chain : ready.scan.chains) {
        for (GateId cell : chain.cells) {
          for (size_t wi = 0; wi < w; ++wi) {
            ASSERT_EQ(sim.valueWord(cell, wi), want[cell.v * w + wi])
                << "W=" << w << " block " << b << " cell " << cell.v
                << " word " << wi;
          }
        }
      }
    }
  }
}

TEST(Flow, TransitionUniverseWorks) {
  const Netlist core = testCore(102, 1);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  CoverageFlow flow(ready, /*transition=*/true);
  const RandomPhaseResult res = flow.runRandomPhase(1024);
  EXPECT_GT(res.coverage.faultCoveragePercent(), 20.0);
}

TEST(LbistTopJtag, FullJtagDrivenSelfTest) {
  const Netlist core = testCore(900);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());

  // Golden signatures from a direct session run.
  BistSession golden_session(ready, ready.netlist);
  SessionOptions opts;
  opts.patterns = 5;
  const SessionResult golden = golden_session.run(opts);

  LbistTop top(ready, ready.netlist);
  top.setGoldenSignatures(golden.signatures);
  jtag::TapDriver driver(top.tap());
  driver.reset();

  // CTRL: start=1, patterns=5.
  std::vector<uint8_t> ctrl(LbistTop::kCtrlBits, 0);
  ctrl[0] = 1;
  ctrl[1] = 1;  // bit0 of pattern count
  ctrl[3] = 1;  // bit2 -> 4: total 5
  driver.loadInstruction(LbistTop::kOpcodeCtrl);
  driver.shiftData(ctrl);

  // STATUS: finish=1, result=1.
  driver.loadInstruction(LbistTop::kOpcodeStatus);
  const auto status = driver.shiftData({0, 0});
  EXPECT_EQ(status[0], 1) << "Finish";
  EXPECT_EQ(status[1], 1) << "Result (pass)";

  // Signatures unload for diagnosis.
  size_t sig_bits = 0;
  for (const DomainBist& db : ready.domain_bist) {
    sig_bits += static_cast<size_t>(db.odc.misr_length);
  }
  driver.loadInstruction(LbistTop::kOpcodeSignature);
  const auto sig = driver.shiftData(std::vector<uint8_t>(sig_bits, 0));
  EXPECT_EQ(sig.size(), sig_bits);
  bool any = false;
  for (uint8_t b : sig) any = any || b != 0;
  EXPECT_TRUE(any) << "signatures should be non-trivial";
}

TEST(LbistTopJtag, FailingDieReportsResultZero) {
  const Netlist core = testCore(901);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  BistSession golden_session(ready, ready.netlist);
  SessionOptions opts;
  opts.patterns = 5;
  const SessionResult golden = golden_session.run(opts);

  Netlist bad = ready.netlist;
  GateId site;
  for (GateId dff : ready.netlist.dffs()) {
    if (ready.netlist.hasFlag(dff, kFlagScanCell)) {
      site = ready.netlist.gate(dff).fanins[0];
      break;
    }
  }
  fault::injectStuckAt(bad, fault::Fault{site, fault::kOutputPin,
                                         fault::FaultType::kStuckAt0});

  LbistTop top(ready, bad);
  top.setGoldenSignatures(golden.signatures);
  jtag::TapDriver driver(top.tap());
  driver.reset();
  std::vector<uint8_t> ctrl(LbistTop::kCtrlBits, 0);
  ctrl[0] = 1;
  ctrl[1] = 1;
  ctrl[3] = 1;
  driver.loadInstruction(LbistTop::kOpcodeCtrl);
  driver.shiftData(ctrl);
  driver.loadInstruction(LbistTop::kOpcodeStatus);
  const auto status = driver.shiftData({0, 0});
  EXPECT_EQ(status[0], 1) << "Finish";
  EXPECT_EQ(status[1], 0) << "Result must be fail";
}

TEST(Report, Table1RendersAllRows) {
  const Netlist core = testCore(555, 1);
  const NetlistStats stats = computeStats(core);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  CoverageFlow flow(ready);
  const RandomPhaseResult rp = flow.runRandomPhase(512);
  const atpg::TopUpResult tu = flow.runTopUp();
  const Table1Column col = buildTable1Column(stats, ready, rp, tu, 12.3);

  EXPECT_EQ(col.random_patterns, 512);
  EXPECT_GT(col.fault_coverage_2, col.fault_coverage_1);
  const std::string table = renderTable1({&col, 1});
  for (const char* row :
       {"Gate Count", "# of FFs", "# of Scan Chains", "Max. Chain Length",
        "# of Clock Domains", "Frequency", "# of PRPGs", "PRPG Length",
        "# of MISRs", "MISR Length", "# of Test Points",
        "# of Random Patterns", "Fault Coverage 1", "CPU Time", "Overhead",
        "# of Top-Up Patterns", "Fault Coverage 2"}) {
    EXPECT_NE(table.find(row), std::string::npos) << row;
  }
}

TEST(Report, DurationFormatting) {
  EXPECT_EQ(formatDuration(43.0), "43s");
  EXPECT_EQ(formatDuration(25 * 60 + 43), "25m43s");
  EXPECT_EQ(formatDuration(2 * 3600 + 26 * 60 + 48), "2h26m48s");
}

TEST(ThreadPool, ThrowingJobSurfacesAtMergePointNotTerminate) {
  // A throwing shard must never escape a worker thread (std::terminate)
  // or strand the dispatch accounting: all other shards still run, and
  // the exception resurfaces on the calling thread after the round.
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<unsigned> ran{0};
    try {
      pool.run(8, [&](unsigned shard) {
        if (shard == 3) throw std::runtime_error("job 3 failed");
        ++ran;
      });
      FAIL() << "exception swallowed (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 3 failed") << "threads=" << threads;
    }
    EXPECT_EQ(ran.load(), 7u)
        << "non-throwing shards all completed (threads=" << threads << ")";

    // The pool survives the round: the next dispatch works normally.
    std::atomic<unsigned> again{0};
    pool.run(4, [&](unsigned) { ++again; });
    EXPECT_EQ(again.load(), 4u) << "threads=" << threads;
  }
}

TEST(ThreadPool, LowestThrowingShardWins) {
  // With several throwing shards the surfaced exception is the lowest
  // shard's, independent of thread scheduling.
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    try {
      pool.run(8, [&](unsigned shard) {
        if (shard % 2 == 1) {
          throw std::runtime_error("shard " + std::to_string(shard));
        }
      });
      FAIL() << "exception swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 1");
    }
  }
}

TEST(Architecture, DescribeListsFig1Blocks) {
  const Netlist core = testCore(77);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  const std::string desc = describeArchitecture(ready);
  EXPECT_NE(desc.find("Controller"), std::string::npos);
  EXPECT_NE(desc.find("Clock gating"), std::string::npos);
  EXPECT_NE(desc.find("Boundary-Scan TAP"), std::string::npos);
  EXPECT_NE(desc.find("PRPG1"), std::string::npos);
  EXPECT_NE(desc.find("MISR1"), std::string::npos);
  EXPECT_NE(desc.find("observation points"), std::string::npos);
}

}  // namespace
}  // namespace lbist::core
