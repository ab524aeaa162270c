// Signature-based fault diagnosis (src/diag): interval MISR windows,
// response dictionaries, candidate ranking, and injected-session
// confirmation, validated against known injected faults on reference
// circuits. The acceptance bar: the injected fault ranks #1,
// bit-identically for every fault-sim thread count and for multiple
// interval-window sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/architect.hpp"
#include "core/session.hpp"
#include "diag/diagnoser.hpp"
#include "fault/inject.hpp"
#include "gen/refcircuits.hpp"

namespace lbist::diag {
namespace {

core::BistReadyCore makeCore(const Netlist& nl, int chains = 2) {
  core::LbistConfig cfg;
  cfg.num_chains = chains;
  cfg.tpi_method = core::TpiMethod::kNone;
  cfg.test_points = 0;
  return core::buildBistReadyCore(nl, cfg);
}

DiagnosisOptions baseOptions(int64_t window, uint32_t threads) {
  DiagnosisOptions o;
  o.patterns = 128;
  o.signature_interval = window;
  o.threads = threads;
  o.min_faults_per_thread = 1;  // force the parallel path on tiny nets
  return o;
}

/// Picks an injectable stuck-at fault the diagnoser must rank #1: a
/// combinational output stem off the scan shift path (a stuck shift path
/// corrupts the unload stream itself, which the capture-only dictionary
/// deliberately does not model) that is the lowest-index member of its
/// response-equivalence class. Functionally equivalent faults share a
/// dictionary row — no signature scheme can split them — and the
/// diagnoser breaks those ties toward the lower fault index.
size_t pickDiagnosableFault(Diagnoser& diag, const Netlist& nl) {
  const ResponseDictionary& dict = diag.dictionary();
  for (size_t fi = 0; fi < dict.faults(); ++fi) {
    const fault::Fault& f = diag.faults().record(fi).fault;
    if (f.pin != fault::kOutputPin) continue;
    const Gate& g = nl.gate(f.gate);
    if (!isCombinational(g.kind)) continue;
    if ((g.flags & kFlagDftInserted) != 0) continue;
    if (dict.detectionCount(fi) < 2) continue;
    bool first_of_class = true;
    const auto row = dict.row(fi);
    for (size_t fj = 0; fj < fi && first_of_class; ++fj) {
      const auto other = dict.row(fj);
      first_of_class = !std::equal(row.begin(), row.end(), other.begin());
    }
    if (first_of_class) return fi;
  }
  ADD_FAILURE() << "no diagnosable fault found";
  return 0;
}

/// Looser pick for syndrome-only diagnosis (no injection involved): any
/// detected fault that is the lowest-index member of its
/// response-equivalence class.
size_t pickSyndromeFault(Diagnoser& diag) {
  const ResponseDictionary& dict = diag.dictionary();
  for (size_t fi = 0; fi < dict.faults(); ++fi) {
    if (dict.firstDetection(fi) < 0) continue;
    bool first_of_class = true;
    const auto row = dict.row(fi);
    for (size_t fj = 0; fj < fi && first_of_class; ++fj) {
      const auto other = dict.row(fj);
      first_of_class = !std::equal(row.begin(), row.end(), other.begin());
    }
    if (first_of_class) return fi;
  }
  ADD_FAILURE() << "no detected fault found";
  return 0;
}

struct RankedEntry {
  size_t fault_index;
  double score;
  bool exact;
  bool first_fail;
  bool confirmed;

  friend bool operator==(const RankedEntry& a, const RankedEntry& b) {
    return a.fault_index == b.fault_index && a.score == b.score &&
           a.exact == b.exact && a.first_fail == b.first_fail &&
           a.confirmed == b.confirmed;
  }
};

std::vector<RankedEntry> ranking(const Diagnosis& d) {
  std::vector<RankedEntry> out;
  for (const Candidate& c : d.candidates) {
    out.push_back({c.fault_index, c.score, c.exact_match, c.first_fail_match,
                   c.confirmed});
  }
  return out;
}

class StuckAtDiagnosis : public ::testing::TestWithParam<int> {};

TEST_P(StuckAtDiagnosis, InjectedFaultRanksFirstAcrossThreadsAndWindows) {
  Netlist raw;
  switch (GetParam()) {
    case 0:
      raw = gen::buildCounter(8);
      break;
    case 1:
      raw = gen::buildMiniAlu(4);
      break;
    default:
      raw = gen::buildTwoDomainPipe(4);
      break;
  }
  const core::BistReadyCore ready = makeCore(raw);

  Diagnoser picker(ready, baseOptions(16, 1));
  const size_t true_fi = pickDiagnosableFault(picker, ready.netlist);
  const fault::Fault true_fault = picker.faults().record(true_fi).fault;

  Netlist bad = ready.netlist;
  fault::injectStuckAt(bad, true_fault);

  for (const int64_t window : {16, 64}) {
    std::vector<RankedEntry> reference;
    for (const uint32_t threads : {1u, 2u, 4u}) {
      Diagnoser diag(ready, baseOptions(window, threads));
      const Diagnosis d = diag.diagnoseDie(bad);
      ASSERT_TRUE(d.failed) << "window " << window;
      ASSERT_FALSE(d.candidates.empty());
      EXPECT_EQ(d.candidates[0].fault, true_fault)
          << "window " << window << " threads " << threads << " ranked '"
          << d.candidates[0].description << "' first instead of '"
          << true_fault.describe(ready.netlist) << "'";
      EXPECT_TRUE(d.candidates[0].confirmed);
      if (threads == 1) {
        reference = ranking(d);
      } else {
        EXPECT_EQ(ranking(d), reference)
            << "ranking must be bit-identical for every thread count "
               "(window "
            << window << ", threads " << threads << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RefCircuits, StuckAtDiagnosis,
                         ::testing::Values(0, 1, 2));

TEST(Diagnoser, PassingDieHasNothingToDiagnose) {
  const core::BistReadyCore ready = makeCore(gen::buildCounter(6));
  Diagnoser diag(ready, baseOptions(16, 1));
  const Diagnosis d = diag.diagnoseDie(ready.netlist);
  EXPECT_FALSE(d.failed);
  EXPECT_TRUE(d.candidates.empty());
  EXPECT_FALSE(d.syndrome.anyDirty());
}

TEST(Diagnoser, FirstFailingPatternAgreesWithDictionary) {
  const core::BistReadyCore ready = makeCore(gen::buildCounter(8));
  DiagnosisOptions opts = baseOptions(16, 1);
  // Force the binary-search replay path (exact replay would otherwise
  // hand the first failing pattern over directly).
  opts.exact_pattern_replay = false;
  Diagnoser diag(ready, opts);
  const size_t true_fi = pickDiagnosableFault(diag, ready.netlist);
  Netlist bad = ready.netlist;
  fault::injectStuckAt(bad, diag.faults().record(true_fi).fault);

  const Diagnosis d = diag.diagnoseDie(bad);
  ASSERT_TRUE(d.failed);
  EXPECT_EQ(d.syndrome.first_failing_pattern,
            diag.dictionary().firstDetection(true_fi))
      << "binary-search replay and the PRPG-exact dictionary must agree "
         "on the first failing pattern";
}

TEST(Diagnoser, ExactPatternReplayRecoversTheDictionaryRow) {
  const core::BistReadyCore ready = makeCore(gen::buildCounter(8));
  DiagnosisOptions opts = baseOptions(32, 1);
  opts.exact_pattern_replay = true;
  Diagnoser diag(ready, opts);
  const size_t true_fi = pickDiagnosableFault(diag, ready.netlist);
  Netlist bad = ready.netlist;
  fault::injectStuckAt(bad, diag.faults().record(true_fi).fault);

  const Diagnosis d = diag.diagnoseDie(bad);
  ASSERT_TRUE(d.failed);
  EXPECT_EQ(d.syndrome.failing_patterns,
            diag.dictionary().failingPatterns(true_fi))
      << "per-pattern session replay must reproduce the fault's "
         "simulated detection row exactly";
  EXPECT_EQ(d.candidates[0].fault_index, true_fi);
  EXPECT_DOUBLE_EQ(d.candidates[0].score, 1.0);
}

TEST(Diagnoser, WindowsOnlyFlowStillRanksTheInjectedFaultFirst) {
  // ATE-style flow: no per-pattern replay, matching purely on dirty
  // interval windows plus the binary-searched first failing pattern.
  const core::BistReadyCore ready = makeCore(gen::buildCounter(8));
  DiagnosisOptions opts = baseOptions(16, 1);
  opts.exact_pattern_replay = false;
  Diagnoser diag(ready, opts);
  const size_t true_fi = pickDiagnosableFault(diag, ready.netlist);
  Netlist bad = ready.netlist;
  fault::injectStuckAt(bad, diag.faults().record(true_fi).fault);

  const Diagnosis d = diag.diagnoseDie(bad);
  ASSERT_TRUE(d.failed);
  EXPECT_TRUE(d.syndrome.failing_patterns.empty());
  EXPECT_EQ(d.candidates[0].fault_index, true_fi);
  EXPECT_TRUE(d.candidates[0].confirmed);
}

TEST(Diagnoser, TwoDomainSyndromeNamesTheFailingDomains) {
  const core::BistReadyCore ready = makeCore(gen::buildTwoDomainPipe(4));
  ASSERT_EQ(ready.domain_bist.size(), 2u);
  Diagnoser diag(ready, baseOptions(16, 2));
  const size_t true_fi = pickDiagnosableFault(diag, ready.netlist);
  Netlist bad = ready.netlist;
  fault::injectStuckAt(bad, diag.faults().record(true_fi).fault);

  const Diagnosis d = diag.diagnoseDie(bad);
  ASSERT_TRUE(d.failed);
  ASSERT_EQ(d.syndrome.failing_domains.size(), 2u);
  EXPECT_TRUE(d.syndrome.failing_domains[0] != 0 ||
              d.syndrome.failing_domains[1] != 0);
  EXPECT_EQ(d.candidates[0].fault_index, true_fi);
}

TEST(Diagnoser, TransitionUniverseDiagnosesFromSyndrome) {
  const core::BistReadyCore ready = makeCore(gen::buildCounter(8));
  std::vector<RankedEntry> reference;
  size_t picked = 0;
  for (const uint32_t threads : {1u, 2u, 4u}) {
    DiagnosisOptions opts = baseOptions(16, threads);
    opts.transition = true;
    Diagnoser diag(ready, opts);
    const size_t true_fi = threads == 1 ? pickSyndromeFault(diag) : picked;
    if (threads == 1) picked = true_fi;
    const Syndrome syn = diag.syndromeForFault(true_fi);
    ASSERT_FALSE(syn.failing_patterns.empty());
    const Diagnosis d = diag.diagnoseSyndrome(syn);
    ASSERT_TRUE(d.failed);
    ASSERT_FALSE(d.candidates.empty());
    EXPECT_EQ(d.candidates[0].fault_index, true_fi);
    EXPECT_TRUE(d.candidates[0].exact_match);
    EXPECT_DOUBLE_EQ(d.candidates[0].score, 1.0);
    if (threads == 1) {
      reference = ranking(d);
    } else {
      EXPECT_EQ(ranking(d), reference);
    }
  }
}

TEST(Diagnoser, RejectsInconsistentExternalSyndromes) {
  const core::BistReadyCore ready = makeCore(gen::buildCounter(6));
  Diagnoser diag(ready, baseOptions(16, 1));

  Syndrome wrong_count;
  wrong_count.patterns = 999;
  wrong_count.signature_interval = 16;
  EXPECT_THROW((void)diag.diagnoseSyndrome(wrong_count),
               std::invalid_argument);

  Syndrome bad_pattern;
  bad_pattern.patterns = 128;
  bad_pattern.signature_interval = 16;
  bad_pattern.failing_patterns = {512};
  EXPECT_THROW((void)diag.diagnoseSyndrome(bad_pattern),
               std::invalid_argument);

  Syndrome short_windows;
  short_windows.patterns = 128;
  short_windows.signature_interval = 16;
  short_windows.dirty_windows = {1};  // needs patterns/interval + 1 entries
  EXPECT_THROW((void)diag.diagnoseSyndrome(short_windows),
               std::invalid_argument);

  // A fault index past the universe must not read past the dictionary.
  EXPECT_THROW((void)diag.syndromeForFault(diag.faults().size()),
               std::invalid_argument);
}

TEST(Session, IntervalCheckpointsAreRecorded) {
  const core::BistReadyCore ready = makeCore(gen::buildCounter(6));
  core::SessionOptions opts;
  opts.patterns = 40;
  opts.signature_interval = 8;
  core::BistSession session(ready, ready.netlist);
  const core::SessionResult r = session.run(opts);
  ASSERT_EQ(r.checkpoints.size(), 5u);
  for (size_t c = 0; c < r.checkpoints.size(); ++c) {
    EXPECT_EQ(r.checkpoints[c].patterns_done,
              static_cast<int64_t>(c + 1) * 8);
    ASSERT_EQ(r.checkpoints[c].domain_words.size(),
              ready.domain_bist.size());
  }
}

TEST(Diagnoser, ReportRendersRankedSites) {
  const core::BistReadyCore ready = makeCore(gen::buildCounter(8));
  Diagnoser diag(ready, baseOptions(16, 1));
  const size_t true_fi = pickDiagnosableFault(diag, ready.netlist);
  Netlist bad = ready.netlist;
  fault::injectStuckAt(bad, diag.faults().record(true_fi).fault);
  const Diagnosis d = diag.diagnoseDie(bad);
  const std::string report = renderDiagnosisReport(d);
  EXPECT_NE(report.find("FAIL"), std::string::npos);
  EXPECT_NE(report.find(d.candidates[0].description), std::string::npos);
  EXPECT_NE(report.find("confirmed"), std::string::npos);
}

}  // namespace
}  // namespace lbist::diag
