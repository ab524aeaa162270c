// Signature-based fault diagnosis (src/diag): interval MISR windows,
// response dictionaries, candidate ranking, and injected-session
// confirmation, validated against known injected faults on reference
// circuits. The acceptance bar: the injected fault ranks #1,
// bit-identically for every fault-sim thread count and for multiple
// interval-window sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "bist/lfsr.hpp"
#include "core/architect.hpp"
#include "core/session.hpp"
#include "diag/diagnoser.hpp"
#include "fault/inject.hpp"
#include "gen/ipcore.hpp"
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

/// The injection reference for diagnoseDie: every session a separate
/// one-machine run (golden on the core netlist, the die on its own,
/// each candidate injected into a core copy), syndromes from the MISR
/// algebra applied to those runs, and the first failing pattern from a
/// linear scan over truncated golden and die runs.
struct InjectionReference {
  const core::BistReadyCore& ready;
  DiagnosisOptions opts;

  /// A one-machine single-capture run of `die`.
  core::SessionResult run(const Netlist& die, int64_t patterns,
                          int64_t interval) const {
    core::SessionOptions o;
    o.patterns = patterns;
    o.signature_interval = interval;
    bist::AtSpeedTimingConfig timing = ready.config.timing;
    timing.double_capture = false;
    o.timing_override = timing;
    core::BistSession session(ready, die);
    return session.run(o);
  }

  /// Dirty windows of die run `b` against golden run `g`, both at
  /// `interval`; marks in `failing` each domain whose signature differs.
  std::vector<uint8_t> dirtyWindows(const core::SessionResult& g,
                                    const core::SessionResult& b,
                                    int64_t interval,
                                    std::vector<uint8_t>& failing) const {
    const auto shift = static_cast<uint64_t>(ready.shiftCyclesPerPattern());
    const size_t n = g.checkpoints.size();
    const auto k = static_cast<uint64_t>(interval);
    // The final signature adds the patterns past the last checkpoint and
    // the unload window.
    const uint64_t tail = static_cast<uint64_t>(opts.patterns) - n * k + 1;
    std::vector<uint8_t> dirty(n + 1, 0);
    failing.assign(ready.domain_bist.size(), 0);
    for (size_t i = 0; i < ready.domain_bist.size(); ++i) {
      const bist::WideMisr misr(ready.domain_bist[i].odc.misr_length);
      const auto words = [&](const core::SessionResult& r, size_t c) {
        return c < n ? r.checkpoints[c].domain_words[i] : r.signature_words[i];
      };
      std::vector<uint64_t> prev(misr.numSegments(), 0);
      for (size_t c = 0; c <= n; ++c) {
        std::vector<uint64_t> d = words(g, c);
        const std::vector<uint64_t> bad = words(b, c);
        for (size_t w = 0; w < d.size(); ++w) d[w] ^= bad[w];
        if (d != misr.advance(prev, (c < n ? k : tail) * shift)) dirty[c] = 1;
        if (d != std::vector<uint64_t>(d.size(), 0)) failing[i] = 1;
        prev = d;
      }
    }
    return dirty;
  }

  /// The syndrome diagnoseDie should extract from `die`.
  Syndrome syndrome(const Netlist& die) const {
    const int64_t n = opts.patterns;
    const int64_t k = opts.signature_interval;
    Syndrome s;
    s.patterns = n;
    s.signature_interval = k;
    const core::SessionResult golden = run(ready.netlist, n, k);
    const core::SessionResult bad = run(die, n, k);
    s.dirty_windows = dirtyWindows(golden, bad, k, s.failing_domains);
    if (opts.exact_pattern_replay) {
      std::vector<uint8_t> unused;
      const std::vector<uint8_t> fine =
          dirtyWindows(run(ready.netlist, n, 1), run(die, n, 1), 1, unused);
      for (size_t w = 1; w < fine.size(); ++w) {
        if (fine[w] != 0) {
          s.failing_patterns.push_back(static_cast<int64_t>(w) - 1);
        }
      }
    }
    if (!s.failing_patterns.empty()) {
      s.first_failing_pattern = s.failing_patterns.front();
    }
    for (int64_t p = 0; p < n && s.first_failing_pattern < 0; ++p) {
      const auto golden_sig = run(ready.netlist, p + 1, 0).signature_words;
      if (golden_sig != run(die, p + 1, 0).signature_words) {
        s.first_failing_pattern = p;
      }
    }
    return s;
  }

  /// Whether injecting `f` reproduces the die's interval run.
  bool confirms(const fault::Fault& f, const Netlist& die) const {
    Netlist copy = ready.netlist;
    fault::injectStuckAt(copy, f);
    const int64_t n = opts.patterns;
    const int64_t k = opts.signature_interval;
    const core::SessionResult want = run(die, n, k);
    const core::SessionResult got = run(copy, n, k);
    return got.signature_words == want.signature_words &&
           got.checkpoints == want.checkpoints;
  }
};

TEST(Diagnoser, DiagnoseDieMatchesTheInjectionReference) {
  // Dies of a generated three-domain core, in the exact-replay and the
  // windows-only flow. diagnoseDie runs the golden once at interval 1,
  // the die once, and confirms candidates in one lane pass; its syndrome,
  // candidate list, scores and confirmed flags must equal what separate
  // one-machine runs and injected dies give.
  gen::IpCoreSpec spec;
  spec.seed = 18;
  spec.target_comb_gates = 500;
  spec.target_ffs = 48;
  spec.num_inputs = 8;
  spec.num_outputs = 8;
  spec.num_domains = 3;
  const core::BistReadyCore ready = makeCore(gen::generateIpCore(spec), 6);
  ASSERT_EQ(ready.domain_bist.size(), 3u);
  for (bool exact : {true, false}) {
    SCOPED_TRACE(exact ? "exact replay" : "windows only");
    DiagnosisOptions opts = baseOptions(16, 1);
    opts.patterns = 64;
    opts.exact_pattern_replay = exact;
    Diagnoser diag(ready, opts);
    const InjectionReference ref{ready, opts};
    const ResponseDictionary& dict = diag.dictionary();
    std::vector<size_t> detected;
    for (size_t fi = 0; fi < dict.faults(); ++fi) {
      if (dict.firstDetection(fi) >= 0) detected.push_back(fi);
    }
    std::mt19937_64 rng(18);
    size_t confirmed = 0;
    for (int k = 0; k < 6; ++k) {
      const fault::Fault& f =
          diag.faults().record(detected[rng() % detected.size()]).fault;
      SCOPED_TRACE(f.describe(ready.netlist));
      Netlist die = ready.netlist;
      fault::injectStuckAt(die, f);
      const Diagnosis d = diag.diagnoseDie(die);
      const Syndrome want = ref.syndrome(die);
      ASSERT_TRUE(d.failed);
      EXPECT_EQ(d.syndrome.dirty_windows, want.dirty_windows);
      EXPECT_EQ(d.syndrome.failing_domains, want.failing_domains);
      EXPECT_EQ(d.syndrome.failing_patterns, want.failing_patterns);
      EXPECT_EQ(d.syndrome.first_failing_pattern, want.first_failing_pattern);

      // The reference ranking: match the reference syndrome, confirm the
      // top ten by injection, move the confirmed ones first.
      std::vector<Candidate> cands = diag.diagnoseSyndrome(want).candidates;
      for (size_t i = 0; i < std::min<size_t>(10, cands.size()); ++i) {
        cands[i].confirmed = ref.confirms(cands[i].fault, die);
      }
      std::stable_sort(cands.begin(), cands.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.confirmed && !b.confirmed;
                       });
      ASSERT_EQ(d.candidates.size(), cands.size());
      for (size_t i = 0; i < cands.size(); ++i) {
        EXPECT_EQ(d.candidates[i].fault_index, cands[i].fault_index);
        EXPECT_EQ(d.candidates[i].score, cands[i].score);
        EXPECT_EQ(d.candidates[i].confirmed, cands[i].confirmed);
        confirmed += cands[i].confirmed ? 1 : 0;
      }
    }
    EXPECT_GT(confirmed, 0u) << "no candidate confirmed: the test is vacuous";
  }
}

TEST(Diagnoser, DomainFilterHoldsPastThirtyTwoDomains) {
  // A generated core with 34 clock domains, one chain each (equal
  // periods keep the at-speed timing valid). Syndromes that name only
  // domain 32 or 33 as failing may keep only candidates that can reach
  // that domain's MISR, by a sequential backward closure from its scan
  // cells' D pins that the test computes itself.
  gen::IpCoreSpec spec;
  spec.seed = 34;
  spec.target_comb_gates = 700;
  spec.target_ffs = 136;
  spec.num_inputs = 8;
  spec.num_outputs = 8;
  spec.num_domains = 34;
  spec.domain_periods_ps.assign(34, 4'000);
  spec.num_xsources = 0;
  spec.num_noscan_ffs = 0;
  const core::BistReadyCore ready = makeCore(gen::generateIpCore(spec), 34);
  ASSERT_EQ(ready.domain_bist.size(), 34u);
  const Netlist& nl = ready.netlist;

  const auto reach = [&](size_t domain) {
    std::vector<uint8_t> seen(nl.numGates(), 0);
    std::vector<GateId> stack;
    for (size_t ci : ready.domain_bist[domain].chain_indices) {
      for (GateId cell : ready.scan.chains[ci].cells) {
        stack.push_back(nl.gate(cell).fanins[0]);
      }
    }
    while (!stack.empty()) {
      const GateId g = stack.back();
      stack.pop_back();
      if (seen[g.v] != 0) continue;
      seen[g.v] = 1;
      for (GateId f : nl.gate(g).fanins) stack.push_back(f);
    }
    return seen;
  };
  const auto reaches = [&](const fault::Fault& f, size_t domain,
                           const std::vector<uint8_t>& seen) {
    if (seen[f.gate.v] != 0) return true;
    if (f.pin == fault::kOutputPin || nl.gate(f.gate).kind != CellKind::kDff) {
      return false;
    }
    for (size_t ci : ready.domain_bist[domain].chain_indices) {
      const auto& cells = ready.scan.chains[ci].cells;
      if (std::find(cells.begin(), cells.end(), f.gate) != cells.end()) {
        return true;
      }
    }
    return false;
  };

  DiagnosisOptions opts = baseOptions(16, 1);
  opts.patterns = 64;
  opts.max_candidates = ~size_t{0};
  Diagnoser diag(ready, opts);
  const ResponseDictionary& dict = diag.dictionary();
  size_t kept = 0;
  for (size_t domain : {size_t{32}, size_t{33}}) {
    const std::vector<uint8_t> seen = reach(domain);
    size_t syndromes = 0;
    for (size_t fi = 0; fi < dict.faults() && syndromes < 20; ++fi) {
      if (dict.firstDetection(fi) < 0) continue;
      ++syndromes;
      Syndrome syn = diag.syndromeForFault(fi);
      syn.failing_domains.assign(34, 0);
      syn.failing_domains[domain] = 1;
      const Diagnosis d = diag.diagnoseSyndrome(syn);
      for (const Candidate& c : d.candidates) {
        ASSERT_TRUE(reaches(c.fault, domain, seen))
            << c.description << " cannot reach domain " << domain;
      }
      kept += d.candidates.size();
    }
    EXPECT_EQ(syndromes, 20u);
  }
  EXPECT_GT(kept, 0u) << "no syndrome kept a candidate: the test is vacuous";
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
