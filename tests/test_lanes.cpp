// Differential tests for the multi-word lane fabric (sim/lane.hpp).
//
// The contract under test, from fsim.hpp: at a fixed lane width W the
// campaign result is bit-identical across thread counts, engines,
// and collapsing; across widths
// W in {1, 4, 8}, no-drop detection rows, final statuses, and
// first-detect patterns are invariant (pattern p receives the same
// stimulus regardless of how many lanes each block packs), while
// detect_count at drop time may legally differ because wider blocks
// merge more patterns before the drop decision. The mask reference is a
// brute-force per-fault full resimulation, one 64-lane word at a time;
// staged capture rows have a frame-by-frame reference of their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/architect.hpp"
#include "diag/dictionary.hpp"
#include "fault/fault.hpp"
#include "fault/fsim.hpp"
#include "fault/inject.hpp"
#include "gen/ipcore.hpp"
#include "gen/refcircuits.hpp"
#include "sim/sim2v.hpp"

namespace lbist {
namespace {

using fault::BlockEngine;
using fault::FaultList;
using fault::FaultSimulator;
using fault::FaultStatus;
using fault::FsimOptions;

Netlist makeIpCore(uint64_t seed, size_t gates) {
  gen::IpCoreSpec spec;
  spec.seed = seed;
  spec.target_comb_gates = gates;
  spec.target_ffs = gates / 12;
  spec.num_inputs = 24;
  spec.num_outputs = 16;
  spec.num_domains = 2;
  spec.num_xsources = 0;
  spec.num_noscan_ffs = 0;
  return gen::generateIpCore(spec);
}

// Per-pattern stimulus, stored width-independently: one bit per
// (source, pattern), packed 64 patterns per word. Whatever the lane
// width, pattern p always receives bit p of its source's stream.
struct Stimulus {
  std::vector<GateId> sources;
  std::vector<std::vector<uint64_t>> words;  // [source][pattern / 64]
};

Stimulus makeStimulus(const Netlist& nl, size_t n_words, uint64_t seed) {
  Stimulus st;
  st.sources.assign(nl.inputs().begin(), nl.inputs().end());
  st.sources.insert(st.sources.end(), nl.dffs().begin(), nl.dffs().end());
  std::mt19937_64 rng(seed);
  st.words.resize(st.sources.size());
  for (auto& row : st.words) {
    row.resize(n_words);
    for (uint64_t& w : row) w = rng();
  }
  return st;
}

/// Accumulates full per-fault detection rows, pattern-indexed — the
/// width-independent ground truth the cross-width assertions compare —
/// and the observer stream itself: fault index, pattern base and mask
/// words of every callback, in call order.
class RowObserver final : public fault::DetectionObserver {
 public:
  RowObserver(size_t n_faults, size_t n_words)
      : rows(n_faults, std::vector<uint64_t>(n_words, 0)) {}
  void onDetectionMask(size_t fault_index, int64_t pattern_base,
                       sim::LaneMask mask) override {
    auto& row = rows[fault_index];
    const size_t base = static_cast<size_t>(pattern_base) / 64;
    for (size_t wi = 0; wi < mask.words() && base + wi < row.size(); ++wi) {
      row[base + wi] |= mask.word(wi);
    }
    stream.push_back(fault_index);
    stream.push_back(static_cast<uint64_t>(pattern_base));
    stream.insert(stream.end(), mask.data(), mask.data() + mask.words());
  }
  std::vector<std::vector<uint64_t>> rows;
  std::vector<uint64_t> stream;
};

struct CampaignState {
  std::vector<FaultStatus> status;
  std::vector<uint32_t> detect_count;
  std::vector<int64_t> first_detect;
  std::vector<std::vector<uint64_t>> rows;
  std::vector<uint64_t> stream;  // observer stream; differs across widths

  friend bool operator==(const CampaignState&,
                         const CampaignState&) = default;
};

struct CampaignConfig {
  uint32_t lane_words = 1;
  uint32_t threads = 1;
  BlockEngine engine = BlockEngine::kPerFault;
  bool collapse = true;
  bool drop = true;
  uint32_t n_detect = 2;
  bool staged = false;  // per-domain staged capture (dictionary path)
  bool transition = false;
  fault::FaultListOptions list;  // how the fault universe is enumerated
  std::vector<GateId> observed;  // empty: fault::fullObservationSet
};

CampaignState runLaneCampaign(const Netlist& nl, const Stimulus& st,
                              int64_t n_patterns,
                              const CampaignConfig& cfg) {
  FaultList faults = cfg.transition
                         ? FaultList::enumerateTransition(nl, cfg.list)
                         : FaultList::enumerateStuckAt(nl, cfg.list);
  FsimOptions opts;
  opts.n_detect = cfg.n_detect;
  opts.drop_detected = cfg.drop;
  opts.threads = cfg.threads;
  opts.min_faults_per_thread = 1;  // force real sharding on small nets
  opts.collapse = cfg.collapse;
  opts.engine = cfg.engine;
  opts.lane_words = cfg.lane_words;
  FaultSimulator fsim(nl, faults,
                      cfg.observed.empty() ? fault::fullObservationSet(nl)
                                           : cfg.observed,
                      opts);
  const size_t n_words = st.words.empty() ? 0 : st.words[0].size();
  RowObserver observer(faults.size(), n_words);
  fsim.setDetectionObserver(&observer);

  std::vector<std::vector<GateId>> stages(nl.numDomains());
  for (GateId dff : nl.dffs()) {
    stages[nl.gate(dff).domain.v].push_back(dff);
  }

  const int64_t block_lanes = static_cast<int64_t>(fsim.lanes());
  for (int64_t base = 0; base < n_patterns; base += block_lanes) {
    const int lanes = static_cast<int>(
        std::min<int64_t>(block_lanes, n_patterns - base));
    const size_t word0 = static_cast<size_t>(base) / 64;
    const size_t words = (static_cast<size_t>(lanes) + 63) / 64;
    for (size_t k = 0; k < st.sources.size(); ++k) {
      for (size_t wi = 0; wi < fsim.laneWords(); ++wi) {
        fsim.setSourceWord(st.sources[k], wi,
                           wi < words ? st.words[k][word0 + wi] : 0);
      }
    }
    if (cfg.transition) {
      fsim.simulateBlockTransition(base, lanes);
    } else if (cfg.staged) {
      fsim.simulateBlockStuckAtStaged(base, lanes, stages);
    } else {
      fsim.simulateBlockStuckAt(base, lanes);
    }
  }

  CampaignState res;
  for (size_t i = 0; i < faults.size(); ++i) {
    res.status.push_back(faults.record(i).status);
    res.detect_count.push_back(faults.record(i).detect_count);
    res.first_detect.push_back(faults.record(i).first_detect_pattern);
  }
  res.rows = std::move(observer.rows);
  res.stream = std::move(observer.stream);
  return res;
}

std::vector<Netlist> laneCircuits() {
  std::vector<Netlist> nets;
  nets.push_back(gen::buildCounter(16));
  nets.push_back(gen::buildMiniAlu(8));
  return nets;
}

// ---------------------------------------------------------------------
// Good-machine widening: every word of a wide pass equals a narrow pass
// fed that word's stimulus.

TEST(LaneDifferential, GoodSimWideMatchesNarrow) {
  for (const Netlist& nl : {gen::buildC17(), gen::buildMiniAlu(8),
                            makeIpCore(7, 1'200)}) {
    const Stimulus st = makeStimulus(nl, 8, 123);
    for (const size_t W : {size_t{4}, size_t{8}}) {
      sim::Simulator2v wide(nl, W);
      for (size_t k = 0; k < st.sources.size(); ++k) {
        for (size_t wi = 0; wi < W; ++wi) {
          wide.setSourceWord(st.sources[k], wi, st.words[k][wi]);
        }
      }
      wide.eval();
      for (size_t wi = 0; wi < W; ++wi) {
        sim::Simulator2v narrow(nl);
        for (size_t k = 0; k < st.sources.size(); ++k) {
          narrow.setSource(st.sources[k], st.words[k][wi]);
        }
        narrow.eval();
        nl.forEachGate([&](GateId id, const Gate&) {
          ASSERT_EQ(wide.valueWord(id, wi), narrow.value(id))
              << nl.name() << " W=" << W << " word " << wi << " gate "
              << id.v;
        });
      }
    }
  }
}

// ---------------------------------------------------------------------
// No-drop rows: bit-identical across widths, engines, thread counts,
// and collapsing — the strongest form of the cross-width contract.

TEST(LaneDifferential, NoDropRowsInvariantAcrossWidthsEnginesThreads) {
  for (const Netlist& nl : laneCircuits()) {
    const int64_t n_patterns = 512;
    const Stimulus st = makeStimulus(nl, 8, 99);

    CampaignConfig ref_cfg;
    ref_cfg.drop = false;
    const CampaignState ref = runLaneCampaign(nl, st, n_patterns, ref_cfg);

    for (const uint32_t W : {1u, 4u, 8u}) {
      for (const uint32_t threads : {1u, 2u, 4u}) {
        for (const BlockEngine engine :
             {BlockEngine::kPerFault, BlockEngine::kStemCpt}) {
          for (const bool collapse : {true, false}) {
            CampaignConfig cfg;
            cfg.lane_words = W;
            cfg.threads = threads;
            cfg.engine = engine;
            cfg.collapse = collapse;
            cfg.drop = false;
            const CampaignState got =
                runLaneCampaign(nl, st, n_patterns, cfg);
            ASSERT_EQ(got.rows, ref.rows)
                << nl.name() << " W=" << W << " threads=" << threads
                << " engine=" << static_cast<int>(engine)
                << " collapse=" << collapse;
            ASSERT_EQ(got.status, ref.status);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Dropping campaigns, stuck-at and transition: at fixed W everything
// (including detect_count and the observer stream) is invariant across
// threads and engines; across widths, statuses and first-detect patterns
// still match exactly.

TEST(LaneDifferential, DropCampaignInvariants) {
  for (const Netlist& nl : laneCircuits()) {
    const int64_t n_patterns = 512;
    const Stimulus st = makeStimulus(nl, 8, 7);

    for (const bool transition : {false, true}) {
      std::vector<CampaignState> per_width;
      for (const uint32_t W : {1u, 4u, 8u}) {
        CampaignConfig base_cfg;
        base_cfg.lane_words = W;
        base_cfg.transition = transition;
        const CampaignState base =
            runLaneCampaign(nl, st, n_patterns, base_cfg);
        per_width.push_back(base);

        for (const uint32_t threads : {2u, 4u}) {
          for (const BlockEngine engine :
               {BlockEngine::kPerFault, BlockEngine::kStemCpt}) {
            CampaignConfig cfg = base_cfg;
            cfg.threads = threads;
            cfg.engine = engine;
            ASSERT_EQ(runLaneCampaign(nl, st, n_patterns, cfg), base)
                << nl.name() << " W=" << W << " threads=" << threads
                << " engine=" << static_cast<int>(engine)
                << " transition=" << transition;
          }
        }
      }

      for (size_t i = 1; i < per_width.size(); ++i) {
        ASSERT_EQ(per_width[i].status, per_width[0].status)
            << nl.name() << " transition=" << transition;
        ASSERT_EQ(per_width[i].first_detect, per_width[0].first_detect)
            << nl.name() << " transition=" << transition;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Staged capture (the dictionary path) across widths, threads and
// engines. The stem engine serves each fault's lanes that hold no
// corrupted capture and the per-fault pass the rest, so a fault can
// capture at one flop through both passes in one stage; with three
// stages and partial scan such a capture matters two stages on.

/// `nl` with two flops in three flagged scan cells. Each other flop is
/// left out of the scan, unless its D driver also feeds a scan cell,
/// so corrupted captures there hop to later stages unobserved.
Netlist withPartialScan(Netlist nl) {
  std::vector<uint8_t> feeds_scan(nl.numGates(), 0);
  for (size_t k = 0; k < nl.dffs().size(); ++k) {
    if (k % 3 != 1) feeds_scan[nl.gate(nl.dffs()[k]).fanins[0].v] = 1;
  }
  for (size_t k = 0; k < nl.dffs().size(); ++k) {
    const GateId dff = nl.dffs()[k];
    if (k % 3 != 1 || feeds_scan[nl.gate(dff).fanins[0].v] != 0) {
      nl.setFlag(dff, kFlagScanCell);
    }
  }
  return nl;
}

/// The tester's view of a partial-scan core: its scan cells' D drivers.
std::vector<GateId> scanDrivers(const Netlist& nl) {
  std::vector<GateId> obs;
  for (GateId dff : nl.dffs()) {
    if (nl.hasFlag(dff, kFlagScanCell)) obs.push_back(nl.gate(dff).fanins[0]);
  }
  return obs;
}

/// A three-domain core with plenty of cross-domain paths.
gen::IpCoreSpec stagedSpec(uint64_t seed, size_t gates) {
  gen::IpCoreSpec spec;
  spec.seed = seed;
  spec.target_comb_gates = gates;
  spec.target_ffs = gates / 10;
  spec.num_inputs = 10;
  spec.num_outputs = 8;
  spec.num_domains = 3;
  spec.cross_domain_fraction = 0.2;
  spec.num_xsources = 0;
  spec.num_noscan_ffs = 0;
  return spec;
}

TEST(LaneDifferential, StagedCaptureRowsAcrossWidths) {
  const int64_t n_patterns = 512;
  const Netlist full = makeIpCore(11, 1'200);
  const Netlist partial =
      withPartialScan(gen::generateIpCore(stagedSpec(23, 1'200)));
  struct Case {
    const Netlist* nl;
    std::vector<GateId> observed;  // empty: every flop observed
  };
  for (const Case& c :
       {Case{&full, {}}, Case{&partial, scanDrivers(partial)}}) {
    const Netlist& nl = *c.nl;
    const Stimulus st = makeStimulus(nl, 8, 31);
    // The reference: kPerFault at W = 1, one thread.
    CampaignConfig ref_cfg;
    ref_cfg.drop = false;
    ref_cfg.staged = true;
    ref_cfg.observed = c.observed;
    const CampaignState ref = runLaneCampaign(nl, st, n_patterns, ref_cfg);
    ASSERT_NE(std::count(ref.status.begin(), ref.status.end(),
                         FaultStatus::kDetected),
              0)
        << nl.name();

    struct Config {
      BlockEngine engine;
      uint32_t lane_words;
      uint32_t threads;
    };
    // Both engines at W = 4 and 8, and the stem engine at W = 1, each
    // at 1 and 2 threads.
    std::vector<Config> configs;
    for (const BlockEngine engine :
         {BlockEngine::kPerFault, BlockEngine::kStemCpt}) {
      for (const uint32_t W : {1u, 4u, 8u}) {
        if (engine == BlockEngine::kPerFault && W == 1) continue;
        for (const uint32_t threads : {1u, 2u}) {
          configs.push_back({engine, W, threads});
        }
      }
    }
    for (const Config& k : configs) {
      CampaignConfig cfg = ref_cfg;
      cfg.engine = k.engine;
      cfg.lane_words = k.lane_words;
      cfg.threads = k.threads;
      const CampaignState got = runLaneCampaign(nl, st, n_patterns, cfg);
      ASSERT_EQ(got.rows, ref.rows)
          << nl.name() << " engine=" << static_cast<int>(k.engine)
          << " W=" << k.lane_words << " threads=" << k.threads;
    }
  }
}

// ---------------------------------------------------------------------
// Staged capture against a frame-by-frame reference. The reference
// hardwires the fault into a copy of the netlist (fault::injectStuckAt)
// and runs both machines through the capture window one stage at a time.

/// Row of fault `f` over the first `n_patterns` patterns of `st`, one
/// 64-pattern word at a time. Frame 0 evaluates the loaded sources.
/// Capture pulse j compares the next state of every stage-j scan cell
/// between the good and the faulty machine, then loads the stage's flops
/// from their own machine's next state and re-evaluates both.
std::vector<uint64_t> stagedReferenceRow(
    const Netlist& nl, const Stimulus& st, int64_t n_patterns,
    const fault::Fault& f, std::span<const std::vector<GateId>> stages) {
  Netlist bad_nl = nl;
  fault::injectStuckAt(bad_nl, f);
  sim::Simulator2v good(nl);
  sim::Simulator2v bad(bad_nl);
  const size_t n_words = static_cast<size_t>(n_patterns + 63) / 64;
  std::vector<uint64_t> row(n_words, 0);
  std::vector<uint64_t> good_next;
  std::vector<uint64_t> bad_next;
  for (size_t wi = 0; wi < n_words; ++wi) {
    for (size_t k = 0; k < st.sources.size(); ++k) {
      good.setSource(st.sources[k], st.words[k][wi]);
      bad.setSource(st.sources[k], st.words[k][wi]);
    }
    good.eval();
    bad.eval();
    uint64_t detect = 0;
    for (const std::vector<GateId>& stage : stages) {
      good_next.clear();
      bad_next.clear();
      for (GateId ff : stage) {
        good_next.push_back(good.dffNextState(ff));
        bad_next.push_back(bad.dffNextState(ff));
        if (nl.hasFlag(ff, kFlagScanCell)) {
          detect |= good_next.back() ^ bad_next.back();
        }
      }
      for (size_t k = 0; k < stage.size(); ++k) {
        good.setSource(stage[k], good_next[k]);
        bad.setSource(stage[k], bad_next[k]);
      }
      good.eval();
      bad.eval();
    }
    const int64_t lanes = std::min<int64_t>(64, n_patterns - wi * 64);
    row[wi] = detect & (lanes == 64 ? ~uint64_t{0}
                                    : (uint64_t{1} << lanes) - 1);
  }
  return row;
}

TEST(LaneDifferential, StagedCaptureMatchesTheFrameByFrameReference) {
  const int64_t n_patterns = 500;  // ends in a partial block at W = 1, 8

  for (const Netlist& nl :
       {withPartialScan(gen::buildTwoDomainPipe(16)),
        withPartialScan(gen::generateIpCore(stagedSpec(17, 360)))}) {
    std::vector<std::vector<GateId>> stages(nl.numDomains());
    size_t unscanned = 0;
    for (GateId dff : nl.dffs()) {
      stages[nl.gate(dff).domain.v].push_back(dff);
      if (!nl.hasFlag(dff, kFlagScanCell)) ++unscanned;
    }
    ASSERT_GT(unscanned, 0u) << nl.name();

    CampaignConfig cfg;
    cfg.drop = false;
    cfg.staged = true;
    // The tester sees the scan cells' D drivers, and every D-pin fault
    // of every flop is listed.
    cfg.observed = scanDrivers(nl);
    cfg.list.collapse = false;
    const FaultList faults = FaultList::enumerateStuckAt(nl, cfg.list);
    size_t d_pin = 0;
    size_t q_out = 0;
    for (const fault::FaultRecord& r : faults.records()) {
      if (nl.gate(r.fault.gate).kind != CellKind::kDff) continue;
      if (r.fault.pin == fault::kOutputPin) {
        ++q_out;
      } else {
        ++d_pin;
      }
    }
    ASSERT_GT(d_pin, 0u) << nl.name();
    ASSERT_GT(q_out, 0u) << nl.name();

    const Stimulus st = makeStimulus(nl, 8, 77);
    std::vector<std::vector<uint64_t>> want;
    size_t detected = 0;
    for (const fault::FaultRecord& r : faults.records()) {
      want.push_back(
          stagedReferenceRow(nl, st, n_patterns, r.fault, stages));
      if (std::any_of(want.back().begin(), want.back().end(),
                      [](uint64_t w) { return w != 0; })) {
        ++detected;
      }
    }
    ASSERT_GT(detected, faults.size() / 2) << nl.name();

    for (const BlockEngine engine :
         {BlockEngine::kPerFault, BlockEngine::kStemCpt}) {
      for (const uint32_t W : {1u, 8u}) {
        cfg.engine = engine;
        cfg.lane_words = W;
        const CampaignState got = runLaneCampaign(nl, st, n_patterns, cfg);
        for (size_t i = 0; i < faults.size(); ++i) {
          ASSERT_EQ(got.rows[i], want[i])
              << nl.name() << " engine=" << static_cast<int>(engine)
              << " W=" << W << " fault " << i << " ("
              << faults.describe(nl, i) << ")";
        }
      }
    }
  }
}

TEST(LaneDifferential, StagedCaptureRejectsAFlopInTwoStages) {
  const Netlist nl = gen::buildTwoDomainPipe(16);
  FaultList faults = FaultList::enumerateStuckAt(nl);
  FaultSimulator fsim(nl, faults, fault::defaultObservationSet(nl),
                      FsimOptions{});
  std::vector<std::vector<GateId>> stages(nl.numDomains());
  for (GateId dff : nl.dffs()) stages[nl.gate(dff).domain.v].push_back(dff);
  ASSERT_GE(stages.size(), 2u);
  stages.back().push_back(stages.front().front());
  const std::vector<size_t> undetected = faults.undetectedIndices();
  const size_t live = fsim.liveFaultCount();
  EXPECT_THROW(fsim.simulateBlockStuckAtStaged(0, 64, stages),
               std::invalid_argument);
  EXPECT_EQ(fsim.liveFaultCount(), live);
  EXPECT_EQ(faults.undetectedIndices(), undetected);
}

// ---------------------------------------------------------------------
// Brute-force reference: every word of a no-drop detection row equals a
// full faulty-machine resimulation of that word's 64 patterns.

/// No-drop rows of every fault in `faults` over the first `n_patterns`
/// patterns of `st`, one 64-pattern word at a time. The good machine
/// runs once per word; each fault's machine starts from the good values
/// and re-evaluates the whole combinational order with the fault
/// applied. A stuck-at site takes its constant. A transition site
/// (launch-on-capture) takes its launch value in the capture frame
/// wherever it makes the fault's transition, with every flop loaded
/// from its good launch-frame D value. A flop's D-pin fault shows only
/// in its own scan unload: the captured value differs from the good D
/// value in the same lanes.
std::vector<std::vector<uint64_t>> bruteForceRows(
    const Netlist& nl, const Stimulus& st, int64_t n_patterns,
    const FaultList& faults, std::span<const GateId> obs, bool transition) {
  const Levelized lev(nl);
  sim::Simulator2v good(nl);
  sim::Simulator2v bad(nl);
  const size_t n_words = static_cast<size_t>(n_patterns + 63) / 64;
  std::vector<std::vector<uint64_t>> rows(faults.size(),
                                          std::vector<uint64_t>(n_words, 0));
  std::vector<uint64_t> launch;
  for (size_t wi = 0; wi < n_words; ++wi) {
    for (size_t k = 0; k < st.sources.size(); ++k) {
      good.setSource(st.sources[k], st.words[k][wi]);
    }
    good.eval();
    if (transition) {
      launch.assign(good.rawValues().begin(), good.rawValues().end());
      for (GateId dff : nl.dffs()) {
        good.setSource(dff, launch[nl.gate(dff).fanins[0].v]);
      }
      good.eval();
    }
    const std::span<const uint64_t> gv = good.rawValues();
    const int64_t lanes = std::min<int64_t>(64, n_patterns - wi * 64);
    const uint64_t lane_mask =
        lanes == 64 ? ~uint64_t{0} : (uint64_t{1} << lanes) - 1;
    for (size_t i = 0; i < faults.size(); ++i) {
      const fault::Fault& f = faults.record(i).fault;
      const Gate& g = nl.gate(f.gate);
      const GateId net = f.pin == fault::kOutputPin ? f.gate : g.fanins[f.pin];
      // The value the faulty machine sees at the site in place of `net`.
      uint64_t site = f.type == fault::FaultType::kStuckAt1 ? ~uint64_t{0} : 0;
      if (transition) {
        const uint64_t v1 = launch[net.v];
        const uint64_t v2 = gv[net.v];
        const bool rise = f.type == fault::FaultType::kSlowToRise;
        site = v2 ^ (rise ? ~v1 & v2 : v1 & ~v2);
      }
      if (f.pin != fault::kOutputPin && g.kind == CellKind::kDff) {
        if ((g.flags & kFlagScanCell) != 0) {
          rows[i][wi] = (site ^ gv[net.v]) & lane_mask;
        }
        continue;
      }
      const std::span<uint64_t> bv = bad.rawValues();
      std::copy(gv.begin(), gv.end(), bv.begin());
      if (f.pin == fault::kOutputPin) bv[f.gate.v] = site;
      for (GateId id : lev.combOrder()) {
        if (id == f.gate && f.pin == fault::kOutputPin) continue;
        if (id == f.gate) {
          std::vector<uint64_t> ins;
          for (size_t slot = 0; slot < g.fanins.size(); ++slot) {
            ins.push_back(slot == f.pin ? site : bv[g.fanins[slot].v]);
          }
          bv[id.v] = evalWord2v(g.kind, ins);
        } else {
          bv[id.v] = bad.evalGate(id);
        }
      }
      uint64_t detect = 0;
      for (GateId o : obs) detect |= bv[o.v] ^ gv[o.v];
      rows[i][wi] = detect & lane_mask;
    }
  }
  return rows;
}

TEST(LaneDifferential, WideMasksMatchBruteForceResimulation) {
  for (const Netlist& nl : {gen::buildC17(), gen::buildMiniAlu(8)}) {
    const std::vector<GateId> obs = fault::fullObservationSet(nl);
    constexpr uint32_t kW = 4;
    const Stimulus st = makeStimulus(nl, kW, 4242);
    // Capture-pin faults detect at scan unload only; the raw netlists
    // here have no scan cells, so their rows are 0.
    const FaultList faults = FaultList::enumerateStuckAt(nl);
    const auto want = bruteForceRows(nl, st, kW * 64, faults, obs,
                                     /*transition=*/false);

    for (const BlockEngine engine :
         {BlockEngine::kPerFault, BlockEngine::kStemCpt}) {
      CampaignConfig cfg;
      cfg.lane_words = kW;
      cfg.engine = engine;
      cfg.drop = false;
      cfg.n_detect = 1;
      const CampaignState got = runLaneCampaign(nl, st, kW * 64, cfg);
      for (size_t i = 0; i < faults.size(); ++i) {
        ASSERT_EQ(got.rows[i], want[i])
            << nl.name() << " engine=" << static_cast<int>(engine)
            << " fault " << i << " (" << faults.describe(nl, i) << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------
// Frame hand-off. Each worker propagates on its own copy of the pass's
// frame and leaves the last faulty machine in it until its next
// propagation, so a simulator that lives across blocks must copy each
// new frame, and each propagation must first undo the last one's
// writes. One simulator runs blocks of every kind in turn; each block's
// rows must equal the brute-force (stuck-at, transition) or
// frame-by-frame (staged) reference, and its observer stream and the
// statuses it leads to must equal a fresh simulator's that runs the
// block alone.

enum class BlockKind { kStuckAt, kStaged, kTransition };

/// Loads block `b` of `st` (its lanes cover patterns [b * lanes,
/// (b + 1) * lanes)) and simulates it as `kind`.
void runBlock(FaultSimulator& fsim, const Stimulus& st, size_t b,
              BlockKind kind, std::span<const std::vector<GateId>> stages) {
  const size_t w = fsim.laneWords();
  for (size_t k = 0; k < st.sources.size(); ++k) {
    fsim.setSourceRow(st.sources[k], st.words[k].data() + b * w);
  }
  const auto base = static_cast<int64_t>(b * fsim.lanes());
  const int lanes = static_cast<int>(fsim.lanes());
  switch (kind) {
    case BlockKind::kStuckAt:
      fsim.simulateBlockStuckAt(base, lanes);
      break;
    case BlockKind::kStaged:
      fsim.simulateBlockStuckAtStaged(base, lanes, stages);
      break;
    case BlockKind::kTransition:
      fsim.simulateBlockTransition(base, lanes);
      break;
  }
}

/// Every fault's row over the whole stimulus, under each block model.
struct BlockReferences {
  std::vector<std::vector<uint64_t>> stuck_at;
  std::vector<std::vector<uint64_t>> staged;
  std::vector<std::vector<uint64_t>> transition;

  [[nodiscard]] const std::vector<std::vector<uint64_t>>& of(
      BlockKind kind) const {
    return kind == BlockKind::kStuckAt  ? stuck_at
           : kind == BlockKind::kStaged ? staged
                                        : transition;
  }
};

/// Runs `kinds` in turn on one no-drop simulator and checks every block
/// as the section comment says.
void checkAcrossFrames(const Netlist& nl, const Stimulus& st,
                       std::span<const GateId> observed,
                       std::span<const std::vector<GateId>> stages,
                       std::span<const BlockKind> kinds,
                       const BlockReferences& ref, BlockEngine engine,
                       uint32_t lane_words, uint32_t threads) {
  const bool transition = kinds.front() == BlockKind::kTransition;
  const auto enumerate = [&] {
    return transition ? FaultList::enumerateTransition(nl)
                      : FaultList::enumerateStuckAt(nl);
  };
  FsimOptions opts;
  opts.drop_detected = false;
  opts.threads = threads;
  opts.min_faults_per_thread = 1;  // force real sharding on small nets
  opts.engine = engine;
  opts.lane_words = lane_words;

  const size_t n_words = st.words[0].size();
  FaultList faults = enumerate();
  FaultSimulator fsim(nl, faults, {observed.begin(), observed.end()}, opts);
  std::vector<FaultStatus> want_status(faults.size(),
                                       FaultStatus::kUndetected);
  std::vector<int64_t> want_first(faults.size(), -1);
  for (size_t b = 0; b < kinds.size(); ++b) {
    const std::string where = "block " + std::to_string(b) + " engine=" +
                              std::to_string(static_cast<int>(engine)) +
                              " W=" + std::to_string(lane_words) +
                              " threads=" + std::to_string(threads);
    RowObserver got(faults.size(), n_words);
    fsim.setDetectionObserver(&got);
    runBlock(fsim, st, b, kinds[b], stages);

    FaultList fresh_faults = enumerate();
    FaultSimulator fresh(nl, fresh_faults, {observed.begin(), observed.end()},
                         opts);
    RowObserver want(faults.size(), n_words);
    fresh.setDetectionObserver(&want);
    runBlock(fresh, st, b, kinds[b], stages);

    ASSERT_FALSE(want.stream.empty()) << where;
    ASSERT_EQ(got.stream, want.stream) << where;
    const std::vector<std::vector<uint64_t>>& rows = ref.of(kinds[b]);
    for (size_t i = 0; i < faults.size(); ++i) {
      for (size_t wi = 0; wi < n_words; ++wi) {
        const bool in_block = wi / lane_words == b;
        ASSERT_EQ(got.rows[i][wi], in_block ? rows[i][wi] : 0)
            << where << " fault " << i << " ("
            << faults.describe(nl, i) << ") word " << wi;
      }
      const fault::FaultRecord& r = fresh_faults.record(i);
      if (r.status == FaultStatus::kDetected &&
          want_status[i] == FaultStatus::kUndetected) {
        want_status[i] = FaultStatus::kDetected;
        want_first[i] = r.first_detect_pattern;
      }
      ASSERT_EQ(faults.record(i).status, want_status[i]) << where;
      ASSERT_EQ(faults.record(i).first_detect_pattern, want_first[i])
          << where << " fault " << i;
    }
  }
}

TEST(LaneDifferential, OneSimulatorAcrossFramesMatchesFreshOnes) {
  const Netlist nl =
      withPartialScan(gen::generateIpCore(stagedSpec(29, 200)));
  std::vector<std::vector<GateId>> stages(nl.numDomains());
  for (GateId dff : nl.dffs()) stages[nl.gate(dff).domain.v].push_back(dff);
  ASSERT_EQ(stages.size(), 3u);
  ASSERT_TRUE(std::any_of(nl.dffs().begin(), nl.dffs().end(),
                          [&](GateId ff) {
                            return !nl.hasFlag(ff, kFlagScanCell);
                          }));
  const std::vector<GateId> observed = scanDrivers(nl);
  const BlockKind stuck_at[] = {BlockKind::kStuckAt, BlockKind::kStaged,
                                BlockKind::kStuckAt, BlockKind::kStaged};
  const BlockKind transition[] = {BlockKind::kTransition,
                                  BlockKind::kTransition};

  // Four blocks of the widest lane width; narrower blocks read a prefix.
  const Stimulus st = makeStimulus(nl, 4 * 8, 41);
  const int64_t n_patterns = 4 * 8 * 64;
  BlockReferences ref;
  const FaultList sa = FaultList::enumerateStuckAt(nl);
  ref.stuck_at = bruteForceRows(nl, st, n_patterns, sa, observed, false);
  for (const fault::FaultRecord& r : sa.records()) {
    ref.staged.push_back(
        stagedReferenceRow(nl, st, n_patterns, r.fault, stages));
  }
  ref.transition =
      bruteForceRows(nl, st, n_patterns, FaultList::enumerateTransition(nl),
                     observed, true);

  for (const BlockEngine engine :
       {BlockEngine::kPerFault, BlockEngine::kStemCpt}) {
    for (const uint32_t W : {1u, 8u}) {
      for (const uint32_t threads : {1u, 2u}) {
        checkAcrossFrames(nl, st, observed, stages, stuck_at, ref, engine, W,
                          threads);
        checkAcrossFrames(nl, st, observed, stages, transition, ref, engine,
                          W, threads);
      }
    }
  }
}

// ---------------------------------------------------------------------
// The stem engine against the per-fault engine and the brute-force rows
// on circuits built from deep fanout-free regions.

/// Deep fanout-free regions: AND/NAND/OR/NOR/XOR/XNOR/MUX chains with
/// N-input gates, MUX selects driven from inside a region, a PI and a
/// flop with exactly one combinational use each, chains ending at an
/// output and at flop D pins, and reconvergent stems.
Netlist buildDeepFfrs() {
  Netlist nl("deep_ffrs");
  const DomainId clk = nl.addClockDomain("clk", 1000);
  // Side inputs are fresh, so the chains stay sensitizable; every other
  // one is a flop, so launch-on-capture transitions reach every chain.
  size_t n_in = 0;
  const auto in = [&] {
    const GateId pi = nl.addInput("a" + std::to_string(n_in++));
    return n_in % 2 == 0 ? nl.addDff(pi, clk) : pi;
  };
  const GateId solo_pi = in();  // one combinational use
  const GateId solo_q = nl.addDff(in(), clk, "solo_q");  // likewise
  using K = CellKind;

  // A long single-use chain through every gate kind, with a MUX select
  // driven from inside another chain.
  const GateId t1 = nl.addGate(K::kAnd, {in(), solo_q, in()});
  const GateId t2 = nl.addGate(K::kNor, {t1, in()});
  const GateId t3 = nl.addGate(K::kXor, {in(), t2});
  const GateId t4 = nl.addGate(K::kMux2, {t3, in(), in()});
  const GateId t5 = nl.addGate(K::kNand, {in(), t4, in()});
  const GateId sel = nl.addGate(K::kOr, {in(), in(), in()});
  const GateId t6 = nl.addGate(K::kMux2, {in(), t5, sel});
  const GateId t7 = nl.addGate(K::kXnor, {t6, solo_pi});
  const GateId t8 = nl.addGate(K::kNot, {t7});
  const GateId t9 = nl.addGate(K::kBuf, {t8});
  const GateId t10 = nl.addGate(K::kOr, {in(), t9});

  // t10 is a stem whose branches reconverge, once through a MUX select.
  const GateId r1 = nl.addGate(K::kAnd, {t10, in()});
  const GateId r2 = nl.addGate(K::kXor, {in(), t10});
  const GateId r3 = nl.addGate(K::kNor, {r1, r2});
  const GateId r4 = nl.addGate(K::kMux2, {r1, r2, t10});
  const GateId x3 = nl.addGate(K::kXnor, {in(), in(), in()});
  const GateId r5 = nl.addGate(K::kNand, {r4, x3});
  nl.addOutput(r3, "y0");
  nl.addDff(r5, clk, "d0");

  // A second region, starting at a reconvergent stem and ending at a
  // flop D pin, whose MUX select is fed by the chain.
  const GateId q = nl.addDff(in(), clk, "q");
  const GateId s = nl.addGate(K::kNand, {in(), q});
  const GateId u1 = nl.addGate(K::kAnd, {s, in()});
  const GateId u2 = nl.addGate(K::kOr, {in(), s});
  const GateId v1 = nl.addGate(K::kXor, {u1, u2});
  const GateId v2 = nl.addGate(K::kNot, {v1});
  const GateId v3 = nl.addGate(K::kMux2, {in(), in(), v2});
  const GateId v4 = nl.addGate(K::kOr, {v3, in(), in(), in()});
  const GateId v5 = nl.addGate(K::kXor, {v4, in(), in()});
  nl.addDff(v5, clk, "d1");
  nl.addOutput(nl.addGate(K::kAnd, {s, q}), "y1");
  return nl;
}

/// `nl` with every flop but the last flagged as a scan cell, so flop
/// D-pin faults have a direct capture term, and one flop has none.
Netlist withScanCells(Netlist nl) {
  for (size_t k = 0; k + 1 < nl.dffs().size(); ++k) {
    nl.setFlag(nl.dffs()[k], kFlagScanCell);
  }
  return nl;
}

TEST(LaneDifferential, StemEngineMatchesPerFaultAndBruteForce) {
  // Every width ends in a partial block of 37 lanes.
  const int64_t n_patterns = 512 + 37;
  for (const Netlist& nl : {withScanCells(buildDeepFfrs()),
                            withScanCells(makeIpCore(23, 400))}) {
    const Stimulus st = makeStimulus(nl, 9, 2024);
    const std::vector<GateId> obs = fault::fullObservationSet(nl);
    for (const bool transition : {false, true}) {
      CampaignConfig base;
      base.transition = transition;
      base.list.collapse = false;  // every pin fault, flop D pins included
      const FaultList faults =
          transition ? FaultList::enumerateTransition(nl, base.list)
                     : FaultList::enumerateStuckAt(nl, base.list);
      const auto want =
          bruteForceRows(nl, st, n_patterns, faults, obs, transition);
      // Most faults detect, flop D-pin faults among them.
      size_t detected = 0;
      size_t captured = 0;
      for (size_t i = 0; i < faults.size(); ++i) {
        if (std::all_of(want[i].begin(), want[i].end(),
                        [](uint64_t w) { return w == 0; })) {
          continue;
        }
        ++detected;
        const fault::Fault& f = faults.record(i).fault;
        if (f.pin != fault::kOutputPin &&
            nl.gate(f.gate).kind == CellKind::kDff) {
          ++captured;
        }
      }
      ASSERT_GT(detected, faults.size() / 2) << nl.name();
      ASSERT_GT(captured, 0u) << nl.name();
      for (const uint32_t W : {1u, 4u, 8u}) {
        for (const uint32_t n_detect : {1u, 3u}) {
          for (const bool drop : {true, false}) {
            CampaignConfig cfg = base;
            cfg.lane_words = W;
            cfg.n_detect = n_detect;
            cfg.drop = drop;
            cfg.engine = BlockEngine::kPerFault;
            cfg.collapse = false;
            const CampaignState ref =
                runLaneCampaign(nl, st, n_patterns, cfg);
            if (!drop) {
              ASSERT_EQ(ref.rows, want) << nl.name();
            }
            for (const uint32_t threads : {1u, 2u, 4u}) {
              for (const bool collapse : {true, false}) {
                cfg.engine = BlockEngine::kStemCpt;
                cfg.threads = threads;
                cfg.collapse = collapse;
                ASSERT_EQ(runLaneCampaign(nl, st, n_patterns, cfg), ref)
                    << nl.name() << " transition=" << transition
                    << " W=" << W << " n_detect=" << n_detect
                    << " drop=" << drop << " threads=" << threads
                    << " collapse=" << collapse;
              }
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Dictionary rows: bit-identical across lane widths and thread counts
// (the diag consumer of the widened observer rows).

TEST(LaneDifferential, DictionaryRowsInvariantAcrossWidths) {
  core::LbistConfig cfg;
  cfg.num_chains = 2;
  cfg.tpi_method = core::TpiMethod::kNone;
  cfg.test_points = 0;
  const core::BistReadyCore core =
      core::buildBistReadyCore(gen::buildCounter(16), cfg);
  const int64_t n_patterns = 96;  // deliberately not a block multiple

  fault::FaultList ref_faults =
      fault::FaultList::enumerateStuckAt(core.netlist);
  const diag::ResponseDictionary ref = diag::buildResponseDictionary(
      core, ref_faults, n_patterns, /*threads=*/1);

  for (const uint32_t W : {4u, 8u}) {
    for (const uint32_t threads : {1u, 2u}) {
      fault::FaultList faults =
          fault::FaultList::enumerateStuckAt(core.netlist);
      const diag::ResponseDictionary dict = diag::buildResponseDictionary(
          core, faults, n_patterns, threads, /*transition=*/false,
          /*stats=*/nullptr, /*min_faults_per_thread=*/1,
          /*lane_words=*/W);
      ASSERT_EQ(dict.faults(), ref.faults());
      for (size_t i = 0; i < dict.faults(); ++i) {
        const auto got = dict.row(i);
        const auto want = ref.row(i);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                               want.end()))
            << "W=" << W << " threads=" << threads << " fault " << i;
      }
    }
  }
}

}  // namespace
}  // namespace lbist
