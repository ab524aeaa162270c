#include "dft/test_points.hpp"

#include <algorithm>
#include <bit>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "dft/cop.hpp"
#include "dft/scan.hpp"
#include "fault/fsim.hpp"
#include "obs/obs.hpp"

namespace lbist::dft {

namespace {

// Fault-simulation-guided selection settings.
constexpr uint64_t kSeed = 0xC0FFEEULL;     // warm-up and guidance streams
constexpr size_t kCandidatePool = 4096;     // nets kept by reach count
constexpr size_t kGuidanceFaultCap = 6000;  // undetected faults traced
constexpr size_t kMinGain = 2;              // stop below this many faults

/// Observation set used for TPI selection on a pre-scan netlist: PO
/// drivers plus every scannable DFF's D driver (after scan insertion all
/// of these become directly observable).
std::vector<GateId> prescanObservationSet(const Netlist& nl) {
  std::vector<GateId> obs;
  for (const OutputPort& po : nl.outputs()) obs.push_back(po.driver);
  for (GateId dff : nl.dffs()) {
    if (!nl.hasFlag(dff, kFlagNoScan)) obs.push_back(nl.gate(dff).fanins[0]);
  }
  std::sort(obs.begin(), obs.end());
  obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
  return obs;
}

void loadRandomSources(const Netlist& nl, fault::FaultSimulator& fsim,
                       std::mt19937_64& rng) {
  for (GateId pi : nl.inputs()) fsim.setSource(pi, rng());
  for (GateId dff : nl.dffs()) fsim.setSource(dff, rng());
  // Test-control pins are held at capture-mode values.
  if (auto tm = nl.findGateByName(kTestModePort)) {
    fsim.setSource(*tm, ~uint64_t{0});
  }
  if (auto se = nl.findGateByName(kScanEnablePort)) fsim.setSource(*se, 0);
}

/// Pass-A recorder: per-gate count of undetected faults whose effect
/// reaches the gate (one increment per fault per block).
class CountRecorder final : public fault::ReachObserver {
 public:
  explicit CountRecorder(size_t num_gates) : counts_(num_gates, 0) {}

  void onFaultEffects(size_t, std::span<const GateId> touched) override {
    for (GateId g : touched) ++counts_[g.v];
  }

  [[nodiscard]] std::span<const uint64_t> counts() const { return counts_; }

 private:
  std::vector<uint64_t> counts_;
};

/// Pass-B recorder: per-candidate bitset over the undetected fault set.
class CoverRecorder final : public fault::ReachObserver {
 public:
  CoverRecorder(size_t num_gates, std::span<const size_t> fault_indices,
                std::span<const GateId> candidates)
      : cand_slot_(num_gates, -1),
        words_((fault_indices.size() + 63) / 64),
        bits_(candidates.size() * words_, 0) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      cand_slot_[candidates[i].v] = static_cast<int64_t>(i);
    }
    size_t dense = 0;
    for (size_t fi : fault_indices) fault_dense_.emplace(fi, dense++);
  }

  void onFaultEffects(size_t fault_index,
                      std::span<const GateId> touched) override {
    const auto it = fault_dense_.find(fault_index);
    if (it == fault_dense_.end()) return;
    const size_t bit = it->second;
    for (GateId g : touched) {
      const int64_t slot = cand_slot_[g.v];
      if (slot < 0) continue;
      bits_[static_cast<size_t>(slot) * words_ + bit / 64] |=
          uint64_t{1} << (bit % 64);
    }
  }

  [[nodiscard]] std::span<const uint64_t> bitsFor(size_t cand) const {
    return {bits_.data() + cand * words_, words_};
  }
  [[nodiscard]] size_t words() const { return words_; }

 private:
  std::vector<int64_t> cand_slot_;
  size_t words_;
  std::vector<uint64_t> bits_;
  std::unordered_map<size_t, size_t> fault_dense_;
};

bool eligibleCandidate(const Netlist& nl, GateId g,
                       std::span<const uint8_t> already_observed) {
  if (already_observed[g.v] != 0) return false;
  const Gate& gate = nl.gate(g);
  if ((gate.flags & kFlagDftInserted) != 0) return false;
  return isCombinational(gate.kind) || gate.kind == CellKind::kDff;
}

}  // namespace

DomainId nearestDomain(const Netlist& nl, GateId net,
                       const Netlist::FanoutMap& fanout) {
  std::vector<GateId> queue{net};
  size_t cursor = 0;
  size_t budget = 256;
  while (cursor < queue.size() && budget-- > 0) {
    const GateId g = queue[cursor++];
    if (nl.gate(g).kind == CellKind::kDff) return nl.gate(g).domain;
    for (GateId t : fanout.fanout(g)) {
      if (nl.gate(t).kind == CellKind::kDff) return nl.gate(t).domain;
      if (isCombinational(nl.gate(t).kind)) queue.push_back(t);
    }
  }
  return DomainId{0};
}

TpiResult selectObservePointsFaultSim(const Netlist& nl,
                                      const TpiConfig& cfg) {
  TpiResult result;
  fault::FaultList faults = fault::FaultList::enumerateStuckAt(nl);
  const std::vector<GateId> obs = prescanObservationSet(nl);
  std::vector<uint8_t> observed_flag(nl.numGates(), 0);
  for (GateId o : obs) observed_flag[o.v] = 1;

  // --- warm-up: drop everything random patterns can catch -----------------
  // The warm-up simulator is freed before guidance builds its own.
  {
    fault::FaultSimulator fsim(nl, faults, obs);
    fsim.classifyUntestable();
    OBS_SPAN("dft.tpi_warmup");
    std::mt19937_64 rng(kSeed);
    for (int64_t base = 0; base < cfg.warmup_patterns; base += 64) {
      const int lanes =
          static_cast<int>(std::min<int64_t>(64, cfg.warmup_patterns - base));
      loadRandomSources(nl, fsim, rng);
      fsim.simulateBlockStuckAt(base, lanes);
    }
  }
  result.warmup_coverage = faults.coverage();

  std::vector<size_t> undetected = faults.undetectedIndices();
  if (undetected.empty() || cfg.max_points == 0) return result;
  OBS_SPAN("dft.tpi_guidance");
  // Guidance over a bounded sample: reach statistics converge long
  // before the full residue is traced, and tracing every undetected
  // fault at large scale dominates flow runtime.
  if (undetected.size() > kGuidanceFaultCap) {
    std::mt19937_64 sampler(kSeed + 997);
    std::shuffle(undetected.begin(), undetected.end(), sampler);
    undetected.resize(kGuidanceFaultCap);
    std::sort(undetected.begin(), undetected.end());
  }

  // One simulator serves both passes. A reach observer turns class
  // folding off, so it is built without a collapse map.
  fault::FsimOptions guide_opts;
  guide_opts.drop_detected = false;
  guide_opts.collapse = false;
  fault::FaultSimulator guide(nl, faults, obs, guide_opts);

  // --- pass A: reach counts --------------------------------------------------
  guide.restrictActiveSet(undetected);
  CountRecorder counter(nl.numGates());
  guide.setReachObserver(&counter);
  std::mt19937_64 rng_a(kSeed + 17);
  std::mt19937_64 rng_b = rng_a;
  for (int64_t base = 0; base < cfg.guidance_patterns; base += 64) {
    const int lanes = static_cast<int>(
        std::min<int64_t>(64, cfg.guidance_patterns - base));
    loadRandomSources(nl, guide, rng_a);
    guide.simulateBlockStuckAt(base, lanes);
  }

  // --- candidate pool --------------------------------------------------------
  std::vector<GateId> candidates;
  nl.forEachGate([&](GateId id, const Gate&) {
    if (counter.counts()[id.v] > 0 &&
        eligibleCandidate(nl, id, observed_flag)) {
      candidates.push_back(id);
    }
  });
  std::sort(candidates.begin(), candidates.end(), [&](GateId a, GateId b) {
    return counter.counts()[a.v] > counter.counts()[b.v];
  });
  if (candidates.size() > kCandidatePool) candidates.resize(kCandidatePool);
  if (candidates.empty()) return result;

  // --- pass B: per-candidate cover bitsets -----------------------------------
  guide.restrictActiveSet(undetected);
  CoverRecorder recorder(nl.numGates(), undetected, candidates);
  guide.setReachObserver(&recorder);
  for (int64_t base = 0; base < cfg.guidance_patterns; base += 64) {
    const int lanes = static_cast<int>(
        std::min<int64_t>(64, cfg.guidance_patterns - base));
    loadRandomSources(nl, guide, rng_b);
    guide.simulateBlockStuckAt(base, lanes);
  }

  // --- greedy set cover ------------------------------------------------------
  std::vector<uint64_t> covered(recorder.words(), 0);
  std::vector<uint8_t> taken(candidates.size(), 0);
  while (result.points.size() < cfg.max_points) {
    size_t best = candidates.size();
    size_t best_gain = 0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (taken[c] != 0) continue;
      const auto bits = recorder.bitsFor(c);
      size_t gain = 0;
      for (size_t w = 0; w < bits.size(); ++w) {
        gain += static_cast<size_t>(std::popcount(bits[w] & ~covered[w]));
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = c;
      }
    }
    if (best == candidates.size() || best_gain < kMinGain) break;
    taken[best] = 1;
    const auto bits = recorder.bitsFor(best);
    for (size_t w = 0; w < bits.size(); ++w) covered[w] |= bits[w];
    result.points.push_back(candidates[best]);
    result.predicted_new_detections += best_gain;
  }
  return result;
}

std::vector<GateId> selectObservePointsCop(const Netlist& nl, size_t k) {
  const std::vector<GateId> obs = prescanObservationSet(nl);
  std::vector<uint8_t> observed_flag(nl.numGates(), 0);
  for (GateId o : obs) observed_flag[o.v] = 1;
  const CopMetrics cop = computeCop(nl, obs);

  std::vector<GateId> candidates;
  nl.forEachGate([&](GateId id, const Gate&) {
    if (eligibleCandidate(nl, id, observed_flag)) candidates.push_back(id);
  });
  std::sort(candidates.begin(), candidates.end(), [&](GateId a, GateId b) {
    if (cop.obs[a.v] != cop.obs[b.v]) return cop.obs[a.v] < cop.obs[b.v];
    return a.v < b.v;
  });
  if (candidates.size() > k) candidates.resize(k);
  return candidates;
}

std::vector<GateId> insertObservePoints(Netlist& nl,
                                        std::span<const GateId> nets,
                                        const ObservePointOptions& opts) {
  if (opts.group_size < 1) {
    throw std::invalid_argument("observe-point group size must be >= 1");
  }
  const Netlist::FanoutMap fanout = nl.buildFanoutMap();
  std::vector<GateId> cells;
  for (size_t i = 0; i < nets.size();
       i += static_cast<size_t>(opts.group_size)) {
    const size_t end =
        std::min(nets.size(), i + static_cast<size_t>(opts.group_size));
    GateId tap = nets[i];
    if (end - i > 1) {
      std::vector<GateId> group(nets.begin() + static_cast<int64_t>(i),
                                nets.begin() + static_cast<int64_t>(end));
      tap = nl.addGate(CellKind::kXor, group);
      nl.setFlag(tap, kFlagDftInserted);
    }
    const DomainId dom = nearestDomain(nl, nets[i], fanout);
    const GateId cell =
        nl.addDff(tap, dom, "obs_pt_" + std::to_string(cells.size()));
    nl.setFlag(cell, kFlagObservePoint);
    nl.setFlag(cell, kFlagDftInserted);
    cells.push_back(cell);
  }
  return cells;
}

}  // namespace lbist::dft
