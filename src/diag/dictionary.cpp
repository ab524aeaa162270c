#include "diag/dictionary.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "core/pattern_source.hpp"
#include "fault/fsim.hpp"
#include "obs/obs.hpp"

namespace lbist::diag {

ResponseDictionary::ResponseDictionary(size_t n_faults, int64_t n_patterns)
    : n_faults_(n_faults),
      n_patterns_(n_patterns),
      words_per_fault_(static_cast<size_t>((n_patterns + 63) / 64)) {
  bits_.assign(n_faults_ * words_per_fault_, 0);
}

void ResponseDictionary::recordMask(size_t fault, int64_t pattern_base,
                                    uint64_t mask) {
  bits_[fault * words_per_fault_ +
        static_cast<size_t>(pattern_base / 64)] |= mask;
}

void ResponseDictionary::recordMask(size_t fault, int64_t pattern_base,
                                    sim::LaneMask mask) {
  const size_t base = static_cast<size_t>(pattern_base / 64);
  uint64_t* row = bits_.data() + fault * words_per_fault_;
  const size_t n = std::min(
      mask.words(), words_per_fault_ > base ? words_per_fault_ - base : 0);
  for (size_t wi = 0; wi < n; ++wi) row[base + wi] |= mask.word(wi);
}

bool ResponseDictionary::detects(size_t fault, int64_t pattern) const {
  const uint64_t word = bits_[fault * words_per_fault_ +
                              static_cast<size_t>(pattern / 64)];
  return ((word >> (pattern % 64)) & 1u) != 0;
}

int64_t ResponseDictionary::firstDetection(size_t fault) const {
  const auto r = row(fault);
  for (size_t w = 0; w < r.size(); ++w) {
    if (r[w] != 0) {
      return static_cast<int64_t>(w) * 64 + std::countr_zero(r[w]);
    }
  }
  return -1;
}

size_t ResponseDictionary::detectionCount(size_t fault) const {
  size_t n = 0;
  for (uint64_t w : row(fault)) n += static_cast<size_t>(std::popcount(w));
  return n;
}

std::vector<int64_t> ResponseDictionary::failingPatterns(size_t fault) const {
  std::vector<int64_t> out;
  const auto r = row(fault);
  for (size_t w = 0; w < r.size(); ++w) {
    uint64_t bits = r[w];
    while (bits != 0) {
      const int lane = std::countr_zero(bits);
      out.push_back(static_cast<int64_t>(w) * 64 + lane);
      bits &= bits - 1;
    }
  }
  return out;
}

std::vector<GateId> misrObservationSet(const Netlist& nl) {
  std::vector<GateId> obs;
  for (GateId dff : nl.dffs()) {
    const Gate& g = nl.gate(dff);
    if ((g.flags & kFlagScanCell) != 0) obs.push_back(g.fanins[0]);
  }
  std::sort(obs.begin(), obs.end());
  obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
  return obs;
}

namespace {

class DictionaryRecorder final : public fault::DetectionObserver {
 public:
  explicit DictionaryRecorder(ResponseDictionary& dict) : dict_(&dict) {}
  void onDetectionMask(size_t fault_index, int64_t pattern_base,
                       sim::LaneMask detect_mask) override {
    dict_->recordMask(fault_index, pattern_base, detect_mask);
  }

 private:
  ResponseDictionary* dict_;
};

}  // namespace

ResponseDictionary buildResponseDictionary(const core::BistReadyCore& core,
                                           fault::FaultList& faults,
                                           int64_t n_patterns,
                                           uint32_t threads, bool transition,
                                           DictionaryBuildStats* stats,
                                           uint32_t min_faults_per_thread,
                                           uint32_t lane_words) {
  OBS_SPAN("diag.dict_build");
  OBS_COUNT("diag.dict_builds", 1);
  OBS_COUNT("diag.dict_rows", faults.size());
  const auto t0 = std::chrono::steady_clock::now();
  ResponseDictionary dict(faults.size(), n_patterns);
  DictionaryRecorder recorder(dict);
  // The dictionary is the build's dominant allocation (BENCH_diag's
  // 1.3 MB at 7k gates); held for the whole build so the gauge peak
  // sees it coexist with the simulator's lane arrays.
  obs::GaugeCharge dict_charge;
  if (obs::metricsEnabled()) {
    dict_charge = obs::GaugeCharge(obs::gaugeId("diag.dict_bytes"),
                                   static_cast<int64_t>(dict.bytes()));
  }

  fault::FsimOptions opts;
  opts.threads = threads;
  opts.min_faults_per_thread = min_faults_per_thread;
  opts.drop_detected = false;  // complete rows, not first detections
  opts.lane_words = lane_words;
  fault::FaultSimulator fsim(core.netlist, faults,
                             misrObservationSet(core.netlist), opts);
  fsim.classifyUntestable();
  fsim.setDetectionObserver(&recorder);

  // Stuck-at rows use the staged-capture engine so they match the
  // diagnosis session's staggered per-domain capture pulses exactly
  // (stage order = schedule default = clock domains in netlist order).
  // Transition rows keep the broadside double-capture model.
  std::vector<std::vector<GateId>> stages(core.netlist.numDomains());
  for (GateId dff : core.netlist.dffs()) {
    stages[core.netlist.gate(dff).domain.v].push_back(dff);
  }

  core::PrpgPatternSource source(core, lane_words);
  const int64_t block_lanes = static_cast<int64_t>(fsim.lanes());
  {
    OBS_SPAN("diag.dict_simulate");
    for (int64_t base = 0; base < n_patterns; base += block_lanes) {
      const int lanes =
          static_cast<int>(std::min<int64_t>(block_lanes, n_patterns - base));
      source.loadBlock(fsim, lanes);
      if (transition) {
        fsim.simulateBlockTransition(base, lanes);
      } else {
        fsim.simulateBlockStuckAtStaged(base, lanes, stages);
      }
      OBS_COUNT("diag.dict_blocks", 1);
      // Rate-curve anchor: this loop is serial in the build thread and
      // each simulate call has already merged its shards, so the
      // counters are quiescent here.
      OBS_SAMPLE("diag.dict_block", base + lanes);
    }
  }

  if (stats != nullptr) {
    stats->patterns = n_patterns;
    stats->faults = faults.size();
    stats->faults_with_detections = 0;
    for (size_t i = 0; i < faults.size(); ++i) {
      if (dict.firstDetection(i) >= 0) ++stats->faults_with_detections;
    }
    stats->bytes = dict.bytes();
    stats->seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  return dict;
}

}  // namespace lbist::diag
