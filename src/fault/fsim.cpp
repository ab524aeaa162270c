#include "fault/fsim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>

#include "obs/obs.hpp"
#include "robust/robust.hpp"

namespace lbist::fault {

using sim::LaneWord;

namespace {
// Stem key of a compute slot with no site diff (a flop's D-pin fault),
// and the unset mark while the constructor links regions.
constexpr uint32_t kNoStem = 0xffffffffu;
// A stem pass propagates on one worker per numGates / kCopyRowsPerStem
// stems that propagate, so a worker's frame copy, one row per gate,
// costs at most kCopyRowsPerStem rows per stem it propagates.
constexpr size_t kCopyRowsPerStem = 64;
}  // namespace

void validateFsimOptions(const FsimOptions& opts) {
  if (!sim::isSupportedLaneWords(opts.lane_words)) {
    throw std::invalid_argument(
        "FsimOptions::lane_words must be 1, 4, or 8");
  }
  if (opts.n_detect == 0) {
    throw std::invalid_argument("FsimOptions::n_detect must be >= 1");
  }
}

std::vector<GateId> defaultObservationSet(const Netlist& nl) {
  std::vector<GateId> obs;
  for (const OutputPort& po : nl.outputs()) obs.push_back(po.driver);
  for (GateId dff : nl.dffs()) {
    const Gate& g = nl.gate(dff);
    if ((g.flags & kFlagScanCell) != 0) obs.push_back(g.fanins[0]);
  }
  std::sort(obs.begin(), obs.end());
  obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
  return obs;
}

std::vector<GateId> fullObservationSet(const Netlist& nl) {
  std::vector<GateId> obs;
  for (const OutputPort& po : nl.outputs()) obs.push_back(po.driver);
  for (GateId dff : nl.dffs()) obs.push_back(nl.gate(dff).fanins[0]);
  std::sort(obs.begin(), obs.end());
  obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
  return obs;
}

// Width-specific worker scratch: a staged block's passes log here the
// corrupted captures they find for the compute slots the worker owns.
template <size_t W>
struct FaultSimulator::ScratchW final : FaultSimulator::ScratchBase {
  struct Capture {
    uint32_t slot;
    SeedW<W> flop;  // the flop's Q differs in flop.diff from now on
  };
  std::vector<Capture> captures;
};

FaultSimulator::FaultSimulator(const Netlist& nl, FaultList& faults,
                               std::vector<GateId> observed, FsimOptions opts)
    : nl_(&nl),
      faults_(&faults),
      opts_(opts),
      lane_words_((validateFsimOptions(opts), opts.lane_words)),
      good_(nl, opts.lane_words),
      compiled_(&good_.compiled()),
      observed_(std::move(observed)) {
  std::vector<uint8_t>& is_observed = observed_set_.gates;
  is_observed.assign(nl.numGates(), 0);
  for (GateId o : observed_) is_observed[o.v] = 1;
  indexObservedOps(observed_set_);
  if (opts_.collapse) {
    collapse_map_ = buildCollapseMap(nl, faults, observed_);
  }

  // Stem engine structure: a gate output is a fanout-free-region stem
  // when the tester sees it directly, when it has any use count other
  // than one, or when its single use is non-combinational (a capture
  // pin). Everything else chains forward through its unique consuming
  // gate into that gate's region. Built from the same NetUses scan the
  // collapse analysis runs, so the two views of fanout-free structure
  // cannot diverge.
  const size_t n_gates = nl.numGates();
  const NetUses uses = buildNetUses(nl);
  single_use_ = uses.gate;
  single_slot_ = uses.slot;
  ffr_stem_.assign(n_gates, kNoStem);
  for (uint32_t g = 0; g < n_gates; ++g) {
    if (is_observed[g] != 0 || uses.count[g] != 1 ||
        !isCombinational(nl.gate(GateId{single_use_[g]}).kind)) {
      ffr_stem_[g] = g;
    }
  }
  // Reverse op order is reverse-topological (the stream is level-major
  // and a chain's consumer sits at a strictly higher level), and sources
  // feed ops only, so every consumer's stem is known when it is read.
  const auto join = [&](uint32_t g) {
    if (ffr_stem_[g] == kNoStem) ffr_stem_[g] = ffr_stem_[single_use_[g]];
  };
  for (size_t opi = compiled_->numOps(); opi-- > 0;) {
    join(compiled_->opGate(static_cast<uint32_t>(opi)));
  }
  for (uint32_t g = 0; g < n_gates; ++g) join(g);
  ffr_stamp_.assign(n_gates, 0);
  bucket_end_.assign(n_gates, 0);
  obs_out_.assign(n_gates * lane_words_, 0);

  refreshActiveSet();
}

FaultSimulator::~FaultSimulator() = default;

void FaultSimulator::indexObservedOps(ObservedSet& set) const {
  const size_t n_ops = compiled_->numOps();
  set.ops.assign(n_ops / 64 + 1, 0);
  for (uint32_t op = 0; op < n_ops; ++op) {
    if (set.gates[compiled_->opGate(op)] != 0) {
      set.ops[op >> 6] |= uint64_t{1} << (op & 63);
    }
  }
}

void FaultSimulator::prepareComputeSet() {
  constexpr uint32_t kNoSlot = 0xffffffffu;
  const size_t n_active = active_.size();
  compute_faults_.clear();
  merge_slot_.resize(n_active);
  const bool fold = !collapse_map_.representatives().empty() &&
                    reach_observer_ == nullptr;
  if (!fold) {
    compute_faults_.assign(active_.begin(), active_.end());
    for (size_t ai = 0; ai < n_active; ++ai) {
      merge_slot_[ai] = static_cast<uint32_t>(ai);
    }
    return;
  }
  if (rep_slot_.empty()) rep_slot_.assign(faults_->size(), kNoSlot);
  for (size_t ai = 0; ai < n_active; ++ai) {
    const size_t r = collapse_map_.representative(active_[ai]);
    uint32_t s = rep_slot_[r];
    if (s == kNoSlot) {
      s = static_cast<uint32_t>(compute_faults_.size());
      rep_slot_[r] = s;
      compute_faults_.push_back(r);
    }
    merge_slot_[ai] = s;
  }
  for (size_t fi : compute_faults_) rep_slot_[fi] = kNoSlot;
}

void FaultSimulator::refreshActiveSet() {
  active_ = faults_->undetectedIndices();
}

void FaultSimulator::restrictActiveSet(std::span<const size_t> fault_indices) {
  active_.assign(fault_indices.begin(), fault_indices.end());
}

void FaultSimulator::setThreads(uint32_t threads) {
  opts_.threads = threads;
}

unsigned FaultSimulator::resolveThreads(size_t n_work_units) const {
  unsigned t = opts_.threads != 0
                   ? opts_.threads
                   : std::max(1u, std::thread::hardware_concurrency());
  const size_t workload_cap = std::max<size_t>(
      1, n_work_units / std::max<uint32_t>(1, opts_.min_faults_per_thread));
  return static_cast<unsigned>(
      std::min<size_t>(t, workload_cap));
}

template <size_t W>
void FaultSimulator::ensureWorkersW(unsigned threads) {
  while (scratch_.size() < threads) {
    auto sc = std::make_unique<ScratchW<W>>();
    sc->vals.resize(nl_->numGates() * W);
    sc->pending.assign(compiled_->numOps() / 64 + 1, 0);
    scratch_.push_back(std::move(sc));
  }
  if (threads > 1 && (pool_ == nullptr || pool_->threads() < threads)) {
    pool_ = std::make_unique<core::ThreadPool>(threads);
  }
}

template <size_t W>
LaneWord<W> FaultSimulator::evalPinForcedW(GateId id, uint8_t pin,
                                           const LaneWord<W>& forced,
                                           const uint64_t* vals) const {
  const uint32_t op = compiled_->opOf(id);
  assert(op != sim::CompiledNetlist::kNoOp &&
         "pin-forced eval on non-combinational gate");
  return compiled_->evalOpT<LaneWord<W>>(
      op, [&](size_t slot, uint32_t f) -> LaneWord<W> {
        return slot == pin ? forced : LaneWord<W>::load(vals + size_t{f} * W);
      });
}

template <size_t W>
LaneWord<W> FaultSimulator::propagateSeedsW(
    ScratchW<W>& sc, std::span<const SeedW<W>> seeds, const uint64_t* frame,
    const ObservedSet& observed, const Fault* forced, bool whole_cone,
    const LaneWord<W>& open_lanes) const {
  const sim::CompiledNetlist& cn = *compiled_;
  uint64_t* const vals = sc.vals.data();
  // Take the scratch over: copy a frame it does not hold yet, or else
  // put back the frame's values at the gates the last propagation
  // wrote. Restoring here, not at the end of that propagation, lets its
  // caller read the faulty machine it left behind.
  if (sc.frame_serial != frame_serial_) {
    std::copy_n(frame, sc.vals.size(), vals);
    sc.frame_serial = frame_serial_;
  } else {
    for (const GateId g : sc.written) {
      LaneWord<W>::load(frame + size_t{g.v} * W)
          .store(vals + size_t{g.v} * W);
    }
  }
  sc.written.clear();

  uint64_t* const pending = sc.pending.data();
  // Scheduled ops lie in words [lo, hi] of `pending`. Seeds schedule at
  // any level; a drained gate schedules only higher levels (the netlist
  // is a DAG), which the level-major op stream puts at higher indices.
  size_t lo = sc.pending.size();
  size_t hi = 0;
  const auto schedule_fanouts = [&](uint32_t g) {
    for (const sim::CompiledNetlist::FanoutEntry& e : cn.combFanout(g)) {
      const uint32_t op = cn.opOf(GateId{e.gate});
      const size_t wi = op >> 6;
      pending[wi] |= uint64_t{1} << (op & 63);
      lo = std::min(lo, wi);
      hi = std::max(hi, wi);
    }
  };
  const auto clear_pending = [&](size_t from) {
    if (from <= hi) std::fill(pending + from, pending + hi + 1, 0);
  };

  LaneWord<W> detect;
  // Lanes still propagating. A lane retires once it detects: by lane
  // independence nothing it does downstream can change its result.
  // Recording the reach cone keeps every lane open.
  LaneWord<W> open = open_lanes;
  const bool retire = !whole_cone;

  for (const SeedW<W>& s : seeds) {
    const LaneWord<W> diff = s.diff & open;
    if (!diff.any()) continue;
    uint64_t* const v = vals + size_t{s.gate.v} * W;
    const LaneWord<W> good = LaneWord<W>::load(frame + size_t{s.gate.v} * W);
    // A repeated seed gate differs in the union of the diffs.
    const LaneWord<W> prior = LaneWord<W>::load(v) ^ good;
    if (!prior.any()) sc.written.push_back(s.gate);
    (good ^ (prior | diff)).store(v);
    if (observed.gates[s.gate.v] != 0) {
      detect |= diff;
      if (retire) open &= ~diff;
    }
    schedule_fanouts(s.gate.v);
  }

  if (!open.any()) {
    // Every lane already detects at the seeds.
    clear_pending(lo);
    return detect;
  }

  const LaneWord<W> forced_word =
      forced != nullptr && forced->type == FaultType::kStuckAt1
          ? LaneWord<W>::ones()
          : LaneWord<W>{};
  const uint32_t forced_gate =
      forced != nullptr ? forced->gate.v : sim::CompiledNetlist::kNoOp;

  // Tallied locally in the drain loop, flushed once per call: the wheel
  // is far too hot for a per-event enabled check.
  uint64_t popped = 0;

  // Evaluates the scheduled ops of one level, from word `w` up to op
  // `end` (the level's end), in op order; the observed ones only, or
  // the rest. Returns false once every lane has retired.
  const auto drain = [&](auto observed_pass, size_t w, uint32_t end) {
    constexpr bool kObserved = decltype(observed_pass)::value;
    const size_t last = (end - 1) >> 6;
    for (size_t wi = w; wi <= last; ++wi) {
      uint64_t bits = pending[wi];
      if (wi == last && (end & 63) != 0) {
        bits &= (uint64_t{1} << (end & 63)) - 1;
      }
      if constexpr (kObserved) bits &= observed.ops[wi];
      // Draining a level schedules only higher ones, never these bits.
      pending[wi] &= ~bits;
      for (; bits != 0; bits &= bits - 1) {
        const uint32_t op = static_cast<uint32_t>(wi << 6) +
                            static_cast<uint32_t>(std::countr_zero(bits));
        const uint32_t g = cn.opGate(op);
        ++popped;
        LaneWord<W> newval;
        if (g != forced_gate) [[likely]] {
          newval = cn.evalOpT<LaneWord<W>>(
              op, [&](size_t, uint32_t f) -> LaneWord<W> {
                return LaneWord<W>::load(vals + size_t{f} * W);
              });
        } else {
          // A seed's cone feeds the fault site: keep the fault applied.
          newval = forced->pin == kOutputPin
                       ? forced_word
                       : evalPinForcedW<W>(GateId{g}, forced->pin,
                                           forced_word, vals);
        }
        // The frame gets the faulty machine in the open lanes and the
        // good machine in the rest.
        uint64_t* const v = vals + size_t{g} * W;
        const LaneWord<W> good = LaneWord<W>::load(frame + size_t{g} * W);
        const LaneWord<W> d = (newval ^ good) & open;
        if (!d.any()) {
          // Only a seeded fault site can hold a diff here already.
          if (g == forced_gate) good.store(v);
          continue;
        }
        (good ^ d).store(v);
        sc.written.push_back(GateId{g});
        if constexpr (kObserved) {
          detect |= d;
          if (retire) {
            open &= ~d;
            if (!open.any()) return false;
          }
        }
        schedule_fanouts(g);
      }
    }
    return true;
  };

  // Drain the wheel level by level, each level's observed ops first:
  // they are where lanes retire, and a gate evaluated after a
  // retirement propagates fewer lanes. Inside a level the order cannot
  // change a result, since no gate there reads another.
  for (size_t w = lo;;) {
    while (w <= hi && pending[w] == 0) ++w;
    if (w > hi) break;
    const uint32_t first = static_cast<uint32_t>(w << 6) +
                           static_cast<uint32_t>(std::countr_zero(pending[w]));
    const uint32_t end = cn.levelOpsEnd(cn.level(GateId{cn.opGate(first)}));
    if (!drain(std::true_type{}, w, end) ||
        !drain(std::false_type{}, w, end)) {
      // Every lane has detected: nothing downstream can change the
      // result. Clear the outstanding schedule and stop.
      clear_pending(w);
      break;
    }
    w = end >> 6;
  }
  OBS_COUNT("fsim.events_popped", popped);
  return detect;
}

template <size_t W>
FaultSimulator::InjectResultW<W> FaultSimulator::injectStuckAtW(
    const Fault& f, const LaneWord<W>& lane_mask,
    const uint64_t* good_vals) const {
  InjectResultW<W> res;
  const Gate& g = nl_->gate(f.gate);
  const LaneWord<W> forced = f.type == FaultType::kStuckAt1
                                 ? LaneWord<W>::ones()
                                 : LaneWord<W>{};
  if (f.pin == kOutputPin) {
    res.diff = (LaneWord<W>::load(good_vals + size_t{f.gate.v} * W) ^
                forced) &
               lane_mask;
    return res;
  }
  if (g.kind == CellKind::kDff) {
    // Fault between the D net and the flip-flop: the captured value is
    // wrong wherever the net value differs from the forced value; it is
    // visible iff the cell is observed by scan unload.
    const LaneWord<W> pin_good =
        LaneWord<W>::load(good_vals + size_t{g.fanins[0].v} * W);
    res.direct_detect = (g.flags & kFlagScanCell) != 0;
    res.direct_mask = (pin_good ^ forced) & lane_mask;
    return res;
  }
  const LaneWord<W> faulty_out =
      evalPinForcedW<W>(f.gate, f.pin, forced, good_vals);
  res.diff = (faulty_out ^
              LaneWord<W>::load(good_vals + size_t{f.gate.v} * W)) &
             lane_mask;
  return res;
}

template <size_t W>
FaultSimulator::InjectResultW<W> FaultSimulator::injectTransitionW(
    const Fault& f, const LaneWord<W>& lane_mask, const uint64_t* good_vals,
    const uint64_t* launch_vals) const {
  InjectResultW<W> res;
  const Gate& g = nl_->gate(f.gate);
  auto activation = [&](GateId net) {
    const LaneWord<W> v1 = LaneWord<W>::load(launch_vals + size_t{net.v} * W);
    const LaneWord<W> v2 = LaneWord<W>::load(good_vals + size_t{net.v} * W);
    return (f.type == FaultType::kSlowToRise ? (~v1 & v2) : (v1 & ~v2)) &
           lane_mask;
  };
  if (f.pin == kOutputPin) {
    // The slow site holds its launch value through the second capture:
    // flip the capture-cycle value in every activated lane.
    res.diff = activation(f.gate);
    return res;
  }
  const GateId src = g.fanins[f.pin];
  const LaneWord<W> act = activation(src);
  if (g.kind == CellKind::kDff) {
    res.direct_detect = (g.flags & kFlagScanCell) != 0;
    res.direct_mask = act;
    return res;
  }
  if (!act.any()) return res;
  // Launch value where active.
  const LaneWord<W> held =
      LaneWord<W>::load(good_vals + size_t{src.v} * W) ^ act;
  const LaneWord<W> faulty_out =
      evalPinForcedW<W>(f.gate, f.pin, held, good_vals);
  res.diff = (faulty_out ^
              LaneWord<W>::load(good_vals + size_t{f.gate.v} * W)) &
             lane_mask;
  return res;
}

void FaultSimulator::bucketByStem() {
  // Counting sort on the stem key: count, prefix-sum, place. Bumping the
  // serial also invalidates every FFR mask memoized in the last block.
  ++ffr_serial_;
  live_stems_.clear();
  const size_t n_compute = compute_faults_.size();
  const auto stem_of = [&](size_t ci) {
    const Fault& f = faults_->record(compute_faults_[ci]).fault;
    const bool d_pin = f.pin != kOutputPin &&
                       compiled_->opOf(f.gate) == sim::CompiledNetlist::kNoOp;
    return d_pin ? kNoStem : ffr_stem_[f.gate.v];
  };
  for (size_t ci = 0; ci < n_compute; ++ci) {
    const uint32_t s = stem_of(ci);
    if (s == kNoStem) continue;
    // A stem's stamp marks its bucket live; only non-stems memoize masks.
    if (ffr_stamp_[s] != ffr_serial_) {
      ffr_stamp_[s] = ffr_serial_;
      bucket_end_[s] = 0;
      live_stems_.push_back(s);
    }
    ++bucket_end_[s];
  }
  uint32_t offset = 0;
  for (const uint32_t s : live_stems_) {
    const uint32_t count = bucket_end_[s];
    bucket_end_[s] = offset;
    offset += count;
  }
  stem_order_.resize(n_compute);
  for (size_t ci = 0; ci < n_compute; ++ci) {
    const uint32_t s = stem_of(ci);
    stem_order_[s == kNoStem ? offset++ : bucket_end_[s]++] =
        static_cast<uint32_t>(ci);
  }
}

template <size_t W>
LaneWord<W> FaultSimulator::ffrMaskW(ScratchW<W>& sc, uint32_t g,
                                     const uint64_t* good_vals) {
  const sim::CompiledNetlist& cn = *compiled_;
  // Climb toward the stem until the stem or a mask this block already
  // holds, then fold the pass masks back down, memoizing each.
  sc.chain.clear();
  uint32_t x = g;
  while (ffr_stem_[x] != x && ffr_stamp_[x] != ffr_serial_) {
    sc.chain.push_back(x);
    x = single_use_[x];
  }
  LaneWord<W> mask = ffr_stem_[x] == x
                         ? LaneWord<W>::ones()
                         : LaneWord<W>::load(obs_out_.data() + size_t{x} * W);
  for (size_t i = sc.chain.size(); i-- > 0;) {
    const uint32_t y = sc.chain[i];
    mask &= cn.passMaskW<W>(cn.opOf(GateId{single_use_[y]}), single_slot_[y],
                            good_vals);
    mask.store(obs_out_.data() + size_t{y} * W);
    ffr_stamp_[y] = ffr_serial_;
  }
  return mask;
}

template <size_t W, class OpenLanes, class Capture>
void FaultSimulator::simulateStemsW(const uint64_t* frame,
                                    const ObservedSet& observed,
                                    bool transition,
                                    const OpenLanes& open_lanes,
                                    uint64_t* rows, const Capture& capture,
                                    unsigned n_threads) {
  bucketByStem();
  const uint64_t* const launch_vals = launch_values_.data();
  uint64_t* const stem_rows = obs_out_.data();
  const size_t n_live = live_stems_.size();
  const auto bucket_begin = [&](size_t k) -> uint32_t {
    return k == 0 ? 0 : bucket_end_[live_stems_[k - 1]];
  };

  // Each of `n` workers owns a contiguous run of whole stems, of about
  // equal fault count.
  const uint64_t stem_slots = stemSlotsEnd();
  const auto for_stem_shards = [&](unsigned n, auto&& body) {
    if (n <= 1) {
      body(static_cast<ScratchW<W>&>(*scratch_[0]), size_t{0}, n_live);
      return;
    }
    const auto shard_begin = [&](unsigned t) {
      const uint64_t target = stem_slots * t / n;
      size_t k = 0;
      while (k < n_live && bucket_end_[live_stems_[k]] <= target) ++k;
      return k;
    };
    pool_->run(n, [&](unsigned t) {
      body(static_cast<ScratchW<W>&>(*scratch_[t]), shard_begin(t),
           shard_begin(t + 1));
    });
  };

  // Phase 1: inject every fault in its open lanes and keep the lanes of
  // its site diff that reach the stem; the stem's row collects their
  // union.
  for_stem_shards(n_threads, [&](ScratchW<W>& sc, size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      const uint32_t s = live_stems_[k];
      LaneWord<W> reach;
      for (uint32_t p = bucket_begin(k); p < bucket_end_[s]; ++p) {
        const uint32_t ci = stem_order_[p];
        const Fault& f = faults_->record(compute_faults_[ci]).fault;
        const LaneWord<W> open = open_lanes(ci);
        LaneWord<W> at_stem;
        if (open.any()) {
          const LaneWord<W> diff =
              transition
                  ? injectTransitionW<W>(f, open, frame, launch_vals).diff
                  : injectStuckAtW<W>(f, open, frame).diff;
          if (diff.any()) at_stem = diff & ffrMaskW<W>(sc, f.gate.v, frame);
        }
        at_stem.store(rows + size_t{ci} * W);
        reach |= at_stem;
      }
      reach.store(stem_rows + size_t{s} * W);
    }
  });

  // Phase 2: one propagation per stem with only the union's lanes open;
  // each fault's mask is the lanes of its own share that are observed.
  // A worker's first propagation copies the whole frame, so the workers
  // are counted by the stems that propagate (kCopyRowsPerStem): a
  // sparse block, as most of a dropping campaign's are, pays one copy.
  OBS_SPAN("fsim.cpt_observability");
  size_t n_propagating = 0;
  for (const uint32_t s : live_stems_) {
    if (LaneWord<W>::load(stem_rows + size_t{s} * W).any()) ++n_propagating;
  }
  const unsigned n_prop_threads = static_cast<unsigned>(std::clamp<size_t>(
      n_propagating * kCopyRowsPerStem / nl_->numGates(), 1, n_threads));
  for_stem_shards(n_prop_threads, [&](ScratchW<W>& sc, size_t lo,
                                      size_t hi) {
    uint64_t propagated = 0;
    for (size_t k = lo; k < hi; ++k) {
      const uint32_t s = live_stems_[k];
      const LaneWord<W> reach = LaneWord<W>::load(stem_rows + size_t{s} * W);
      if (!reach.any()) continue;
      const SeedW<W> seed{GateId{s}, reach};
      const LaneWord<W> detected = propagateSeedsW<W>(
          sc, {&seed, 1}, frame, observed, /*forced=*/nullptr,
          /*whole_cone=*/false, /*open_lanes=*/reach);
      ++propagated;
      const uint32_t begin = bucket_begin(k);
      capture(sc, begin, bucket_end_[s]);
      for (uint32_t p = begin; p < bucket_end_[s]; ++p) {
        uint64_t* const row = rows + size_t{stem_order_[p]} * W;
        (LaneWord<W>::load(row) & detected).store(row);
      }
    }
    OBS_COUNT("fsim.stem_propagations", propagated);
  });
}

template <size_t W>
size_t FaultSimulator::simulateActiveFaultsW(int64_t pattern_base,
                                             int n_patterns,
                                             bool transition) {
  const LaneWord<W> lane_mask =
      LaneWord<W>::firstLanes(static_cast<size_t>(n_patterns));
  if (active_.empty()) return 0;
  // The caller has just evaluated this block's frame.
  ++frame_serial_;

  // With folding, only one member per equivalence class is propagated;
  // the merge phase shares its mask with every live member.
  prepareComputeSet();
  const size_t n_compute = compute_faults_.size();
  const unsigned n_threads = resolveThreads(n_compute);
  ensureWorkersW<W>(n_threads);

  const bool capture_reach = reach_observer_ != nullptr;
  // With one worker the compute loop already visits faults in merge order,
  // so observer callbacks stream straight from the scratch instead of
  // buffering every fault's reach cone for the merge phase. (Reach
  // observers disable folding, so compute position == active position.)
  const bool inline_observer = capture_reach && n_threads <= 1;
  const bool buffer_reach = capture_reach && !inline_observer;
  block_detect_.assign(n_compute * W, 0);
  block_had_diff_.assign(n_compute, 0);
  if (buffer_reach) block_touched_.resize(n_compute);

  // Reach observers need each fault's real cone, which only the
  // per-fault engine walks.
  const bool use_stems =
      opts_.engine == BlockEngine::kStemCpt && !capture_reach;

  OBS_SPAN("fsim.block");
  OBS_COUNT("fsim.blocks", 1);
  OBS_COUNT("fsim.live_faults", active_.size());
  OBS_COUNT("fsim.live_classes", n_compute);
  // Common per-block path for both engines: an injected failure here
  // models a simulator crash inside any fault-sim consumer (coverage
  // flows, top-up, diagnosis). Placed before the compute phase so no
  // partial block ever mutates fault statuses — the exception leaves the
  // list exactly as it was.
  if (ROBUST_POINT("fsim.block.simulate", "", robust::kCanThrow) ==
      robust::FaultAction::kThrow) {
    throw std::runtime_error("injected fault-simulator failure (block at "
                             "pattern base " +
                             std::to_string(pattern_base) + ")");
  }
  const uint64_t* const good_vals = good_.rawValues().data();
  const uint64_t* const launch_vals = launch_values_.data();
  auto inject = [&](const Fault& f) {
    return transition
               ? injectTransitionW<W>(f, lane_mask, good_vals, launch_vals)
               : injectStuckAtW<W>(f, lane_mask, good_vals);
  };
  if (use_stems) {
    OBS_COUNT("fsim.blocks_stem_cpt", 1);
    simulateStemsW<W>(
        good_vals, observed_set_, transition,
        [&](uint32_t) { return lane_mask; }, block_detect_.data(),
        [](ScratchW<W>&, uint32_t, uint32_t) {}, n_threads);
    // A flop's D-pin fault has no site diff, only its direct capture term.
    for (size_t p = stemSlotsEnd(); p < stem_order_.size(); ++p) {
      const uint32_t ci = stem_order_[p];
      const InjectResultW<W> inj =
          inject(faults_->record(compute_faults_[ci]).fault);
      if (inj.direct_detect) {
        inj.direct_mask.store(block_detect_.data() + size_t{ci} * W);
      }
    }
    return mergeBlock(pattern_base, n_patterns, /*buffer_reach=*/false);
  }
  OBS_COUNT("fsim.blocks_per_fault", 1);

  // Phase 1 — compute: workers read the shared good machine and fault
  // records, write only their own scratch and their slice of the
  // position-indexed result buffers. No shared mutable state, no atomics.
  auto compute_range = [&](ScratchW<W>& sc, size_t lo, size_t hi) {
    for (size_t ci = lo; ci < hi; ++ci) {
      const Fault& f = faults_->record(compute_faults_[ci]).fault;
      const InjectResultW<W> inj = inject(f);
      LaneWord<W> detect = inj.direct_detect ? inj.direct_mask
                                             : LaneWord<W>{};
      if (inj.diff.any()) {
        const SeedW<W> seed{f.gate, inj.diff};
        // Every downstream diff stays within the seed's activated lanes,
        // and each of them retires once it detects. Reach observers
        // record the touched cone, which keeps every lane open.
        detect |= propagateSeedsW<W>(sc, {&seed, 1}, good_vals,
                                     observed_set_, /*forced=*/nullptr,
                                     /*whole_cone=*/capture_reach,
                                     /*open_lanes=*/inj.diff);
        block_had_diff_[ci] = 1;
        if (inline_observer) {
          reach_observer_->onFaultEffects(compute_faults_[ci], sc.written);
        } else if (buffer_reach) {
          block_touched_[ci].assign(sc.written.begin(), sc.written.end());
        }
      }
      detect.store(block_detect_.data() + ci * W);
    }
  };
  if (n_threads <= 1) {
    compute_range(static_cast<ScratchW<W>&>(*scratch_[0]), 0, n_compute);
  } else {
    pool_->run(n_threads, [&](unsigned shard) {
      const size_t lo = n_compute * shard / n_threads;
      const size_t hi = n_compute * (shard + 1) / n_threads;
      compute_range(static_cast<ScratchW<W>&>(*scratch_[shard]), lo, hi);
    });
  }

  return mergeBlock(pattern_base, n_patterns, buffer_reach);
}

size_t FaultSimulator::mergeBlock(int64_t pattern_base, int n_patterns,
                                  bool buffer_reach) {
  // Phase 2 — merge, serially and in fault-list order: detection
  // bookkeeping, observer callbacks, and n-detect dropping are
  // therefore identical for every thread count and shard layout — and,
  // because class members corrupt the circuit identically, for folding
  // on or off (merge_slot_ hands every member its class's mask). Width-
  // agnostic: rows of block_detect_ are lane_words_ words wide.
  const size_t w = lane_words_;
  const size_t n_active = active_.size();
  size_t newly_detected = 0;
  size_t out = 0;
  for (size_t ai = 0; ai < n_active; ++ai) {
    const size_t fi = active_[ai];
    if (buffer_reach && block_had_diff_[merge_slot_[ai]] != 0) {
      reach_observer_->onFaultEffects(fi, block_touched_[merge_slot_[ai]]);
    }
    const sim::LaneMask detect(
        block_detect_.data() + size_t{merge_slot_[ai]} * w, w);
    const bool hit = detect.any();
    if (hit && detection_observer_ != nullptr) {
      detection_observer_->onDetectionMask(fi, pattern_base, detect);
    }
    if (hit) {
      FaultRecord& rec = faults_->record(fi);
      const bool was_undetected = rec.status == FaultStatus::kUndetected;
      if (was_undetected) {
        faults_->recordDetection(fi, pattern_base + detect.firstLane());
        ++newly_detected;
        rec.detect_count += static_cast<uint32_t>(detect.popcount()) - 1;
      } else {
        rec.detect_count += static_cast<uint32_t>(detect.popcount());
      }
      if (opts_.drop_detected && rec.detect_count >= opts_.n_detect) {
        continue;  // dropped: stable-compact the survivors
      }
    }
    active_[out++] = fi;
  }
  OBS_COUNT("fsim.detections", newly_detected);
  OBS_COUNT("fsim.faults_dropped", n_active - out);
  active_.resize(out);
  // Rate-curve anchor: one sample per merged block, work-indexed by the
  // pattern count reached (a partial block counts only the patterns it
  // simulated). The merge is the quiescent point — workers have joined —
  // so this is where counter deltas are well-defined.
  OBS_SAMPLE("fsim.block", pattern_base + n_patterns);
  return newly_detected;
}

template <size_t W>
size_t FaultSimulator::simulateStagedW(
    int64_t pattern_base, int n_patterns,
    std::span<const std::vector<GateId>> stages) {
  const LaneWord<W> lane_mask =
      LaneWord<W>::firstLanes(static_cast<size_t>(n_patterns));
  const size_t n_active = active_.size();
  const size_t n_stages = stages.size();
  // Each flop's capture pulse (n_stages for none): a D-pin fault's
  // direct capture term lands there.
  std::vector<uint32_t> flop_stage(nl_->numGates(),
                                   static_cast<uint32_t>(n_stages));
  for (size_t j = 0; j < n_stages; ++j) {
    for (GateId ff : stages[j]) {
      if (flop_stage[ff.v] != n_stages) {
        throw std::invalid_argument("simulateBlockStuckAtStaged: DFF " +
                                    std::to_string(ff.v) +
                                    " is listed in two stages");
      }
      flop_stage[ff.v] = static_cast<uint32_t>(j);
    }
  }
  if (n_active == 0 || n_stages == 0) return 0;
  OBS_SPAN("fsim.staged_block");
  OBS_COUNT("fsim.staged_blocks", 1);

  // Good-machine capture frames: frame 0 is the loaded state; frame j+1
  // has stages[0..j] updated to their captured values.
  good_.eval();
  frame_vals_.resize(n_stages);
  frame_vals_[0].assign(good_.rawValues().begin(), good_.rawValues().end());
  for (size_t j = 0; j + 1 < n_stages; ++j) {
    for (GateId ff : stages[j]) {
      good_.setSourceRow(
          ff, frame_vals_[j].data() + size_t{nl_->gate(ff).fanins[0].v} * W);
    }
    good_.eval();
    frame_vals_[j + 1].assign(good_.rawValues().begin(),
                              good_.rawValues().end());
  }

  // Per-stage observation sets: detection counts at a stage DFF's D
  // driver at that stage's own pulse (and only if globally observed).
  stage_observed_.resize(n_stages);
  for (size_t j = 0; j < n_stages; ++j) {
    std::vector<uint8_t>& gates = stage_observed_[j].gates;
    gates.assign(nl_->numGates(), 0);
    for (GateId ff : stages[j]) {
      const GateId driver = nl_->gate(ff).fanins[0];
      if (observed_set_.gates[driver.v] != 0) gates[driver.v] = 1;
    }
    indexObservedOps(stage_observed_[j]);
  }
  assert(reach_observer_ == nullptr &&
         "reach observer is not supported in staged mode");
  prepareComputeSet();
  const size_t n_compute = compute_faults_.size();
  const unsigned n_threads = resolveThreads(n_compute);
  ensureWorkersW<W>(n_threads);
  block_detect_.assign(n_compute * W, 0);
  uint64_t* const detect = block_detect_.data();
  const bool use_stems = opts_.engine == BlockEngine::kStemCpt;

  const auto is_d_pin = [&](const Fault& f) {
    return f.pin != kOutputPin && nl_->gate(f.gate).kind == CellKind::kDff;
  };

  // Each compute slot's corrupted captures, held to the window end. The
  // lanes they cover are the slot's impure lanes: there the faulty
  // machine differs from the frame beyond the fault site.
  std::vector<std::vector<SeedW<W>>> held(n_compute);
  const auto impure = [&](uint32_t ci) {
    LaneWord<W> m;
    for (const SeedW<W>& h : held[ci]) m |= h.diff;
    return m;
  };
  // Later stages only add detections, so a lane that has detected stays
  // closed.
  const auto open_lanes = [&](uint32_t ci) {
    return lane_mask & ~LaneWord<W>::load(detect + size_t{ci} * W);
  };
  std::vector<uint64_t> stem_rows(use_stems ? n_compute * W : 0);
  std::vector<uint32_t> per_fault;
  // The stage's flops whose D driver the stage does not observe, with
  // that driver: a corrupted capture there reaches later stages unseen.
  // At other flops it only lands in lanes that have just detected.
  std::vector<std::pair<GateId, GateId>> carried;

  for (size_t j = 0; j < n_stages; ++j) {
    // Both passes of this stage propagate on its frame.
    ++frame_serial_;
    const uint64_t* const frame = frame_vals_[j].data();
    const ObservedSet& observed = stage_observed_[j];
    carried.clear();
    if (j + 1 < n_stages) {
      for (GateId ff : stages[j]) {
        const GateId driver = nl_->gate(ff).fanins[0];
        if (observed.gates[driver.v] == 0) carried.emplace_back(ff, driver);
      }
    }
    // The diff at `driver` after the worker's last propagation, which
    // ran on this frame.
    const auto captured = [&](const ScratchW<W>& sc, GateId driver) {
      const size_t at = size_t{driver.v} * W;
      return (LaneWord<W>::load(sc.vals.data() + at) ^
              LaneWord<W>::load(frame + at)) &
             lane_mask;
    };

    if (use_stems) {
      // In its pure lanes a fault is a plain site flip of this frame, so
      // the stem pass serves them, and a fault's captures are its share
      // of the captures its stem's propagation corrupts.
      simulateStemsW<W>(
          frame, observed, /*transition=*/false,
          [&](uint32_t ci) { return open_lanes(ci) & ~impure(ci); },
          stem_rows.data(),
          [&](ScratchW<W>& sc, uint32_t begin, uint32_t end) {
            for (const auto& [ff, driver] : carried) {
              const LaneWord<W> dd = captured(sc, driver);
              if (!dd.any()) continue;
              for (uint32_t p = begin; p < end; ++p) {
                const uint32_t ci = stem_order_[p];
                const LaneWord<W> cap =
                    LaneWord<W>::load(stem_rows.data() + size_t{ci} * W) & dd;
                // An output-stuck flop never presents its captured value.
                if (cap.any() &&
                    faults_->record(compute_faults_[ci]).fault.gate != ff) {
                  sc.captures.push_back({ci, {ff, cap}});
                }
              }
            }
          },
          n_threads);
      for (uint32_t p = 0; p < stemSlotsEnd(); ++p) {
        uint64_t* const row = detect + size_t{stem_order_[p]} * W;
        (LaneWord<W>::load(row) |
         LaneWord<W>::load(stem_rows.data() + size_t{stem_order_[p]} * W))
            .store(row);
      }
    }

    // The per-fault pass: the held captures plus the re-injected site,
    // over the impure lanes (every open lane under kPerFault, and for a
    // D-pin fault, which has no site diff).
    per_fault.clear();
    for (uint32_t ci = 0; ci < n_compute; ++ci) {
      const LaneWord<W> open = open_lanes(ci);
      if (open.any() &&
          (!use_stems || (open & impure(ci)).any() ||
           is_d_pin(faults_->record(compute_faults_[ci]).fault))) {
        per_fault.push_back(ci);
      }
    }
    auto per_fault_range = [&](ScratchW<W>& sc, size_t lo, size_t hi) {
      std::vector<SeedW<W>> seeds;
      for (size_t i = lo; i < hi; ++i) {
        const uint32_t ci = per_fault[i];
        const Fault& f = faults_->record(compute_faults_[ci]).fault;
        const bool dff_pin = is_d_pin(f);
        LaneWord<W> det = LaneWord<W>::load(detect + size_t{ci} * W);
        const LaneWord<W> lanes = use_stems && !dff_pin
                                      ? open_lanes(ci) & impure(ci)
                                      : open_lanes(ci);
        seeds.assign(held[ci].begin(), held[ci].end());
        if (!dff_pin) {
          // The stuck line is active in every frame; re-inject against
          // this frame's good values.
          const InjectResultW<W> inj = injectStuckAtW<W>(f, lanes, frame);
          if (inj.diff.any()) seeds.push_back({f.gate, inj.diff});
        }
        const bool propagated = !seeds.empty();
        if (propagated) {
          // Lanes retire as they detect. In the lanes still open the
          // worker's frame holds the faulty machine until its next
          // propagation, which the captured-diff collection below reads.
          det |= propagateSeedsW<W>(sc, seeds, frame, observed,
                                    dff_pin ? nullptr : &f,
                                    /*whole_cone=*/false, lanes);
        }
        if (!det.covers(lane_mask)) {
          // A fault's own flop is skipped: an output-stuck flop never
          // presents its captured value, and a D-pin fault's is forced.
          for (const auto& [ff, driver] : carried) {
            if (!propagated || ff == f.gate) continue;
            const LaneWord<W> dd = captured(sc, driver);
            if (dd.any()) sc.captures.push_back({ci, {ff, dd}});
          }
          if (dff_pin && flop_stage[f.gate.v] == j) {
            // The faulted pin captures the forced value regardless of
            // the net driving it; visible at its own scan unload.
            const GateId driver = nl_->gate(f.gate).fanins[0];
            const LaneWord<W> forced = f.type == FaultType::kStuckAt1
                                           ? LaneWord<W>::ones()
                                           : LaneWord<W>{};
            const LaneWord<W> dd =
                (LaneWord<W>::load(frame + size_t{driver.v} * W) ^ forced) &
                lane_mask;
            if ((nl_->gate(f.gate).flags & kFlagScanCell) != 0) det |= dd;
            if (dd.any()) sc.captures.push_back({ci, {f.gate, dd}});
          }
        }
        det.store(detect + size_t{ci} * W);
      }
    };
    const unsigned pf_threads = resolveThreads(per_fault.size());
    if (pf_threads <= 1) {
      per_fault_range(static_cast<ScratchW<W>&>(*scratch_[0]), 0,
                      per_fault.size());
    } else {
      pool_->run(pf_threads, [&](unsigned shard) {
        per_fault_range(static_cast<ScratchW<W>&>(*scratch_[shard]),
                        per_fault.size() * shard / pf_threads,
                        per_fault.size() * (shard + 1) / pf_threads);
      });
    }

    // Hold the stage's captures for the later stages. Both passes can
    // capture at one flop, in disjoint lanes; propagateSeedsW flips a
    // repeated seed gate in the union of their diffs.
    for (unsigned t = 0; t < n_threads; ++t) {
      auto& sc = static_cast<ScratchW<W>&>(*scratch_[t]);
      if (j + 1 < n_stages) {
        for (const auto& c : sc.captures) held[c.slot].push_back(c.flop);
      }
      sc.captures.clear();
    }
  }

  return mergeBlock(pattern_base, n_patterns, /*buffer_reach=*/false);
}

size_t FaultSimulator::simulateBlockStuckAt(int64_t pattern_base,
                                            int n_patterns) {
  if (n_patterns < 0) n_patterns = static_cast<int>(lanes());
  good_.eval();
  switch (lane_words_) {
    case 1:
      return simulateActiveFaultsW<1>(pattern_base, n_patterns, false);
    case 4:
      return simulateActiveFaultsW<4>(pattern_base, n_patterns, false);
    case 8:
      return simulateActiveFaultsW<8>(pattern_base, n_patterns, false);
    default:
      assert(false && "unsupported lane width");
      return 0;
  }
}

size_t FaultSimulator::simulateBlockTransition(int64_t pattern_base,
                                               int n_patterns) {
  if (n_patterns < 0) n_patterns = static_cast<int>(lanes());
  // Launch cycle from the currently loaded sources.
  good_.eval();
  launch_values_.assign(good_.rawValues().begin(), good_.rawValues().end());
  // Broadside follow-on capture: every DFF loads its D value, PIs held.
  for (GateId dff : nl_->dffs()) {
    good_.setSourceRow(
        dff,
        launch_values_.data() + size_t{nl_->gate(dff).fanins[0].v} *
                                    lane_words_);
  }
  good_.eval();
  switch (lane_words_) {
    case 1:
      return simulateActiveFaultsW<1>(pattern_base, n_patterns, true);
    case 4:
      return simulateActiveFaultsW<4>(pattern_base, n_patterns, true);
    case 8:
      return simulateActiveFaultsW<8>(pattern_base, n_patterns, true);
    default:
      assert(false && "unsupported lane width");
      return 0;
  }
}

size_t FaultSimulator::simulateBlockStuckAtStaged(
    int64_t pattern_base, int n_patterns,
    std::span<const std::vector<GateId>> stages) {
  switch (lane_words_) {
    case 1:
      return simulateStagedW<1>(pattern_base, n_patterns, stages);
    case 4:
      return simulateStagedW<4>(pattern_base, n_patterns, stages);
    case 8:
      return simulateStagedW<8>(pattern_base, n_patterns, stages);
    default:
      assert(false && "unsupported lane width");
      return 0;
  }
}

size_t FaultSimulator::classifyUntestable(
    std::span<const std::pair<GateId, bool>> held) {
  OBS_SPAN("fault.classify");
  using sim::kX3;
  std::vector<uint8_t> val(nl_->numGates(), kX3);
  for (const auto& [id, v] : held) val[id.v] = v ? 1 : 0;
  compiled_->eval3(val.data());
  // The select of a MUX, or kX3 for any other gate.
  const auto select = [&](const Gate& g) {
    return g.kind == CellKind::kMux2 ? val[g.fanins[2].v] : kX3;
  };

  // Gates with a path to the observation set: over X-valued gates only,
  // into a held-select MUX through its selected input only (`live`), or
  // over every gate (`structural`).
  const auto walk = [&](bool use_held) {
    std::vector<uint8_t> reached(nl_->numGates(), 0);
    std::vector<GateId> stack;
    const auto visit = [&](GateId g) {
      if (reached[g.v] == 0 && (!use_held || val[g.v] == kX3)) {
        reached[g.v] = 1;
        stack.push_back(g);
      }
    };
    for (GateId o : observed_) visit(o);
    while (!stack.empty()) {
      const Gate& g = nl_->gate(stack.back());
      stack.pop_back();
      if (!isCombinational(g.kind)) continue;
      if (const uint8_t sel = use_held ? select(g) : kX3; sel != kX3) {
        visit(g.fanins[sel]);
      } else {
        for (GateId f : g.fanins) visit(f);
      }
    }
    return reached;
  };
  const std::vector<uint8_t> live = walk(true);
  const std::vector<uint8_t> structural = held.empty() ? live : walk(false);

  uint64_t tied = 0;
  uint64_t blocked = 0;
  for (size_t fi = 0; fi < faults_->size(); ++fi) {
    FaultRecord& rec = faults_->record(fi);
    if (rec.status != FaultStatus::kUndetected) continue;
    const Fault& f = rec.fault;
    const Gate& g = nl_->gate(f.gate);
    const bool on_pin = f.pin != kOutputPin;
    const uint8_t site = val[on_pin ? g.fanins[f.pin].v : f.gate.v];
    const bool stuck = f.type == FaultType::kStuckAt0 ||
                       f.type == FaultType::kStuckAt1;
    const uint8_t stuck_value = f.type == FaultType::kStuckAt1 ? 1 : 0;
    if (site != kX3 && (!stuck || site == stuck_value)) {
      rec.status = FaultStatus::kUntestable;
      ++tied;
      continue;
    }
    // Forcing a site held at the opposite value is no refinement of its
    // 01X value, so held gates downstream may flip: only the structural
    // walk bounds where that fault effect goes.
    const std::vector<uint8_t>& reach = site == kX3 ? live : structural;
    bool observable;
    if (!on_pin) {
      observable = reach[f.gate.v] != 0;
    } else if (g.kind == CellKind::kDff) {
      observable = (g.flags & kFlagScanCell) != 0;
    } else {
      const uint8_t sel = site == kX3 ? select(g) : kX3;
      observable = reach[f.gate.v] != 0 && (sel == kX3 || sel == f.pin);
    }
    if (!observable) {
      rec.status = FaultStatus::kUntestable;
      ++blocked;
    }
  }
  OBS_COUNT("fault.classified_tied", tied);
  OBS_COUNT("fault.classified_blocked", blocked);
  const size_t marked = tied + blocked;
  if (marked > 0) refreshActiveSet();
  return marked;
}

}  // namespace lbist::fault
