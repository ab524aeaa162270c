// Parallel-pattern single-fault-propagation (PPSFP) fault simulator.
//
// One call simulates a block of up to 64 * lane_words patterns (the lane
// fabric of sim/lane.hpp: every bit lane of a LaneWord<W> block is an
// independent pattern, W in {1, 4, 8}): a good-machine pass, then every
// live fault is injected, and level-ordered event-driven propagation of
// faulty/good difference blocks accumulates detection masks at the
// observation set (primary outputs, scan-cell capture pins, DFT
// observation points). The default engine traces each fault's critical
// path to its fanout-free-region stem and propagates each stem once per
// block for all of its region's faults (see BlockEngine). The staged
// capture path runs that stem pass once per capture frame.
//
// The same engine serves both fault families:
//  * stuck-at:   site forced to a constant,
//  * transition: launch-on-capture double capture (paper section 2.2) —
//    the launch cycle is the first capture pulse; a site that transitions
//    between the two captures is forced to hold its launch value in the
//    second capture, modelling a gross delay defect at functional speed.
//
// Dispatch: each per-block call shards that block's faults across the
// worker pool, and a serial merge in fault-list order applies the
// results, so they are bit-identical for every thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"
#include "fault/collapse.hpp"
#include "fault/fault.hpp"
#include "sim/lane.hpp"
#include "sim/sim2v.hpp"

namespace lbist::fault {

/// Callback receiving, per fault and per block, every gate whose value
/// the fault corrupted in at least one pattern lane. Drives the
/// fault-simulation-guided test-point insertion (paper section 2.1).
class ReachObserver {
 public:
  virtual ~ReachObserver() = default;
  /// `fault_index` is the index into the FaultList; `touched` lists
  /// corrupted gates including the fault site itself.
  virtual void onFaultEffects(size_t fault_index,
                              std::span<const GateId> touched) = 0;
};

/// Callback receiving, per simulated block and in fault-list order, the
/// per-pattern-lane detection mask of every fault that produced one.
/// Fired from the serial merge phase, so the stream is bit-identical for
/// every worker-thread count. Drives the diagnosis response dictionaries
/// (src/diag/dictionary); record with dropping disabled to get complete
/// per-pattern rows.
class DetectionObserver {
 public:
  virtual ~DetectionObserver() = default;
  /// Lane l of `detect_mask` set means fault `fault_index` is detected by
  /// pattern `pattern_base + l` at the observation set. The mask view is
  /// laneWords() words wide and borrows the engine's buffer — valid only
  /// for the duration of the call.
  virtual void onDetectionMask(size_t fault_index, int64_t pattern_base,
                               sim::LaneMask detect_mask) = 0;
};

/// Per-block detection engine. Both produce bit-identical masks.
///  * kStemCpt (the default) is critical path tracing per fanout-free
///    region (FFR): a fault inside an FFR leaves it only through the
///    region's stem, in the lanes where the fault's site diff passes
///    every gate of the single-use chain up to the stem (the product of
///    their pass masks, memoized per gate and block). Each stem is
///    propagated once per block with only the union of its faults'
///    masked site diffs open, and each fault's mask is its masked site
///    diff & that propagation's detect block — exact by lane
///    independence. Staged blocks run this pass once per capture frame
///    over each fault's lanes that hold no corrupted capture from an
///    earlier stage; the lanes that do, and flop D-pin faults, take
///    the per-fault pass.
///  * kPerFault event-propagates every live fault class through its
///    whole output cone (in staged blocks, every lane goes through the
///    per-fault pass). It is the reference the differential tests
///    compare kStemCpt against, and reach observers force it (they
///    need each fault's real cone).
enum class BlockEngine : uint8_t {
  kPerFault,
  kStemCpt,
};

/// Engine configuration. Every field carries an explicit default below,
/// so aggregate initialization (e.g. the seed-era `FsimOptions{1, false}`
/// spelling) leaves the unnamed tail at those defaults — such callers get
/// collapse = on, the stem block engine, and 64-lane blocks. All of those
/// are exact — results are bit-identical either way — but profiles
/// change; spell out `.collapse` / `.engine` / `.lane_words` to pin the
/// work distribution. Field validity (supported lane width, non-zero
/// n-detect) is checked centrally by validateFsimOptions, which the
/// simulator constructor calls.
struct FsimOptions {
  /// Drop a fault after this many detections. Must be >= 1.
  uint32_t n_detect = 1;
  /// When false, detected faults stay in the simulated set (response
  /// dictionaries and compaction analyses need complete masks).
  bool drop_detected = true;
  /// Worker threads for the per-fault propagation loop. 0 means hardware
  /// concurrency. Results are bit-identical for every thread count: the
  /// workers only compute per-fault detection masks, and a serial merge
  /// in fault-list order applies detections, observer callbacks, and
  /// n-detect dropping.
  uint32_t threads = 1;
  /// Below this many live faults per worker the engine uses fewer shards —
  /// thread dispatch overhead beats the propagation work. Results are
  /// unaffected; tests lower it to force the parallel path on tiny nets.
  uint32_t min_faults_per_thread = 256;
  /// Structural equivalence folding (fault/collapse.hpp): per block the
  /// engine propagates one member of each equivalence class among the
  /// live faults and every live member shares the computed detection
  /// mask. Folding is exact — class members corrupt every observable
  /// net identically — so per-fault masks, n-detect drop order, and
  /// observer streams are bit-identical with this on or off; only the
  /// work shrinks. Ignored while a reach observer is attached (a folded
  /// fault would be credited its representative's reach cone).
  bool collapse = true;
  /// See BlockEngine. Reach observers force kPerFault (they need real
  /// per-fault cones). Tests pin kPerFault as the reference for
  /// kStemCpt.
  BlockEngine engine = BlockEngine::kStemCpt;
  /// Lane-block width in 64-bit words: each simulated block carries
  /// 64 * lane_words patterns (sim/lane.hpp; one of 1, 4, 8). Fixed for
  /// the simulator's lifetime. At a given width, results are invariant
  /// across threads and engines; across widths, no-drop mask rows,
  /// coverage, and first-detect patterns are invariant, but detect
  /// counts at drop time may differ (a wider block merges more patterns
  /// at once before the drop decision).
  uint32_t lane_words = 1;
};

/// Central FsimOptions validity check: throws std::invalid_argument on
/// an unsupported lane width or n_detect == 0. The engine/collapse/
/// observer interplay needs no rejection — every combination is
/// mask-exact — but the resolution rules live in one place each:
/// prepareComputeSet (folding) and the per-block engine selection in
/// the simulate paths.
void validateFsimOptions(const FsimOptions& opts);

/// The PPSFP engine of the file comment, bound to one netlist, fault
/// list and observation set.
class FaultSimulator {
 public:
  /// `observed` is the set of gates whose output values the tester can
  /// see (PO drivers, scan-capture D drivers, observation-point taps).
  FaultSimulator(const Netlist& nl, FaultList& faults,
                 std::vector<GateId> observed, FsimOptions opts = {});

  // Not movable: compiled_ points into good_, and observers/netlist/
  // fault-list pointers make relocation semantics a trap.
  FaultSimulator(const FaultSimulator&) = delete;
  FaultSimulator& operator=(const FaultSimulator&) = delete;
  FaultSimulator(FaultSimulator&&) = delete;
  FaultSimulator& operator=(FaultSimulator&&) = delete;

  ~FaultSimulator();

  /// Lane-block width in 64-bit words (FsimOptions::lane_words).
  [[nodiscard]] size_t laneWords() const { return lane_words_; }
  /// Patterns per simulated block (64 * laneWords()).
  [[nodiscard]] size_t lanes() const { return lane_words_ * 64; }

  /// Broadcast source setting for the current block (PIs and DFF
  /// outputs): one 64-bit word replicated across the block — the right
  /// semantic for pins constant across lanes. Per-pattern stimulus
  /// beyond 64 lanes goes through setSourceRow/setSourceWord.
  void setSource(GateId id, uint64_t w) { good_.setSource(id, w); }
  /// Sets word `wi` of a source gate's lane block.
  void setSourceWord(GateId id, size_t wi, uint64_t w) {
    good_.setSourceWord(id, wi, w);
  }
  /// Copies a full laneWords()-wide row into a source gate's block.
  void setSourceRow(GateId id, const uint64_t* row) {
    good_.setSourceRow(id, row);
  }

  /// Stuck-at block: patterns are lanes [0, n_patterns) of the current
  /// sources, n_patterns <= lanes(). Returns the number of newly
  /// detected faults. Pattern indices recorded into the fault list are
  /// pattern_base + lane.
  size_t simulateBlockStuckAt(int64_t pattern_base, int n_patterns = -1);

  /// Ordered-capture stuck-at block, modeling the session's staggered
  /// capture window: stages[j] lists every DFF clocked by capture pulse
  /// j (one stage per clock domain, in capture order). Stage 0 captures
  /// from the loaded sources; later stages see earlier stages' freshly
  /// captured state, and fault effects hop stages through corrupted
  /// captured values — the cross-domain mechanism a simultaneous-capture
  /// model misses. Detection is recorded at the D drivers of observed
  /// stage DFFs at their own capture pulse; observed gates not driving
  /// any stage DFF (e.g. raw primary outputs) are ignored. Each DFF is
  /// in at most one stage; throws std::invalid_argument, before any
  /// work, when one is listed twice. The reach observer is not
  /// supported in this mode. With a single stage this is equivalent to
  /// simulateBlockStuckAt over a scan observation set.
  ///
  /// Per frame, the stem engine serves every fault's "pure" lanes (open
  /// lanes with no corrupted capture from an earlier stage, where the
  /// fault is a plain site flip); each fault's share of its stem's
  /// propagation also yields its captures at the stage's flops whose D
  /// driver the stage does not observe. Lanes that hold a corrupted
  /// capture, and flop D-pin faults, propagate per fault: the held
  /// captures plus the re-injected site.
  size_t simulateBlockStuckAtStaged(
      int64_t pattern_base, int n_patterns,
      std::span<const std::vector<GateId>> stages);

  /// Transition block (LOC broadside): sources currently loaded are the
  /// *launch* state; the engine computes the follow-on capture cycle
  /// itself (PIs held). Returns newly detected faults.
  size_t simulateBlockTransition(int64_t pattern_base, int n_patterns = -1);

  /// Marks kUntestable every kUndetected fault that no pattern holding
  /// the `held` sources at their values can detect. One 01X pass
  /// (sim::CompiledNetlist::eval3) runs with the held sources at their
  /// values and every other source at X, constant cells included. A
  /// walk then goes back from the observation set over X-valued gates
  /// only; it enters a MUX whose select is held through the selected
  /// input alone. A fault is
  ///  * tied when its site (a pin fault's driver) is held at the stuck
  ///    value, or at either value for a transition fault, since a held
  ///    line never transitions;
  ///  * blocked when its site is X and the walk never reached it. A pin
  ///    fault is blocked when the walk never reached its gate (held
  ///    gates are never reached) or the pin is a held-select MUX's
  ///    unselected input; a flop's D-pin fault when the flop is not a
  ///    scan cell.
  /// The pass is sound because 01X simulation is monotone: forcing an
  /// X-valued site to 0 or 1 cannot change a held value downstream, so
  /// a fault effect travels over X-valued gates only. Forcing a site
  /// held at the opposite value can, so such a fault is blocked only
  /// when no path at all leads from its gate to the observation set;
  /// the rest are left to the engines. With nothing held every gate is
  /// X, and the pass marks exactly the faults with no structural path
  /// to the observation set. Returns how many faults were marked.
  size_t classifyUntestable(
      std::span<const std::pair<GateId, bool>> held = {});

  /// Number of faults still live (undetected and undropped).
  [[nodiscard]] size_t liveFaultCount() const { return active_.size(); }

  /// Live fault indices in simulation order (stable across blocks:
  /// dropping compacts without reordering survivors).
  [[nodiscard]] std::span<const size_t> activeFaults() const {
    return active_;
  }

  /// Re-collects live faults from the fault list (after external status
  /// changes, e.g. ATPG detections or TPI re-targeting).
  void refreshActiveSet();

  /// Restricts simulation to an explicit fault subset (TPI guidance
  /// samples the undetected residue at large scale).
  void restrictActiveSet(std::span<const size_t> fault_indices);

  /// Attaches the per-fault reach callback (nullptr detaches). Forces
  /// the per-fault engine and disables class folding while attached.
  void setReachObserver(ReachObserver* obs) { reach_observer_ = obs; }
  /// Attaches the per-fault detection-mask callback (nullptr detaches);
  /// fired from the serial merge, so streams are thread-count-invariant.
  void setDetectionObserver(DetectionObserver* obs) {
    detection_observer_ = obs;
  }

  /// Changes the worker-thread count between blocks (0 = hardware
  /// concurrency). Detection results are unaffected by this setting.
  void setThreads(uint32_t threads);

  /// Effective engine options (n-detect target, threading, folding) —
  /// consumers like top-up reverse compaction read the n-detect target
  /// here to preserve detection multiplicity.
  [[nodiscard]] const FsimOptions& options() const { return opts_; }

  /// Equivalence/dominance analysis (empty when FsimOptions::collapse is
  /// off). Statistics feed core::renderCollapseStats; dominancePrunable
  /// drives top-up ATPG target deferral.
  [[nodiscard]] const CollapseMap& collapseMap() const {
    return collapse_map_;
  }
  /// collapseMap().stats().
  [[nodiscard]] const CollapseStats& collapseStats() const {
    return collapse_map_.stats();
  }

  /// The good-machine simulator (current block's fault-free values).
  [[nodiscard]] const sim::Simulator2v& good() const { return good_; }
  /// The fault list this simulator decides (uncollapsed universe).
  [[nodiscard]] const FaultList& faults() const { return *faults_; }
  /// The observation set detection masks accumulate over.
  [[nodiscard]] std::span<const GateId> observed() const { return observed_; }

 private:
  /// Injection outcome for one fault against one good frame: the
  /// faulty-XOR-good block at the site output plus the direct capture
  /// term of DFF-pin faults.
  template <size_t W>
  struct InjectResultW {
    sim::LaneWord<W> diff;
    bool direct_detect = false;  // site itself observed (e.g. DFF D pin)
    sim::LaneWord<W> direct_mask;
  };

  /// A fault-effect source for one propagation frame: `gate`'s value
  /// differs from the frame's good machine in the `diff` lanes.
  template <size_t W>
  struct SeedW {
    GateId gate;
    sim::LaneWord<W> diff;
  };

  /// An observation set in the two forms the wheel reads: a flag per
  /// gate (a seed may be a source, which has no op) and a bit per
  /// compiled op (the drain's observed-first order inside a level).
  struct ObservedSet {
    std::vector<uint8_t> gates;
    std::vector<uint64_t> ops;
  };

  /// Width-independent per-worker propagation state, the event wheel:
  ///  * `vals`, a flat copy of the pass's gate-value frame (gate-major,
  ///    stride laneWords()) that each propagation overwrites in place,
  ///    so a fanin read is one load. `frame_serial` names the frame it
  ///    copies; a propagation after frame_serial_ has moved on copies
  ///    its frame again.
  ///  * `written`, the gates the last propagation wrote. The next
  ///    propagation on the same frame restores them from it first, so
  ///    until then `vals` still holds the last faulty machine. It is
  ///    also a reach observer's touched list.
  ///  * `pending`, one bit per compiled op: the scheduled gates. The op
  ///    stream is level-major, so draining the bits with countr_zero
  ///    visits levels in order; inside a level the observed ops go
  ///    first.
  /// The width-specific capture log lives in ScratchW<W> (fsim.cpp).
  struct ScratchBase {
    virtual ~ScratchBase() = default;
    std::vector<uint64_t> vals;
    uint64_t frame_serial = 0;
    std::vector<GateId> written;
    std::vector<uint64_t> pending;
    std::vector<uint32_t> chain;  // FFR gates whose mask ffrMaskW fills
  };
  template <size_t W>
  struct ScratchW;

  /// Fills `set.ops` from `set.gates`.
  void indexObservedOps(ObservedSet& set) const;

  template <size_t W>
  InjectResultW<W> injectStuckAtW(const Fault& f,
                                  const sim::LaneWord<W>& lane_mask,
                                  const uint64_t* good_vals) const;
  template <size_t W>
  InjectResultW<W> injectTransitionW(const Fault& f,
                                     const sim::LaneWord<W>& lane_mask,
                                     const uint64_t* good_vals,
                                     const uint64_t* launch_vals) const;
  /// `id`'s output with fanin `pin` forced, its other fanins read from
  /// `vals` (a frame, gate-major, stride W).
  template <size_t W>
  sim::LaneWord<W> evalPinForcedW(GateId id, uint8_t pin,
                                  const sim::LaneWord<W>& forced,
                                  const uint64_t* vals) const;

  /// Propagates the seeds' diffs through their cones against the
  /// `frame` good machine (gate-major, stride W), on sc's flat copy of
  /// it; returns the detection block accumulated over `observed`. Only
  /// the `open_lanes` propagate: seed diffs are masked to them, and
  /// seeds that share a gate flip it in the union of their diffs. A lane
  /// retires once it detects — every later diff is ANDed with the lanes
  /// still open — and the wheel stops when none is. That is exact by
  /// lane independence: what a detected lane does downstream cannot
  /// change its result. Until the next propagation on `sc`, sc.vals
  /// holds the faulty machine in the lanes still open at the end; in a
  /// retired lane a gate may hold either machine's value (the faulty
  /// one where it was written before the lane retired). sc.written
  /// lists the gates the propagation wrote, seeds first. With
  /// `whole_cone` (reach observers) no lane retires, so that list is the
  /// complete cone. When `forced` names a stuck-at fault,
  /// re-evaluations of its gate keep the fault applied (needed when
  /// another seed's cone feeds the fault site).
  template <size_t W>
  sim::LaneWord<W> propagateSeedsW(ScratchW<W>& sc,
                                   std::span<const SeedW<W>> seeds,
                                   const uint64_t* frame,
                                   const ObservedSet& observed,
                                   const Fault* forced, bool whole_cone,
                                   const sim::LaneWord<W>& open_lanes) const;

  template <size_t W>
  size_t simulateActiveFaultsW(int64_t pattern_base, int n_patterns,
                               bool transition);
  template <size_t W>
  size_t simulateStagedW(int64_t pattern_base, int n_patterns,
                         std::span<const std::vector<GateId>> stages);

  /// Builds the per-block compute set: with folding, the unique class
  /// representatives of the live faults (merge_slot_ maps each live
  /// fault to its class's compute slot); without, the live faults
  /// themselves (identity mapping).
  void prepareComputeSet();

  /// Groups the compute slots by FFR stem into stem_order_ /
  /// live_stems_ / bucket_end_, with the slots of flop D-pin faults
  /// (whose only effect is their direct capture term) after the last
  /// bucket. Starts a new FFR memo epoch.
  void bucketByStem();

  /// Offset in stem_order_ where the flop D-pin slots start.
  [[nodiscard]] uint32_t stemSlotsEnd() const {
    return live_stems_.empty() ? 0 : bucket_end_[live_stems_.back()];
  }

  /// Lanes in which a flip of gate `g` reaches its FFR stem: the product
  /// of the pass masks along g's single-use chain (all lanes for a
  /// stem). Memoized in obs_out_ rows stamped with ffr_serial_; the
  /// caller must own g's stem for the block.
  template <size_t W>
  sim::LaneWord<W> ffrMaskW(ScratchW<W>& sc, uint32_t g,
                            const uint64_t* good_vals);

  /// The kStemCpt pass over one frame (`frame`, gate-major, stride W),
  /// shared by grading and staged blocks. It buckets the compute slots
  /// by stem, then:
  ///  1. injects each stem slot's fault in the lanes `open_lanes(ci)`
  ///     returns and keeps the lanes of its site diff that reach the
  ///     stem (its share, stored in `rows`, stride W);
  ///  2. propagates each stem with a non-empty union of shares once,
  ///     detecting at `observed`; then `capture(sc, begin, end)` runs
  ///     while sc.vals holds that stem's faulty machine and rows still
  ///     hold the shares of stem_order_[begin, end); last, each share
  ///     is ANDed with the observed lanes.
  /// Flop D-pin slots (from stemSlotsEnd() on) are left to the caller.
  /// Workers own whole stems, so no obs_out_ row or `rows` slot is
  /// written by two of them. Step 1 runs on `n_threads` workers. Since
  /// a worker's first propagation copies the whole frame, step 2 runs
  /// on one worker per numGates / 64 stems that propagate, at least one
  /// and at most `n_threads`.
  template <size_t W, class OpenLanes, class Capture>
  void simulateStemsW(const uint64_t* frame, const ObservedSet& observed,
                      bool transition,
                      const OpenLanes& open_lanes, uint64_t* rows,
                      const Capture& capture, unsigned n_threads);

  /// Serial phase-2 merge over block_detect_: detection bookkeeping,
  /// observer callbacks, n-detect dropping — in fault-list order.
  /// Width-agnostic: walks lane_words_-wide rows. The block's
  /// `n_patterns` only anchor its series sample.
  size_t mergeBlock(int64_t pattern_base, int n_patterns, bool buffer_reach);

  [[nodiscard]] unsigned resolveThreads(size_t n_work_units) const;
  template <size_t W>
  void ensureWorkersW(unsigned threads);

  const Netlist* nl_;
  FaultList* faults_;
  FsimOptions opts_;
  size_t lane_words_;
  sim::Simulator2v good_;
  // Compiled tables (owned by good_): the level-major opcode stream,
  // fanin CSR and comb-fanout CSR that the event wheel walks.
  const sim::CompiledNetlist* compiled_;
  std::vector<GateId> observed_;
  ObservedSet observed_set_;

  // Launch-cycle good values for transition simulation (stride W).
  std::vector<uint64_t> launch_values_;

  // Staged capture: good-machine values per capture frame (stride W),
  // and per-stage observation sets (D drivers of that stage's observed
  // DFFs).
  std::vector<std::vector<uint64_t>> frame_vals_;
  std::vector<ObservedSet> stage_observed_;

  // One propagation scratch per worker (index 0 doubles as the serial
  // path's scratch), created on demand. frame_serial_ moves on with each
  // frame a pass propagates on: a block's good machine, or one capture
  // frame of a staged block. A scratch whose copy is older copies the
  // frame again.
  std::vector<std::unique_ptr<ScratchBase>> scratch_;
  uint64_t frame_serial_ = 0;
  std::unique_ptr<core::ThreadPool> pool_;

  // Stem engine tables. Static: fanout-free chain links (the single
  // consuming gate and slot of every non-stem net) and each gate's FFR
  // stem (ffr_stem_[g] == g for a stem). Per stem pass (one per grading
  // block, one per capture frame of a staged block), a gate's
  // ffr_stamp_ equals ffr_serial_ once its obs_out_ row (stride W) holds
  // its FFR mask against the pass's frame (non-stem) or once its bucket
  // is live (stem); a live stem's row holds the union of its faults'
  // masked site diffs. stem_order_ lists the compute slots grouped by
  // stem, live_stems_ the stems in first-seen order, and bucket_end_
  // each live stem's end offset in stem_order_.
  std::vector<uint32_t> single_use_;
  std::vector<uint32_t> single_slot_;
  std::vector<uint32_t> ffr_stem_;
  std::vector<uint32_t> ffr_stamp_;
  uint32_t ffr_serial_ = 0;
  std::vector<uint64_t> obs_out_;
  std::vector<uint32_t> bucket_end_;
  std::vector<uint32_t> stem_order_;
  std::vector<uint32_t> live_stems_;

  // Equivalence folding (empty map when opts_.collapse is off).
  CollapseMap collapse_map_;
  std::vector<size_t> compute_faults_;  // fault indices simulated this block
  std::vector<uint32_t> merge_slot_;    // active position -> compute slot
  std::vector<uint32_t> rep_slot_;      // per-fault slot scratch (kNoSlot)

  // Per-block compute results, indexed by position in `compute_faults_`
  // (block_detect_ stride W).
  std::vector<uint64_t> block_detect_;
  std::vector<uint8_t> block_had_diff_;
  std::vector<std::vector<GateId>> block_touched_;

  std::vector<size_t> active_;
  ReachObserver* reach_observer_ = nullptr;
  DetectionObserver* detection_observer_ = nullptr;
};

/// Builds the canonical observation set for a (BIST-ready) netlist:
/// drivers of primary outputs plus drivers of every scan-cell D pin.
/// Observation points are scan cells themselves, so they are covered by
/// the scan-cell rule.
[[nodiscard]] std::vector<GateId> defaultObservationSet(const Netlist& nl);

/// Observation set treating every flip-flop as observable (PO drivers plus
/// all DFF D drivers) — the convention for raw, pre-DFT netlists where no
/// scan flags exist yet (reference circuits, benches).
[[nodiscard]] std::vector<GateId> fullObservationSet(const Netlist& nl);

}  // namespace lbist::fault
