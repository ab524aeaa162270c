// Top-up ATPG flow (paper section 2.1 "top-up ATPG patterns" and the
// Table 1 rows "# of Top-Up Patterns" / "Fault Coverage 2").
//
// After the random BIST phase, every still-undetected fault is targeted
// with PODEM. Targets are picked serially in fault-list order, cube
// generation for a round is sharded across the core::ThreadPool workers
// (one PODEM engine with private scratch per worker), and a serial merge
// in fault-list order applies statuses, static compaction, random fill,
// and the batch fault simulation — so the generated pattern set, the
// fault-sim drop order, and the coverage report are bit-identical for
// every worker-thread count (the same contract the PPSFP fault simulator
// established). A final reverse-order fault-simulation pass drops
// patterns whose detections are fully covered by later patterns. The
// resulting deterministic patterns are applied through the input
// selector in external mode.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/podem.hpp"
#include "atpg/sat.hpp"
#include "fault/fsim.hpp"

namespace lbist::atpg {

/// A fully specified top-up pattern: one value word per assignable source
/// (bit 0 used; stored expanded for straightforward chain serialization).
struct TopUpPattern {
  std::vector<GateId> sources;
  std::vector<uint8_t> values;
};

/// Which test-generation engine runTopUp drives as the primary. Both are
/// deterministic and produce valid cubes; kCompiled is the production
/// PODEM, and kSat the CDCL miter engine whose kUntestable verdicts are
/// completed proofs (recorded as FaultStatus::kRedundant, never
/// kUntestable).
enum class AtpgEngine : uint8_t {
  kCompiled,
  kSat,
};

/// Flow configuration. Every knob preserves the thread-count
/// bit-identity contract.
struct TopUpConfig {
  /// Search-effort knobs handed to every Podem instance.
  AtpgOptions atpg;
  /// Seed for the don't-care random fill (consumed in serial merge
  /// order, so fills are thread-count-invariant).
  uint64_t fill_seed = 0xF111ULL;
  /// Stop after this many merged patterns (0 = unlimited). Checked per
  /// round, so the final count may overshoot by at most one batch.
  size_t max_patterns = 0;
  /// Worker threads for cube generation (0 = hardware concurrency).
  /// Pattern sets, statuses, and statistics are bit-identical for every
  /// value.
  uint32_t threads = 1;
  /// Reverse-order fault-simulation compaction: after the main loop,
  /// patterns are credited in reverse order against the faults top-up
  /// detected, and patterns contributing no still-needed detection are
  /// dropped. Coverage is unchanged by construction, and per-fault
  /// detection multiplicity is preserved up to the driving simulator's
  /// n-detect target (capped at what the uncompacted set delivered).
  bool reverse_compact = true;
  /// Primary engine to drive (see AtpgEngine).
  AtpgEngine engine = AtpgEngine::kCompiled;
  /// Per-fault escalation: when the primary engine aborts a target
  /// (backtrack budget exhausted), hand the same fault to a SatEngine.
  /// A SAT cube rescues the target; UNSAT promotes it to the
  /// proved-redundant status. Off by default so budget-exhaustion
  /// behavior (and the fault-injection drills that rely on it) is
  /// opt-in, not silently rewritten. No-op when engine == kSat.
  bool sat_escalate = false;
};

/// Flow outcome: the deterministic pattern set plus targeting
/// statistics (renderable via core::renderAtpgStats).
struct TopUpResult {
  /// Final deterministic pattern set (after compaction passes), in
  /// generation order.
  std::vector<TopUpPattern> patterns;
  size_t targeted = 0;             // faults handed to the primary engine
  size_t atpg_detected = 0;        // faults any engine found cubes for
  size_t fortuitous_detected = 0;  // dropped by simulating stored patterns
  size_t proven_untestable = 0;
  /// Faults ending FaultStatus::kRedundant: a completed-search proof
  /// (SAT UNSAT verdict, structural miter contradiction) that no test
  /// exists. Disjoint from proven_untestable, which keeps PODEM's
  /// exhausted-tree accounting.
  size_t proven_redundant = 0;
  size_t aborted = 0;
  size_t backtracks = 0;  // total chronological backtracks over all targets
  /// Targets the escalation path handed to the SAT engine after a
  /// primary-engine abort (TopUpConfig::sat_escalate).
  size_t sat_escalated = 0;
  /// Escalated targets the SAT engine produced a cube for.
  size_t sat_detected = 0;
  /// CDCL conflicts summed over every SAT solve (escalated or primary).
  size_t sat_conflicts = 0;
  /// Learned clauses summed over every SAT solve.
  size_t sat_learned = 0;

  /// One aborted PODEM target: which fault exhausted its budget and how
  /// much it burned doing so.
  struct TargetAbort {
    size_t fault_index = 0;  // index into the flow's FaultList
    size_t backtracks = 0;   // backtracks consumed by the failed search
  };
  /// Every budget-exhausted target, in fault-list order (thread-count
  /// invariant) — the structured form of `aborted`, so callers can
  /// escalate specific stranded faults (bigger budget, different
  /// engine) instead of re-deriving them from statuses.
  std::vector<TargetAbort> aborted_targets;
  /// Wall time spent inside PODEM generate() calls, summed over all
  /// targets and workers — the engine-only cost, excluding fault
  /// simulation and compaction (benches divide cubes by this). Timing
  /// is measurement, not behavior: it is the one field exempt from the
  /// thread-count bit-identity contract.
  double atpg_seconds = 0.0;
  /// Pattern count before reverse-order compaction (equals
  /// patterns.size() when TopUpConfig::reverse_compact is off).
  size_t patterns_before_compact = 0;
  fault::Coverage final_coverage;
};

/// Runs the flow. `faults` carries the random-phase statuses in and the
/// final statuses out. `fsim` must observe the same nets the BIST ODC
/// observes; `assignable` lists scan-cell outputs plus unwrapped PIs.
/// Results are bit-identical for every TopUpConfig::threads value.
[[nodiscard]] TopUpResult runTopUp(const Netlist& nl,
                                   fault::FaultList& faults,
                                   fault::FaultSimulator& fsim,
                                   const std::vector<GateId>& observed,
                                   const std::vector<GateId>& assignable,
                                   const std::vector<std::pair<GateId, bool>>&
                                       fixed_sources,
                                   const TopUpConfig& cfg = {});

}  // namespace lbist::atpg
