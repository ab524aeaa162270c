// SAT-based ATPG: a self-contained CDCL solver plus a PodemEngine-
// compatible wrapper over the dual-rail miter encoder (atpg/cnf.hpp).
//
// This is the hard-tail engine: PODEM's chronological backtracking
// enumerates exponentially on reconvergent targets and aborts at its
// backtrack budget, while conflict-driven clause learning refutes or
// solves the same miters in a handful of conflicts. The top-up driver
// escalates PODEM-aborted targets here (TopUpConfig::sat_escalate); an
// UNSAT answer is a proof that no three-valued test exists and is
// promoted to the proved-redundant fault status, never the soft
// "untestable under this budget" abort.
//
// The solver is deliberately minimal but real: two-literal watches with
// blockers, 1-UIP conflict analysis, VSIDS decision order, phase
// saving, and Luby restarts — and deliberately deterministic: no
// randomness, no clause deletion, ties broken by variable index, so
// every solve is a pure function of the formula and the conflict
// budget. That purity is what lets the escalation path stay
// bit-identical across top-up worker counts.
//
// Both halves are reusable: CdclSolver::load resets the search state
// and reloads a formula into the arrays of earlier loads, and a
// SatEngine keeps one encoder and one solver for its whole life. Only
// buffers carry over from one target to the next — no learned clause,
// activity or phase does — so every generate() answers exactly as a
// fresh engine would, whatever it solved before.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/cnf.hpp"
#include "atpg/podem.hpp"
#include "fault/fault.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"

namespace lbist::atpg {

/// Verdict of one CDCL solve.
enum class SatResult : uint8_t {
  kSat,      // model found
  kUnsat,    // refutation found
  kUnknown,  // conflict budget exhausted
};

/// Deterministic work tallies of one CdclSolver load.
struct SatStats {
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t learned = 0;
  uint64_t restarts = 0;
};

/// The CDCL solver described in the file comment. load() resets it and
/// loads one formula, solve() runs the search; one instance serves any
/// number of formulas in turn (a default-constructed one holds none).
/// Deterministic by construction: identical formulas and budgets always
/// produce identical verdicts, models, and stats, whatever the instance
/// loaded before.
class CdclSolver {
 public:
  /// Drops every trace of the previous formula — clauses, learned
  /// clauses, assignment, activities, phases, stats — and loads `cnf`
  /// (unit clauses propagate at the start of solve(); a top-level
  /// conflict makes solve() return kUnsat without search). Array
  /// storage is kept and reused by the next load.
  void load(const CnfFormula& cnf);

  /// Runs the search. `conflict_limit` bounds the conflicts analyzed
  /// before giving up with kUnknown. The budget is checked after each
  /// conflict, so a zero budget still searches up to its first
  /// conflict: the result is kSat if decisions reach a model without
  /// one, kUnsat if propagation at level 0 refutes the formula, and
  /// kUnknown at the first conflict above level 0.
  [[nodiscard]] SatResult solve(uint64_t conflict_limit);

  /// Value of `var` in the model; only valid after solve() == kSat.
  [[nodiscard]] bool modelValue(uint32_t var) const {
    return assign_[var] == 1;
  }

  /// Work tallies of the current load so far.
  [[nodiscard]] const SatStats& stats() const { return stats_; }

  /// Bytes held by the clause arena (literal pool plus descriptors) —
  /// the solver's dominant allocation. Sized from the current load's
  /// element counts, not capacity, so the figure is deterministic
  /// across allocators and independent of earlier loads.
  [[nodiscard]] size_t arenaBytes() const {
    return arena_.size() * sizeof(CnfLit) + clauses_.size() * sizeof(ClauseRef);
  }

 private:
  // One watcher: clause reference plus a cached blocker literal whose
  // satisfaction skips the clause without touching its memory.
  struct Watcher {
    uint32_t cref;
    CnfLit blocker;
  };
  // One literal's watch list: a slice [off, off + size) of wpool_ with
  // room up to off + cap. A full list moves to the end of the pool with
  // double the room (or grows in place when it already is the end), so
  // the lists of one load share one buffer that later loads reuse; the
  // pool's live end is wpool_end_, and slots past it are stale.
  struct WatchList {
    uint32_t off = 0;
    uint32_t size = 0;
    uint32_t cap = 0;
  };

  [[nodiscard]] uint32_t propagate();
  void analyze(uint32_t confl, uint32_t& bt_level);
  void enqueue(CnfLit l, uint32_t reason);
  void cancelUntil(uint32_t level);
  void bumpVar(uint32_t v);
  void decayVarActivity();
  [[nodiscard]] uint32_t pickBranchVar();
  void heapInsert(uint32_t v);
  [[nodiscard]] uint32_t heapPop();
  void heapUp(size_t i);
  void heapDown(size_t i);
  [[nodiscard]] bool heapLess(uint32_t a, uint32_t b) const;
  uint32_t addLearnt(std::span<const CnfLit> lits);
  void pushWatch(CnfLit l, Watcher w);
  [[nodiscard]] bool litTrue(CnfLit l) const;
  [[nodiscard]] bool litFalse(CnfLit l) const;

  static constexpr uint32_t kNoClause = 0xffffffffu;

  uint32_t num_vars_ = 0;
  // Clause arena: literal pool plus (offset, size) descriptors; learned
  // clauses append and are never deleted (solves are budget-bounded).
  std::vector<CnfLit> arena_;
  struct ClauseRef {
    uint32_t off;
    uint32_t size;
  };
  std::vector<ClauseRef> clauses_;
  std::vector<WatchList> watches_;  // indexed by literal
  std::vector<Watcher> wpool_;
  uint32_t wpool_end_ = 0;

  std::vector<uint8_t> assign_;  // 0 / 1 / 2 = unassigned
  std::vector<uint8_t> phase_;   // saved polarity per variable
  std::vector<uint32_t> level_;
  std::vector<uint32_t> reason_;
  std::vector<CnfLit> trail_;
  std::vector<uint32_t> trail_lim_;
  size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<uint32_t> heap_;      // binary max-heap of variables
  std::vector<uint32_t> heap_pos_;  // position in heap_, or npos
  std::vector<uint8_t> seen_;       // analyze() scratch
  std::vector<CnfLit> learnt_;      // analyze() output

  bool unsat_ = false;
  SatStats stats_;
};

/// Cumulative tallies across every generate() call of one SatEngine
/// (mirrored into the obs counters; exposed directly so the bench sweep
/// reports them without enabling obs).
struct SatEngineStats {
  uint64_t solves = 0;
  uint64_t cubes = 0;
  uint64_t redundant = 0;  // UNSAT verdicts (proofs of redundancy)
  uint64_t aborted = 0;    // conflict budget exhausted
  uint64_t conflicts = 0;
  uint64_t learned = 0;
  // High-water clause-arena footprint over all solves (bytes); feeds
  // the atpg.sat_arena_bytes gauge at the driver's serial merge point.
  uint64_t arena_peak_bytes = 0;
};

/// PodemEngine-compatible SAT ATPG. generate() builds the one-frame
/// miter — exactly the PODEM search space — so the top-up driver can
/// swap or escalate engines without caring which one produced a cube.
/// Unlike PODEM, kUntestable from this engine is always a completed
/// proof (UNSAT or structural), never a heuristic give-up. The engine
/// owns its encoder and solver and reuses their buffers from target to
/// target, so one engine serves one thread at a time.
class SatEngine final : public PodemEngine {
 public:
  /// Conflicts allowed per target before the solve reports kAborted
  /// (the analogue of the PODEM backtrack budget, sized so real miters
  /// essentially never hit it).
  static constexpr uint64_t kConflictLimit = 200'000;

  /// Same observability contract as the Podem constructor: `observed`
  /// nets the tester sees, `assignable` sources ATPG may drive.
  SatEngine(const Netlist& nl, std::vector<GateId> observed,
            std::vector<GateId> assignable);

  /// Holds a source at a constant for every subsequent run.
  void fixSource(GateId id, bool value) override;

  /// Solves `f`: kDetected with a cube, kUntestable with a redundancy
  /// proof, or kAborted past the conflict budget.
  AtpgStatus generate(const fault::Fault& f, TestCube& out) override;

  /// Conflicts consumed by the last generate() call — the engine's
  /// "backtracks" for the shared abort-reporting plumbing.
  [[nodiscard]] size_t backtracksUsed() const override {
    return static_cast<size_t>(last_conflicts_);
  }

  /// Cumulative per-engine tallies (see SatEngineStats).
  [[nodiscard]] const SatEngineStats& engineStats() const { return stats_; }

 private:
  const Netlist* nl_;
  Levelized lev_;
  sim::CompiledNetlist cn_;
  MiterEncoder enc_;
  CdclSolver solver_;
  uint64_t last_conflicts_ = 0;
  SatEngineStats stats_;
};

}  // namespace lbist::atpg
