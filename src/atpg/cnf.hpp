// Tseitin gate->CNF encoding of stuck-at fault miters over the compiled
// netlist tables (the first half of the SAT-based hard-tail engine; the
// CDCL solver consuming these formulas lives in atpg/sat.hpp).
//
// The encoding is dual-rail 01X-exact: every net carries two literals
// (`one` = definitely 1, `zero` = definitely 0, neither = X), so the
// formula models exactly the three-valued semantics of
// CompiledNetlist::evalOp3 that PODEM searches under. A
// satisfying assignment is therefore a three-valued test cube, and an
// UNSAT verdict proves that no such cube exists — the same verdict
// universe as PODEM, which is what makes the engine-agreement contract
// (ARCHITECTURE.md contract 7) checkable.
//
// The miter instantiates one good machine over the input support of the
// fault cone, one faulty machine over the fault output cone only (nets
// outside the cone share the good machine's rails), and difference (D)
// variables with forward D-chain propagation clauses: the fault site
// must differ, a difference on a non-observed net must reach one of its
// cone fanouts, and some observed net must differ. The D-chain is
// equisatisfiable with the plain "some observed net differs" miter —
// any detected difference traces back to the site through
// definitely-differing nets, because a gate whose fanins are all
// 01X-compatible between the machines cannot produce definite opposite
// outputs — and prunes the search hard.
//
// The search space is one combinational frame, exactly PODEM's: scan
// cells and primary inputs are assignable, non-scan state and unbound
// sources are X, and detection is asserted at the capture-visible nets.
//
// The good machine does not depend on the fault, so MiterEncoder
// encodes it once for the whole netlist (lazily, after the last
// fixSource) and each encodeFault copies only the target's support out
// of it under an order-preserving variable renumbering. Variables are
// numbered sources-by-gate-index then ops-in-op-order, and every support
// keeps that relative order, so the copied clauses are literal for
// literal what a per-target encode of the same support would emit.
// All per-target scratch (cone, support, faulty rails, D variables, the
// formula itself) is encoder-owned and epoch-stamped, so an encode walks
// only the cone and support and reuses the storage of earlier encodes.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"

namespace lbist::atpg {

/// CNF literal: variable << 1 | sign, sign 1 meaning negated — plus the
/// two constant sentinels below, so rail aliases can carry foldable
/// constants (fixed sources, the forced fault site) without burning
/// solver variables.
using CnfLit = uint32_t;

/// Constant-true literal sentinel (folded away by CnfFormula).
inline constexpr CnfLit kLitTrue = 0xfffffffeu;
/// Constant-false literal sentinel (folded away by CnfFormula).
inline constexpr CnfLit kLitFalse = 0xffffffffu;

/// Positive literal of `var`.
[[nodiscard]] inline constexpr CnfLit posLit(uint32_t var) {
  return var << 1;
}
/// Negative literal of `var`.
[[nodiscard]] inline constexpr CnfLit negLit(uint32_t var) {
  return (var << 1) | 1u;
}
/// Complement of a literal; maps kLitTrue <-> kLitFalse.
[[nodiscard]] inline constexpr CnfLit negateLit(CnfLit l) { return l ^ 1u; }
/// Variable index of a (non-sentinel) literal.
[[nodiscard]] inline constexpr uint32_t litVar(CnfLit l) { return l >> 1; }
/// True when the literal is negated.
[[nodiscard]] inline constexpr bool litSign(CnfLit l) {
  return (l & 1u) != 0;
}

/// Growable clause database with constant folding: clauses containing
/// kLitTrue (or a literal and its complement) are dropped, kLitFalse
/// literals and duplicates are removed, and an emptied clause marks the
/// whole formula contradictory. Storage is one flat literal pool plus
/// offsets, so the solver loads it with two bulk copies.
class CnfFormula {
 public:
  /// Allocates a fresh variable and returns its index.
  uint32_t newVar() { return num_vars_++; }

  /// Allocates `count` consecutive variables and returns the first.
  uint32_t newVars(uint32_t count) {
    const uint32_t first = num_vars_;
    num_vars_ += count;
    return first;
  }

  /// Adds one clause (with the folding described on the class).
  void addClause(std::span<const CnfLit> lits);

  /// Initializer-list convenience overload of addClause.
  void addClause(std::initializer_list<CnfLit> lits) {
    addClause(std::span<const CnfLit>(lits.begin(), lits.size()));
  }

  /// Appends clauses [first, last) of `src` with every variable v
  /// renamed to var_map[v]. The renaming must preserve variable order on
  /// the variables those clauses use, so each copy stays sorted and
  /// folded exactly as `src` stored it.
  void appendRenamed(const CnfFormula& src, size_t first, size_t last,
                     std::span<const uint32_t> var_map);

  /// Empties the formula (no variables, no clauses) but keeps the
  /// storage for the next formula.
  void clear();

  /// Number of variables allocated so far.
  [[nodiscard]] size_t numVars() const { return num_vars_; }
  /// Number of stored (post-folding) clauses.
  [[nodiscard]] size_t numClauses() const { return offsets_.size() - 1; }
  /// Literals of clause `i`.
  [[nodiscard]] std::span<const CnfLit> clause(size_t i) const {
    return {pool_.data() + offsets_[i], pool_.data() + offsets_[i + 1]};
  }
  /// True once an empty clause was added: the formula is UNSAT without
  /// any search.
  [[nodiscard]] bool contradiction() const { return contradiction_; }

 private:
  uint32_t num_vars_ = 0;
  std::vector<CnfLit> pool_;
  std::vector<uint32_t> offsets_ = {0};
  std::vector<CnfLit> scratch_;
  bool contradiction_ = false;
};

/// Dual rails of one net: `one` true means definitely 1, `zero` true
/// means definitely 0, neither true means X. Either rail may be a
/// constant sentinel. The encoder keeps both rails from ever being
/// simultaneously true (sources are single-rail or constant; every gate
/// function preserves it).
struct Rails {
  CnfLit one = kLitFalse;
  CnfLit zero = kLitFalse;
};

/// One free stimulus variable of an encoded miter: the model value of
/// `var` is the value source `source` takes in the test.
struct StimulusVar {
  GateId source;
  uint32_t var = 0;
};

/// An encoded fault miter, ready for the CDCL solver. When
/// `trivially_untestable` is set the structural checks (no observed net
/// in the fault cone, non-scan direct site) already proved redundancy
/// and `cnf` is empty; `direct` marks DFF data-pin targets, which are
/// justification-only (the scan capture itself observes the pin).
struct FaultMiter {
  CnfFormula cnf;
  std::vector<StimulusVar> stimulus;
  bool trivially_untestable = false;
  bool direct = false;
};

/// Builds FaultMiter formulas for one netlist. Construction snapshots
/// the observed/assignable sets; the first encodeFault after the last
/// fixSource encodes the whole good machine once, and every encodeFault
/// reuses encoder-owned scratch. One encoder therefore serves one
/// thread; give each shard its own. Results are deterministic in the
/// construction arguments, the fixed sources and the fault alone —
/// buffers are reused across calls, state never is.
class MiterEncoder {
 public:
  /// `cn` must be the compiled form of `nl` and outlive the encoder.
  /// `observed` are the capture-visible nets (PO drivers plus scan
  /// D-drivers), `assignable` the controllable sources (PIs plus scan
  /// cell outputs) — the same sets the PODEM engines take.
  MiterEncoder(const Netlist& nl, const sim::CompiledNetlist& cn,
               const std::vector<GateId>& observed,
               const std::vector<GateId>& assignable);

  /// Pins source `id` to `value` in every later encode (test-mode
  /// constants); removes it from the assignable set.
  void fixSource(GateId id, bool value);

  /// Encodes the dual-rail miter of `f` (see file comment). Stuck-at-1
  /// forces the site to 1; every other polarity forces it to 0 — the
  /// same site semantics the PODEM engines use. The returned miter is
  /// encoder-owned and valid until the next encodeFault or fixSource.
  [[nodiscard]] const FaultMiter& encodeFault(const fault::Fault& f);

 private:
  void encodeGoodMachine();
  void nextEpoch();
  [[nodiscard]] bool inCone(uint32_t g) const {
    return cone_stamp_[g] == epoch_;
  }
  // Good-machine rails of support gate `g` in the current target's
  // variable numbering.
  [[nodiscard]] Rails goodRails(uint32_t g) const;
  void copySupport(const fault::Fault& f, bool direct);
  void encodeFaultyCone(const fault::Fault& f, bool faulty_one);
  void encodeDChain(const fault::Fault& f);

  static constexpr uint8_t kFree = 2;  // source_value_: not fixed

  const Netlist* nl_;
  const sim::CompiledNetlist* cn_;
  std::vector<uint8_t> is_observed_;
  std::vector<uint8_t> is_assignable_;
  std::vector<uint8_t> source_value_;  // 0 / 1 fixed, kFree otherwise

  // Where one gate's good-machine encoding lives in gm_: the contiguous
  // variables [var_begin, var_end) and clauses [clause_begin,
  // clause_end).
  struct GateBlock {
    uint32_t var_begin = 0;
    uint32_t var_end = 0;
    uint32_t clause_begin = 0;
    uint32_t clause_end = 0;
  };

  // The whole-netlist good machine, in global variable numbering.
  bool gm_ready_ = false;
  CnfFormula gm_;
  std::vector<Rails> gm_rails_;
  std::vector<GateBlock> gm_block_;

  // Per-target scratch. Membership is "stamp == epoch_", so starting a
  // target clears nothing; faulty_ and dvar_ are written for every cone
  // gate before they are read, and var_map_ for every support variable.
  uint32_t epoch_ = 0;
  std::vector<uint32_t> cone_stamp_;
  std::vector<uint32_t> support_stamp_;
  std::vector<uint32_t> cone_;      // breadth-first from the site
  std::vector<uint32_t> cone_ops_;  // ops of the cone gates, ascending
  std::vector<uint32_t> support_;   // support gates owning variables
  std::vector<uint32_t> var_map_;   // global good-machine var -> local
  std::vector<Rails> faulty_;
  std::vector<uint32_t> dvar_;
  // Gate-encoding scratch: fanin rails, then clause literals.
  std::vector<CnfLit> ones_;
  std::vector<CnfLit> zeros_;
  std::vector<CnfLit> lits_;
  FaultMiter miter_;
};

}  // namespace lbist::atpg
