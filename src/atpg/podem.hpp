// PODEM combinational ATPG over the full-scan model, on the compiled
// netlist kernel.
//
// Used for the top-up phase (paper Table 1: 135 / 528 deterministic
// patterns lift fault coverage from ~93% to ~97%): after the random BIST
// phase, remaining undetected faults are targeted one by one; patterns
// are delivered through the input selector in external mode.
//
// Algorithm: classic PODEM — objective / backtrace to an assignable
// source / imply / D-frontier + X-path checks — with COP controllability
// guiding backtrace choices. The engine runs entirely on the flat
// CompiledNetlist tables (sim/compiled.hpp): a 2-bit 01X value byte per
// gate for each machine, dual-machine (good + faulty) event-driven
// forward implication over the comb-fanout CSR, and an assignment trail
// that makes backtracking O(gates actually changed) instead of a full
// re-evaluation. The good-machine all-X baseline (constants + fixed
// sources swept once) is cached, so per-target setup is two memcpys plus
// the fault-site forcing — not a netlist-wide re-simulation.
//
// Podem is a heuristic search and can abort. Its tests check it against
// the exact oracles — SatEngine verdicts, exhaustive enumeration on
// small circuits, fault simulation of every cube — and pin its per-fault
// answers by hash (tests/test_atpg_parallel.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dft/cop.hpp"
#include "fault/fault.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"

namespace lbist::atpg {

/// Outcome of one test-cube search.
enum class AtpgStatus : uint8_t {
  kDetected,    // test cube found
  kUntestable,  // search space exhausted: proven redundant
  kAborted,     // backtrack limit hit
};

/// A test cube: values for the assignable sources; unassigned sources are
/// don't-cares filled later (random fill keeps fortuitous detection high).
struct TestCube {
  std::vector<GateId> care_sources;
  std::vector<uint8_t> care_values;  // parallel to care_sources

  /// Number of specified (non-X) source bits.
  [[nodiscard]] size_t careBits() const { return care_sources.size(); }

  /// True when `other` agrees on every shared care bit (mergeable under
  /// static compaction).
  [[nodiscard]] bool compatibleWith(const TestCube& other) const;
  /// Adds `other`'s care bits not already present (call only after
  /// compatibleWith returned true).
  void mergeFrom(const TestCube& other);
};

/// Search-effort knobs for Podem.
struct AtpgOptions {
  /// Backtracks allowed per search attempt.
  int backtrack_limit = 256;
};

/// Extra salted-polarity attempts Podem makes after an aborted search
/// (see Podem::generate).
inline constexpr int kPodemRestarts = 3;

/// Engine interface the top-up driver targets: one deterministic
/// test-cube search per generate() call. Implementations must be
/// deterministic in (construction arguments, fault) alone — independent
/// of call history and thread placement — which is what makes the
/// parallel top-up's pattern sets bit-identical for every worker count.
class PodemEngine {
 public:
  virtual ~PodemEngine() = default;
  /// Holds a source at a constant for every subsequent run.
  virtual void fixSource(GateId id, bool value) = 0;
  /// Generates a cube detecting `f`, or reports untestable/aborted.
  virtual AtpgStatus generate(const fault::Fault& f, TestCube& out) = 0;
  /// Chronological backtracks consumed by the last generate() call.
  [[nodiscard]] virtual size_t backtracksUsed() const = 0;
};

/// Compiled-table PODEM: the production top-up engine.
class Podem final : public PodemEngine {
 public:
  /// `observed`: nets the tester sees. `assignable`: sources ATPG may
  /// drive (scan-cell outputs and unwrapped PIs). Other sources are X
  /// unless fixed.
  Podem(const Netlist& nl, std::vector<GateId> observed,
        std::vector<GateId> assignable, AtpgOptions opts = {});

  /// Holds a source at a constant for every run (SE = 0, test_mode = 1).
  void fixSource(GateId id, bool value) override;

  /// Generates a cube detecting `f`, or reports untestable/aborted.
  /// Deterministic per fault; internal scratch is reset every call.
  AtpgStatus generate(const fault::Fault& f, TestCube& out) override;

  /// Chronological backtracks consumed by the last generate() call.
  [[nodiscard]] size_t backtracksUsed() const override {
    return backtracks_used_;
  }

 private:
  // Three-valued scalar encoding (matches sim::kX3).
  enum : uint8_t { kV0 = 0, kV1 = 1, kVX = sim::kX3 };

  /// One decision: an assignable source, the value tried, and the trail
  /// position before the assignment so backtracking can undo exactly the
  /// implications this decision caused.
  struct Decision {
    GateId source;
    uint8_t value;
    bool tried_both;
    uint32_t trail_mark;
  };

  /// Undo-log entry: the gate's (good, faulty) values before a write.
  struct TrailEntry {
    uint32_t gate;
    uint8_t g;
    uint8_t f;
  };

  /// Why the last objective() returned nothing. Activation conflicts and
  /// missing X-paths are sound prunes (3-valued evaluation is monotone in
  /// assignments); an inactionable frontier is a heuristic limitation, so
  /// a search that exhausted through one reports kAborted, never a
  /// redundancy proof.
  enum class BlockReason : uint8_t {
    kNone,
    kActivationConflict,
    kNoXPath,
    kNoActionableFrontier,
  };

  void rebuildBaseline();
  void setupFault();
  void assign(GateId source, uint8_t v);
  void propagateFrom(uint32_t start);
  void undoTo(size_t mark);
  void updateD(uint32_t gate);
  [[nodiscard]] uint8_t evalFaulty3(uint32_t op) const;
  [[nodiscard]] bool faultActivated() const;
  [[nodiscard]] bool faultAtObserved() const;
  [[nodiscard]] bool xPathExists();
  [[nodiscard]] std::optional<std::pair<GateId, uint8_t>> objective();
  [[nodiscard]] std::optional<std::pair<GateId, uint8_t>>
  propagationObjective(GateId gate);
  [[nodiscard]] std::optional<std::pair<GateId, uint8_t>> resolveFaultyX(
      GateId net);
  [[nodiscard]] std::pair<GateId, uint8_t> backtrace(GateId net, uint8_t v);
  [[nodiscard]] AtpgStatus searchOnce(bool direct, TestCube& out);
  [[nodiscard]] AtpgStatus generateImpl(const fault::Fault& f, TestCube& out);
  [[nodiscard]] bool saltBit(GateId g) const;

  const Netlist* nl_;
  sim::CompiledNetlist cn_;
  dft::CopMetrics cop_;
  AtpgOptions opts_;

  std::vector<GateId> observed_;
  std::vector<uint8_t> is_observed_;
  std::vector<uint8_t> is_assignable_;
  std::vector<std::pair<GateId, uint8_t>> fixed_;

  // Good-machine all-X baseline (constants + fixed sources swept once);
  // rebuilt lazily after fixSource.
  std::vector<uint8_t> baseline_;
  bool baseline_dirty_ = true;

  std::vector<uint8_t> gval_;
  std::vector<uint8_t> fval_;
  std::vector<TrailEntry> trail_;

  // Incrementally maintained set of D-carrying gates (good and faulty
  // values known and unequal), updated O(1) at every value write and
  // undo. The D-frontier is exactly the X-ish-output fanout of this
  // set, so objective selection never scans the whole cone.
  static constexpr uint32_t kNoDPos = 0xffffffffu;
  std::vector<uint32_t> d_pos_;   // position in d_list_, kNoDPos if none
  std::vector<uint32_t> d_list_;

  // Current fault context.
  fault::Fault fault_{};
  uint8_t faulty_const_ = 0;           // forced value at the fault site
  std::vector<uint8_t> in_cone_;       // gates in the fault's output cone
  std::vector<GateId> cone_list_;      // the cone as a list (hot scans)
  std::vector<GateId> cone_observed_;  // observed nets inside the cone
  std::vector<uint32_t> xpath_stamp_;  // epoch-stamped visited set
  uint32_t xpath_serial_ = 0;
  std::vector<GateId> xpath_queue_;    // reused BFS scratch
  std::vector<GateId> frontier_;       // reused frontier scratch
  std::vector<Decision> stack_;        // reused decision stack

  // Level-bucketed event wheel for forward implication.
  std::vector<std::vector<uint32_t>> level_queue_;
  std::vector<uint32_t> queued_stamp_;
  uint32_t serial_ = 0;

  size_t backtracks_used_ = 0;
  // Per-target observability tallies (obs counters, result-neutral):
  // implied value writes and salted restart attempts consumed by the
  // last generate() call.
  uint64_t implications_used_ = 0;
  uint64_t restarts_used_ = 0;
  uint64_t salt_ = 0;
  BlockReason block_reason_ = BlockReason::kNone;
};

}  // namespace lbist::atpg
