// BistSession — cycle-accurate emulation of a complete self-test run.
//
// Wires together every block of the paper's Fig. 1 against the BIST-ready
// netlist: the per-domain PRPGs feed scan-in ports through the input
// selector, the clock-gating schedule drives shift and double-capture
// pulses through the sequential simulator, per-domain MISRs compact the
// scan-out streams, and the controller FSM walks Start -> ... -> Finish
// with an on-chip signature compare providing Result.
//
// A golden (fault-free) run provides the reference signatures; running
// the same session against a die with an injected defect must flip
// Result — the end-to-end detection path the coverage numbers assume.
//
// One pass replays up to 64 machines, one per simulator lane: the die in
// lane 0 and, in lane k, the die with the k-th of up to 63 stuck-at
// faults forced in (parallel-fault sequential simulation, see
// sim/seqsim.hpp). Every lane sees the same PRPG stimulus; a lane-sliced
// ODC compacts every lane's scan-out at once. Diagnosis confirms all of
// a die's candidate sites in one pass; the campaign and the golden runs
// are the zero-fault case of the same code. tests/test_core.cpp pins
// every lane against fault::injectStuckAt plus a one-machine run.
//
// Capture pulses evaluate the whole core. Shift pulses evaluate only the
// logic the loaded scan state depends on (a per-pulse cone-of-influence
// reduction, worked out per pass from the die's own netlist, with every
// forced site counted unknown so the cones cover every lane): on an
// intact die a shift runs no gate at all and each scan cell loads its
// scan predecessor. The results are those of a full-eval pulse on every
// edge, which tests/test_core.cpp pins on every stuck-at die of a core.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bist/controller.hpp"
#include "bist/prpg.hpp"
#include "core/architect.hpp"
#include "fault/fault.hpp"
#include "sim/seqsim.hpp"

namespace lbist::core {

/// Domains capture in netlist domain order, and one extra shift window
/// after the last pattern flushes the final responses into the MISRs.
struct SessionOptions {
  int64_t patterns = 32;
  /// Interval-signature windows: snapshot every domain's MISR after each
  /// `signature_interval` completed patterns (0 = none). Diagnosis
  /// (src/diag) narrows a failing run to failing windows from these; the
  /// memory cost is one signature per window per domain.
  int64_t signature_interval = 0;
  /// Replaces the core's capture timing for this run. Diagnosis sessions
  /// over the stuck-at universe disable double capture so the response
  /// dictionary's single-capture model matches the die cycle-for-cycle.
  std::optional<bist::AtSpeedTimingConfig> timing_override;
};

/// MISR states captured at one interval-signature checkpoint.
struct SignatureCheckpoint {
  int64_t patterns_done = 0;
  /// Per DomainBist, the MISR signature words (WideMisr segment order).
  std::vector<std::vector<uint64_t>> domain_words;

  /// Equal when both the pattern count and every MISR word match.
  friend bool operator==(const SignatureCheckpoint& a,
                         const SignatureCheckpoint& b) {
    return a.patterns_done == b.patterns_done &&
           a.domain_words == b.domain_words;
  }
};

/// What one BistSession::run produced: per-domain signatures, interval
/// checkpoints, pulse counts and the controller's verdict.
struct SessionResult {
  std::vector<std::string> signatures;  // per DomainBist, hex
  /// Final MISR words per DomainBist (same data as `signatures`, in the
  /// form the diagnosis algebra consumes).
  std::vector<std::vector<uint64_t>> signature_words;
  /// Interval snapshots, oldest first (empty unless signature_interval).
  std::vector<SignatureCheckpoint> checkpoints;
  int64_t patterns_done = 0;
  uint64_t shift_pulses = 0;
  uint64_t capture_pulses = 0;
  uint64_t session_ps = 0;  // virtual end time
  bool finish = false;
  /// Valid only when golden signatures were provided.
  bool result_pass = false;
};

/// The cycle-accurate self-test run of the file comment, bound to one
/// BIST-ready core and one die.
class BistSession {
 public:
  /// Most faults one pass replays (lane 0 holds the die itself).
  static constexpr size_t kMaxFaults = 63;

  /// `die` is the netlist to simulate — pass `core.netlist` for a good
  /// die or a mutated copy (fault::injectStuckAt) for a defective one.
  /// The die must be structurally identical to the BIST-ready core
  /// (same ports and scan fabric). Builds the die's shift program.
  BistSession(const BistReadyCore& core, const Netlist& die);

  /// Runs a full self-test of the die. When `golden` is non-null the
  /// controller compares against it and SessionResult::result_pass is
  /// meaningful. The same as run(opts, {}, golden).front().
  [[nodiscard]] SessionResult run(const SessionOptions& opts,
                                  const SessionResult* golden = nullptr);

  /// One pass over the die in lane 0 and, in lane k, the die with
  /// `faults[k - 1]` forced in; returns one result per lane, die first.
  /// Each lane equals a one-machine run of fault::injectStuckAt(die,
  /// fault). Throws std::invalid_argument on more than kMaxFaults faults
  /// or on a fault that is not stuck-at.
  [[nodiscard]] std::vector<SessionResult> run(
      const SessionOptions& opts, std::span<const fault::Fault> faults,
      const SessionResult* golden = nullptr);

 private:
  // One shift pulse: the ops to evaluate, then the live flops' loads.
  struct ShiftProgram {
    std::vector<uint32_t> ops;
    std::vector<sim::SeqSimulator::Load> loads;
  };

  /// Sets every input the session holds fixed — all but the SI ports and
  /// SE, which the session drives — to its session value.
  void holdInputs();
  /// The shift program for the forces now set on the simulator.
  [[nodiscard]] ShiftProgram buildShiftProgram() const;
  void shiftCycle(const ShiftProgram& program);
  void seedPrpgs();

  const BistReadyCore* core_;
  const Netlist* die_;
  sim::SeqSimulator sim_;
  std::vector<bist::Prpg> prpgs_;
  std::vector<bist::LaneOdc> odcs_;
  std::vector<std::vector<uint8_t>> slice_;      // per domain, per chain
  std::vector<std::vector<uint64_t>> so_words_;  // per domain, per chain
  // The zero-fault pass's shift program.
  ShiftProgram die_program_;
};

}  // namespace lbist::core
