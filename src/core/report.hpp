// Table 1 report assembly and rendering: the same 17 rows the paper
// prints for Core X / Core Y, generated from measured flow results.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "atpg/topup.hpp"
#include "core/architect.hpp"
#include "core/flow.hpp"
#include "netlist/stats.hpp"
#include "soc/schedule.hpp"

namespace lbist::core {

/// One core's column of Table 1, one field per printed row.
struct Table1Column {
  std::string core_name;
  size_t gate_count = 0;   // original core cells (pre-DFT)
  size_t ffs = 0;          // original flip-flops
  size_t scan_chains = 0;
  size_t max_chain_length = 0;
  size_t clock_domains = 0;
  double freq_mhz = 0.0;   // fastest functional clock
  size_t num_prpgs = 0;
  int prpg_length = 0;
  size_t num_misrs = 0;
  std::string misr_lengths;  // paper style: "7: 19 / 1: 80"
  size_t test_points = 0;
  int64_t random_patterns = 0;
  double fault_coverage_1 = 0.0;
  double cpu_seconds = 0.0;
  double overhead_percent = 0.0;
  size_t topup_patterns = 0;
  double fault_coverage_2 = 0.0;
};

/// Assembles a core's Table 1 column from its pre-DFT statistics, the
/// BIST-ready core, the random and top-up phase results and the total
/// CPU time.
[[nodiscard]] Table1Column buildTable1Column(
    const NetlistStats& original_stats, const BistReadyCore& core,
    const RandomPhaseResult& random_phase, const atpg::TopUpResult& topup,
    double total_cpu_seconds);

/// "25m43s"-style rendering of a duration.
[[nodiscard]] std::string formatDuration(double seconds);

/// Renders one table with a column per core, row names as in the paper.
[[nodiscard]] std::string renderTable1(std::span<const Table1Column> cols);

/// Lists up to `max_faults` still-undetected faults by site name, port
/// and type (Fault::describe) — the residue a flow report shows instead
/// of raw gate ids.
[[nodiscard]] std::string renderUndetectedFaults(
    const Netlist& nl, const fault::FaultList& faults,
    size_t max_faults = 10);

/// One-line summary of the structural collapsing a flow's fault
/// simulator ran with: universe size, equivalence classes, fold
/// percentage, dominance-prunable ATPG targets.
[[nodiscard]] std::string renderCollapseStats(const fault::CollapseStats& s);

/// One-line summary of a top-up ATPG run for flow reports: targets,
/// cube hits, untestability and redundancy proofs, abort count,
/// backtrack totals (mean per target), the SAT escalation tally when
/// any solver ran, and the reverse-compaction pattern delta.
[[nodiscard]] std::string renderAtpgStats(const atpg::TopUpResult& r);

/// One-line summary of a chip-level test schedule for flow reports:
/// cores, concurrent groups, peak vs budget power, total TCKs, and the
/// serial-vs-scheduled test-time speedup with the instance-bound ratio.
[[nodiscard]] std::string renderScheduleStats(const soc::TestSchedule& s);

}  // namespace lbist::core
