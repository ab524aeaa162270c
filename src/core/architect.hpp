// LbistArchitect — the paper's flow that turns a raw IP core into a
// BISTed IP core (Fig. 1):
//
//   1. X-bounding          (section 2.1: "X sources properly blocked")
//   2. test point insertion (fault-simulation-guided observation points,
//                            no control points)
//   3. full-scan insertion with PI/PO wrapper cells
//   4. per-clock-domain PRPG / phase shifter / (expander) sizing and
//      MISR / (compactor) sizing — no compactor by default, so each
//      domain's MISR is at least as long as its chain count (the paper's
//      99- and 80-bit MISRs)
//   5. at-speed timing plan (double capture, slow SE)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bist/clocking.hpp"
#include "bist/prpg.hpp"
#include "dft/scan.hpp"
#include "dft/test_points.hpp"
#include "dft/xbound.hpp"
#include "netlist/netlist.hpp"

namespace lbist::core {

/// How test points are chosen (step 2 of the flow).
enum class TpiMethod : uint8_t {
  kFaultSim,  // the paper's method
  kCop,       // prior-art baseline
  kNone,
};

/// Knobs of the architect flow: scan chain budget, test points, PRPG and
/// MISR sizing, IO wrapping and the at-speed timing plan.
struct LbistConfig {
  int num_chains = 16;
  size_t test_points = 64;
  TpiMethod tpi_method = TpiMethod::kFaultSim;
  dft::TpiConfig tpi;  // max_points overridden by test_points

  int prpg_length = 19;  // the paper's value on both cores
  int misr_min_length = 19;
  bool use_space_compactor = false;  // paper section 3 technique (3)
  bool wrap_ios = true;              // paper section 3 technique (2)

  bist::AtSpeedTimingConfig timing;
  uint64_t prpg_seed = 0x0001'D00D'F00DULL;
};

/// Per-domain TPG/ODC sizing (one PRPG-MISR pair per clock domain).
struct DomainBist {
  DomainId domain;
  bist::PrpgConfig prpg;
  bist::OdcConfig odc;
  std::vector<size_t> chain_indices;  // into BistReadyCore::scan.chains
};

/// The architect's output: the DFT-inserted netlist with its scan
/// fabric, X-bounding record, per-domain PRPG/MISR sizing and the
/// area accounting for Table 1.
struct BistReadyCore {
  Netlist netlist;
  dft::ScanResult scan;
  dft::XBoundResult xbound;
  std::vector<GateId> observe_cells;
  std::vector<DomainBist> domain_bist;
  LbistConfig config;

  // Area accounting (gate equivalents, NAND2 == 1).
  double core_ge = 0.0;       // original core, pre-DFT
  double dft_ge = 0.0;        // in-netlist DFT logic (muxes, obs, bounds)
  double bist_logic_ge = 0.0; // PRPG/MISR/controller/TAP blocks

  [[nodiscard]] double overheadPercent() const {
    return core_ge <= 0.0 ? 0.0
                          : 100.0 * (dft_ge + bist_logic_ge) / core_ge;
  }

  /// Shift cycles per pattern (max chain length over all domains).
  [[nodiscard]] int shiftCyclesPerPattern() const {
    return static_cast<int>(scan.max_chain_length);
  }
};

/// Runs the full flow on a copy of `core`. Throws std::invalid_argument
/// on infeasible configurations (e.g. chain budget below domain count).
[[nodiscard]] BistReadyCore buildBistReadyCore(const Netlist& core,
                                               const LbistConfig& cfg);

/// Fixed gate-equivalent weights for the off-netlist BIST blocks,
/// used by the Table 1 "Overhead" row (values documented in DESIGN.md).
inline constexpr double kControllerGe = 320.0;
inline constexpr double kClockGatingGePerDomain = 45.0;
inline constexpr double kTapGe = 420.0;

}  // namespace lbist::core
