// Full-scan insertion: converts every scannable DFF into a mux-D scan
// cell, stitches balanced per-domain scan chains, and (optionally) wraps
// primary inputs and outputs in scan cells — the paper's application does
// this "to increase delay fault coverage" (section 3, technique 2).
//
// Chains never cross clock domains: one PRPG-MISR pair per domain drives
// only that domain's chains (paper section 2.1), so inter-domain skew
// never sits inside a shift path (Fig. 3 concern).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"

namespace lbist::dft {

/// Name of the scan-enable input port insertScan creates (or reuses).
inline constexpr std::string_view kScanEnablePort = "test_se";
/// Name of the shared test-mode input port: IO wrappers and X-bounding
/// gate on it, and every capture-mode setup holds it at 1.
inline constexpr std::string_view kTestModePort = "test_mode";

struct ScanChain {
  std::string name;
  DomainId domain;
  std::vector<GateId> cells;  // scan-in to scan-out order
  GateId si_port;             // primary input feeding the chain
  GateId so_driver;           // net presented at the chain's scan output
};

struct ScanConfig {
  /// Total chains to build; distributed over domains proportionally to
  /// their flip-flop counts (every domain with FFs gets at least one).
  int num_chains = 8;
  /// Wrap PIs/POs in scan cells with a functional bypass controlled by
  /// the kTestModePort input (paper section 3 technique 2).
  bool wrap_ios = true;
};

struct ScanResult {
  std::vector<ScanChain> chains;
  GateId se_port;
  // Invalid when wrap_ios == false and no X-bounding used it.
  GateId test_mode_port;
  size_t scan_cells = 0;
  size_t wrapper_cells = 0;
  size_t max_chain_length = 0;

  [[nodiscard]] const ScanChain* chainOf(GateId cell) const;
};

/// Performs scan insertion in place. The netlist must already be
/// X-bounded (no-scan DFFs and X-sources blocked); scannable DFFs are all
/// DFFs without kFlagNoScan. Throws std::invalid_argument when a domain
/// has FFs but the chain budget is smaller than the domain count.
[[nodiscard]] ScanResult insertScan(Netlist& nl, const ScanConfig& cfg = {});

/// Finds or creates the shared kTestModePort input.
[[nodiscard]] GateId ensureTestModePort(Netlist& nl);

}  // namespace lbist::dft
