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
#include <vector>

#include "netlist/netlist.hpp"

namespace lbist::dft {

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
  /// `test_mode` (paper section 3 technique 2).
  bool wrap_ios = true;
  std::string se_name = "test_se";
  std::string test_mode_name = "test_mode";
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

/// Finds or creates the shared test-mode input port.
[[nodiscard]] GateId ensureTestModePort(Netlist& nl,
                                        const std::string& name = "test_mode");

}  // namespace lbist::dft
