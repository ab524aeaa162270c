#include "core/architect.hpp"

#include <algorithm>
#include <stdexcept>

namespace lbist::core {

BistReadyCore buildBistReadyCore(const Netlist& core,
                                 const LbistConfig& cfg) {
  BistReadyCore out;
  out.config = cfg;
  out.netlist = core;  // transform a copy; the caller keeps the original
  out.core_ge = core.gateEquivalents();

  // 1. X-bounding.
  out.xbound = dft::boundAllX(out.netlist);

  // 2. Test points (before scan so the new cells get stitched).
  if (cfg.test_points > 0 && cfg.tpi_method != TpiMethod::kNone) {
    std::vector<GateId> nets;
    if (cfg.tpi_method == TpiMethod::kFaultSim) {
      dft::TpiConfig tpi = cfg.tpi;
      tpi.max_points = cfg.test_points;
      nets = dft::selectObservePointsFaultSim(out.netlist, tpi).points;
    } else {
      nets = dft::selectObservePointsCop(out.netlist, cfg.test_points);
    }
    out.observe_cells = dft::insertObservePoints(out.netlist, nets);
  }

  // 3. Full scan with IO wrapping.
  dft::ScanConfig scan_cfg;
  scan_cfg.num_chains = cfg.num_chains;
  scan_cfg.wrap_ios = cfg.wrap_ios;
  out.scan = dft::insertScan(out.netlist, scan_cfg);

  const std::string problem = out.netlist.validate();
  if (!problem.empty()) {
    throw std::logic_error("BIST-ready netlist invalid: " + problem);
  }

  // 4. Per-domain PRPG/MISR sizing. The phase-shifter channel separation
  // must exceed the longest chain; it is twice the longest chain.
  const uint64_t separation =
      2 * std::max<uint64_t>(1, out.scan.max_chain_length);
  for (uint16_t d = 0; d < out.netlist.numDomains(); ++d) {
    std::vector<size_t> chain_idx;
    for (size_t c = 0; c < out.scan.chains.size(); ++c) {
      if (out.scan.chains[c].domain == DomainId{d}) chain_idx.push_back(c);
    }
    if (chain_idx.empty()) continue;

    DomainBist db;
    db.domain = DomainId{d};
    db.chain_indices = chain_idx;
    db.prpg.length = cfg.prpg_length;
    db.prpg.chains = static_cast<int>(chain_idx.size());
    db.prpg.seed = cfg.prpg_seed + d;  // distinct, deterministic seeds
    db.prpg.shifter.separation = separation;
    db.prpg.shifter.slack = 16;
    db.odc.chains = static_cast<int>(chain_idx.size());
    db.odc.use_compactor = cfg.use_space_compactor;
    db.odc.misr_length =
        cfg.use_space_compactor
            ? cfg.misr_min_length
            : std::max(cfg.misr_min_length,
                       static_cast<int>(chain_idx.size()));
    out.domain_bist.push_back(std::move(db));
  }

  // 5. Timing plan sanity.
  const std::string timing_problem =
      cfg.timing.validate(out.netlist.domains());
  if (!timing_problem.empty()) {
    throw std::invalid_argument("timing config: " + timing_problem);
  }

  // Area accounting.
  out.dft_ge = out.netlist.dftGateEquivalents();
  out.bist_logic_ge = kControllerGe + kTapGe +
                      kClockGatingGePerDomain *
                          static_cast<double>(out.netlist.numDomains());
  for (const DomainBist& db : out.domain_bist) {
    out.bist_logic_ge += bist::Prpg(db.prpg).gateEquivalents();
    out.bist_logic_ge += bist::Odc(db.odc).gateEquivalents();
  }
  return out;
}

}  // namespace lbist::core
