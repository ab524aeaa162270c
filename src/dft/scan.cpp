#include "dft/scan.hpp"

#include <algorithm>
#include <stdexcept>

namespace lbist::dft {

const ScanChain* ScanResult::chainOf(GateId cell) const {
  for (const ScanChain& c : chains) {
    if (std::find(c.cells.begin(), c.cells.end(), cell) != c.cells.end()) {
      return &c;
    }
  }
  return nullptr;
}

GateId ensureTestModePort(Netlist& nl) {
  if (auto existing = nl.findGateByName(kTestModePort)) return *existing;
  return nl.addInput(kTestModePort);
}

namespace {

/// Picks the clock domain for a wrapper cell: the domain of any flip-flop
/// adjacent to the wrapped port (first DFF user for inputs, the domain of
/// any DFF in the driving cone for outputs), falling back to domain 0.
DomainId wrapperDomain(const Netlist& nl, GateId port_or_driver,
                       const Netlist::FanoutMap& fanout) {
  // Forward: a DFF fed (possibly through logic) by this net. One BFS
  // bounded to a few hundred gates keeps this cheap.
  std::vector<GateId> queue{port_or_driver};
  size_t cursor = 0;
  size_t budget = 256;
  while (cursor < queue.size() && budget-- > 0) {
    const GateId g = queue[cursor++];
    for (GateId t : fanout.fanout(g)) {
      if (nl.gate(t).kind == CellKind::kDff) return nl.gate(t).domain;
      if (isCombinational(nl.gate(t).kind)) queue.push_back(t);
    }
  }
  return DomainId{0};
}

}  // namespace

ScanResult insertScan(Netlist& nl, const ScanConfig& cfg) {
  if (nl.numDomains() == 0) {
    throw std::invalid_argument("scan insertion needs clock domains");
  }
  ScanResult result;

  // -- collect scannable state ---------------------------------------------
  std::vector<GateId> scannable;
  for (GateId dff : nl.dffs()) {
    const Gate& g = nl.gate(dff);
    if ((g.flags & kFlagNoScan) != 0) continue;
    if ((g.flags & kFlagScanCell) != 0) {
      throw std::invalid_argument("netlist already scan-inserted");
    }
    scannable.push_back(dff);
  }

  const Netlist::FanoutMap fanout = nl.buildFanoutMap();

  // -- IO wrapping -----------------------------------------------------------
  GateId test_mode;
  if (cfg.wrap_ios) {
    test_mode = ensureTestModePort(nl);
    // Input wrappers: users of PI p see mux(p, wrapper_q, test_mode).
    // The wrapper captures p functionally, so in test mode it is a
    // controllable *and* observable stand-in for the pad.
    for (GateId pi : std::vector<GateId>(nl.inputs().begin(),
                                         nl.inputs().end())) {
      if (pi == test_mode) continue;
      const std::string pi_name = nl.gateName(pi);
      if (pi_name == kScanEnablePort) continue;  // never wrap test controls
      const DomainId dom = wrapperDomain(nl, pi, fanout);
      const GateId cell = nl.addDff(pi, dom, "wrap_in_" + pi_name);
      nl.setFlag(cell, kFlagDftInserted);
      const GateId bypass =
          nl.addGate(CellKind::kMux2, {pi, cell, test_mode});
      nl.setFlag(bypass, kFlagDftInserted);
      // Rewire users of the PI to the bypass mux (except the wrapper's
      // own D pin and the mux itself).
      nl.forEachGate([&](GateId id, const Gate& g) {
        if (id == cell || id == bypass) return;
        for (size_t s = 0; s < g.fanins.size(); ++s) {
          if (g.fanins[s] == pi) nl.setFanin(id, s, bypass);
        }
      });
      scannable.push_back(cell);
      ++result.wrapper_cells;
    }
    // Output wrappers: a cell capturing each PO's functional value.
    for (const OutputPort& po :
         std::vector<OutputPort>(nl.outputs().begin(), nl.outputs().end())) {
      const DomainId dom = wrapperDomain(nl, po.driver, fanout);
      const GateId cell = nl.addDff(po.driver, dom, "wrap_out_" + po.name);
      nl.setFlag(cell, kFlagDftInserted);
      scannable.push_back(cell);
      ++result.wrapper_cells;
    }
  }
  result.test_mode_port = test_mode;

  // -- chain budgeting per domain --------------------------------------------
  std::vector<std::vector<GateId>> by_domain(nl.numDomains());
  for (GateId dff : scannable) {
    by_domain[nl.gate(dff).domain.v].push_back(dff);
  }
  size_t domains_with_ffs = 0;
  size_t total_ffs = 0;
  for (const auto& v : by_domain) {
    if (!v.empty()) ++domains_with_ffs;
    total_ffs += v.size();
  }
  if (total_ffs == 0) {
    throw std::invalid_argument("no scannable flip-flops");
  }
  if (static_cast<size_t>(cfg.num_chains) < domains_with_ffs) {
    throw std::invalid_argument(
        "chain budget below clock-domain count; chains cannot cross "
        "domains");
  }
  std::vector<int> chains_per_domain(nl.numDomains(), 0);
  int assigned = 0;
  for (size_t d = 0; d < by_domain.size(); ++d) {
    if (by_domain[d].empty()) continue;
    const double share = static_cast<double>(by_domain[d].size()) /
                         static_cast<double>(total_ffs);
    int n = static_cast<int>(share * cfg.num_chains);
    n = std::max(n, 1);
    chains_per_domain[d] = n;
    assigned += n;
  }
  // Fix rounding drift: add/remove chains from the largest domains.
  while (assigned != cfg.num_chains) {
    size_t best = 0;
    for (size_t d = 1; d < by_domain.size(); ++d) {
      if (by_domain[d].size() > by_domain[best].size()) best = d;
    }
    if (assigned < cfg.num_chains) {
      ++chains_per_domain[best];
      ++assigned;
    } else {
      // Remove from the domain with most chains per FF, keeping >= 1.
      size_t victim = by_domain.size();
      for (size_t d = 0; d < by_domain.size(); ++d) {
        if (chains_per_domain[d] > 1 &&
            (victim == by_domain.size() ||
             chains_per_domain[d] > chains_per_domain[victim])) {
          victim = d;
        }
      }
      if (victim == by_domain.size()) break;  // cannot reduce further
      --chains_per_domain[victim];
      --assigned;
    }
  }

  // -- stitching --------------------------------------------------------------
  const GateId se = nl.findGateByName(kScanEnablePort).value_or(GateId{});
  const GateId se_port = se.valid() ? se : nl.addInput(kScanEnablePort);
  result.se_port = se_port;

  int chain_index = 0;
  for (size_t d = 0; d < by_domain.size(); ++d) {
    auto& cells = by_domain[d];
    if (cells.empty()) continue;
    std::sort(cells.begin(), cells.end());
    const int n_chains = chains_per_domain[d];
    const size_t per_chain =
        (cells.size() + static_cast<size_t>(n_chains) - 1) /
        static_cast<size_t>(n_chains);
    for (int c = 0; c < n_chains; ++c) {
      const size_t begin = static_cast<size_t>(c) * per_chain;
      if (begin >= cells.size()) break;
      const size_t end = std::min(cells.size(), begin + per_chain);

      ScanChain chain;
      chain.name = "chain" + std::to_string(chain_index);
      chain.domain = DomainId{static_cast<uint16_t>(d)};
      chain.si_port = nl.addInput("si" + std::to_string(chain_index));

      GateId prev = chain.si_port;
      for (size_t i = begin; i < end; ++i) {
        const GateId cell = cells[i];
        const GateId old_d = nl.gate(cell).fanins[0];
        const GateId mux =
            nl.addGate(CellKind::kMux2, {old_d, prev, se_port});
        nl.setFlag(mux, kFlagScanMux);
        nl.setFlag(mux, kFlagDftInserted);
        nl.setFanin(cell, 0, mux);
        nl.setFlag(cell, kFlagScanCell);
        chain.cells.push_back(cell);
        prev = cell;
        ++result.scan_cells;
      }
      chain.so_driver = prev;
      nl.addOutput(prev, "so" + std::to_string(chain_index));
      result.max_chain_length =
          std::max(result.max_chain_length, chain.cells.size());
      result.chains.push_back(std::move(chain));
      ++chain_index;
    }
  }
  return result;
}

}  // namespace lbist::dft
