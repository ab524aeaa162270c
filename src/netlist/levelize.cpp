#include "netlist/levelize.hpp"

#include <algorithm>
#include <stdexcept>

namespace lbist {

Levelized::Levelized(const Netlist& nl) {
  const size_t n = nl.numGates();
  level_.assign(n, 0);
  std::vector<uint32_t> pending(n, 0);  // unresolved comb fanins

  std::vector<GateId> ready;
  ready.reserve(n);
  order_.reserve(n);

  nl.forEachGate([&](GateId id, const Gate& g) {
    if (isSource(g.kind)) {
      ready.push_back(id);
      return;
    }
    uint32_t comb_deps = 0;
    for (GateId f : g.fanins) {
      if (isCombinational(nl.gate(f).kind)) ++comb_deps;
    }
    pending[id.v] = comb_deps;
    // Gates fed only by sources become ready immediately; they are
    // released when their source fanins are visited below, so count DFF
    // data pins (non-comb sinks) as always-ready.
    if (comb_deps == 0 && isCombinational(g.kind)) ready.push_back(id);
    if (g.kind == CellKind::kDff && comb_deps == 0) ready.push_back(id);
  });

  const Netlist::FanoutMap fanout = nl.buildFanoutMap();
  size_t cursor = 0;
  std::vector<GateId> queue = std::move(ready);
  while (cursor < queue.size()) {
    const GateId id = queue[cursor++];
    const Gate& g = nl.gate(id);
    uint32_t lvl = 0;
    if (isCombinational(g.kind)) {
      for (GateId f : g.fanins) lvl = std::max(lvl, level_[f.v] + 1);
    }
    level_[id.v] = lvl;
    max_level_ = std::max(max_level_, lvl);
    order_.push_back(id);
    // Only a *combinational* gate's completion satisfies a pending-fanin
    // dependency: `pending` counts combinational fanins, and gates whose
    // comb fanin count is zero were seeded as ready above. Decrementing on
    // source edges would release gates before their comb fanins finalize.
    if (!isCombinational(g.kind)) continue;
    for (GateId t : fanout.fanout(id)) {
      if (!isCombinational(nl.gate(t).kind)) continue;
      if (pending[t.v] > 0 && --pending[t.v] == 0) queue.push_back(t);
    }
  }

  size_t comb_total = 0;
  nl.forEachGate([&](GateId, const Gate& g) {
    if (isCombinational(g.kind)) ++comb_total;
  });
  size_t comb_seen = 0;
  for (GateId id : order_) {
    if (isCombinational(nl.gate(id).kind)) ++comb_seen;
  }
  if (comb_seen != comb_total) {
    throw std::runtime_error("levelization failed: combinational cycle");
  }

  // Bucket combinational gates by level: start[L] is level L's first slot.
  std::vector<uint32_t> start(max_level_ + 2, 0);
  for (GateId id : order_) {
    if (isCombinational(nl.gate(id).kind)) ++start[level_[id.v] + 1];
  }
  for (size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
  comb_order_.resize(comb_seen);
  for (GateId id : order_) {
    if (isCombinational(nl.gate(id).kind)) {
      comb_order_[start[level_[id.v]]++] = id;
    }
  }
}

}  // namespace lbist
