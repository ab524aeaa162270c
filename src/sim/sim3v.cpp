#include "sim/sim3v.hpp"

namespace lbist::sim {

Simulator3v::Simulator3v(const Netlist& nl) : nl_(&nl), lev_(nl) {
  values_.assign(nl.numGates(), Word3v{0, 0});
  ins_.reserve(16);
  nl.forEachGate([&](GateId id, const Gate& g) {
    switch (g.kind) {
      case CellKind::kConst1:
        values_[id.v] = {~uint64_t{0}, 0};
        break;
      case CellKind::kXSource:
        values_[id.v] = {0, ~uint64_t{0}};
        break;
      default:
        break;
    }
  });
}

void Simulator3v::eval() {
  for (GateId id : lev_.combOrder()) {
    const Gate& g = nl_->gate(id);
    ins_.clear();
    for (GateId f : g.fanins) ins_.push_back(values_[f.v]);
    values_[id.v] = evalWord3v(g.kind, ins_);
  }
}

}  // namespace lbist::sim
