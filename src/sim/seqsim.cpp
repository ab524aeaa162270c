#include "sim/seqsim.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace lbist::sim {

namespace {

std::vector<std::vector<GateId>> groupDffsByDomain(const Netlist& nl) {
  std::vector<std::vector<GateId>> groups(nl.numDomains());
  for (GateId dff : nl.dffs()) {
    groups[nl.gate(dff).domain.v].push_back(dff);
  }
  return groups;
}

}  // namespace

SeqSimulator::SeqSimulator(const Netlist& nl)
    : sim_(nl), dffs_by_domain_(groupDffsByDomain(nl)) {}

void SeqSimulator::resetState(uint64_t word) {
  for (const auto& group : dffs_by_domain_) {
    for (GateId dff : group) sim_.setSource(dff, word);
  }
}

void SeqSimulator::setForces(std::span<const Force> forces) {
  forced_ops_.clear();
  forced_loads_.clear();
  if (forces.empty()) return;
  const Netlist& nl = sim_.netlist();
  const CompiledNetlist& cn = sim_.compiled();

  // One record per forced stem or pin; folded per gate below.
  struct Site {
    GateId gate;
    uint8_t pin;
    bool value;
    uint64_t lanes;
  };
  const auto by_gate = [](const Site& a, const Site& b) {
    return a.gate < b.gate;
  };
  std::vector<Site> sites;
  // Sources forced at the stem: every pin reading one is forced.
  std::vector<Site> stems;
  for (const Force& f : forces) {
    const Gate& g = nl.gate(f.gate);
    if (f.pin != kStem && f.pin >= g.fanins.size()) {
      throw std::invalid_argument("SeqSimulator::setForces: no such pin");
    }
    if (f.pin == kStem && !isCombinational(g.kind)) {
      stems.push_back({f.gate, f.pin, f.value, f.lanes});
    } else {
      sites.push_back({f.gate, f.pin, f.value, f.lanes});
    }
  }
  if (!stems.empty()) {
    std::sort(stems.begin(), stems.end(), by_gate);
    nl.forEachGate([&](GateId id, const Gate& g) {
      for (size_t slot = 0; slot < g.fanins.size(); ++slot) {
        const Site key{g.fanins[slot], kStem, false, 0};
        const auto pin = static_cast<uint8_t>(slot);
        auto it = std::lower_bound(stems.begin(), stems.end(), key, by_gate);
        for (; it != stems.end() && it->gate == key.gate; ++it) {
          sites.push_back({id, pin, it->value, it->lanes});
        }
      }
    });
  }

  std::stable_sort(sites.begin(), sites.end(), by_gate);
  for (const Site& s : sites) {
    const Gate& g = nl.gate(s.gate);
    if (g.kind == CellKind::kDff) {
      if (forced_loads_.empty() || forced_loads_.back().dff != s.gate) {
        forced_loads_.push_back({s.gate, g.domain, {}});
      }
      forced_loads_.back().d.add(s.lanes, s.value);
      continue;
    }
    if (forced_ops_.empty() || forced_ops_.back().op != cn.opOf(s.gate)) {
      forced_ops_.push_back({cn.opOf(s.gate), {}, {}});
    }
    ForcedOp& f = forced_ops_.back();
    if (s.pin == kStem) {
      f.out.add(s.lanes, s.value);
      continue;
    }
    auto pin = std::find_if(f.pins.begin(), f.pins.end(),
                            [&](const auto& p) { return p.first == s.pin; });
    if (pin == f.pins.end()) pin = f.pins.insert(f.pins.end(), {s.pin, {}});
    pin->second.add(s.lanes, s.value);
  }
  // Gate order is not op order: the op stream is level-major.
  std::sort(forced_ops_.begin(), forced_ops_.end(),
            [](const ForcedOp& a, const ForcedOp& b) { return a.op < b.op; });
}

std::vector<GateId> SeqSimulator::forcedGates() const {
  std::vector<GateId> gates;
  gates.reserve(forced_ops_.size());
  for (const ForcedOp& f : forced_ops_) {
    gates.push_back(GateId{sim_.compiled().opGate(f.op)});
  }
  std::sort(gates.begin(), gates.end());
  return gates;
}

uint64_t SeqSimulator::evalForcedOp(const ForcedOp& f,
                                    const uint64_t* v) const {
  const auto forced = [&](size_t slot, uint32_t g) {
    uint64_t x = v[g];
    for (const auto& [s, c] : f.pins) {
      if (s == slot) x = c.apply(x);
    }
    return x;
  };
  return f.out.apply(sim_.compiled().evalOp(f.op, forced));
}

void SeqSimulator::settle() {
  const CompiledNetlist& cn = sim_.compiled();
  uint64_t* v = sim_.rawValues().data();
  const auto plain = [&](size_t, uint32_t g) { return v[g]; };
  uint32_t op = 0;
  for (const ForcedOp& f : forced_ops_) {
    for (; op < f.op; ++op) v[cn.opGate(op)] = cn.evalOp(op, plain);
    v[cn.opGate(op)] = evalForcedOp(f, v);
    ++op;
  }
  const auto n = static_cast<uint32_t>(cn.numOps());
  for (; op < n; ++op) v[cn.opGate(op)] = cn.evalOp(op, plain);
}

void SeqSimulator::pulse(std::span<const DomainId> domains) {
  settle();
  next_.clear();
  for (DomainId d : domains) {
    for (GateId dff : dffs_by_domain_[d.v]) {
      next_.push_back(sim_.dffNextState(dff));
    }
  }
  size_t i = 0;
  for (DomainId d : domains) {
    for (GateId dff : dffs_by_domain_[d.v]) {
      sim_.setSource(dff, next_[i++]);
    }
  }
  // Every flop of a pulsed domain just loaded its D pin.
  for (const ForcedLoad& f : forced_loads_) {
    if (std::find(domains.begin(), domains.end(), f.domain) != domains.end()) {
      sim_.setSource(f.dff, f.d.apply(sim_.value(f.dff)));
    }
  }
}

void SeqSimulator::pulseAll() {
  std::vector<DomainId> all;
  all.reserve(dffs_by_domain_.size());
  for (uint16_t d = 0; d < dffs_by_domain_.size(); ++d) {
    all.push_back(DomainId{d});
  }
  pulse(all);
}

void SeqSimulator::pulseOps(std::span<const uint32_t> ops,
                            std::span<const Load> loads) {
  const CompiledNetlist& cn = sim_.compiled();
  uint64_t* v = sim_.rawValues().data();
  const auto plain = [&](size_t, uint32_t g) { return v[g]; };
  next_.resize(loads.size());
  // Both lists ascend, so one cursor each finds the forced entries.
  auto f = forced_ops_.begin();
  for (uint32_t op : ops) {
    while (f != forced_ops_.end() && f->op < op) ++f;
    const bool forced = f != forced_ops_.end() && f->op == op;
    v[cn.opGate(op)] = forced ? evalForcedOp(*f, v) : cn.evalOp(op, plain);
  }
  auto d = forced_loads_.begin();
  for (size_t i = 0; i < loads.size(); ++i) {
    assert(forced_loads_.empty() || i == 0 || loads[i - 1].dff < loads[i].dff);
    next_[i] = v[loads[i].from.v];
    while (d != forced_loads_.end() && d->dff < loads[i].dff) ++d;
    if (d != forced_loads_.end() && d->dff == loads[i].dff) {
      next_[i] = d->d.apply(next_[i]);
    }
  }
  for (size_t i = 0; i < loads.size(); ++i) v[loads[i].dff.v] = next_[i];
}

SeqSimulator3v::SeqSimulator3v(const Netlist& nl)
    : sim_(nl), dffs_by_domain_(groupDffsByDomain(nl)) {}

void SeqSimulator3v::resetStateAllX() {
  for (const auto& group : dffs_by_domain_) {
    for (GateId dff : group) sim_.setSourceAllX(dff);
  }
}

void SeqSimulator3v::resetState(uint64_t word) {
  for (const auto& group : dffs_by_domain_) {
    for (GateId dff : group) sim_.setSource(dff, Word3v{word, 0});
  }
}

void SeqSimulator3v::pulse(std::span<const DomainId> domains) {
  sim_.eval();
  next_.clear();
  for (DomainId d : domains) {
    for (GateId dff : dffs_by_domain_[d.v]) {
      next_.push_back(sim_.dffNextState(dff));
    }
  }
  size_t i = 0;
  for (DomainId d : domains) {
    for (GateId dff : dffs_by_domain_[d.v]) {
      sim_.setSource(dff, next_[i++]);
    }
  }
}

void SeqSimulator3v::pulseAll() {
  std::vector<DomainId> all;
  all.reserve(dffs_by_domain_.size());
  for (uint16_t d = 0; d < dffs_by_domain_.size(); ++d) {
    all.push_back(DomainId{d});
  }
  pulse(all);
}

}  // namespace lbist::sim
