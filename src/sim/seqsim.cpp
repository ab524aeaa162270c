#include "sim/seqsim.hpp"

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

void SeqSimulator::pulse(std::span<const DomainId> domains) {
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
  for (uint32_t op : ops) {
    v[cn.opGate(op)] =
        cn.evalOp(op, [&](size_t, uint32_t g) { return v[g]; });
  }
  next_.resize(loads.size());
  for (size_t i = 0; i < loads.size(); ++i) next_[i] = v[loads[i].from.v];
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
