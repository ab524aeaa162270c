// Dual-rail miter construction (see cnf.hpp for the encoding story).
//
// Every rail-defining helper emits full Tseitin biconditionals, so a
// model's rail values are exactly the evalOp3 three-valued simulation
// of the stimulus it assigns — which is what lets test_sat replay SAT
// cubes through the fault simulator and treat any mismatch as an
// encoder bug rather than a heuristic gap.
#include "atpg/cnf.hpp"

#include <algorithm>
#include <cassert>

namespace lbist::atpg {

void CnfFormula::addClause(std::span<const CnfLit> lits) {
  if (contradiction_) return;
  scratch_.clear();
  for (CnfLit l : lits) {
    if (l == kLitTrue) return;     // clause already satisfied
    if (l == kLitFalse) continue;  // literal can never help
    scratch_.push_back(l);
  }
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());
  for (size_t i = 0; i + 1 < scratch_.size(); ++i) {
    if (negateLit(scratch_[i]) == scratch_[i + 1]) return;  // tautology
  }
  if (scratch_.empty()) {
    contradiction_ = true;
    return;
  }
  pool_.insert(pool_.end(), scratch_.begin(), scratch_.end());
  offsets_.push_back(static_cast<uint32_t>(pool_.size()));
}

void CnfFormula::appendRenamed(const CnfFormula& src, size_t first,
                               size_t last, std::span<const uint32_t> var_map) {
  if (contradiction_ || first == last) return;
  const uint32_t lo = src.offsets_[first];
  const uint32_t hi = src.offsets_[last];
  const auto base = static_cast<uint32_t>(pool_.size());
  pool_.resize(size_t{base} + (hi - lo));
  CnfLit* out = pool_.data() + base;
  for (uint32_t i = lo; i < hi; ++i) {
    const CnfLit l = src.pool_[i];
    *out++ = (var_map[litVar(l)] << 1) | (l & 1u);
  }
  for (size_t c = first + 1; c <= last; ++c) {
    offsets_.push_back(src.offsets_[c] - lo + base);
  }
}

void CnfFormula::clear() {
  num_vars_ = 0;
  pool_.clear();
  offsets_.resize(1);
  contradiction_ = false;
}

namespace {

constexpr uint32_t kNoOp = sim::CompiledNetlist::kNoOp;

Rails railsX() { return {kLitFalse, kLitFalse}; }

Rails railsConst(bool v) {
  return v ? Rails{kLitTrue, kLitFalse} : Rails{kLitFalse, kLitTrue};
}

// 01X inversion is a rail swap — no clauses.
Rails railsNot(Rails r) { return {r.zero, r.one}; }

// Tseitin definitions of gate rail functions into one formula. The
// literal buffers belong to the encoder and are reused from gate to
// gate.
class GateCnf {
 public:
  GateCnf(CnfFormula& cnf, std::vector<CnfLit>& ones,
          std::vector<CnfLit>& zeros, std::vector<CnfLit>& buf)
      : cnf_(&cnf), ones_(&ones), zeros_(&zeros), buf_(&buf) {}

  // Encodes the rail function of compiled op `op`, reading fanin rails
  // through `railOf(slot, gate)`. Each case mirrors the corresponding
  // evalOp3 branch, including controlling-value X-suppression (an AND
  // with one definite-0 input is definitely 0 whatever the others).
  template <typename RailFn>
  Rails op(const sim::CompiledNetlist& cn, uint32_t op, RailFn&& railOf) {
    using sim::OpCode;
    const std::span<const uint32_t> fan = cn.opFanins(op);
    std::vector<CnfLit>& ones = *ones_;
    std::vector<CnfLit>& zeros = *zeros_;
    ones.resize(fan.size());
    zeros.resize(fan.size());
    for (size_t i = 0; i < fan.size(); ++i) {
      const Rails r = railOf(i, fan[i]);
      ones[i] = r.one;
      zeros[i] = r.zero;
    }
    const auto in = [&](size_t i) { return Rails{ones[i], zeros[i]}; };
    switch (cn.opcode(op)) {
      case OpCode::kBuf:
        return in(0);
      case OpCode::kNot:
        return railsNot(in(0));
      case OpCode::kAnd2:
      case OpCode::kAndN:
        return {andOf(ones), orOf(zeros)};
      case OpCode::kNand2:
      case OpCode::kNandN:
        return {orOf(zeros), andOf(ones)};
      case OpCode::kOr2:
      case OpCode::kOrN:
        return {orOf(ones), andOf(zeros)};
      case OpCode::kNor2:
      case OpCode::kNorN:
        return {andOf(zeros), orOf(ones)};
      case OpCode::kXor2:
        return xorRails(in(0), in(1));
      case OpCode::kXnor2:
        return railsNot(xorRails(in(0), in(1)));
      case OpCode::kXorN:
      case OpCode::kXnorN: {
        Rails acc = railsConst(false);
        for (size_t i = 0; i < fan.size(); ++i) acc = xorRails(acc, in(i));
        return cn.opcode(op) == OpCode::kXnorN ? railsNot(acc) : acc;
      }
      case OpCode::kMux2: {
        // evalOp3: s==0 -> d0, s==1 -> d1, s==X -> d0 if d0==d1 else X.
        // The consensus term (d0 and d1 agree) covers the X-select
        // case. or3 defines its terms last to first; the variable
        // numbering depends on that order, and test_sat pins it.
        const Rails d0 = in(0);
        const Rails d1 = in(1);
        const Rails s = in(2);
        Rails r;
        r.one = or3(s.zero, d0.one, s.one, d1.one, d0.one, d1.one);
        r.zero = or3(s.zero, d0.zero, s.one, d1.zero, d0.zero, d1.zero);
        return r;
      }
    }
    assert(false && "unknown opcode");
    return railsX();
  }

 private:
  // Defines y <-> AND(buf) with constant folding, consuming the buffer;
  // returns the literal standing for the conjunction (possibly a
  // sentinel or an input).
  CnfLit andOfBuf() {
    std::vector<CnfLit>& in = *buf_;
    // Fold constants and duplicates first so trivial gates cost nothing.
    size_t k = 0;
    for (CnfLit l : in) {
      if (l == kLitFalse) return kLitFalse;
      if (l != kLitTrue) in[k++] = l;
    }
    in.resize(k);
    std::sort(in.begin(), in.end());
    in.erase(std::unique(in.begin(), in.end()), in.end());
    for (size_t i = 0; i + 1 < in.size(); ++i) {
      if (negateLit(in[i]) == in[i + 1]) return kLitFalse;  // l AND NOT l
    }
    if (in.empty()) return kLitTrue;
    if (in.size() == 1) return in[0];
    const CnfLit y = posLit(cnf_->newVar());
    for (CnfLit& l : in) {
      cnf_->addClause({l, negateLit(y)});
      l = negateLit(l);
    }
    in.push_back(y);
    cnf_->addClause(in);
    return y;
  }

  CnfLit andOf(std::span<const CnfLit> lits) {
    buf_->assign(lits.begin(), lits.end());
    return andOfBuf();
  }

  // y <-> OR(lits) by De Morgan over the AND definition.
  CnfLit orOf(std::span<const CnfLit> lits) {
    buf_->clear();
    for (CnfLit l : lits) buf_->push_back(negateLit(l));
    return negateLit(andOfBuf());
  }

  CnfLit and2(CnfLit a, CnfLit b) {
    const CnfLit lits[] = {a, b};
    return andOf(lits);
  }

  // OR of the two-input ANDs (a0 b0) and (a1 b1), the second defined
  // first: the variable numbering depends on the order.
  CnfLit or2(CnfLit a0, CnfLit b0, CnfLit a1, CnfLit b1) {
    const CnfLit t1 = and2(a1, b1);
    const CnfLit t0 = and2(a0, b0);
    const CnfLit lits[] = {t0, t1};
    return orOf(lits);
  }

  // OR of three two-input ANDs, defined last to first.
  CnfLit or3(CnfLit a0, CnfLit b0, CnfLit a1, CnfLit b1, CnfLit a2,
             CnfLit b2) {
    const CnfLit t2 = and2(a2, b2);
    const CnfLit t1 = and2(a1, b1);
    const CnfLit t0 = and2(a0, b0);
    const CnfLit lits[] = {t0, t1, t2};
    return orOf(lits);
  }

  // Rails of a XOR2 in the 01X tables: definite only when both inputs
  // are definite.
  Rails xorRails(Rails a, Rails b) {
    Rails r;
    r.one = or2(a.one, b.zero, a.zero, b.one);
    r.zero = or2(a.one, b.one, a.zero, b.zero);
    return r;
  }

  CnfFormula* cnf_;
  std::vector<CnfLit>* ones_;
  std::vector<CnfLit>* zeros_;
  std::vector<CnfLit>* buf_;
};

}  // namespace

MiterEncoder::MiterEncoder(const Netlist& nl, const sim::CompiledNetlist& cn,
                           const std::vector<GateId>& observed,
                           const std::vector<GateId>& assignable)
    : nl_(&nl), cn_(&cn) {
  const size_t n = nl.numGates();
  is_observed_.assign(n, 0);
  for (GateId g : observed) is_observed_[g.v] = 1;
  is_assignable_.assign(n, 0);
  for (GateId g : assignable) is_assignable_[g.v] = 1;
  source_value_.assign(n, kFree);
  cone_stamp_.assign(n, 0);
  support_stamp_.assign(n, 0);
  faulty_.resize(n);
  dvar_.resize(n);
}

void MiterEncoder::fixSource(GateId id, bool value) {
  source_value_[id.v] = value ? 1 : 0;
  is_assignable_[id.v] = 0;
  gm_ready_ = false;
}

void MiterEncoder::encodeGoodMachine() {
  const size_t n = nl_->numGates();
  gm_.clear();
  gm_rails_.assign(n, Rails{});
  gm_block_.assign(n, GateBlock{});
  const auto begin = [&](uint32_t g) {
    gm_block_[g].var_begin = static_cast<uint32_t>(gm_.numVars());
    gm_block_[g].clause_begin = static_cast<uint32_t>(gm_.numClauses());
  };
  const auto end = [&](uint32_t g) {
    gm_block_[g].var_end = static_cast<uint32_t>(gm_.numVars());
    gm_block_[g].clause_end = static_cast<uint32_t>(gm_.numClauses());
  };
  // Sources in gate-index order: a fixed source is a constant, an
  // assignable one a fresh stimulus variable, anything else X (unloaded
  // non-scan state, unbound X sources).
  for (uint32_t g = 0; g < n; ++g) {
    if (cn_->opOf(GateId{g}) != kNoOp) continue;
    begin(g);
    Rails& r = gm_rails_[g];
    if (source_value_[g] != kFree) {
      r = railsConst(source_value_[g] != 0);
    } else if (nl_->gate(GateId{g}).kind == CellKind::kConst0) {
      r = railsConst(false);
    } else if (nl_->gate(GateId{g}).kind == CellKind::kConst1) {
      r = railsConst(true);
    } else if (is_assignable_[g] != 0) {
      const uint32_t v = gm_.newVar();
      r = {posLit(v), negLit(v)};
    } else {
      r = railsX();
    }
    end(g);
  }
  // Then the op stream in its topological order.
  GateCnf gates(gm_, ones_, zeros_, lits_);
  for (uint32_t op = 0; op < cn_->numOps(); ++op) {
    const uint32_t g = cn_->opGate(op);
    begin(g);
    const Rails r = gates.op(*cn_, op, [&](size_t, uint32_t src) {
      return gm_rails_[src];
    });
    gm_rails_[g] = r;
    end(g);
  }
  var_map_.resize(gm_.numVars());
  gm_ready_ = true;
}

void MiterEncoder::nextEpoch() {
  if (++epoch_ != 0) return;
  // Wrapped: a stale stamp could alias the new epoch.
  std::fill(cone_stamp_.begin(), cone_stamp_.end(), 0);
  std::fill(support_stamp_.begin(), support_stamp_.end(), 0);
  epoch_ = 1;
}

Rails MiterEncoder::goodRails(uint32_t g) const {
  const auto renumber = [&](CnfLit l) {
    if (l >= kLitTrue) return l;  // constant sentinel
    return (var_map_[litVar(l)] << 1) | (l & 1u);
  };
  return {renumber(gm_rails_[g].one), renumber(gm_rails_[g].zero)};
}

const FaultMiter& MiterEncoder::encodeFault(const fault::Fault& f) {
  if (!gm_ready_) encodeGoodMachine();
  FaultMiter& m = miter_;
  m.cnf.clear();
  m.stimulus.clear();
  m.trivially_untestable = false;
  const Gate& site_gate = nl_->gate(f.gate);
  // Site polarity, exactly as the PODEM engines force it: only sa1
  // holds the site at 1; sa0 and the transition polarities hold it 0.
  const bool faulty_one = f.type == fault::FaultType::kStuckAt1;
  m.direct =
      f.pin != fault::kOutputPin && site_gate.kind == CellKind::kDff;
  if (m.direct && (site_gate.flags & kFlagScanCell) == 0) {
    m.trivially_untestable = true;  // capture of a non-scan cell is blind
    return m;
  }
  nextEpoch();
  cone_.clear();
  if (!m.direct) {
    // Fault output cone: combinational closure from the site.
    cone_stamp_[f.gate.v] = epoch_;
    cone_.push_back(f.gate.v);
    for (size_t i = 0; i < cone_.size(); ++i) {
      for (const sim::CompiledNetlist::FanoutEntry& e :
           cn_->combFanout(cone_[i])) {
        if (inCone(e.gate)) continue;
        cone_stamp_[e.gate] = epoch_;
        cone_.push_back(e.gate);
      }
    }
    // An empty observed cone is a structural redundancy proof (the same
    // check the PODEM engines make).
    const auto observed = [&](uint32_t g) { return is_observed_[g] != 0; };
    if (std::none_of(cone_.begin(), cone_.end(), observed)) {
      m.trivially_untestable = true;
      return m;
    }
  }
  copySupport(f, m.direct);
  if (m.direct) {
    // Justification-only: the capture itself observes the D pin, so the
    // miter is the good machine plus a unit clause holding the driver
    // at the activation value.
    const Rails r = goodRails(site_gate.fanins[f.pin].v);
    m.cnf.addClause({faulty_one ? r.zero : r.one});
    return m;
  }
  encodeFaultyCone(f, faulty_one);
  encodeDChain(f);
  return m;
}

void MiterEncoder::copySupport(const fault::Fault& f, bool direct) {
  // Transitive good-machine support of everything the miter mentions:
  // cone gates (their good rails feed the D variables) pulled down
  // through comb fanins. support_ doubles as the worklist.
  support_.clear();
  const auto require = [&](uint32_t g) {
    if (support_stamp_[g] == epoch_) return;
    support_stamp_[g] = epoch_;
    support_.push_back(g);
  };
  if (direct) {
    require(nl_->gate(f.gate).fanins[f.pin].v);
  } else {
    for (uint32_t g : cone_) require(g);
  }
  for (size_t i = 0; i < support_.size(); ++i) {
    const uint32_t op = cn_->opOf(GateId{support_[i]});
    if (op == kNoOp) continue;
    for (uint32_t src : cn_->opFanins(op)) require(src);
  }
  // Keep the gates owning variables, in global variable order — the
  // order a per-target encode of this support allocates them in — and
  // renumber their variables densely.
  std::erase_if(support_, [&](uint32_t g) {
    return gm_block_[g].var_begin == gm_block_[g].var_end;
  });
  std::sort(support_.begin(), support_.end(), [&](uint32_t a, uint32_t b) {
    return gm_block_[a].var_begin < gm_block_[b].var_begin;
  });
  uint32_t next = 0;
  for (uint32_t g : support_) {
    if (cn_->opOf(GateId{g}) == kNoOp) {
      miter_.stimulus.push_back({GateId{g}, next});
    }
    const GateBlock& b = gm_block_[g];
    for (uint32_t v = b.var_begin; v < b.var_end; ++v) var_map_[v] = next++;
  }
  miter_.cnf.newVars(next);
  // The renumbering is monotone, so every copied clause stays sorted
  // and folded.
  for (uint32_t g : support_) {
    const GateBlock& b = gm_block_[g];
    miter_.cnf.appendRenamed(gm_, b.clause_begin, b.clause_end, var_map_);
  }
}

void MiterEncoder::encodeFaultyCone(const fault::Fault& f, bool faulty_one) {
  // Faulty-machine rails for cone gates, in op order; everything
  // outside the cone aliases the good machine.
  cone_ops_.clear();
  for (uint32_t g : cone_) {
    faulty_[g] = railsX();
    const uint32_t op = cn_->opOf(GateId{g});
    if (op != kNoOp) cone_ops_.push_back(op);
  }
  std::sort(cone_ops_.begin(), cone_ops_.end());
  const Rails site_forced = railsConst(faulty_one);
  const bool output_site = f.pin == fault::kOutputPin;
  if (output_site) faulty_[f.gate.v] = site_forced;
  GateCnf gates(miter_.cnf, ones_, zeros_, lits_);
  for (uint32_t op : cone_ops_) {
    const uint32_t g = cn_->opGate(op);
    if (output_site && g == f.gate.v) continue;
    faulty_[g] = gates.op(*cn_, op, [&](size_t slot, uint32_t src) {
      if (g == f.gate.v && slot == f.pin) return site_forced;
      return inCone(src) ? faulty_[src] : goodRails(src);
    });
  }
}

void MiterEncoder::encodeDChain(const fault::Fault& f) {
  CnfFormula& cnf = miter_.cnf;
  // D variables: d(g) asserts both machines definite and opposite on
  // net g. Soundness needs only the d -> difference direction; the
  // chain/seed/detection clauses below force a propagation path to
  // exist, which is where the pruning comes from.
  for (uint32_t g : cone_) dvar_[g] = cnf.newVar();
  for (uint32_t g : cone_) {
    const CnfLit d = posLit(dvar_[g]);
    const Rails gd = goodRails(g);
    const Rails fd = faulty_[g];
    cnf.addClause({negateLit(d), gd.one, gd.zero});
    cnf.addClause({negateLit(d), fd.one, fd.zero});
    cnf.addClause({negateLit(d), negateLit(gd.one), negateLit(fd.one)});
    cnf.addClause({negateLit(d), negateLit(gd.zero), negateLit(fd.zero)});
    // Chain: a difference anywhere but an observed net must reach a
    // cone fanout.
    if (is_observed_[g] != 0) continue;
    lits_.assign(1, negateLit(d));
    for (const sim::CompiledNetlist::FanoutEntry& e : cn_->combFanout(g)) {
      if (inCone(e.gate)) lits_.push_back(posLit(dvar_[e.gate]));
    }
    cnf.addClause(lits_);
  }
  // Activation seed (the site must differ) and detection (some
  // observed net must differ).
  cnf.addClause({posLit(dvar_[f.gate.v])});
  lits_.clear();
  for (uint32_t g : cone_) {
    if (is_observed_[g] != 0) lits_.push_back(posLit(dvar_[g]));
  }
  cnf.addClause(lits_);
}

}  // namespace lbist::atpg
