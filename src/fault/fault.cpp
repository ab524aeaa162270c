#include "fault/fault.hpp"

namespace lbist::fault {

std::string_view faultTypeName(FaultType t) {
  switch (t) {
    case FaultType::kStuckAt0:
      return "sa0";
    case FaultType::kStuckAt1:
      return "sa1";
    case FaultType::kSlowToRise:
      return "str";
    case FaultType::kSlowToFall:
      return "stf";
  }
  return "?";
}

namespace {

bool isTransitionKind(FaultType base) {
  return base == FaultType::kSlowToRise || base == FaultType::kSlowToFall;
}

/// Maps the "acts like stuck-at-0" polarity of the base model family.
FaultType lowFault(FaultType base_kind) {
  return isTransitionKind(base_kind) ? FaultType::kSlowToRise
                                     : FaultType::kStuckAt0;
}
FaultType highFault(FaultType base_kind) {
  return isTransitionKind(base_kind) ? FaultType::kSlowToFall
                                     : FaultType::kStuckAt1;
}

bool siteOnScanShiftPath(const Netlist& nl, GateId gate, uint8_t pin) {
  const Gate& g = nl.gate(gate);
  if ((g.flags & kFlagScanMux) != 0) {
    // Scan mux: SI pin (slot 1) and SE pin (slot 2) are exercised only
    // during shift; the chain flush test covers them.
    return pin == 1 || pin == 2;
  }
  return false;
}

}  // namespace

bool pinFaultCollapsesOntoStem(CellKind k, bool fault_is_low) {
  switch (k) {
    case CellKind::kBuf:
    case CellKind::kNot:
      return true;
    case CellKind::kAnd:
    case CellKind::kNand:
      return fault_is_low;
    case CellKind::kOr:
    case CellKind::kNor:
      return !fault_is_low;
    default:
      return false;
  }
}

FaultList FaultList::enumerate(const Netlist& nl, FaultType base_kind,
                               const FaultListOptions& opts) {
  FaultList fl;
  const Netlist::FanoutMap fanout = nl.buildFanoutMap();
  std::vector<uint8_t> drives_po(nl.numGates(), 0);
  for (const OutputPort& po : nl.outputs()) drives_po[po.driver.v] = 1;

  auto push = [&fl](GateId g, uint8_t pin, FaultType t, FaultStatus status) {
    fl.records_.push_back(FaultRecord{Fault{g, pin, t}, status, 0, -1});
  };

  nl.forEachGate([&](GateId id, const Gate& g) {
    if (g.kind == CellKind::kXSource) return;  // unknown source: no faults

    // Output stem faults.
    const bool stem_used = fanout.fanout(id).size() > 0;
    if (stem_used || drives_po[id.v] != 0) {
      FaultStatus low_status = FaultStatus::kUndetected;
      FaultStatus high_status = FaultStatus::kUndetected;
      if (!isTransitionKind(base_kind)) {
        if (g.kind == CellKind::kConst0) low_status = FaultStatus::kUntestable;
        if (g.kind == CellKind::kConst1) high_status = FaultStatus::kUntestable;
      } else if (g.kind == CellKind::kConst0 || g.kind == CellKind::kConst1) {
        // A tied net never transitions: both delay faults are untestable.
        low_status = high_status = FaultStatus::kUntestable;
      }
      push(id, kOutputPin, lowFault(base_kind), low_status);
      push(id, kOutputPin, highFault(base_kind), high_status);
    }

    // Input pin (fanout branch) faults.
    if (!opts.include_pin_faults) return;
    if (!isCombinational(g.kind) && g.kind != CellKind::kDff) return;
    for (uint8_t pin = 0; pin < g.fanins.size(); ++pin) {
      const GateId src = g.fanins[pin];
      const bool branch_distinct = fanout.fanout(src).size() > 1;
      if (opts.collapse && !branch_distinct) continue;  // branch == stem
      const bool chain = opts.mark_chain_faults &&
                         siteOnScanShiftPath(nl, id, pin);
      const FaultStatus st =
          chain ? FaultStatus::kChainTested : FaultStatus::kUndetected;
      if (!opts.collapse ||
          !pinFaultCollapsesOntoStem(g.kind, /*fault_is_low=*/true)) {
        push(id, pin, lowFault(base_kind), st);
      }
      if (!opts.collapse ||
          !pinFaultCollapsesOntoStem(g.kind, /*fault_is_low=*/false)) {
        push(id, pin, highFault(base_kind), st);
      }
    }
  });
  return fl;
}

FaultList FaultList::enumerateStuckAt(const Netlist& nl,
                                      const FaultListOptions& opts) {
  return enumerate(nl, FaultType::kStuckAt0, opts);
}

FaultList FaultList::enumerateTransition(const Netlist& nl,
                                         const FaultListOptions& opts) {
  return enumerate(nl, FaultType::kSlowToRise, opts);
}

void FaultList::recordDetection(size_t i, int64_t pattern_index) {
  FaultRecord& r = records_[i];
  if (r.status == FaultStatus::kUndetected) {
    r.status = FaultStatus::kDetected;
    r.first_detect_pattern = pattern_index;
  }
  ++r.detect_count;
}

Coverage FaultList::coverage() const {
  Coverage c;
  c.total = records_.size();
  for (const FaultRecord& r : records_) {
    switch (r.status) {
      case FaultStatus::kDetected:
        ++c.detected;
        break;
      case FaultStatus::kChainTested:
        ++c.chain_tested;
        break;
      case FaultStatus::kUntestable:
        ++c.untestable;
        break;
      case FaultStatus::kRedundant:
        ++c.redundant;
        break;
      case FaultStatus::kUndetected:
        break;
    }
  }
  return c;
}

std::vector<size_t> FaultList::undetectedIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].status == FaultStatus::kUndetected) out.push_back(i);
  }
  return out;
}

std::string Fault::describe(const Netlist& nl) const {
  std::string s = nl.gateName(gate);
  if (pin != kOutputPin) {
    s += ".in" + std::to_string(pin);
  }
  s += " ";
  s += faultTypeName(type);
  return s;
}

std::string FaultList::describe(const Netlist& nl, size_t i) const {
  return records_[i].fault.describe(nl);
}

}  // namespace lbist::fault
