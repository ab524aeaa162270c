#include "core/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "bist/lfsr.hpp"
#include "obs/obs.hpp"

namespace lbist::core {

BistSession::BistSession(const BistReadyCore& core, const Netlist& die)
    : core_(&core), die_(&die), sim_(die) {
  // Injected faults may append tie cells, so the die can be slightly
  // larger than the reference; it must never be smaller.
  if (die.numGates() < core.netlist.numGates() ||
      die.numDomains() != core.netlist.numDomains()) {
    throw std::invalid_argument(
        "die must be structurally compatible with the BIST-ready core");
  }
  for (const DomainBist& db : core.domain_bist) {
    prpgs_.emplace_back(db.prpg);
    odcs_.emplace_back(db.odc);
    slice_.emplace_back(db.chain_indices.size(), 0);
    so_words_.emplace_back(db.chain_indices.size(), 0);
  }
  holdInputs();
  die_program_ = buildShiftProgram();
}

void BistSession::holdInputs() {
  for (GateId pi : die_->inputs()) sim_.setInput(pi, 0);
  if (core_->scan.test_mode_port.valid()) {
    sim_.setInput(core_->scan.test_mode_port, ~uint64_t{0});
  }
  if (auto tm = die_->findGateByName(dft::kTestModePort)) {
    sim_.setInput(*tm, ~uint64_t{0});
  }
}

BistSession::ShiftProgram BistSession::buildShiftProgram() const {
  using sim::kX3;
  const Netlist& nl = *die_;
  const sim::CompiledNetlist& cn = sim_.compiled();
  ShiftProgram program;

  // Gates a force acts on differ between lanes, so they count as X.
  const std::vector<GateId> forced_gates = sim_.forcedGates();
  std::vector<uint8_t> forced(nl.numGates(), 0);
  for (GateId g : forced_gates) forced[g.v] = 1;
  const auto eval3 = [&](std::vector<uint8_t>& vals) {
    const auto read = [&](size_t, uint32_t f) { return vals[f]; };
    for (uint32_t op = 0; op < cn.numOps(); ++op) {
      const uint32_t g = cn.opGate(op);
      vals[g] = forced[g] != 0 ? kX3 : cn.evalOp3(op, read);
    }
  };

  // Session-constant gates. Every source but the flops, the SI ports and
  // SE keeps the value holdInputs() (or construction) gave it for the
  // whole session, so one 01X pass with those three at X marks the gates
  // no pulse can change.
  std::vector<uint8_t> held(nl.numGates(), kX3);
  nl.forEachGate([&](GateId id, const Gate& g) {
    if (!isCombinational(g.kind) && g.kind != CellKind::kDff) {
      held[id.v] = static_cast<uint8_t>(sim_.value(id) & 1u);
    }
  });
  held[core_->scan.se_port.v] = kX3;
  for (const dft::ScanChain& c : core_->scan.chains) held[c.si_port.v] = kX3;
  eval3(held);
  // Shift mode: the same with SE = 1.
  std::vector<uint8_t> shift = held;
  shift[core_->scan.se_port.v] = 1;
  eval3(shift);
  // The select of an unforced MUX in `vals`, or kX3 for any other gate.
  const auto select = [&](GateId id, const std::vector<uint8_t>& vals) {
    const Gate& g = nl.gate(id);
    if (g.kind != CellKind::kMux2 || forced[id.v] != 0) return kX3;
    return vals[g.fanins[2].v];
  };

  // Live flops: those whose state can reach a MISR. Walk back from the
  // scan-out cells, stopping at session-constant gates; a MUX whose
  // select is session-constant is followed only through the selected
  // input. Dead flops (an X-bounded non-scan flop, say) are not loaded
  // by shift pulses: nothing a MISR sees depends on them, and capture
  // pulses re-evaluate the whole core from the sources anyway.
  std::vector<uint8_t> seen(nl.numGates(), 0);
  std::vector<GateId> stack;
  const auto visit = [&](GateId g) {
    if (seen[g.v] == 0 && held[g.v] == kX3) {
      seen[g.v] = 1;
      stack.push_back(g);
    }
  };
  std::vector<GateId> live;
  for (const dft::ScanChain& c : core_->scan.chains) visit(c.so_driver);
  while (!stack.empty()) {
    const GateId id = stack.back();
    stack.pop_back();
    const Gate& g = nl.gate(id);
    if (g.kind == CellKind::kDff) live.push_back(id);
    if (const uint8_t sel = select(id, held); sel != kX3) {
      visit(g.fanins[sel]);
    } else {
      for (GateId f : g.fanins) visit(f);
    }
  }
  std::sort(live.begin(), live.end());

  // Shift program: the ops in the live flops' D cones with SE = 1. A
  // flop loads through every unforced MUX whose select is known in shift
  // mode, so on an intact die each scan cell loads its scan predecessor
  // and the program is empty. The cones stop at session-constant gates,
  // which already hold their values.
  std::fill(seen.begin(), seen.end(), 0);
  const auto need = [&](GateId g) {
    if (seen[g.v] == 0 && held[g.v] == kX3 &&
        isCombinational(nl.gate(g).kind)) {
      seen[g.v] = 1;
      stack.push_back(g);
    }
  };
  for (GateId dff : live) {
    GateId from = nl.gate(dff).fanins[0];
    uint8_t sel = select(from, shift);
    while (sel != kX3) {
      from = nl.gate(from).fanins[sel];
      sel = select(from, shift);
    }
    program.loads.push_back({dff, from});
    need(from);
    while (!stack.empty()) {
      const GateId id = stack.back();
      stack.pop_back();
      program.ops.push_back(cn.opOf(id));
      for (GateId f : nl.gate(id).fanins) need(f);
    }
  }
  std::sort(program.ops.begin(), program.ops.end());
  return program;
}

void BistSession::seedPrpgs() {
  for (size_t i = 0; i < prpgs_.size(); ++i) {
    prpgs_[i].loadSeed(core_->domain_bist[i].prpg.seed);
    odcs_[i].reset();
  }
}

void BistSession::shiftCycle(const ShiftProgram& program) {
  // PRPG outputs feed the SI ports; MISRs compact the SO values present
  // before the edge; then one shift edge clocks every domain, the PRPGs
  // and the MISRs together (they share the slow shift clock).
  for (size_t i = 0; i < prpgs_.size(); ++i) {
    const DomainBist& db = core_->domain_bist[i];
    for (size_t c = 0; c < db.chain_indices.size(); ++c) {
      const dft::ScanChain& chain =
          core_->scan.chains[db.chain_indices[c]];
      so_words_[i][c] = sim_.state(chain.so_driver);
    }
    odcs_[i].compact(so_words_[i]);
    prpgs_[i].nextSlice(slice_[i]);
    for (size_t c = 0; c < db.chain_indices.size(); ++c) {
      const dft::ScanChain& chain =
          core_->scan.chains[db.chain_indices[c]];
      sim_.setInput(chain.si_port, slice_[i][c] != 0 ? ~uint64_t{0} : 0);
    }
  }
  sim_.pulseOps(program.ops, program.loads);
}

SessionResult BistSession::run(const SessionOptions& opts,
                               const SessionResult* golden) {
  return std::move(run(opts, {}, golden).front());
}

std::vector<SessionResult> BistSession::run(
    const SessionOptions& opts, std::span<const fault::Fault> faults,
    const SessionResult* golden) {
  OBS_SPAN("session.run");
  if (faults.size() > kMaxFaults) {
    throw std::invalid_argument("BistSession::run: more than 63 faults");
  }
  std::vector<sim::SeqSimulator::Force> forces;
  for (size_t k = 0; k < faults.size(); ++k) {
    const fault::Fault& f = faults[k];
    if (f.type != fault::FaultType::kStuckAt0 &&
        f.type != fault::FaultType::kStuckAt1) {
      throw std::invalid_argument(
          "BistSession::run: only stuck-at faults can be forced");
    }
    const bool one = f.type == fault::FaultType::kStuckAt1;
    forces.push_back({f.gate, f.pin, one, uint64_t{1} << (k + 1)});
  }
  sim_.setForces(forces);
  const ShiftProgram pass_program =
      faults.empty() ? ShiftProgram{} : buildShiftProgram();
  const ShiftProgram& program = faults.empty() ? die_program_ : pass_program;
  const size_t lanes = faults.size() + 1;
  std::vector<SessionResult> results(lanes);

  // Reset: known state everywhere (hardware gets this from the first full
  // shift window; starting from zero keeps the golden run reproducible).
  // One settle puts the session-constant gates at their values before
  // the first shift pulse, which does not evaluate them.
  sim_.resetState(0);
  holdInputs();
  sim_.settle();
  seedPrpgs();

  bist::BistController ctrl;
  ctrl.setSignatureInterval(opts.signature_interval);
  ctrl.start();
  ctrl.seedsLoaded();

  const int shift_cycles = core_->shiftCyclesPerPattern();
  const bist::AtSpeedTimingConfig& timing =
      opts.timing_override ? *opts.timing_override : core_->config.timing;
  bist::BistSchedule sched(die_->domains(), timing, shift_cycles,
                           opts.patterns);

  auto snapshot = [&]() {
    for (size_t lane = 0; lane < lanes; ++lane) {
      SignatureCheckpoint cp;
      cp.patterns_done = ctrl.patternsDone();
      for (const bist::LaneOdc& odc : odcs_) {
        cp.domain_words.push_back(odc.signature(static_cast<int>(lane)));
      }
      results[lane].checkpoints.push_back(std::move(cp));
    }
  };

  uint64_t shifts = 0;
  uint64_t captures = 0;
  uint64_t session_ps = 0;
  while (auto ev = sched.next()) {
    ctrl.onEvent(*ev);
    if (ctrl.checkpointDue()) snapshot();
    switch (ev->kind) {
      case bist::ScheduleEvent::Kind::kShiftPulse:
        sim_.setInput(core_->scan.se_port, ~uint64_t{0});
        shiftCycle(program);
        ++shifts;
        break;
      case bist::ScheduleEvent::Kind::kSeFall:
        sim_.setInput(core_->scan.se_port, 0);
        break;
      case bist::ScheduleEvent::Kind::kLaunchPulse:
      case bist::ScheduleEvent::Kind::kCapturePulse:
        sim_.pulse(ev->domain);
        ++captures;
        break;
      case bist::ScheduleEvent::Kind::kSeRise:
        sim_.setInput(core_->scan.se_port, ~uint64_t{0});
        break;
      case bist::ScheduleEvent::Kind::kPatternEnd:
        break;
      case bist::ScheduleEvent::Kind::kSessionEnd:
        session_ps = ev->time_ps;
        break;
    }
  }

  // Final unload: shift the last captured responses into the MISRs.
  sim_.setInput(core_->scan.se_port, ~uint64_t{0});
  for (int s = 0; s < shift_cycles; ++s) shiftCycle(program);
  shifts += static_cast<uint64_t>(shift_cycles);
  OBS_COUNT("session.passes", 1);
  OBS_COUNT("session.pulses", shifts + captures);
  OBS_COUNT("session.ops", shifts * program.ops.size() +
                               captures * sim_.compiled().numOps());

  for (size_t lane = 0; lane < lanes; ++lane) {
    SessionResult& res = results[lane];
    res.patterns_done = ctrl.patternsDone();
    res.shift_pulses = ctrl.shiftPulses();
    res.capture_pulses = ctrl.capturePulses();
    res.session_ps = session_ps;
    for (const bist::LaneOdc& odc : odcs_) {
      std::vector<uint64_t> words = odc.signature(static_cast<int>(lane));
      res.signatures.push_back(bist::WideMisr::hex(words));
      res.signature_words.push_back(std::move(words));
    }
    ctrl.setSignatureMatch(golden != nullptr &&
                           res.signatures == golden->signatures);
    res.finish = ctrl.finish();
    res.result_pass = ctrl.result();
  }
  return results;
}

}  // namespace lbist::core
