#include "jtag/tap.hpp"

#include <stdexcept>

namespace lbist::jtag {

std::string_view tapStateName(TapState s) {
  switch (s) {
    case TapState::kTestLogicReset:
      return "Test-Logic-Reset";
    case TapState::kRunTestIdle:
      return "Run-Test/Idle";
    case TapState::kSelectDrScan:
      return "Select-DR-Scan";
    case TapState::kCaptureDr:
      return "Capture-DR";
    case TapState::kShiftDr:
      return "Shift-DR";
    case TapState::kExit1Dr:
      return "Exit1-DR";
    case TapState::kPauseDr:
      return "Pause-DR";
    case TapState::kExit2Dr:
      return "Exit2-DR";
    case TapState::kUpdateDr:
      return "Update-DR";
    case TapState::kSelectIrScan:
      return "Select-IR-Scan";
    case TapState::kCaptureIr:
      return "Capture-IR";
    case TapState::kShiftIr:
      return "Shift-IR";
    case TapState::kExit1Ir:
      return "Exit1-IR";
    case TapState::kPauseIr:
      return "Pause-IR";
    case TapState::kExit2Ir:
      return "Exit2-IR";
    case TapState::kUpdateIr:
      return "Update-IR";
  }
  return "?";
}

TapState tapNextState(TapState s, bool tms) {
  switch (s) {
    case TapState::kTestLogicReset:
      return tms ? TapState::kTestLogicReset : TapState::kRunTestIdle;
    case TapState::kRunTestIdle:
      return tms ? TapState::kSelectDrScan : TapState::kRunTestIdle;
    case TapState::kSelectDrScan:
      return tms ? TapState::kSelectIrScan : TapState::kCaptureDr;
    case TapState::kCaptureDr:
      return tms ? TapState::kExit1Dr : TapState::kShiftDr;
    case TapState::kShiftDr:
      return tms ? TapState::kExit1Dr : TapState::kShiftDr;
    case TapState::kExit1Dr:
      return tms ? TapState::kUpdateDr : TapState::kPauseDr;
    case TapState::kPauseDr:
      return tms ? TapState::kExit2Dr : TapState::kPauseDr;
    case TapState::kExit2Dr:
      return tms ? TapState::kUpdateDr : TapState::kShiftDr;
    case TapState::kUpdateDr:
      return tms ? TapState::kSelectDrScan : TapState::kRunTestIdle;
    case TapState::kSelectIrScan:
      return tms ? TapState::kTestLogicReset : TapState::kCaptureIr;
    case TapState::kCaptureIr:
      return tms ? TapState::kExit1Ir : TapState::kShiftIr;
    case TapState::kShiftIr:
      return tms ? TapState::kExit1Ir : TapState::kShiftIr;
    case TapState::kExit1Ir:
      return tms ? TapState::kUpdateIr : TapState::kPauseIr;
    case TapState::kPauseIr:
      return tms ? TapState::kExit2Ir : TapState::kPauseIr;
    case TapState::kExit2Ir:
      return tms ? TapState::kUpdateIr : TapState::kShiftIr;
    case TapState::kUpdateIr:
      return tms ? TapState::kSelectDrScan : TapState::kRunTestIdle;
  }
  return TapState::kTestLogicReset;
}

bool DataRegister::shiftBit(bool tdi) {
  const bool out = bits_.front() != 0;
  for (size_t i = 0; i + 1 < bits_.size(); ++i) bits_[i] = bits_[i + 1];
  bits_.back() = tdi ? 1 : 0;
  return out;
}

void DataRegister::setBits(const std::vector<uint8_t>& b) {
  if (b.size() != bits_.size()) {
    throw std::invalid_argument("data register width mismatch");
  }
  bits_ = b;
}

namespace {

class IdcodeRegister final : public DataRegister {
 public:
  explicit IdcodeRegister(uint32_t idcode)
      : DataRegister(32), idcode_(idcode) {}

  void capture() override {
    for (int i = 0; i < 32; ++i) {
      bits_[static_cast<size_t>(i)] =
          static_cast<uint8_t>((idcode_ >> i) & 1u);
    }
  }

 private:
  uint32_t idcode_;
};

}  // namespace

TapController::TapController(int ir_length, uint32_t idcode)
    : ir_length_(ir_length), idcode_(std::make_unique<IdcodeRegister>(idcode)) {
  if (ir_length < 2 || ir_length > 32) {
    throw std::invalid_argument("IR length must be in [2,32]");
  }
  ir_ = idcodeOpcode();  // IDCODE selected after reset per the standard
}

void TapController::bindInstruction(uint32_t opcode, std::string name,
                                    DataRegister* dr) {
  if (opcode == bypassOpcode() || opcode == idcodeOpcode()) {
    throw std::invalid_argument("opcode reserved for BYPASS/IDCODE");
  }
  for (const Binding& b : bindings_) {
    if (b.opcode == opcode) {
      throw std::invalid_argument("duplicate opcode");
    }
  }
  bindings_.push_back(Binding{opcode, std::move(name), dr});
}

DataRegister* TapController::boundRegister(uint32_t opcode) const {
  for (const Binding& b : bindings_) {
    if (b.opcode == opcode) return b.dr;
  }
  return nullptr;
}

DataRegister* TapController::selectedRegister() {
  if (ir_ == idcodeOpcode()) return idcode_.get();
  for (const Binding& b : bindings_) {
    if (b.opcode == ir_) return b.dr;
  }
  return &bypass_;  // unknown opcodes select BYPASS per the standard
}

std::string_view TapController::currentInstructionName() const {
  if (ir_ == idcodeOpcode()) return "IDCODE";
  for (const Binding& b : bindings_) {
    if (b.opcode == ir_) return b.name;
  }
  return "BYPASS";
}

bool TapController::clockTck(bool tms, bool tdi) {
  bool tdo = false;
  // Output and shift happen in the *current* state; transition follows.
  switch (state_) {
    case TapState::kCaptureDr:
      selectedRegister()->capture();
      break;
    case TapState::kShiftDr:
      tdo = selectedRegister()->shiftBit(tdi);
      break;
    case TapState::kUpdateDr:
      break;  // update acted on entry; see below
    case TapState::kCaptureIr:
      ir_shift_ = 0b01;  // standard: capture 'x...01' into the IR
      break;
    case TapState::kShiftIr:
      tdo = (ir_shift_ & 1u) != 0;
      ir_shift_ = (ir_shift_ >> 1) |
                  (static_cast<uint32_t>(tdi ? 1 : 0) << (ir_length_ - 1));
      break;
    default:
      break;
  }

  const TapState next = tapNextState(state_, tms);
  // Entry actions.
  if (next == TapState::kUpdateDr && state_ != TapState::kUpdateDr) {
    // Update on entering Update-DR (falling-edge action in silicon).
    selectedRegister()->update();
  }
  if (next == TapState::kUpdateIr && state_ != TapState::kUpdateIr) {
    ir_ = ir_shift_ & irMask();
  }
  if (next == TapState::kTestLogicReset) {
    ir_ = idcodeOpcode();
  }
  state_ = next;
  return tdo;
}

void TapDriver::reset() {
  for (int i = 0; i < 5; ++i) clock(true);
  clock(false);  // settle in Run-Test/Idle
}

bool TapDriver::clock(bool tms, bool tdi) {
  ++tck_count_;
  return tap_->clockTck(tms, tdi);
}

void TapDriver::loadInstruction(uint32_t opcode) {
  // RTI -> Select-DR -> Select-IR -> Capture-IR -> Shift-IR.
  clock(true);
  clock(true);
  clock(false);
  clock(false);
  // Shift ir_length bits, LSB first; last bit with TMS=1 (to Exit1-IR).
  const int n = 32;
  int len = 0;
  // Determine IR length from the controller by probing opcode mask: the
  // driver knows it via construction in practice; here track via opcode
  // width of bypass (all ones).
  uint32_t mask = tap_->bypassOpcode();
  while (len < n && ((mask >> len) & 1u) != 0) ++len;
  for (int i = 0; i < len; ++i) {
    const bool last = i == len - 1;
    clock(last, ((opcode >> i) & 1u) != 0);
  }
  clock(true);   // Exit1-IR -> Update-IR
  clock(false);  // -> Run-Test/Idle
}

std::vector<uint8_t> TapDriver::shiftData(const std::vector<uint8_t>& in) {
  std::vector<uint8_t> out;
  out.reserve(in.size());
  clock(true);   // RTI -> Select-DR
  clock(false);  // -> Capture-DR
  clock(false);  // -> Shift-DR (first shift happens next clock)
  for (size_t i = 0; i < in.size(); ++i) {
    const bool last = i == in.size() - 1;
    out.push_back(clock(last, in[i] != 0) ? 1 : 0);
  }
  clock(true);   // Exit1-DR -> Update-DR
  clock(false);  // -> Run-Test/Idle
  return out;
}

void TapDriver::idle(size_t cycles) {
  for (size_t i = 0; i < cycles; ++i) clock(false);
}

}  // namespace lbist::jtag
