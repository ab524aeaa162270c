// IEEE 1149.1 TAP controller, instruction register, and data registers.
//
// The paper's Fig. 1 exposes TDI/TDO/TCK/TSM: Boundary-Scan is the only
// test access the BISTed core needs — loading initial test data (PRPG
// seeds, golden signatures, pattern counts) and downloading internal
// states (MISR signatures) for fault diagnosis. This is a behavioural
// pin-level model: clockTck(tms, tdi) advances the 16-state FSM exactly
// as silicon would.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace lbist::jtag {

enum class TapState : uint8_t {
  kTestLogicReset,
  kRunTestIdle,
  kSelectDrScan,
  kCaptureDr,
  kShiftDr,
  kExit1Dr,
  kPauseDr,
  kExit2Dr,
  kUpdateDr,
  kSelectIrScan,
  kCaptureIr,
  kShiftIr,
  kExit1Ir,
  kPauseIr,
  kExit2Ir,
  kUpdateIr,
};

[[nodiscard]] std::string_view tapStateName(TapState s);

/// Next-state function of the standard TAP FSM.
[[nodiscard]] TapState tapNextState(TapState s, bool tms);

/// A test data register: capture loads system state into the shift
/// register, shift moves one bit TDI->TDO, update transfers the shifted
/// value to the system side.
class DataRegister {
 public:
  explicit DataRegister(size_t length) : bits_(length, 0) {}
  virtual ~DataRegister() = default;

  [[nodiscard]] size_t length() const { return bits_.size(); }

  /// Parallel capture (Capture-DR). Default: keep current bits.
  virtual void capture() {}
  /// Parallel update (Update-DR). Default: no system-side effect.
  virtual void update() {}

  /// One Shift-DR clock; returns the bit leaving on TDO (LSB first).
  /// Virtual so hierarchy glue (ForwardingRegister) can route the shift
  /// path to another register.
  virtual bool shiftBit(bool tdi);

  [[nodiscard]] const std::vector<uint8_t>& bits() const { return bits_; }
  void setBits(const std::vector<uint8_t>& b);

 protected:
  std::vector<uint8_t> bits_;
};

/// General-purpose register delegating capture/update to callbacks — the
/// glue the BIST top uses to expose seeds, control and signatures.
class CallbackRegister final : public DataRegister {
 public:
  using Loader = std::function<std::vector<uint8_t>()>;
  using Storer = std::function<void(const std::vector<uint8_t>&)>;

  CallbackRegister(size_t length, Loader on_capture, Storer on_update)
      : DataRegister(length),
        on_capture_(std::move(on_capture)),
        on_update_(std::move(on_update)) {}

  void capture() override {
    if (on_capture_) setBits(on_capture_());
  }
  void update() override {
    if (on_update_) on_update_(bits_);
  }

 private:
  Loader on_capture_;
  Storer on_update_;
};

/// Hierarchy glue for multi-core TAP access: forwards capture, shift and
/// update to the register returned by `selector` at each access — the
/// mechanism a chip-level TAP uses to expose the currently selected
/// core's BIST registers under one instruction set (soc::Chip). When the
/// selector yields nullptr (no core selected) the register degrades to a
/// 1-bit bypass. The forwarded register keeps its own length, so hosts
/// shift exactly the selected core's register width.
class ForwardingRegister final : public DataRegister {
 public:
  using Selector = std::function<DataRegister*()>;

  explicit ForwardingRegister(Selector selector)
      : DataRegister(1), selector_(std::move(selector)) {}

  void capture() override {
    if (DataRegister* r = selector_()) {
      r->capture();
    } else {
      // Degraded 1-bit bypass: real silicon captures 0, so a host can
      // recognize the bypass by its leading-0 convention.
      bits_.assign(bits_.size(), 0);
    }
  }
  void update() override {
    if (DataRegister* r = selector_()) r->update();
  }
  bool shiftBit(bool tdi) override {
    if (DataRegister* r = selector_()) return r->shiftBit(tdi);
    return DataRegister::shiftBit(tdi);  // bypass-like 1-bit fallback
  }

 private:
  Selector selector_;
};

class TapController {
 public:
  TapController(int ir_length, uint32_t idcode);

  /// Registers `dr` under `opcode`; the controller keeps a non-owning
  /// pointer (caller manages lifetime, typically members of the BIST top).
  void bindInstruction(uint32_t opcode, std::string name, DataRegister* dr);

  /// One TCK rising edge with the given TMS/TDI; returns TDO.
  bool clockTck(bool tms, bool tdi);

  /// The register bound under `opcode` (nullptr when unbound) — lets a
  /// chip-level TAP forward to a core TAP's registers without driving the
  /// core's FSM pin by pin (ForwardingRegister selectors resolve through
  /// this).
  [[nodiscard]] DataRegister* boundRegister(uint32_t opcode) const;

  [[nodiscard]] TapState state() const { return state_; }
  [[nodiscard]] uint32_t currentInstruction() const { return ir_; }
  [[nodiscard]] std::string_view currentInstructionName() const;

  [[nodiscard]] uint32_t bypassOpcode() const {
    return irMask();  // all-ones per the standard
  }
  [[nodiscard]] uint32_t idcodeOpcode() const { return 0b0001; }

 private:
  [[nodiscard]] DataRegister* selectedRegister();
  /// The low ir_length bits set (a 32-bit IR sets them all).
  [[nodiscard]] uint32_t irMask() const {
    return ~uint32_t{0} >> (32 - ir_length_);
  }

  int ir_length_;
  TapState state_ = TapState::kTestLogicReset;
  uint32_t ir_ = 0;
  uint32_t ir_shift_ = 0;

  struct Binding {
    uint32_t opcode;
    std::string name;
    DataRegister* dr;
  };
  std::vector<Binding> bindings_;
  DataRegister bypass_{1};
  std::unique_ptr<DataRegister> idcode_;
};

/// Host-side convenience: drives TMS/TDI sequences for whole operations.
class TapDriver {
 public:
  explicit TapDriver(TapController& tap) : tap_(&tap) {}

  /// Five TMS=1 clocks: guaranteed Test-Logic-Reset from any state.
  void reset();
  /// Loads an instruction (leaves the FSM in Run-Test/Idle).
  void loadInstruction(uint32_t opcode);
  /// Shifts `in` through the selected DR (LSB first), returns captured
  /// outgoing bits; passes through Update-DR and back to Run-Test/Idle.
  std::vector<uint8_t> shiftData(const std::vector<uint8_t>& in);
  /// Clocks in Run-Test/Idle (e.g. while BIST runs).
  void idle(size_t cycles);

  [[nodiscard]] uint64_t tckCount() const { return tck_count_; }

 private:
  bool clock(bool tms, bool tdi = false);

  TapController* tap_;
  uint64_t tck_count_ = 0;
};

}  // namespace lbist::jtag
