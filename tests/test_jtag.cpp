// IEEE 1149.1 TAP controller and driver.
#include <gtest/gtest.h>

#include "jtag/tap.hpp"

namespace lbist::jtag {
namespace {

TEST(TapFsm, ResetFromAnyStateInFiveTmsOnes) {
  for (int s = 0; s < 16; ++s) {
    TapState state = static_cast<TapState>(s);
    for (int i = 0; i < 5; ++i) state = tapNextState(state, true);
    EXPECT_EQ(state, TapState::kTestLogicReset)
        << "from " << tapStateName(static_cast<TapState>(s));
  }
}

TEST(TapFsm, CanonicalDrPath) {
  TapState s = TapState::kRunTestIdle;
  s = tapNextState(s, true);
  EXPECT_EQ(s, TapState::kSelectDrScan);
  s = tapNextState(s, false);
  EXPECT_EQ(s, TapState::kCaptureDr);
  s = tapNextState(s, false);
  EXPECT_EQ(s, TapState::kShiftDr);
  s = tapNextState(s, false);
  EXPECT_EQ(s, TapState::kShiftDr) << "Shift-DR self-loops on TMS=0";
  s = tapNextState(s, true);
  EXPECT_EQ(s, TapState::kExit1Dr);
  s = tapNextState(s, false);
  EXPECT_EQ(s, TapState::kPauseDr);
  s = tapNextState(s, true);
  EXPECT_EQ(s, TapState::kExit2Dr);
  s = tapNextState(s, true);
  EXPECT_EQ(s, TapState::kUpdateDr);
  s = tapNextState(s, false);
  EXPECT_EQ(s, TapState::kRunTestIdle);
}

TEST(Tap, IdcodeReadsOutAfterReset) {
  TapController tap(4, 0xDEADBEEF);
  TapDriver driver(tap);
  driver.reset();
  // IDCODE is the selected instruction after reset; read 32 bits.
  const auto out = driver.shiftData(std::vector<uint8_t>(32, 0));
  uint32_t code = 0;
  for (int i = 0; i < 32; ++i) {
    if (out[static_cast<size_t>(i)] != 0) code |= uint32_t{1} << i;
  }
  EXPECT_EQ(code, 0xDEADBEEFu);
}

TEST(Tap, UnknownOpcodeSelectsBypass) {
  TapController tap(4, 0x1);
  TapDriver driver(tap);
  driver.reset();
  driver.loadInstruction(0b0110);  // nothing bound here
  EXPECT_EQ(tap.currentInstructionName(), "BYPASS");
  // BYPASS is a single-bit register: data emerges delayed by one bit.
  const std::vector<uint8_t> in{1, 0, 1, 1, 0};
  const auto out = driver.shiftData(in);
  for (size_t i = 1; i < in.size(); ++i) {
    EXPECT_EQ(out[i], in[i - 1]) << "bit " << i;
  }
}

TEST(Tap, ThirtyTwoBitIrSelectsThroughShiftAndUpdate) {
  // The widest IR the controller accepts: BYPASS is all 32 ones, and a
  // bound opcode reaches the IR through Shift-IR and Update-IR intact.
  TapController tap(32, 0xDEADBEEF);
  EXPECT_EQ(tap.bypassOpcode(), 0xFFFFFFFFu);
  std::vector<uint8_t> stored(8, 0);
  CallbackRegister reg(
      8, [&] { return stored; },
      [&](const std::vector<uint8_t>& b) { stored = b; });
  tap.bindInstruction(0x80000005u, "WIDE", &reg);

  TapDriver driver(tap);
  driver.reset();
  EXPECT_EQ(tap.currentInstructionName(), "IDCODE");
  driver.loadInstruction(0x80000005u);
  EXPECT_EQ(tap.currentInstruction(), 0x80000005u);
  EXPECT_EQ(tap.currentInstructionName(), "WIDE");
  const std::vector<uint8_t> value{1, 1, 0, 1, 0, 0, 1, 0};
  driver.shiftData(value);
  EXPECT_EQ(stored, value);

  driver.loadInstruction(0x5);
  EXPECT_EQ(tap.currentInstruction(), 0x5u);
  EXPECT_EQ(tap.currentInstructionName(), "BYPASS");
  driver.loadInstruction(tap.idcodeOpcode());
  EXPECT_EQ(tap.currentInstructionName(), "IDCODE");
  driver.loadInstruction(tap.bypassOpcode());
  EXPECT_EQ(tap.currentInstruction(), 0xFFFFFFFFu);
  EXPECT_EQ(tap.currentInstructionName(), "BYPASS");
}

TEST(Tap, CallbackRegisterRoundTrip) {
  TapController tap(4, 0x1);
  std::vector<uint8_t> stored(8, 0);
  CallbackRegister reg(
      8, [&] { return stored; },
      [&](const std::vector<uint8_t>& b) { stored = b; });
  tap.bindInstruction(0b0010, "REG", &reg);

  TapDriver driver(tap);
  driver.reset();
  driver.loadInstruction(0b0010);
  EXPECT_EQ(tap.currentInstructionName(), "REG");

  // Write 0b10110101 (LSB first).
  const std::vector<uint8_t> value{1, 0, 1, 0, 1, 1, 0, 1};
  driver.shiftData(value);
  EXPECT_EQ(stored, value);

  // Read it back: capture loads `stored`, shift returns it.
  const auto out = driver.shiftData(std::vector<uint8_t>(8, 0));
  EXPECT_EQ(out, value);
}

TEST(Tap, IrCaptureSeedsStandardPattern) {
  // Shifting the IR out must start with the mandated ...01 capture bits.
  TapController tap(4, 0x1);
  TapDriver driver(tap);
  driver.reset();
  // Manually walk to Shift-IR and collect TDO while shifting 4 bits.
  tap.clockTck(true, false);   // RTI -> Select-DR
  tap.clockTck(true, false);   // -> Select-IR
  tap.clockTck(false, false);  // -> Capture-IR
  tap.clockTck(false, false);  // capture executes; -> Shift-IR
  std::vector<int> out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(tap.clockTck(i == 3, false) ? 1 : 0);
  }
  EXPECT_EQ(out[0], 1);  // LSB of 0b01
  EXPECT_EQ(out[1], 0);
}

TEST(Tap, ForwardingRegisterRoutesToSelectedCore) {
  // Two "cores" expose registers of different widths behind one
  // forwarding binding — the soc::Chip core-select mechanism in
  // miniature.
  std::vector<uint8_t> core_a(8, 0);
  std::vector<uint8_t> core_b(4, 0);
  CallbackRegister reg_a(
      8, [&] { return core_a; },
      [&](const std::vector<uint8_t>& b) { core_a = b; });
  CallbackRegister reg_b(
      4, [&] { return core_b; },
      [&](const std::vector<uint8_t>& b) { core_b = b; });

  size_t selected = 0;
  ForwardingRegister fwd([&]() -> DataRegister* {
    return selected == 0 ? static_cast<DataRegister*>(&reg_a) : &reg_b;
  });

  TapController tap(4, 0x1);
  tap.bindInstruction(0b0010, "FWD", &fwd);
  TapDriver driver(tap);
  driver.reset();
  driver.loadInstruction(0b0010);

  // Core A sees an 8-bit shift; core B a 4-bit one, undisturbed by A's.
  driver.shiftData({1, 0, 1, 0, 1, 1, 0, 1});
  EXPECT_EQ(core_a, (std::vector<uint8_t>{1, 0, 1, 0, 1, 1, 0, 1}));
  selected = 1;
  driver.shiftData({1, 1, 0, 0});
  EXPECT_EQ(core_b, (std::vector<uint8_t>{1, 1, 0, 0}));
  EXPECT_EQ(core_a, (std::vector<uint8_t>{1, 0, 1, 0, 1, 1, 0, 1}))
      << "shifting the selected core must not disturb the other";

  // Read-back goes through the selected core's capture. (The zero fill
  // shifted in replaces the stored value afterwards, as with any DR
  // read-modify cycle.)
  selected = 0;
  const auto out = driver.shiftData(std::vector<uint8_t>(8, 0));
  EXPECT_EQ(out, (std::vector<uint8_t>{1, 0, 1, 0, 1, 1, 0, 1}));
}

TEST(Tap, ForwardingRegisterWithoutTargetActsAsBypass) {
  ForwardingRegister fwd([]() -> DataRegister* { return nullptr; });
  TapController tap(4, 0x1);
  tap.bindInstruction(0b0010, "FWD", &fwd);
  TapDriver driver(tap);
  driver.reset();
  driver.loadInstruction(0b0010);
  const std::vector<uint8_t> in{1, 0, 1, 1, 0};
  const auto out = driver.shiftData(in);
  for (size_t i = 1; i < in.size(); ++i) {
    EXPECT_EQ(out[i], in[i - 1]) << "bit " << i;
  }
}

TEST(Tap, ForwardingSurvivesResetMidCampaign) {
  std::vector<uint8_t> stored(4, 0);
  CallbackRegister reg(
      4, [&] { return stored; },
      [&](const std::vector<uint8_t>& b) { stored = b; });
  ForwardingRegister fwd([&]() -> DataRegister* { return &reg; });
  TapController tap(4, 0x1);
  tap.bindInstruction(0b0010, "FWD", &fwd);
  TapDriver driver(tap);
  driver.reset();
  driver.loadInstruction(0b0010);
  driver.shiftData({1, 0, 0, 1});

  // A TAP reset mid-campaign resets the FSM and the IR, not the system
  // side: the stored value survives and is readable after re-selecting.
  driver.reset();
  EXPECT_EQ(tap.currentInstructionName(), "IDCODE");
  EXPECT_EQ(stored, (std::vector<uint8_t>{1, 0, 0, 1}));
  driver.loadInstruction(0b0010);
  const auto out = driver.shiftData(std::vector<uint8_t>(4, 0));
  EXPECT_EQ(out, (std::vector<uint8_t>{1, 0, 0, 1}));
}

TEST(Tap, DriverTckCountSumsAcrossPerCoreOperations) {
  // TCK cost of every driver operation is deterministic, so per-core
  // accounting (charge each op's delta to the selected core) must sum
  // exactly to the driver total — the identity soc::ChipTester relies
  // on. Expected costs: reset = 6, loadInstruction = 4 + ir_len + 2,
  // shiftData(n) = 3 + n + 2.
  DataRegister dr_a(8);
  DataRegister dr_b(16);
  TapController tap(4, 0x1);
  tap.bindInstruction(0b0010, "A", &dr_a);
  tap.bindInstruction(0b0011, "B", &dr_b);
  TapDriver driver(tap);

  uint64_t t0 = driver.tckCount();
  driver.reset();
  const uint64_t reset_cost = driver.tckCount() - t0;
  EXPECT_EQ(reset_cost, 6u);

  uint64_t per_core[2] = {0, 0};
  const struct {
    size_t core;
    uint32_t opcode;
    size_t bits;
  } ops[] = {{0, 0b0010, 8}, {1, 0b0011, 16}, {0, 0b0010, 8}};
  for (const auto& op : ops) {
    t0 = driver.tckCount();
    driver.loadInstruction(op.opcode);
    driver.shiftData(std::vector<uint8_t>(op.bits, 0));
    per_core[op.core] += driver.tckCount() - t0;
    EXPECT_EQ(driver.tckCount() - t0, (4u + 4u + 2u) + (3u + op.bits + 2u));
  }
  EXPECT_EQ(reset_cost + per_core[0] + per_core[1], driver.tckCount());
}

TEST(Tap, BoundRegisterLookup) {
  TapController tap(4, 0x1);
  DataRegister dr(4);
  tap.bindInstruction(0b0010, "REG", &dr);
  EXPECT_EQ(tap.boundRegister(0b0010), &dr);
  EXPECT_EQ(tap.boundRegister(0b0111), nullptr);
}

TEST(Tap, RejectsReservedOpcodes) {
  TapController tap(4, 0x1);
  DataRegister dr(4);
  EXPECT_THROW(tap.bindInstruction(tap.bypassOpcode(), "X", &dr),
               std::invalid_argument);
  EXPECT_THROW(tap.bindInstruction(tap.idcodeOpcode(), "X", &dr),
               std::invalid_argument);
  tap.bindInstruction(0b0010, "OK", &dr);
  EXPECT_THROW(tap.bindInstruction(0b0010, "DUP", &dr),
               std::invalid_argument);
}

TEST(Tap, InstructionSurvivesDrOperations) {
  TapController tap(4, 0x1);
  DataRegister dr(4);
  tap.bindInstruction(0b0010, "REG", &dr);
  TapDriver driver(tap);
  driver.reset();
  driver.loadInstruction(0b0010);
  driver.shiftData({1, 1, 0, 0});
  driver.idle(3);
  EXPECT_EQ(tap.currentInstruction(), 0b0010u);
  EXPECT_EQ(tap.state(), TapState::kRunTestIdle);
}

}  // namespace
}  // namespace lbist::jtag
