// Chip-level SoC subsystem: power-aware scheduling, the multi-core TAP,
// and the parallel campaign runner with checkpoint/resume.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>

#include "core/report.hpp"
#include "core/session.hpp"
#include "fault/inject.hpp"
#include "robust/io.hpp"
#include "gen/soc.hpp"
#include "soc/campaign.hpp"
#include "soc/chip.hpp"
#include "soc/power.hpp"
#include "soc/schedule.hpp"

namespace lbist::soc {
namespace {

constexpr int64_t kPatterns = 16;

core::LbistConfig smallCoreConfig() {
  core::LbistConfig cfg;
  cfg.test_points = 4;
  cfg.tpi.warmup_patterns = 64;
  cfg.tpi.guidance_patterns = 32;
  return cfg;
}

core::SessionOptions sessionOptions() {
  core::SessionOptions so;
  so.patterns = kPatterns;
  return so;
}

gen::SocSpec smallSocSpec(int cores) {
  gen::SocSpec spec;
  spec.name = "testchip";
  spec.seed = 7;
  spec.num_cores = cores;
  spec.min_comb_gates = 250;
  spec.max_comb_gates = 550;
  spec.min_ffs = 24;
  spec.max_ffs = 48;
  spec.max_domains = 2;
  return spec;
}

/// The shared 8-core chip (expensive to build: 8 BIST insertions plus
/// golden characterization). Tests that mutate a die must restore it.
Chip& testChip() {
  static Chip* chip = [] {
    auto* c = new Chip("testchip");
    appendGeneratedCores(*c, smallSocSpec(8), smallCoreConfig());
    c->characterizeGolden(kPatterns);
    return c;
  }();
  return *chip;
}

/// Finds a stuck-at fault in core `ci` that the kPatterns-pattern session
/// actually flags, by trial sessions against the golden signatures.
fault::Fault findDetectedFault(const Chip& chip, size_t ci) {
  const core::BistReadyCore& ready = chip.core(ci);
  core::SessionResult golden;
  golden.signatures.assign(chip.golden(ci).begin(), chip.golden(ci).end());
  for (size_t d = 0; d < ready.netlist.dffs().size(); ++d) {
    const GateId victim = ready.netlist.gate(ready.netlist.dffs()[d]).fanins[0];
    for (fault::FaultType type :
         {fault::FaultType::kStuckAt0, fault::FaultType::kStuckAt1}) {
      const fault::Fault f{victim, fault::kOutputPin, type};
      Netlist die = ready.netlist;
      fault::injectStuckAt(die, f);
      core::BistSession session(ready, die);
      core::SessionOptions opts;
      opts.patterns = kPatterns;
      if (!session.run(opts, &golden).result_pass) return f;
    }
  }
  ADD_FAILURE() << "no detectable fault found in core " << ci;
  return fault::Fault{};
}

TEST(Scheduler, NeverExceedsBudgetOnRandomInstances) {
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng() % 12;
    std::vector<CoreSession> sessions;
    double max_power = 0.0;
    for (size_t i = 0; i < n; ++i) {
      CoreSession s;
      s.core_index = i;
      s.name = "c" + std::to_string(i);
      s.test_tcks = 1 + rng() % 10'000;
      s.power = 1.0 + static_cast<double>(rng() % 1'000);
      max_power = std::max(max_power, s.power);
      sessions.push_back(s);
    }
    const double budget =
        max_power * (1.0 + static_cast<double>(rng() % 300) / 100.0);
    const TestSchedule sched = Scheduler(budget).build(sessions);

    size_t scheduled = 0;
    uint64_t t = 0;
    for (const ScheduleGroup& g : sched.groups) {
      double power = 0.0;
      uint64_t longest = 0;
      for (size_t m : g.members) {
        power += sched.sessions[m].power;
        longest = std::max(longest, sched.sessions[m].test_tcks);
        ++scheduled;
      }
      EXPECT_LE(power, budget);
      EXPECT_DOUBLE_EQ(power, g.power);
      EXPECT_EQ(longest, g.duration_tcks);
      EXPECT_EQ(t, g.start_tck);
      t += g.duration_tcks;
    }
    EXPECT_EQ(scheduled, n) << "every session scheduled exactly once";
    EXPECT_EQ(t, sched.total_tcks);
    EXPECT_LE(sched.peakPower(), budget);
    EXPECT_LE(sched.lower_bound_tcks, sched.total_tcks);
    EXPECT_GE(sched.boundRatio(), 1.0);
  }
}

TEST(Scheduler, GroupDurationsAreNonIncreasing) {
  std::vector<CoreSession> sessions;
  for (size_t i = 0; i < 9; ++i) {
    sessions.push_back(
        {i, "c" + std::to_string(i), 100 * (i + 1), 10.0});
  }
  const TestSchedule sched = Scheduler(25.0).build(sessions);
  ASSERT_GE(sched.groups.size(), 2u);
  for (size_t g = 1; g < sched.groups.size(); ++g) {
    EXPECT_LE(sched.groups[g].duration_tcks,
              sched.groups[g - 1].duration_tcks)
        << "longest-first seeds make group durations non-increasing";
  }
  EXPECT_GT(sched.speedup(), 1.0);
}

TEST(Scheduler, RejectsUnschedulableSession) {
  std::vector<CoreSession> sessions{{0, "hog", 100, 50.0}};
  EXPECT_THROW((void)Scheduler(49.9).build(sessions), std::invalid_argument);
}

TEST(Scheduler, SerialBudgetYieldsOneGroupPerCore) {
  std::vector<CoreSession> sessions;
  for (size_t i = 0; i < 4; ++i) {
    sessions.push_back({i, "c" + std::to_string(i), 50 + i, 10.0});
  }
  const TestSchedule sched = Scheduler(10.0).build(sessions);
  EXPECT_EQ(sched.groups.size(), 4u);
  EXPECT_EQ(sched.total_tcks, sched.serial_tcks);
}

TEST(SessionTcks, MatchesControllerAccounting) {
  Chip& chip = testChip();
  for (size_t i : {size_t{0}, size_t{3}}) {
    const core::BistReadyCore& ready = chip.core(i);
    core::SessionOptions opts;
    opts.patterns = kPatterns;
    core::BistSession session(ready, chip.die(i));
    const core::SessionResult res = session.run(opts);
    const auto unload = static_cast<uint64_t>(ready.shiftCyclesPerPattern());
    EXPECT_EQ(sessionTcks(ready, opts),
              res.shift_pulses + res.capture_pulses + unload)
        << "core " << i;
  }
}

TEST(PowerModel, DeterministicAndPhaseSplit) {
  Chip& chip = testChip();
  const PowerModel model(chip.core(0));
  const PowerEstimate a = model.estimate(128);
  const PowerEstimate b = model.estimate(128);
  EXPECT_EQ(a.shift_toggles_per_cycle, b.shift_toggles_per_cycle);
  EXPECT_EQ(a.capture_toggles_per_cycle, b.capture_toggles_per_cycle);
  EXPECT_GT(a.shift_toggles_per_cycle, 0.0);
  EXPECT_GT(a.capture_toggles_per_cycle, 0.0);
  EXPECT_GE(a.peak(), a.shift_toggles_per_cycle);
  EXPECT_GE(a.peak(), a.capture_toggles_per_cycle);
  EXPECT_EQ(a.sampled_patterns, 128);
}

TEST(ChipJtag, CoreSelectAddressing) {
  Chip& chip = testChip();
  ChipTester tester(chip);
  tester.reset();

  // Run core 1's self-test over JTAG only; cores 0 and 2 stay untouched.
  tester.selectCore(1);
  EXPECT_EQ(chip.selectedCore(), 1u);
  tester.start(kPatterns);
  const ChipTester::Status st = tester.readStatus();
  EXPECT_TRUE(st.finish);
  EXPECT_TRUE(st.result_pass) << "good die must pass";
  ASSERT_TRUE(chip.top(1).lastRun().has_value());
  EXPECT_FALSE(chip.top(0).lastRun().has_value());
  EXPECT_FALSE(chip.top(2).lastRun().has_value());

  // The signature register the host sees has core 1's geometry, and the
  // unloaded bits equal the golden characterization.
  const auto sig = tester.readSignature();
  EXPECT_EQ(sig, chip.goldenSignatureBits(1));

  // Status of a never-started core reads finish = 0.
  tester.selectCore(2);
  EXPECT_FALSE(tester.readStatus().finish);
}

TEST(ChipJtag, ResetMidCampaignKeepsSelectionAndResults) {
  Chip& chip = testChip();
  ChipTester tester(chip);
  tester.reset();
  tester.selectCore(3);
  tester.start(kPatterns);

  // TAP reset mid-campaign: the FSM returns to Test-Logic-Reset (IDCODE
  // selected), but core selection and the finished run are chip state.
  tester.reset();
  EXPECT_EQ(chip.selectedCore(), 3u);
  const ChipTester::Status st = tester.readStatus();
  EXPECT_TRUE(st.finish);
  EXPECT_TRUE(st.result_pass);
}

TEST(ChipJtag, TckAccountingSumsAcrossCores) {
  Chip& chip = testChip();
  ChipTester tester(chip);
  tester.reset();
  for (size_t i : {size_t{0}, size_t{1}, size_t{4}}) {
    tester.selectCore(i);
    tester.start(kPatterns);
    (void)tester.readStatus();
    (void)tester.readSignature();
  }
  uint64_t sum = tester.overheadTcks();
  for (size_t i = 0; i < chip.numCores(); ++i) sum += tester.coreTcks(i);
  EXPECT_EQ(sum, tester.tckCount())
      << "every TCK is attributed to exactly one core or to overhead";
  EXPECT_GT(tester.coreTcks(4), 0u);
  EXPECT_EQ(tester.coreTcks(7), 0u);
  EXPECT_GT(tester.overheadTcks(), 0u);  // the pre-selection reset
}

TEST(ChipJtag, OutOfRangeCoreSelectDegradesToBypass) {
  Chip& chip = testChip();
  jtag::TapDriver driver(chip.tap());
  driver.reset();

  // A mis-addressed host (core 200 on an 8-core chip) must not silently
  // reach some other core: the selection is kept as written and the
  // BIST opcodes degrade to 1-bit bypass registers.
  std::vector<uint8_t> bits(Chip::kCoreSelectBits, 0);
  bits[3] = 1;  // index 8: one past the end
  bits[7] = 1;  // plus the top bit: 136
  driver.loadInstruction(Chip::kOpcodeCoreSelect);
  driver.shiftData(bits);
  EXPECT_EQ(chip.selectedCore(), 136u);

  driver.loadInstruction(Chip::kOpcodeStatus);
  const auto out = driver.shiftData({1, 0, 1});
  EXPECT_EQ(out[1], 1) << "bypass: data emerges delayed by one bit";
  EXPECT_EQ(out[2], 0);

  // Re-selecting a real core restores normal operation.
  ChipTester tester(chip);
  tester.selectCore(0);
  EXPECT_EQ(chip.selectedCore(), 0u);
}

TEST(Campaign, SingleDefectiveCoreFlaggedOnThatCoreOnly) {
  Chip& chip = testChip();
  const size_t defective = 2;
  const fault::Fault f = findDetectedFault(chip, defective);
  const Netlist saved = chip.die(defective);
  fault::injectStuckAt(chip.die(defective), f);

  const TestSchedule sched = buildChipSchedule(
      chip, /*power_budget=*/1e9, sessionOptions());
  CampaignRunner runner(chip, sched, sessionOptions());
  CampaignOptions opts;
  opts.threads = 2;
  const CampaignResult res = runner.run(opts);

  chip.die(defective) = saved;

  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.cores.size(), 8u);
  EXPECT_EQ(res.failures, 1u);
  for (const CoreRunResult& r : res.cores) {
    EXPECT_EQ(r.pass, r.core_index != defective)
        << "core " << r.name << " (index " << r.core_index << ")";
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool sameCampaignResults(const CampaignResult& a, const CampaignResult& b) {
  if (a.cores.size() != b.cores.size() || a.failures != b.failures ||
      a.executed_groups != b.executed_groups ||
      a.total_tcks != b.total_tcks || a.complete != b.complete) {
    return false;
  }
  for (size_t i = 0; i < a.cores.size(); ++i) {
    const CoreRunResult& x = a.cores[i];
    const CoreRunResult& y = b.cores[i];
    if (x.name != y.name || x.core_index != y.core_index ||
        x.pass != y.pass || x.signatures != y.signatures ||
        x.tcks != y.tcks || x.coverage_percent != y.coverage_percent) {
      return false;
    }
  }
  return true;
}

TEST(Campaign, BitIdenticalAcrossThreadCountsIncludingCheckpoints) {
  Chip& chip = testChip();
  const size_t defective = 5;
  const fault::Fault f = findDetectedFault(chip, defective);
  const Netlist saved = chip.die(defective);
  fault::injectStuckAt(chip.die(defective), f);

  // A tight budget (roughly half the concurrent demand, but never below
  // the hungriest core) forces multiple groups, so the merge crosses
  // group boundaries with in-flight parallelism.
  const std::vector<CoreSession> sessions =
      buildCoreSessions(chip, sessionOptions(), 64);
  const TestSchedule sched =
      Scheduler(std::max(peakSessionPower(sessions),
                         totalSessionPower(sessions) / 2.0))
          .build(sessions);
  ASSERT_GE(sched.groups.size(), 2u);

  CampaignRunner runner(chip, sched, sessionOptions());
  std::optional<CampaignResult> reference;
  std::string reference_ckpt;
  for (uint32_t threads : {1u, 2u, 4u, 0u}) {
    const std::string path =
        "soc_ckpt_t" + std::to_string(threads) + ".txt";
    CampaignOptions opts;
    opts.threads = threads;
    opts.measure_coverage = true;
    opts.checkpoint_path = path;
    const CampaignResult res = runner.run(opts);
    const std::string ckpt = slurp(path);
    std::remove(path.c_str());
    if (!reference) {
      reference = res;
      reference_ckpt = ckpt;
      EXPECT_EQ(res.failures, 1u);
    } else {
      EXPECT_TRUE(sameCampaignResults(*reference, res))
          << "threads=" << threads;
      EXPECT_EQ(reference_ckpt, ckpt) << "threads=" << threads;
    }
  }
  chip.die(defective) = saved;
}

TEST(Campaign, KillAndResumeIsBitIdenticalToUninterruptedRun) {
  Chip& chip = testChip();
  const std::vector<CoreSession> sessions =
      buildCoreSessions(chip, sessionOptions(), 64);
  const TestSchedule sched =
      Scheduler(std::max(peakSessionPower(sessions),
                         totalSessionPower(sessions) / 3.0))
          .build(sessions);
  ASSERT_GE(sched.groups.size(), 2u);
  CampaignRunner runner(chip, sched, sessionOptions());

  const std::string full_path = "soc_ckpt_full.txt";
  const std::string resumed_path = "soc_ckpt_resumed.txt";

  CampaignOptions opts;
  opts.threads = 2;
  opts.measure_coverage = true;
  opts.checkpoint_path = full_path;
  const CampaignResult full = runner.run(opts);
  EXPECT_TRUE(full.complete);

  // "Kill" after the first group, then resume.
  opts.checkpoint_path = resumed_path;
  opts.max_groups = 1;
  const CampaignResult partial = runner.run(opts);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.executed_groups, 1u);

  opts.max_groups = -1;
  opts.resume = true;
  const CampaignResult resumed = runner.run(opts);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_cores, sched.groups[0].members.size());

  EXPECT_TRUE(sameCampaignResults(full, resumed));
  EXPECT_EQ(slurp(full_path), slurp(resumed_path))
      << "resumed checkpoint converges to the uninterrupted bytes";
  std::remove(full_path.c_str());
  std::remove(resumed_path.c_str());
}

TEST(Campaign, CheckpointMatchesTheRecordedBytes) {
  // The checkpoint of a coverage campaign over the shared chip: one
  // CRC-protected header and one record per core. Any change to the
  // header or record tokens, a signature or a coverage figure fails
  // here. Recorded while the campaign still had a top-up coverage mode
  // with its own header and record tokens.
  Chip& chip = testChip();
  const TestSchedule sched =
      buildChipSchedule(chip, 1e18, sessionOptions(), 64);
  CampaignRunner runner(chip, sched, sessionOptions());
  const std::string path = "soc_ckpt_recorded.txt";
  CampaignOptions opts;
  opts.measure_coverage = true;
  opts.checkpoint_path = path;
  const CampaignResult res = runner.run(opts);
  const std::string bytes = slurp(path);
  std::remove(path.c_str());
  EXPECT_TRUE(res.complete);
  uint64_t h = 0xcbf29ce484222325ull;
  for (char ch : bytes) {
    h ^= static_cast<uint8_t>(ch);
    h *= 0x100000001b3ull;
  }
  EXPECT_EQ(bytes.size(), 910u);
  EXPECT_EQ(h, 0xe6ed0d6c7898891bull) << std::hex << "0x" << h;
}

TEST(Campaign, ResumeHealsTornCheckpointLine) {
  Chip& chip = testChip();
  const TestSchedule sched =
      buildChipSchedule(chip, 1e18, sessionOptions(), 64);
  CampaignRunner runner(chip, sched, sessionOptions());

  const std::string path = "soc_ckpt_torn.txt";
  CampaignOptions opts;
  opts.threads = 2;
  opts.checkpoint_path = path;
  const CampaignResult full = runner.run(opts);
  const std::string full_bytes = slurp(path);

  // Simulate a kill mid-append: cut the final checkpoint line in half.
  const size_t last_line = full_bytes.rfind("\ncore ");
  ASSERT_NE(last_line, std::string::npos);
  const size_t torn_at = last_line + 20;
  {
    std::ofstream out(path, std::ios::trunc);
    out << full_bytes.substr(0, torn_at);
  }

  // Resume: the torn core re-runs, the file heals to the full bytes,
  // the corrupt original is quarantined, and the merged results match
  // the uninterrupted run.
  opts.resume = true;
  const CampaignResult resumed = runner.run(opts);
  EXPECT_TRUE(sameCampaignResults(full, resumed));
  EXPECT_EQ(resumed.resumed_cores, full.cores.size() - 1);
  EXPECT_EQ(resumed.dropped_records, 1u);
  EXPECT_TRUE(resumed.checkpoint_quarantined);
  EXPECT_EQ(slurp(path), full_bytes);
  EXPECT_EQ(slurp(path + ".corrupt"), full_bytes.substr(0, torn_at))
      << "quarantine preserves the corrupt bytes for postmortem";
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

TEST(Campaign, ResumeRejectsMismatchedCheckpoint) {
  Chip& chip = testChip();
  const TestSchedule sched = buildChipSchedule(
      chip, 1e9, sessionOptions());
  CampaignRunner runner(chip, sched, sessionOptions());

  // An intact (CRC-valid) header naming a different chip: corruption
  // recovery must NOT "heal" this — resuming would silently mix
  // campaigns — so the runner refuses with CorruptCheckpoint.
  const std::string path = "soc_ckpt_mismatch.txt";
  {
    const std::string header =
        "lbist-campaign v2 chip=otherchip patterns=16 cores=8 coverage=0";
    const std::string record =
        "core name=cpu0 pass=1 tcks=1 coverage=- sigs=00";
    std::ofstream out(path);
    out << header << " crc=" << robust::crc32Hex(header) << "\n";
    out << record << " crc=" << robust::crc32Hex(record) << "\n";
  }
  CampaignOptions opts;
  opts.checkpoint_path = path;
  opts.resume = true;
  EXPECT_THROW((void)runner.run(opts), std::invalid_argument);
  std::remove(path.c_str());

  // Same chip but a different coverage mode also refuses to resume —
  // mixing measured and unmeasured rows would break byte convergence.
  opts.resume = false;
  opts.measure_coverage = false;
  (void)runner.run(opts);
  opts.resume = true;
  opts.measure_coverage = true;
  EXPECT_THROW((void)runner.run(opts), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Chip, RejectsDuplicateCoreNames) {
  Chip chip("dup");
  gen::SocSpec spec = smallSocSpec(1);
  appendGeneratedCores(chip, spec, smallCoreConfig());
  core::BistReadyCore copy = chip.core(0);
  EXPECT_THROW((void)chip.addCore(chip.coreName(0), std::move(copy)),
               std::invalid_argument)
      << "names key campaign checkpoints, so they must be unique";
}

TEST(Campaign, RequiresGoldenCharacterization) {
  Chip chip("bare");
  appendGeneratedCores(chip, smallSocSpec(1), smallCoreConfig());
  std::vector<CoreSession> sessions{{0, chip.coreName(0), 100, 1.0}};
  const TestSchedule sched = Scheduler(10.0).build(sessions);
  CampaignRunner runner(chip, sched, sessionOptions());
  EXPECT_THROW((void)runner.run(CampaignOptions{}), std::invalid_argument);
}

TEST(Report, RenderScheduleStatsMentionsTheNumbers) {
  Chip& chip = testChip();
  const TestSchedule sched = buildChipSchedule(
      chip, 1e9, sessionOptions());
  const std::string line = core::renderScheduleStats(sched);
  EXPECT_NE(line.find("8 cores"), std::string::npos) << line;
  EXPECT_NE(line.find("toggles/cycle"), std::string::npos) << line;
  EXPECT_NE(line.find("TCKs"), std::string::npos) << line;
}

}  // namespace
}  // namespace lbist::soc
