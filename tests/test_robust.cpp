// Failure-handling layer (ARCHITECTURE.md contract 6): error taxonomy
// units, fault-plan trigger semantics, checkpoint CRC/quarantine
// recovery, and the differential injection suite — for every registered
// ROBUST_POINT, an injected-then-resumed campaign must produce
// bit-identical results and checkpoint bytes to a clean run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/topup.hpp"
#include "fault/fsim.hpp"
#include "gen/ipcore.hpp"
#include "gen/refcircuits.hpp"
#include "gen/soc.hpp"
#include "obs/obs.hpp"
#include "robust/io.hpp"
#include "robust/robust.hpp"
#include "soc/campaign.hpp"
#include "soc/chip.hpp"
#include "soc/schedule.hpp"

namespace lbist::robust {
namespace {

// ------------------------------------------------------------ taxonomy

TEST(Status, CodesMessagesAndRetryability) {
  const Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), ErrorCode::kOk);
  EXPECT_EQ(ok.toString(), "Ok");

  const Status io = Status::error(ErrorCode::kIoError, "disk on fire");
  EXPECT_FALSE(io.ok());
  EXPECT_TRUE(io.retryable());
  EXPECT_EQ(io.toString(), "IoError: disk on fire");

  const Status corrupt =
      Status::error(ErrorCode::kCorruptCheckpoint, "bad header");
  EXPECT_FALSE(corrupt.retryable());
  EXPECT_STREQ(errorCodeName(corrupt.code()), "CorruptCheckpoint");
  EXPECT_FALSE(
      Status::error(ErrorCode::kBudgetExceeded, "b").retryable());
  EXPECT_TRUE(Status::error(ErrorCode::kJobFailed, "j").retryable());
  EXPECT_FALSE(
      Status::error(ErrorCode::kInvalidArgument, "i").retryable());
}

TEST(Status, ResultHoldsValueOrError) {
  Result<int> good(41);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.status().ok());
  EXPECT_EQ(good.value(), 41);
  good.value() = 42;
  EXPECT_EQ(Result<int>(std::move(good)).value(), 42);

  const Result<int> bad(Status::error(ErrorCode::kJobFailed, "boom"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kJobFailed);
}

TEST(RetryPolicy, BackoffCountedInTicksNeverSlept) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_base_ticks = 3;
  EXPECT_EQ(policy.backoffTicks(1), 0u);  // first attempt is free
  EXPECT_EQ(policy.backoffTicks(2), 3u);
  EXPECT_EQ(policy.backoffTicks(3), 6u);
  EXPECT_EQ(policy.backoffTicks(4), 12u);
}

// ------------------------------------------------------------- io/crc

TEST(Io, Crc32KnownAnswer) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32Hex("123456789"), "cbf43926");
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_NE(crc32("abc"), crc32("abd"));
}

TEST(Io, AtomicWriteAndReadRoundtrip) {
  const std::string path = "robust_io_roundtrip.txt";
  ASSERT_TRUE(atomicWriteFile(path, "first\n").ok());
  std::string got;
  ASSERT_TRUE(readFile(path, &got).ok());
  EXPECT_EQ(got, "first\n");

  // Replacement is whole-file: old bytes never bleed through.
  ASSERT_TRUE(atomicWriteFile(path, "x").ok());
  ASSERT_TRUE(readFile(path, &got).ok());
  EXPECT_EQ(got, "x");
  std::remove(path.c_str());

  const Status missing = readFile("robust_io_does_not_exist.txt", &got);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), ErrorCode::kIoError);
}

// ------------------------------------------------- fault-plan triggers

/// Clears any installed plan for the enclosing scope, even on failure.
struct PlanGuard {
  PlanGuard() { clearFaultPlan(); }
  ~PlanGuard() { clearFaultPlan(); }
};

FaultAction unitPoint(const std::string& key) {
  return ROBUST_POINT("test.unit.point", key,
                      robust::kCanThrow | robust::kCanIoError);
}

TEST(FaultPlan, NthHitEveryKthAndMaxFiresAreDeterministic) {
  PlanGuard guard;
  EXPECT_EQ(unitPoint(""), FaultAction::kNone) << "no plan installed";

  FaultPlan plan;
  plan.rules.push_back(FaultRule{.point = "test.unit.point",
                                 .key = "",
                                 .action = FaultAction::kThrow,
                                 .nth_hit = 2,
                                 .every_kth = 2,
                                 .max_fires = 2});
  setFaultPlan(plan);
  // Hits:      1      2       3      4       5      6 (max_fires hit)
  const FaultAction expect[] = {FaultAction::kNone, FaultAction::kThrow,
                                FaultAction::kNone, FaultAction::kThrow,
                                FaultAction::kNone, FaultAction::kNone};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(unitPoint("any"), expect[i]) << "hit " << (i + 1);
  }
  EXPECT_EQ(planFires(), 2u);
  EXPECT_EQ(planFiresAt("test.unit.point"), 2u);

  // Reinstalling the same plan resets the counters: same workload, same
  // fire pattern — reproducible by construction.
  setFaultPlan(plan);
  EXPECT_EQ(planFires(), 0u);
  EXPECT_EQ(unitPoint(""), FaultAction::kNone);
  EXPECT_EQ(unitPoint(""), FaultAction::kThrow);
}

TEST(FaultPlan, KeyedRulesOnlyCountMatchingHits) {
  PlanGuard guard;
  FaultPlan plan;
  plan.rules.push_back(FaultRule{.point = "test.unit.point",
                                 .key = "cpu3",
                                 .action = FaultAction::kIoError,
                                 .nth_hit = 2,
                                 .every_kth = 0,
                                 .max_fires = 1});
  setFaultPlan(plan);
  EXPECT_EQ(unitPoint("cpu1"), FaultAction::kNone);
  EXPECT_EQ(unitPoint("cpu3"), FaultAction::kNone) << "cpu3 hit 1";
  EXPECT_EQ(unitPoint("cpu1"), FaultAction::kNone);
  EXPECT_EQ(unitPoint("cpu3"), FaultAction::kIoError) << "cpu3 hit 2";
  EXPECT_EQ(unitPoint("cpu3"), FaultAction::kNone) << "max_fires spent";
}

TEST(FaultPlan, UnsupportedActionNeverFires) {
  PlanGuard guard;
  FaultPlan plan;
  // test.unit.point declares Throw|IoError; arming TornWrite must not
  // silently no-op the experiment by firing an unhonored action.
  plan.rules.push_back(FaultRule{.point = "test.unit.point",
                                 .key = "",
                                 .action = FaultAction::kTornWrite,
                                 .nth_hit = 1,
                                 .every_kth = 1,
                                 .max_fires = 0});
  setFaultPlan(plan);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(unitPoint(""), FaultAction::kNone);
  }
  EXPECT_EQ(planFires(), 0u);
}

TEST(FaultPlan, RegisteredPointsExposeSupportedActions) {
  PlanGuard guard;
  (void)unitPoint("");  // ensure the site is interned
  bool found = false;
  for (const PointInfo& p : registeredPoints()) {
    if (p.name == "test.unit.point") {
      found = true;
      EXPECT_EQ(p.supported & robust::kCanThrow, robust::kCanThrow);
      EXPECT_EQ(p.supported & robust::kCanIoError, robust::kCanIoError);
      EXPECT_EQ(p.supported & robust::kCanBitFlip, 0u);
    }
  }
  EXPECT_TRUE(found);
}

// --------------------------------------------- campaign test fixture

constexpr int64_t kPatterns = 16;

core::SessionOptions sessionOptions() {
  core::SessionOptions so;
  so.patterns = kPatterns;
  return so;
}

/// The shared 6-core chip (expensive: 6 BIST insertions plus golden
/// characterization). All dies are good — robustness tests exercise
/// infrastructure failures, not silicon defects.
soc::Chip& testChip() {
  static soc::Chip* chip = [] {
    auto* c = new soc::Chip("robustchip");
    gen::SocSpec spec;
    spec.name = "robustchip";
    spec.seed = 7;
    spec.num_cores = 6;
    spec.min_comb_gates = 250;
    spec.max_comb_gates = 550;
    spec.min_ffs = 24;
    spec.max_ffs = 48;
    spec.max_domains = 2;
    core::LbistConfig cfg;
    cfg.test_points = 4;
    cfg.tpi.warmup_patterns = 64;
    cfg.tpi.guidance_patterns = 32;
    appendGeneratedCores(*c, spec, cfg);
    c->characterizeGolden(kPatterns);
    return c;
  }();
  return *chip;
}

/// Tight-budget schedule (>= 2 groups) so resumes cross group borders.
const soc::TestSchedule& testSchedule() {
  static soc::TestSchedule* sched = [] {
    const std::vector<soc::CoreSession> sessions =
        buildCoreSessions(testChip(), sessionOptions(), 64);
    auto* s = new soc::TestSchedule(
        soc::Scheduler(std::max(peakSessionPower(sessions),
                                totalSessionPower(sessions) / 2.0))
            .build(sessions));
    return s;
  }();
  return *sched;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool sameCampaignResults(const soc::CampaignResult& a,
                         const soc::CampaignResult& b) {
  if (a.cores.size() != b.cores.size() || a.failures != b.failures ||
      a.executed_groups != b.executed_groups ||
      a.total_tcks != b.total_tcks || a.complete != b.complete) {
    return false;
  }
  for (size_t i = 0; i < a.cores.size(); ++i) {
    const soc::CoreRunResult& x = a.cores[i];
    const soc::CoreRunResult& y = b.cores[i];
    if (x.name != y.name || x.core_index != y.core_index ||
        x.pass != y.pass || x.signatures != y.signatures ||
        x.tcks != y.tcks || x.coverage_percent != y.coverage_percent ||
        x.error != y.error) {
      return false;
    }
  }
  return true;
}

soc::CampaignOptions campaignOptions(const std::string& path,
                                     uint32_t threads = 2) {
  soc::CampaignOptions opts;
  opts.threads = threads;
  opts.measure_coverage = true;
  opts.checkpoint_path = path;
  return opts;
}

/// The uninjected reference: results and checkpoint bytes every
/// injected-then-resumed campaign must converge to.
struct CleanRun {
  soc::CampaignResult result;
  std::string bytes;
};

const CleanRun& cleanRun() {
  static CleanRun* clean = [] {
    auto* c = new CleanRun;
    const std::string path = "robust_ckpt_clean.txt";
    soc::CampaignRunner runner(testChip(), testSchedule(),
                               sessionOptions());
    c->result = runner.run(campaignOptions(path));
    c->bytes = slurp(path);
    std::remove(path.c_str());
    return c;
  }();
  return *clean;
}

void removeCheckpoint(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

/// One armed rule firing `action` at `point` (optionally keyed).
FaultPlan onePointPlan(const std::string& point, FaultAction action,
                       const std::string& key = "", uint64_t nth = 1,
                       uint64_t every = 0, uint64_t max_fires = 1) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule{.point = point,
                                 .key = key,
                                 .action = action,
                                 .nth_hit = nth,
                                 .every_kth = every,
                                 .max_fires = max_fires});
  return plan;
}

// ------------------------------------- differential injection suite
//
// Pattern shared by every campaign scenario: install a plan, run (the
// injected run may error, degrade, or recover in-run), clear the plan,
// resume — then assert results AND checkpoint bytes are bit-identical
// to the clean reference.

TEST(InjectCheckpointRewrite, IoErrorFailsFastThenResumeConverges) {
  PlanGuard guard;
  const std::string path = "robust_ckpt_rw_io.txt";
  soc::CampaignRunner runner(testChip(), testSchedule(), sessionOptions());

  setFaultPlan(onePointPlan("campaign.checkpoint.rewrite",
                            FaultAction::kIoError));
  Result<soc::CampaignResult> injected =
      runner.tryRun(campaignOptions(path));
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.status().code(), ErrorCode::kIoError);
  EXPECT_TRUE(injected.status().retryable());
  EXPECT_EQ(planFiresAt("campaign.checkpoint.rewrite"), 1u);

  clearFaultPlan();
  soc::CampaignOptions opts = campaignOptions(path);
  opts.resume = true;
  const soc::CampaignResult resumed = runner.run(opts);
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, resumed));
  EXPECT_EQ(slurp(path), cleanRun().bytes);
  removeCheckpoint(path);
}

TEST(InjectCheckpointRewrite, TornWriteQuarantinedAndHealedOnResume) {
  PlanGuard guard;
  const std::string path = "robust_ckpt_rw_torn.txt";
  soc::CampaignRunner runner(testChip(), testSchedule(), sessionOptions());

  setFaultPlan(onePointPlan("campaign.checkpoint.rewrite",
                            FaultAction::kTornWrite));
  Result<soc::CampaignResult> injected =
      runner.tryRun(campaignOptions(path));
  ASSERT_FALSE(injected.ok()) << "torn rewrite models a mid-write kill";
  EXPECT_FALSE(slurp(path).empty()) << "the torn prefix reached disk";

  clearFaultPlan();
  soc::CampaignOptions opts = campaignOptions(path);
  opts.resume = true;
  const soc::CampaignResult resumed = runner.run(opts);
  EXPECT_TRUE(resumed.checkpoint_quarantined)
      << "a half-written header is corruption, preserved for postmortem";
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, resumed));
  EXPECT_EQ(slurp(path), cleanRun().bytes);
  removeCheckpoint(path);
}

TEST(InjectCheckpointRewrite, SilentBitFlipCaughtByCrcOnResume) {
  PlanGuard guard;
  const std::string path = "robust_ckpt_rw_flip.txt";
  soc::CampaignRunner runner(testChip(), testSchedule(), sessionOptions());

  // A bit flip is silent: the injected run itself completes normally.
  setFaultPlan(onePointPlan("campaign.checkpoint.rewrite",
                            FaultAction::kBitFlip));
  const soc::CampaignResult injected = runner.run(campaignOptions(path));
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, injected));
  EXPECT_NE(slurp(path), cleanRun().bytes) << "corruption reached disk";

  // The resume catches it via the header CRC — never trusting the
  // flipped file — and heals everything.
  clearFaultPlan();
  soc::CampaignOptions opts = campaignOptions(path);
  opts.resume = true;
  const soc::CampaignResult resumed = runner.run(opts);
  EXPECT_TRUE(resumed.checkpoint_quarantined);
  EXPECT_EQ(resumed.resumed_cores, 0u) << "flipped header trusts nothing";
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, resumed));
  EXPECT_EQ(slurp(path), cleanRun().bytes);
  removeCheckpoint(path);
}

TEST(InjectCheckpointAppend, TornRecordDropsSuffixAndHeals) {
  PlanGuard guard;
  const std::string path = "robust_ckpt_ap_torn.txt";
  const soc::TestSchedule& sched = testSchedule();
  // Tear the very first merged record so later appends concatenate onto
  // the torn line — the worst case for prefix recovery.
  const std::string victim =
      sched.sessions[sched.groups[0].members[0]].name;
  soc::CampaignRunner runner(testChip(), sched, sessionOptions());

  setFaultPlan(onePointPlan("campaign.checkpoint.append",
                            FaultAction::kTornWrite, victim));
  const soc::CampaignResult injected = runner.run(campaignOptions(path));
  EXPECT_TRUE(injected.complete)
      << "a torn append never aborts the campaign";
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, injected));

  clearFaultPlan();
  soc::CampaignOptions opts = campaignOptions(path);
  opts.resume = true;
  const soc::CampaignResult resumed = runner.run(opts);
  EXPECT_TRUE(resumed.checkpoint_quarantined);
  EXPECT_EQ(resumed.resumed_cores, 0u)
      << "every record after the torn first one is dropped";
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, resumed));
  EXPECT_EQ(slurp(path), cleanRun().bytes);
  removeCheckpoint(path);
}

TEST(InjectCheckpointAppend, BitFlippedRecordDroppedOnResume) {
  PlanGuard guard;
  const std::string path = "robust_ckpt_ap_flip.txt";
  const soc::TestSchedule& sched = testSchedule();
  const std::string victim =
      sched.sessions[sched.groups[0].members[0]].name;
  soc::CampaignRunner runner(testChip(), sched, sessionOptions());

  setFaultPlan(onePointPlan("campaign.checkpoint.append",
                            FaultAction::kBitFlip, victim));
  const soc::CampaignResult injected = runner.run(campaignOptions(path));
  EXPECT_TRUE(injected.complete);

  clearFaultPlan();
  soc::CampaignOptions opts = campaignOptions(path);
  opts.resume = true;
  const soc::CampaignResult resumed = runner.run(opts);
  EXPECT_TRUE(resumed.checkpoint_quarantined);
  EXPECT_GE(resumed.dropped_records, 1u);
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, resumed));
  EXPECT_EQ(slurp(path), cleanRun().bytes);
  removeCheckpoint(path);
}

TEST(InjectCheckpointAppend, IoErrorDegradesGracefullyAndResumeHeals) {
  PlanGuard guard;
  const std::string path = "robust_ckpt_ap_io.txt";
  const soc::TestSchedule& sched = testSchedule();
  const std::string victim =
      sched.sessions[sched.groups[0].members[0]].name;
  soc::CampaignRunner runner(testChip(), sched, sessionOptions());

  setFaultPlan(onePointPlan("campaign.checkpoint.append",
                            FaultAction::kIoError, victim));
  const soc::CampaignResult injected = runner.run(campaignOptions(path));
  EXPECT_TRUE(injected.complete)
      << "losing the checkpoint stream must not abort the campaign";
  ASSERT_FALSE(injected.checkpoint_status.ok());
  EXPECT_EQ(injected.checkpoint_status.code(), ErrorCode::kIoError);
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, injected));

  // Only the header survived (the stream died on the first record);
  // resume re-runs everything unrecorded and heals the file.
  clearFaultPlan();
  soc::CampaignOptions opts = campaignOptions(path);
  opts.resume = true;
  const soc::CampaignResult resumed = runner.run(opts);
  EXPECT_FALSE(resumed.checkpoint_quarantined)
      << "a valid prefix is not corruption";
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, resumed));
  EXPECT_EQ(slurp(path), cleanRun().bytes);
  removeCheckpoint(path);
}

TEST(InjectCheckpointRead, IoErrorSurfacesThenRetrySucceeds) {
  PlanGuard guard;
  const std::string path = "robust_ckpt_read_io.txt";
  soc::CampaignRunner runner(testChip(), testSchedule(), sessionOptions());

  // Record the first group, then "kill" the campaign.
  soc::CampaignOptions opts = campaignOptions(path);
  opts.max_groups = 1;
  (void)runner.run(opts);

  setFaultPlan(onePointPlan("campaign.checkpoint.read",
                            FaultAction::kIoError));
  opts.max_groups = -1;
  opts.resume = true;
  Result<soc::CampaignResult> injected = runner.tryRun(opts);
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.status().code(), ErrorCode::kIoError);
  EXPECT_TRUE(injected.status().retryable())
      << "a read error is transient: the caller may simply retry";

  clearFaultPlan();
  const soc::CampaignResult resumed = runner.run(opts);
  EXPECT_GT(resumed.resumed_cores, 0u) << "the checkpoint was intact";
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, resumed));
  EXPECT_EQ(slurp(path), cleanRun().bytes);
  removeCheckpoint(path);
}

TEST(InjectJobRun, ThrowRetriedWithinBudgetConvergesInRun) {
  PlanGuard guard;
  const std::string path = "robust_ckpt_job_retry.txt";
  const std::string victim = testChip().coreName(2);
  soc::CampaignRunner runner(testChip(), testSchedule(), sessionOptions());

  obs::resetAll();
  obs::setMetricsEnabled(true);
  setFaultPlan(onePointPlan("campaign.job.run", FaultAction::kThrow,
                            victim));
  const soc::CampaignResult injected = runner.run(campaignOptions(path));
  obs::setMetricsEnabled(false);

  // One injected throw, one retry, zero damage: results and bytes are
  // already clean — no resume needed.
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, injected));
  EXPECT_EQ(slurp(path), cleanRun().bytes);
  EXPECT_EQ(injected.job_failures, 0u);
  for (const soc::CoreRunResult& r : injected.cores) {
    EXPECT_EQ(r.attempts, r.name == victim ? 2u : 1u) << r.name;
  }
  EXPECT_EQ(obs::counterValue("soc.job_retries"), 1u);
  EXPECT_EQ(obs::counterValue("robust.injections"), 1u);
  EXPECT_EQ(obs::counterValue("robust.injections_throw"), 1u);
  EXPECT_GT(obs::counterValue("soc.backoff_ticks"), 0u);
  removeCheckpoint(path);
}

TEST(InjectJobRun, ThrowExhaustingRetriesIsStructuredFailure) {
  PlanGuard guard;
  const std::string path = "robust_ckpt_job_fail.txt";
  const std::string victim = testChip().coreName(4);
  soc::CampaignRunner runner(testChip(), testSchedule(), sessionOptions());

  // every_kth=1, max_fires=0: the job throws on every attempt.
  setFaultPlan(onePointPlan("campaign.job.run", FaultAction::kThrow,
                            victim, 1, 1, 0));
  const soc::CampaignResult injected = runner.run(campaignOptions(path));
  EXPECT_TRUE(injected.complete)
      << "one failing core never takes down the campaign";
  EXPECT_EQ(injected.failures, 1u);
  EXPECT_EQ(injected.job_failures, 1u);
  for (const soc::CoreRunResult& r : injected.cores) {
    if (r.name == victim) {
      EXPECT_FALSE(r.pass);
      EXPECT_EQ(r.error, ErrorCode::kJobFailed);
      EXPECT_NE(r.error_detail.find("injected"), std::string::npos);
      EXPECT_EQ(r.attempts, soc::CampaignOptions{}.retry.max_attempts);
    } else {
      EXPECT_TRUE(r.pass) << r.name;
      EXPECT_EQ(r.error, ErrorCode::kOk) << r.name;
    }
  }

  // The failed core was never checkpointed; the resume re-runs exactly
  // it and converges.
  clearFaultPlan();
  soc::CampaignOptions opts = campaignOptions(path);
  opts.resume = true;
  const soc::CampaignResult resumed = runner.run(opts);
  EXPECT_EQ(resumed.resumed_cores, cleanRun().result.cores.size() - 1);
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, resumed));
  EXPECT_EQ(slurp(path), cleanRun().bytes);
  removeCheckpoint(path);
}

TEST(InjectJobRun, HangTripsWatchdogWithoutRetry) {
  PlanGuard guard;
  const std::string path = "robust_ckpt_job_hang.txt";
  const std::string victim = testChip().coreName(1);
  soc::CampaignRunner runner(testChip(), testSchedule(), sessionOptions());

  setFaultPlan(onePointPlan("campaign.job.run", FaultAction::kHang,
                            victim));
  const soc::CampaignResult injected = runner.run(campaignOptions(path));
  EXPECT_TRUE(injected.complete);
  for (const soc::CoreRunResult& r : injected.cores) {
    if (r.name == victim) {
      EXPECT_FALSE(r.pass);
      EXPECT_EQ(r.error, ErrorCode::kBudgetExceeded);
      EXPECT_NE(r.error_detail.find("watchdog"), std::string::npos);
      EXPECT_EQ(r.attempts, 1u) << "a hang would hang again: no retry";
    }
  }

  clearFaultPlan();
  soc::CampaignOptions opts = campaignOptions(path);
  opts.resume = true;
  const soc::CampaignResult resumed = runner.run(opts);
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, resumed));
  EXPECT_EQ(slurp(path), cleanRun().bytes);
  removeCheckpoint(path);
}

TEST(InjectFsimBlock, SimulatorCrashFailsJobThenRetryConverges) {
  PlanGuard guard;
  const std::string path = "robust_ckpt_fsim.txt";
  soc::CampaignRunner runner(testChip(), testSchedule(), sessionOptions());

  // Unkeyed nth-hit trigger: worker-thread hit order would race, so run
  // single-threaded — the first coverage-flow fsim block belongs to the
  // first scheduled core. The job's retry re-runs session + coverage
  // and succeeds (max_fires=1), converging without any resume.
  setFaultPlan(onePointPlan("fsim.block.simulate", FaultAction::kThrow));
  const soc::CampaignResult injected =
      runner.run(campaignOptions(path, /*threads=*/1));
  EXPECT_EQ(planFiresAt("fsim.block.simulate"), 1u);
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, injected));
  EXPECT_EQ(slurp(path), cleanRun().bytes);
  const std::string first =
      testSchedule().sessions[testSchedule().groups[0].members[0]].name;
  for (const soc::CoreRunResult& r : injected.cores) {
    EXPECT_EQ(r.attempts, r.name == first ? 2u : 1u) << r.name;
  }
  removeCheckpoint(path);
}

// -------------------------------------------- checkpoint fuzz testing

TEST(CheckpointFuzz, TruncationsAndBitFlipsNeverYieldPlausibleLies) {
  PlanGuard guard;
  const std::string path = "robust_ckpt_fuzz.txt";
  const std::string& clean_bytes = cleanRun().bytes;
  soc::CampaignRunner runner(testChip(), testSchedule(), sessionOptions());

  // Corpus: every record boundary (valid prefixes AND the empty file),
  // a mid-line cut per boundary, and a sampled sweep of single-bit
  // flips across the whole byte range.
  std::vector<std::string> corpus;
  for (size_t pos = 0; pos < clean_bytes.size(); ++pos) {
    if (clean_bytes[pos] == '\n') {
      corpus.push_back(clean_bytes.substr(0, pos + 1));
      corpus.push_back(clean_bytes.substr(0, pos / 2));  // mid-line cut
    }
  }
  const size_t stride = std::max<size_t>(1, clean_bytes.size() / 16);
  for (size_t off = 3; off < clean_bytes.size(); off += stride) {
    std::string flipped = clean_bytes;
    flipped[off] = static_cast<char>(flipped[off] ^ (1 << (off % 8)));
    corpus.push_back(std::move(flipped));
  }

  for (size_t i = 0; i < corpus.size(); ++i) {
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << corpus[i];
    }
    soc::CampaignOptions opts = campaignOptions(path);
    opts.resume = true;
    soc::CampaignResult res;
    try {
      res = runner.run(opts);
    } catch (const std::invalid_argument&) {
      // Rejected outright (CorruptCheckpoint) — acceptable; what is
      // never acceptable is a wrong-but-plausible success below.
      removeCheckpoint(path);
      continue;
    }
    EXPECT_TRUE(sameCampaignResults(cleanRun().result, res))
        << "fuzz case " << i << " produced divergent results";
    EXPECT_EQ(slurp(path), clean_bytes)
        << "fuzz case " << i << " failed to heal byte-for-byte";
    removeCheckpoint(path);
  }
}

// ----------------------------------- acceptance: hang + corrupt record

TEST(Acceptance, HungCorePlusCorruptRecordCompletesWithReason) {
  PlanGuard guard;
  const std::string path = "robust_ckpt_accept.txt";
  soc::CampaignRunner runner(testChip(), testSchedule(), sessionOptions());

  // A finished campaign whose final record then rots on disk: one bit
  // flips inside the record's tcks field.
  (void)runner.run(campaignOptions(path));
  std::string bytes = slurp(path);
  const size_t last_line = bytes.rfind("\ncore ");
  ASSERT_NE(last_line, std::string::npos);
  std::string record = bytes.substr(last_line + 1);
  const size_t name_at = record.find("name=") + 5;
  const std::string victim =
      record.substr(name_at, record.find(' ', name_at) - name_at);
  const size_t rot_at = last_line + 1 + record.find("tcks=") + 5;
  bytes[rot_at] = static_cast<char>(bytes[rot_at] ^ 1);
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << bytes;
  }

  // The corrupted record's core re-runs on resume — and hangs.

  setFaultPlan(onePointPlan("campaign.job.run", FaultAction::kHang,
                            victim));
  soc::CampaignOptions opts = campaignOptions(path);
  opts.resume = true;
  const soc::CampaignResult res = runner.run(opts);

  // The campaign completes, flags exactly the affected core with a
  // structured reason, and recovered from the corruption.
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.failures, 1u);
  EXPECT_EQ(res.job_failures, 1u);
  EXPECT_GE(res.dropped_records, 1u);
  EXPECT_TRUE(res.checkpoint_quarantined);
  for (const soc::CoreRunResult& r : res.cores) {
    if (r.name == victim) {
      EXPECT_FALSE(r.pass);
      EXPECT_EQ(r.error, ErrorCode::kBudgetExceeded);
      EXPECT_NE(r.error_detail.find("watchdog"), std::string::npos);
    } else {
      EXPECT_TRUE(r.pass) << r.name;
    }
  }

  // And once the hang clears, one more resume converges completely.
  clearFaultPlan();
  const soc::CampaignResult healed = runner.run(opts);
  EXPECT_TRUE(sameCampaignResults(cleanRun().result, healed));
  EXPECT_EQ(slurp(path), cleanRun().bytes);
  removeCheckpoint(path);
}

// ------------------------------------------------ top-up ATPG budgets

struct ScanSetup {
  std::vector<GateId> observed;
  std::vector<GateId> assignable;
};

ScanSetup scanSetup(Netlist& nl) {
  for (GateId dff : nl.dffs()) nl.setFlag(dff, kFlagScanCell);
  ScanSetup s;
  for (const OutputPort& po : nl.outputs()) s.observed.push_back(po.driver);
  for (GateId dff : nl.dffs()) s.observed.push_back(nl.gate(dff).fanins[0]);
  std::sort(s.observed.begin(), s.observed.end());
  s.observed.erase(std::unique(s.observed.begin(), s.observed.end()),
                   s.observed.end());
  s.assignable.assign(nl.inputs().begin(), nl.inputs().end());
  for (GateId dff : nl.dffs()) s.assignable.push_back(dff);
  return s;
}

Netlist topUpCore() {
  gen::IpCoreSpec spec;
  spec.seed = 91;
  spec.target_comb_gates = 250;
  spec.target_ffs = 20;
  spec.num_inputs = 10;
  spec.num_outputs = 8;
  spec.num_domains = 1;
  spec.num_xsources = 0;
  spec.num_noscan_ffs = 0;
  // PODEM-friendly on purpose: the abort-handling tests below need a
  // clean reference with zero genuine aborts.
  spec.resistant_fraction = 0.0;
  return gen::generateIpCore(spec);
}

void runRandomPhase(fault::FaultSimulator& fsim,
                    const std::vector<GateId>& assignable) {
  fsim.classifyUntestable();
  std::mt19937_64 rng(5);
  for (int64_t base = 0; base < 256; base += 64) {
    for (GateId src : assignable) fsim.setSource(src, rng());
    fsim.simulateBlockStuckAt(base, 64);
  }
}

TEST(InjectAtpgTarget, HangSurfacesStructuredAbortAndSecondPassHeals) {
  PlanGuard guard;
  Netlist nl = topUpCore();
  const ScanSetup s = scanSetup(nl);
  fault::FaultList base = fault::FaultList::enumerateStuckAt(nl);
  {
    fault::FaultSimulator fsim(nl, base, s.observed);
    runRandomPhase(fsim, s.assignable);
  }

  // A budget generous enough that nothing genuinely aborts: the only
  // abort in this test is the injected hang, and a status-by-status
  // comparison is meaningful (detected vs untestable is a property of
  // the circuit, not of the targeting order).
  atpg::TopUpConfig cfg;
  cfg.threads = 1;
  cfg.atpg.backtrack_limit = 10'000;

  // Clean reference.
  fault::FaultList clean_fl = base;
  atpg::TopUpResult clean;
  {
    fault::FaultSimulator fsim(nl, clean_fl, s.observed);
    clean =
        atpg::runTopUp(nl, clean_fl, fsim, s.observed, s.assignable, {}, cfg);
  }
  ASSERT_GT(clean.targeted, 0u);
  ASSERT_EQ(clean.aborted, 0u) << "budget is generous on this core";

  // Injected: the first target "hangs" (budget exhausted without the
  // wall time). Single-threaded so the unkeyed nth-hit is the first
  // fault in fault-list order.
  fault::FaultList fl = base;
  atpg::TopUpResult injected;
  setFaultPlan(onePointPlan("atpg.target.generate", FaultAction::kHang));
  {
    fault::FaultSimulator fsim(nl, fl, s.observed);
    injected =
        atpg::runTopUp(nl, fl, fsim, s.observed, s.assignable, {}, cfg);
  }
  clearFaultPlan();
  ASSERT_EQ(injected.aborted_targets.size(), injected.aborted);
  ASSERT_GE(injected.aborted, 1u);
  const atpg::TopUpResult::TargetAbort& abort = injected.aborted_targets[0];
  EXPECT_EQ(abort.backtracks,
            static_cast<size_t>(cfg.atpg.backtrack_limit))
      << "a hang is charged its whole budget";
  EXPECT_NE(fl.record(abort.fault_index).status,
            fault::FaultStatus::kUntestable);

  // A second pass (the fault is simply re-targeted) converges every
  // fault status to the clean outcome — the stranded fault is
  // recoverable, not lost.
  {
    fault::FaultSimulator fsim(nl, fl, s.observed);
    (void)atpg::runTopUp(nl, fl, fsim, s.observed, s.assignable, {}, cfg);
  }
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(fl.record(i).status, clean_fl.record(i).status)
        << "fault " << i << " status diverges after recovery";
  }
}

TEST(InjectAtpgTarget, ThrowPropagatesCleanlyAndRerunIsBitIdentical) {
  PlanGuard guard;
  Netlist nl = topUpCore();
  const ScanSetup s = scanSetup(nl);
  fault::FaultList base = fault::FaultList::enumerateStuckAt(nl);
  {
    fault::FaultSimulator fsim(nl, base, s.observed);
    runRandomPhase(fsim, s.assignable);
  }

  fault::FaultList clean_fl = base;
  atpg::TopUpResult clean;
  {
    fault::FaultSimulator fsim(nl, clean_fl, s.observed);
    atpg::TopUpConfig cfg;
    cfg.threads = 1;
    clean = atpg::runTopUp(nl, clean_fl, fsim, s.observed, s.assignable, {},
                           cfg);
  }

  // The throw fires on the very first generate call: the exception
  // leaves the fault list untouched (no merge ran), so the rerun is
  // bit-identical to the clean flow, not merely equivalent.
  fault::FaultList fl = base;
  setFaultPlan(onePointPlan("atpg.target.generate", FaultAction::kThrow));
  {
    fault::FaultSimulator fsim(nl, fl, s.observed);
    atpg::TopUpConfig cfg;
    cfg.threads = 1;
    EXPECT_THROW(
        (void)atpg::runTopUp(nl, fl, fsim, s.observed, s.assignable, {}, cfg),
        std::runtime_error);
  }
  clearFaultPlan();
  for (size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(fl.record(i).status, base.record(i).status)
        << "a failed round must not half-apply statuses";
  }

  atpg::TopUpResult rerun;
  {
    fault::FaultSimulator fsim(nl, fl, s.observed);
    atpg::TopUpConfig cfg;
    cfg.threads = 1;
    rerun = atpg::runTopUp(nl, fl, fsim, s.observed, s.assignable, {}, cfg);
  }
  ASSERT_EQ(rerun.patterns.size(), clean.patterns.size());
  for (size_t p = 0; p < rerun.patterns.size(); ++p) {
    EXPECT_EQ(rerun.patterns[p].values, clean.patterns[p].values)
        << "pattern " << p;
  }
  for (size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(fl.record(i).status, clean_fl.record(i).status);
  }
}

TEST(InjectSatSolve, HangAndThrowSurfaceStructuredlyAndRerunHeals) {
  PlanGuard guard;
  // c17 through the SAT engine: every solve is fast, so the only abort
  // below is the injected one.
  Netlist nl = gen::buildC17();
  std::vector<GateId> obs;
  for (const OutputPort& po : nl.outputs()) obs.push_back(po.driver);
  std::sort(obs.begin(), obs.end());
  obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
  std::vector<GateId> assignable(nl.inputs().begin(), nl.inputs().end());
  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
  const fault::Fault target = fl.record(0).fault;

  atpg::SatEngine sat(nl, obs, assignable);
  atpg::TestCube cube;

  // kHang: the solve is charged its whole conflict budget and reports
  // the structured abort, exactly like a genuine budget exhaustion.
  setFaultPlan(onePointPlan("atpg.sat.solve", FaultAction::kHang));
  EXPECT_EQ(sat.generate(target, cube), atpg::AtpgStatus::kAborted);
  EXPECT_EQ(sat.backtracksUsed(),
            static_cast<size_t>(atpg::SatEngine::kConflictLimit))
      << "a hang is charged its whole budget";
  clearFaultPlan();

  // kThrow propagates as an exception, not a bogus verdict.
  setFaultPlan(onePointPlan("atpg.sat.solve", FaultAction::kThrow));
  EXPECT_THROW((void)sat.generate(target, cube), std::runtime_error);
  clearFaultPlan();

  // With the plan cleared the same engine instance recovers: the target
  // is simply re-solved and c17's faults are all testable.
  EXPECT_EQ(sat.generate(target, cube), atpg::AtpgStatus::kDetected);
}

TEST(InjectSatSolve, EscalationRescuesHungPrimaryTarget) {
  PlanGuard guard;
  Netlist nl = topUpCore();
  const ScanSetup s = scanSetup(nl);
  fault::FaultList base = fault::FaultList::enumerateStuckAt(nl);
  {
    fault::FaultSimulator fsim(nl, base, s.observed);
    runRandomPhase(fsim, s.assignable);
  }

  atpg::TopUpConfig cfg;
  cfg.threads = 1;
  cfg.atpg.backtrack_limit = 10'000;

  // Clean reference (no injection, no escalation needed: nothing
  // genuinely aborts on this core at that budget).
  fault::FaultList clean_fl = base;
  atpg::TopUpResult clean;
  {
    fault::FaultSimulator fsim(nl, clean_fl, s.observed);
    clean =
        atpg::runTopUp(nl, clean_fl, fsim, s.observed, s.assignable, {}, cfg);
  }
  ASSERT_EQ(clean.aborted, 0u);

  // Hang the first PODEM target with escalation armed: instead of
  // stranding, the target is handed to the SAT engine in the same run —
  // no abort surfaces and no second pass is needed.
  fault::FaultList fl = base;
  cfg.sat_escalate = true;
  setFaultPlan(onePointPlan("atpg.target.generate", FaultAction::kHang));
  atpg::TopUpResult rescued;
  {
    fault::FaultSimulator fsim(nl, fl, s.observed);
    rescued =
        atpg::runTopUp(nl, fl, fsim, s.observed, s.assignable, {}, cfg);
  }
  clearFaultPlan();
  EXPECT_EQ(rescued.aborted, 0u)
      << "escalation must rescue the hung target in-run";
  EXPECT_GE(rescued.sat_escalated, 1u);
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(fl.record(i).status, clean_fl.record(i).status)
        << "fault " << i << " status diverges from the clean flow";
  }
}

// ------------------------------------------------- harness completeness

TEST(Harness, EveryRegisteredPointIsCoveredBySuite) {
  // Every site this binary executed must be one the differential suite
  // above exercises — an unlisted registration means someone added a
  // ROBUST_POINT without an injected-then-resumed test for it.
  const std::vector<std::string> covered = {
      "atpg.sat.solve",             "atpg.target.generate",
      "campaign.checkpoint.append", "campaign.checkpoint.read",
      "campaign.checkpoint.rewrite", "campaign.job.run",
      "fsim.block.simulate",        "test.unit.point",
  };
  std::vector<std::string> registered;
  for (const PointInfo& p : registeredPoints()) {
    registered.push_back(p.name);
    EXPECT_NE(p.supported, 0u) << p.name << " declares no actions";
  }
  EXPECT_EQ(registered, covered)
      << "registered ROBUST_POINTs and the differential suite diverged";
}

}  // namespace
}  // namespace lbist::robust
