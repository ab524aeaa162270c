// soc::CampaignRunner — executes a TestSchedule against a Chip.
//
// Groups run in schedule order; within a group every core's BIST session
// is an independent job on core::ThreadPool (sessions share nothing —
// each job owns its BistSession, simulator and optional coverage flow),
// and a serial in-schedule-order merge assembles per-core pass/fail,
// signatures, and coverage. The merge is the only writer of results and
// of the checkpoint file, so campaign output — including the checkpoint
// bytes — is bit-identical for 1/2/4/0 worker threads.
//
// Checkpoint/resume: with CampaignOptions::checkpoint_path set, the
// merge appends one line per completed core. A later run with
// resume = true validates the header (chip name, pattern count, core
// count), skips every recorded core, and appends only the remainder —
// so a killed chip campaign resumes without re-running finished cores
// and converges to the same results and checkpoint bytes as an
// uninterrupted run.
//
// Failure handling (ARCHITECTURE.md contract 6): the checkpoint format
// is versioned and CRC-protected per record, rewrites are atomic
// (temp + fsync + rename), and recovery truncates to the longest valid
// record prefix, quarantining the corrupt original as `<path>.corrupt`.
// Core-session jobs run under a deterministic RetryPolicy and a
// simulated watchdog: a job that throws is retried within budget, a
// hung one (only injectable — real sessions are finite) is not, and a
// job that still fails is recorded failed-with-reason
// (CoreRunResult::error/error_detail) while the campaign completes the
// remaining cores. Failed cores are never checkpointed, so a resume
// re-runs exactly them and still converges to clean-run bytes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "robust/robust.hpp"
#include "soc/chip.hpp"
#include "soc/schedule.hpp"

namespace lbist::soc {

/// Campaign execution knobs.
struct CampaignOptions {
  /// Worker threads for in-group core sessions (0 = hardware
  /// concurrency). Results are bit-identical for every value.
  uint32_t threads = 1;
  /// Also measure each core's stuck-at fault coverage over the session's
  /// PRPG patterns (core::CoverageFlow). Costs one fault-simulation
  /// campaign per core.
  bool measure_coverage = false;
  /// Checkpoint file path; empty disables checkpointing.
  std::string checkpoint_path;
  /// Resume from an existing checkpoint file instead of truncating it.
  bool resume = false;
  /// Stop after this many groups (-1 = run all). The campaign reports
  /// complete = false; a later resume run finishes the remainder — the
  /// hook the kill-and-resume tests use.
  int64_t max_groups = -1;
  /// Heartbeat stream: after every merged group the runner writes one
  /// progress line (group index, cores run/resumed, failures, wall
  /// seconds, throughput in simulated tck/s, and an ETA extrapolated
  /// from the remaining scheduled tcks). nullptr disables.
  /// Observability only — never read back, so it cannot affect results
  /// (ARCHITECTURE.md contract 5).
  std::ostream* progress = nullptr;
  /// Retry budget for failing core-session jobs. Backoff is counted in
  /// simulated ticks (obs counter soc.backoff_ticks), never slept, so
  /// retried campaigns stay bit-exact.
  robust::RetryPolicy retry;
};

/// One core's campaign outcome.
struct CoreRunResult {
  std::string name;
  size_t core_index = 0;
  bool pass = false;
  std::vector<std::string> signatures;  // per domain, hex
  uint64_t tcks = 0;                    // session length (sessionTcks)
  double coverage_percent = -1.0;       // -1 when not measured
  bool from_checkpoint = false;
  /// kOk when the session executed (pass/fail is the BIST verdict);
  /// otherwise the infrastructure failure that kept it from executing
  /// (JobFailed: exception; BudgetExceeded: watchdog). Failed-with-
  /// reason cores are not checkpointed and re-run on resume.
  robust::ErrorCode error = robust::ErrorCode::kOk;
  /// Human-readable reason when error != kOk.
  std::string error_detail;
  /// Attempts consumed (1 = first try succeeded). Run history, like
  /// from_checkpoint: excluded from result-equality comparisons.
  uint32_t attempts = 1;
};

/// Whole-campaign outcome, merged in schedule order.
struct CampaignResult {
  std::vector<CoreRunResult> cores;  // group order, in-group member order
  size_t executed_groups = 0;
  uint64_t total_tcks = 0;  // scheduled duration of the executed groups
  size_t failures = 0;
  size_t resumed_cores = 0;
  bool complete = false;
  /// Cores whose error != kOk (infrastructure failures, a subset of
  /// `failures`).
  size_t job_failures = 0;
  /// Corrupt/torn checkpoint records dropped during resume recovery.
  size_t dropped_records = 0;
  /// True when recovery quarantined a corrupt checkpoint as
  /// `<checkpoint_path>.corrupt`.
  bool checkpoint_quarantined = false;
  /// First checkpoint-append failure, if any. The campaign degrades
  /// gracefully — it keeps running without checkpointing — and records
  /// the failure here instead of aborting mid-campaign.
  robust::Status checkpoint_status;
};

/// See file comment.
class CampaignRunner {
 public:
  /// Binds a chip, a schedule over that chip's cores, and the session
  /// every core runs — pass the same options the schedule was built
  /// with (buildChipSchedule's `session`), or the TCK/power accounting
  /// the schedule promises will not match what executes. The chip must
  /// be golden-characterized (Chip::characterizeGolden) before run().
  CampaignRunner(Chip& chip, const TestSchedule& schedule,
                 core::SessionOptions session);

  /// Executes the schedule. Error statuses: kInvalidArgument when the
  /// session pattern count disagrees with the chip's golden
  /// characterization (the on-chip compare would be meaningless);
  /// kCorruptCheckpoint when a resume checkpoint's intact header names
  /// a different campaign (chip, pattern count, or coverage mode —
  /// resuming would silently mix campaigns); kIoError when the
  /// checkpoint cannot be read or (re)written at campaign start.
  /// Per-core infrastructure failures do NOT fail the campaign: they
  /// come back as CoreRunResult::error with the campaign complete.
  [[nodiscard]] robust::Result<CampaignResult> tryRun(
      const CampaignOptions& opts);

  /// Throwing wrapper over tryRun() for existing callers: throws
  /// std::invalid_argument with the status message on error.
  [[nodiscard]] CampaignResult run(const CampaignOptions& opts);

 private:
  Chip* chip_;
  const TestSchedule* schedule_;
  core::SessionOptions session_;
};

/// Estimates the sessions a chip-level schedule packs: one CoreSession
/// per core, TCKs from sessionTcks and power from PowerModel::peak().
/// Callers choosing a budget relative to the chip's demand combine this
/// with peakSessionPower / totalSessionPower and pack with Scheduler.
[[nodiscard]] std::vector<CoreSession> buildCoreSessions(
    const Chip& chip, const core::SessionOptions& session,
    int64_t power_sample_patterns = 128);

/// Convenience: buildCoreSessions packed with Scheduler under
/// `power_budget`. `session` supplies the pattern count and timing every
/// core session will run with; `power_sample_patterns` sizes the
/// activity sample.
[[nodiscard]] TestSchedule buildChipSchedule(
    const Chip& chip, double power_budget,
    const core::SessionOptions& session,
    int64_t power_sample_patterns = 128);

}  // namespace lbist::soc
