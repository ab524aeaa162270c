#include "soc/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/flow.hpp"
#include "core/session.hpp"
#include "core/thread_pool.hpp"
#include "obs/obs.hpp"
#include "robust/io.hpp"
#include "robust/robust.hpp"
#include "soc/power.hpp"

namespace lbist::soc {

namespace {

// Checkpoint format v2: every line is `<content> crc=<8hex>` with the
// CRC32 of the content prefix. v1 files (no crc token) fail the header
// check and are quarantined like any other corruption — a v1 campaign
// cannot be resumed by a v2 runner, only healed by re-running.
constexpr const char* kCheckpointMagic = "lbist-campaign v2";

// Simulated watchdog budget per core-session attempt; a hung session is
// charged all of it and recorded BudgetExceeded without retry.
constexpr uint64_t kWatchdogBudgetTicks = 1024;

std::string checkpointHeader(const Chip& chip, int64_t patterns,
                             bool coverage) {
  std::ostringstream os;
  os << kCheckpointMagic << " chip=" << chip.name()
     << " patterns=" << patterns << " cores=" << chip.numCores()
     << " coverage=" << (coverage ? 1 : 0);
  return os.str();
}

std::string checkpointLine(const CoreRunResult& r) {
  std::ostringstream os;
  os << "core name=" << r.name << " pass=" << (r.pass ? 1 : 0)
     << " tcks=" << r.tcks << " coverage=";
  if (r.coverage_percent < 0.0) {
    os << "-";
  } else {
    os.precision(std::numeric_limits<double>::max_digits10);
    os << r.coverage_percent;
  }
  os << " sigs=";
  for (size_t i = 0; i < r.signatures.size(); ++i) {
    if (i > 0) os << ";";
    os << r.signatures[i];
  }
  return os.str();
}

// Appends the integrity code: "<content> crc=<8hex>".
std::string withCrc(const std::string& content) {
  return content + " crc=" + robust::crc32Hex(content);
}

// Splits an intact "<content> crc=<8hex>" line; false when the token is
// missing, malformed, or the CRC disagrees with the content bytes.
bool splitCrcLine(const std::string& line, std::string* content) {
  const size_t pos = line.rfind(" crc=");
  if (pos == std::string::npos) return false;
  const std::string body = line.substr(0, pos);
  const std::string crc = line.substr(pos + 5);
  if (crc.size() != 8) return false;
  if (robust::crc32Hex(body) != crc) return false;
  *content = body;
  return true;
}

// Deterministic silent-corruption payload for kBitFlip injections: flip
// the low bit of the last non-newline byte, so the damaged line is
// always the most recent one and the experiment is reproducible.
void flipLastContentBit(std::string* bytes) {
  for (size_t i = bytes->size(); i-- > 0;) {
    if ((*bytes)[i] != '\n') {
      (*bytes)[i] = static_cast<char>((*bytes)[i] ^ 1);
      return;
    }
  }
}

/// Parses one `key=value` token; returns false on shape mismatch.
bool tokenValue(const std::string& token, const std::string& key,
                std::string* value) {
  if (token.rfind(key + "=", 0) != 0) return false;
  *value = token.substr(key.size() + 1);
  return true;
}

// Parses a CRC-validated record content into `*r`; false when the shape
// is wrong despite the intact CRC (this writer never produces that, so
// callers treat it as corruption).
bool parseRecord(const std::string& content, CoreRunResult* r) {
  std::istringstream ls(content);
  std::string tag;
  ls >> tag;
  if (tag != "core") return false;

  r->from_checkpoint = true;
  bool has_name = false;
  bool has_pass = false;
  bool has_tcks = false;
  bool has_coverage = false;
  bool has_sigs = false;
  std::string token;
  std::string value;
  try {
    while (ls >> token) {
      if (tokenValue(token, "name", &value)) {
        r->name = value;
        has_name = !value.empty();
      } else if (tokenValue(token, "pass", &value)) {
        r->pass = value == "1";
        has_pass = true;
      } else if (tokenValue(token, "tcks", &value)) {
        r->tcks = std::stoull(value);
        has_tcks = true;
      } else if (tokenValue(token, "coverage", &value)) {
        r->coverage_percent = value == "-" ? -1.0 : std::stod(value);
        has_coverage = true;
      } else if (tokenValue(token, "sigs", &value)) {
        r->signatures.clear();
        std::istringstream ss(value);
        std::string sig;
        while (std::getline(ss, sig, ';')) r->signatures.push_back(sig);
        has_sigs = !r->signatures.empty();
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return has_name && has_pass && has_tcks && has_coverage && has_sigs;
}

/// What checkpoint recovery salvaged: the longest valid record prefix,
/// plus how much corruption it cut away.
struct LoadedCheckpoint {
  std::vector<CoreRunResult> done;
  size_t dropped_records = 0;
  bool quarantined = false;
};

/// Loads completed-core results from a checkpoint, in file order (empty
/// when the file does not exist or is empty). Recovery model (WAL
/// semantics): the first line whose CRC fails invalidates itself AND
/// every later line — a corrupt middle means appends after it cannot be
/// ordered against the campaign, so they re-run. The corrupt original
/// is preserved as `<path>.corrupt` for postmortem. An intact header
/// naming a different campaign is the one unrecoverable case
/// (kCorruptCheckpoint): resuming would silently mix campaigns.
robust::Result<LoadedCheckpoint> tryLoadCheckpoint(const std::string& path,
                                                   const Chip& chip,
                                                   int64_t patterns,
                                                   bool coverage) {
  LoadedCheckpoint loaded;
  if (ROBUST_POINT("campaign.checkpoint.read", "", robust::kCanIoError) ==
      robust::FaultAction::kIoError) {
    return robust::Status::error(
        robust::ErrorCode::kIoError,
        "injected read failure on checkpoint '" + path + "'");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return loaded;  // no checkpoint yet
  std::string bytes;
  {
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  if (bytes.empty()) return loaded;

  std::vector<std::string> lines;
  {
    std::istringstream ls(bytes);
    std::string line;
    while (std::getline(ls, line)) lines.push_back(line);
  }

  const auto quarantine = [&]() {
    if (!loaded.quarantined) {
      (void)robust::atomicWriteFile(path + ".corrupt", bytes);
      loaded.quarantined = true;
      OBS_COUNT("soc.ckpt_quarantines", 1);
      if (obs::eventsEnabled()) {
        // Path deliberately omitted: test checkpoints live in per-run
        // temp dirs and would break byte-diffing across reruns.
        obs::Event("recover").field("kind", "checkpoint_quarantine").commit();
      }
    }
  };

  std::string header;
  if (lines.empty() || !splitCrcLine(lines[0], &header)) {
    // Corrupt header: nothing below it can be trusted. Quarantine and
    // run fresh — healing, not failing, keeps injected-then-resumed
    // campaigns convergent with clean runs.
    quarantine();
    loaded.dropped_records = lines.empty() ? 0 : lines.size() - 1;
    OBS_COUNT("soc.ckpt_records_dropped", loaded.dropped_records);
    return loaded;
  }
  if (header != checkpointHeader(chip, patterns, coverage)) {
    return robust::Status::error(
        robust::ErrorCode::kCorruptCheckpoint,
        "checkpoint '" + path +
            "' does not match this chip campaign (chip, pattern count, or "
            "coverage mode)");
  }

  for (size_t i = 1; i < lines.size(); ++i) {
    CoreRunResult r;
    std::string content;
    if (!splitCrcLine(lines[i], &content) || !parseRecord(content, &r)) {
      quarantine();
      loaded.dropped_records += lines.size() - i;
      break;
    }
    loaded.done.push_back(std::move(r));
  }
  OBS_COUNT("soc.ckpt_records_dropped", loaded.dropped_records);
  return loaded;
}

}  // namespace

CampaignRunner::CampaignRunner(Chip& chip, const TestSchedule& schedule,
                               core::SessionOptions session)
    : chip_(&chip), schedule_(&schedule), session_(std::move(session)) {}

robust::Result<CampaignResult> CampaignRunner::tryRun(
    const CampaignOptions& opts) {
  const int64_t patterns = session_.patterns;
  if (chip_->goldenPatterns() != patterns) {
    return robust::Status::error(
        robust::ErrorCode::kInvalidArgument,
        "chip golden characterization (Chip::characterizeGolden) is "
        "missing or ran a different pattern count than the campaign "
        "session");
  }

  CampaignResult result;
  std::vector<CoreRunResult> loaded;
  if (!opts.checkpoint_path.empty() && opts.resume) {
    robust::Result<LoadedCheckpoint> lc = tryLoadCheckpoint(
        opts.checkpoint_path, *chip_, patterns, opts.measure_coverage);
    if (!lc.ok()) return lc.status();
    loaded = std::move(lc.value().done);
    result.dropped_records = lc.value().dropped_records;
    result.checkpoint_quarantined = lc.value().quarantined;
  }
  std::map<std::string, CoreRunResult> done;
  for (const CoreRunResult& r : loaded) done.emplace(r.name, r);

  // The checkpoint is always rewritten from the accepted entries: a
  // resume after any corruption heals the file, so every campaign —
  // interrupted or not — converges to the same bytes. The rewrite is
  // atomic (temp + fsync + rename, robust::atomicWriteFile) so a kill
  // during the rewrite itself can never lose already-recorded cores.
  std::ofstream ckpt;
  // Names in on-disk record order, for the completion-time order check.
  std::vector<std::string> written;
  if (!opts.checkpoint_path.empty()) {
    std::ostringstream os;
    os << withCrc(checkpointHeader(*chip_, patterns, opts.measure_coverage))
       << "\n";
    for (const CoreRunResult& r : loaded) {
      os << withCrc(checkpointLine(r)) << "\n";
      written.push_back(r.name);
    }
    std::string content = os.str();
    // WAL-buffer accounting: the rewrite holds the whole checkpoint
    // image in memory until the atomic rename lands. RAII so injected
    // early returns below release the same bytes they charged.
    obs::GaugeCharge wal_charge;
    if (obs::metricsEnabled()) {
      wal_charge = obs::GaugeCharge(obs::gaugeId("soc.ckpt_wal_bytes"),
                                    static_cast<int64_t>(content.size()));
    }
    if (obs::eventsEnabled()) {
      obs::Event("checkpoint_rewrite")
          .field("reason", "start")
          .field("records", static_cast<uint64_t>(loaded.size()))
          .commit();
    }
    const robust::FaultAction act = ROBUST_POINT(
        "campaign.checkpoint.rewrite", "",
        robust::kCanIoError | robust::kCanTornWrite | robust::kCanBitFlip);
    if (act == robust::FaultAction::kIoError) {
      return robust::Status::error(
          robust::ErrorCode::kIoError,
          "injected write failure rewriting checkpoint '" +
              opts.checkpoint_path + "'");
    }
    if (act == robust::FaultAction::kTornWrite) {
      // A kill that raced a non-atomic writer: the destination keeps a
      // prefix of the bytes and this process dies. The next resume
      // quarantines and heals whatever survived.
      std::ofstream torn(opts.checkpoint_path,
                         std::ios::trunc | std::ios::binary);
      torn << content.substr(0, content.size() / 2) << std::flush;
      return robust::Status::error(
          robust::ErrorCode::kIoError,
          "injected torn write rewriting checkpoint '" +
              opts.checkpoint_path + "'");
    }
    if (act == robust::FaultAction::kBitFlip) {
      // Silent media corruption: the write "succeeds" with one bit
      // wrong and the campaign continues believing it.
      flipLastContentBit(&content);
    }
    const robust::Status wrote =
        robust::atomicWriteFile(opts.checkpoint_path, content);
    if (!wrote.ok()) return wrote;
    ckpt.open(opts.checkpoint_path, std::ios::app | std::ios::binary);
    if (!ckpt.is_open()) {
      return robust::Status::error(
          robust::ErrorCode::kIoError,
          "cannot append to checkpoint '" + opts.checkpoint_path + "'");
    }
  }

  OBS_SPAN("soc.campaign");
  const auto campaign_t0 = std::chrono::steady_clock::now();
  core::ThreadPool pool(opts.threads);

  const size_t group_limit =
      opts.max_groups < 0
          ? schedule_->groups.size()
          : std::min(schedule_->groups.size(),
                     static_cast<size_t>(opts.max_groups));

  // Planned simulated test time across the groups this run will
  // execute; the heartbeat's ETA is elapsed wall scaled by the
  // remaining fraction of this total.
  uint64_t planned_tcks = 0;
  for (size_t g = 0; g < group_limit; ++g) {
    planned_tcks += schedule_->groups[g].duration_tcks;
  }

  for (size_t gi = 0; gi < group_limit; ++gi) {
    OBS_SPAN("soc.group");
    OBS_COUNT("soc.groups", 1);
    const ScheduleGroup& group = schedule_->groups[gi];

    // Workers fill disjoint slots; every shared structure (chip slots,
    // goldens, schedule) is read-only here. The index indirection keeps
    // the job list dense when some members come from the checkpoint.
    std::vector<size_t> pending;
    for (size_t m = 0; m < group.members.size(); ++m) {
      const CoreSession& cs = schedule_->sessions[group.members[m]];
      if (done.find(cs.name) == done.end()) pending.push_back(m);
    }
    std::vector<CoreRunResult> fresh(group.members.size());
    pool.run(static_cast<unsigned>(pending.size()), [&](unsigned shard) {
      const size_t m = pending[shard];
      const CoreSession& cs = schedule_->sessions[group.members[m]];
      const size_t ci = cs.core_index;
      // SoC Perfetto tracks read by the core under test, not the pool
      // slot; a worker that serves several cores keeps its most recent
      // label.
      obs::setThreadName("core-" + cs.name);
      OBS_SPAN("soc.core_session");

      // Retry loop under the deterministic budget: an attempt that
      // throws is retried (jobs are pure, re-running is safe); a
      // watchdog expiry is not (a hang would hang again). Backoff is
      // charged to an obs counter, never slept, so campaign results
      // stay bit-exact whatever the retry history.
      CoreRunResult r;
      r.name = cs.name;
      r.core_index = ci;
      for (uint32_t attempt = 1;; ++attempt) {
        r.attempts = attempt;
        const uint64_t backoff = opts.retry.backoffTicks(attempt);
        if (backoff != 0) OBS_COUNT("soc.backoff_ticks", backoff);
        r.error = robust::ErrorCode::kOk;
        r.error_detail.clear();
        const robust::FaultAction act = ROBUST_POINT(
            "campaign.job.run", cs.name,
            robust::kCanThrow | robust::kCanHang);
        if (act == robust::FaultAction::kHang) {
          r.error = robust::ErrorCode::kBudgetExceeded;
          r.error_detail =
              "watchdog: core session exceeded " +
              std::to_string(kWatchdogBudgetTicks) +
              " simulated ticks";
          break;
        }
        try {
          if (act == robust::FaultAction::kThrow) {
            throw std::runtime_error("injected session failure on core '" +
                                     cs.name + "'");
          }
          OBS_COUNT("soc.cores_run", 1);
          const core::BistReadyCore& ready = chip_->core(ci);
          core::SessionResult golden;
          golden.signatures.assign(chip_->golden(ci).begin(),
                                   chip_->golden(ci).end());
          core::BistSession session(ready, chip_->die(ci));
          const core::SessionResult res = session.run(session_, &golden);
          r.pass = res.result_pass;
          r.signatures = res.signatures;
          r.tcks = sessionTcks(ready, session_);
          if (opts.measure_coverage) {
            core::CoverageFlow flow(ready);
            r.coverage_percent = flow.runRandomPhase(patterns)
                                     .coverage.faultCoveragePercent();
          }
          break;
        } catch (const std::exception& e) {
          r.error = robust::ErrorCode::kJobFailed;
          r.error_detail = e.what();
          r.pass = false;
          r.signatures.clear();
          r.tcks = 0;
          r.coverage_percent = -1.0;
        }
        if (attempt >= opts.retry.max_attempts) break;
        OBS_COUNT("soc.job_retries", 1);
        if (obs::eventsEnabled()) {
          // Retry history is deterministic per core (pure jobs, fixed
          // plan) but workers interleave, hence commitShared.
          obs::Event("recover")
              .field("kind", "job_retry")
              .field("core", cs.name)
              .field("attempt", static_cast<uint64_t>(attempt))
              .commitShared();
        }
      }
      fresh[m] = std::move(r);
    });

    // Serial merge in schedule order: result rows, failure accounting,
    // and checkpoint lines all come from this single loop. Only cores
    // that actually executed (error == kOk) are checkpointed; a
    // failed-with-reason core re-runs on resume, which is what lets an
    // injected run converge to clean-run bytes.
    for (size_t m = 0; m < group.members.size(); ++m) {
      const CoreSession& cs = schedule_->sessions[group.members[m]];
      const auto it = done.find(cs.name);
      CoreRunResult r;
      if (it != done.end()) {
        r = it->second;
        r.core_index = cs.core_index;
        ++result.resumed_cores;
      } else {
        r = std::move(fresh[m]);
        if (r.error != robust::ErrorCode::kOk) {
          ++result.job_failures;
          OBS_COUNT("soc.job_failures", 1);
        } else if (ckpt.is_open()) {
          std::string line = withCrc(checkpointLine(r));
          const robust::FaultAction act = ROBUST_POINT(
              "campaign.checkpoint.append", r.name,
              robust::kCanIoError | robust::kCanTornWrite |
                  robust::kCanBitFlip);
          if (act == robust::FaultAction::kIoError) {
            ckpt.close();
            result.checkpoint_status = robust::Status::error(
                robust::ErrorCode::kIoError,
                "injected append failure on checkpoint '" +
                    opts.checkpoint_path + "' at core '" + r.name + "'");
            OBS_COUNT("soc.ckpt_write_failures", 1);
          } else if (act == robust::FaultAction::kTornWrite) {
            // Torn mid-append: half the line, no newline. Later appends
            // concatenate onto it; recovery drops the garbled line and
            // everything after.
            ckpt << line.substr(0, line.size() / 2) << std::flush;
            written.push_back(r.name);
          } else {
            if (act == robust::FaultAction::kBitFlip) {
              flipLastContentBit(&line);
            }
            ckpt << line << "\n" << std::flush;
            written.push_back(r.name);
          }
          // Graceful degradation on a genuine append failure: keep the
          // campaign running without checkpointing and surface the
          // status; resume re-runs the unrecorded cores.
          if (ckpt.is_open() && !ckpt.good()) {
            ckpt.close();
            result.checkpoint_status = robust::Status::error(
                robust::ErrorCode::kIoError,
                "checkpoint append failed on '" + opts.checkpoint_path +
                    "' at core '" + r.name + "'");
            OBS_COUNT("soc.ckpt_write_failures", 1);
          }
        }
      }
      if (!r.pass) ++result.failures;
      if (obs::eventsEnabled()) {
        // One event per core, emitted from this serial merge so the
        // order is schedule order for every thread count.
        obs::Event("core_result")
            .field("core", r.name)
            .field("group", static_cast<uint64_t>(gi + 1))
            .field("pass", r.pass)
            .field("resumed", it != done.end())
            .field("tcks", r.tcks)
            .commit();
      }
      result.cores.push_back(std::move(r));
    }
    result.total_tcks += group.duration_tcks;
    ++result.executed_groups;
    if (obs::eventsEnabled()) {
      obs::Event("group_done")
          .field("group", static_cast<uint64_t>(gi + 1))
          .field("groups", static_cast<uint64_t>(group_limit))
          .field("cores_done", static_cast<uint64_t>(result.cores.size()))
          .field("failures", static_cast<uint64_t>(result.failures))
          .field("tcks", result.total_tcks)
          .commit();
    }
    // Rate-curve anchor: one sample per merged group, work-indexed by
    // the cumulative simulated test time (the campaign unit of work).
    OBS_SAMPLE("soc.group", static_cast<int64_t>(result.total_tcks));

    if (opts.progress != nullptr) {
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - campaign_t0)
                              .count();
      // Rate and ETA come from campaign-local tck accounting (simulated
      // test time over wall time), so the heartbeat needs no wall-clock
      // state beyond the campaign start.
      const double rate = secs > 0.0
                              ? static_cast<double>(result.total_tcks) / secs
                              : 0.0;
      const double eta =
          result.total_tcks > 0
              ? secs *
                    static_cast<double>(planned_tcks - result.total_tcks) /
                    static_cast<double>(result.total_tcks)
              : 0.0;
      *opts.progress << "[campaign] group " << (gi + 1) << "/" << group_limit
                     << ": " << result.cores.size() << " cores done ("
                     << result.resumed_cores << " resumed), "
                     << result.failures << " failures, " << secs << "s, "
                     << rate << " tck/s, eta " << eta << "s\n"
                     << std::flush;
    }
  }
  OBS_COUNT("soc.cores_resumed", result.resumed_cores);
  OBS_COUNT("soc.failures", result.failures);

  result.complete = result.executed_groups == schedule_->groups.size();

  // Completion-time canonicalization: a core that failed in an earlier
  // run re-runs on resume and appends AFTER records that canonically
  // follow it (the append stream cannot insert). One atomic rewrite in
  // schedule-merge order restores the contract that every campaign —
  // however it got here — converges to identical checkpoint bytes. The
  // check is order-only: a record that reached disk corrupted stays
  // corrupted (quarantine evidence belongs to the next resume).
  if (result.complete && ckpt.is_open() && ckpt.good()) {
    std::vector<std::string> canonical;
    for (const CoreRunResult& r : result.cores) {
      if (r.error == robust::ErrorCode::kOk) canonical.push_back(r.name);
    }
    if (written != canonical) {
      ckpt.close();
      std::ostringstream os;
      os << withCrc(checkpointHeader(*chip_, patterns, opts.measure_coverage))
         << "\n";
      for (const CoreRunResult& r : result.cores) {
        if (r.error == robust::ErrorCode::kOk) {
          os << withCrc(checkpointLine(r)) << "\n";
        }
      }
      const std::string content = os.str();
      obs::GaugeCharge wal_charge;
      if (obs::metricsEnabled()) {
        wal_charge = obs::GaugeCharge(obs::gaugeId("soc.ckpt_wal_bytes"),
                                      static_cast<int64_t>(content.size()));
      }
      if (obs::eventsEnabled()) {
        obs::Event("checkpoint_rewrite")
            .field("reason", "canonicalize")
            .field("records", static_cast<uint64_t>(canonical.size()))
            .commit();
      }
      const robust::Status wrote =
          robust::atomicWriteFile(opts.checkpoint_path, content);
      if (!wrote.ok()) {
        // Degrade, not fail: the streamed file is complete and valid,
        // merely out of canonical order, and still resumes correctly.
        result.checkpoint_status = wrote;
        OBS_COUNT("soc.ckpt_write_failures", 1);
      } else {
        OBS_COUNT("soc.ckpt_canonicalized", 1);
      }
    }
  }
  return result;
}

CampaignResult CampaignRunner::run(const CampaignOptions& opts) {
  robust::Result<CampaignResult> result = tryRun(opts);
  if (!result.ok()) throw std::invalid_argument(result.status().message());
  return std::move(result).value();
}

std::vector<CoreSession> buildCoreSessions(const Chip& chip,
                                           const core::SessionOptions& session,
                                           int64_t power_sample_patterns) {
  std::vector<CoreSession> sessions;
  sessions.reserve(chip.numCores());
  for (size_t i = 0; i < chip.numCores(); ++i) {
    CoreSession cs;
    cs.core_index = i;
    cs.name = chip.coreName(i);
    cs.test_tcks = sessionTcks(chip.core(i), session);
    cs.power = PowerModel(chip.core(i)).estimate(power_sample_patterns).peak();
    sessions.push_back(std::move(cs));
  }
  return sessions;
}

TestSchedule buildChipSchedule(const Chip& chip, double power_budget,
                               const core::SessionOptions& session,
                               int64_t power_sample_patterns) {
  return Scheduler(power_budget)
      .build(buildCoreSessions(chip, session, power_sample_patterns));
}

}  // namespace lbist::soc
