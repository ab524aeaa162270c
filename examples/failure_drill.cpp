// Failure drill (ARCHITECTURE.md contract 6): a chip-level campaign
// survives one hung core and one corrupt checkpoint record.
//
//   1. Run a full campaign with a checkpoint, then rot one record on
//      disk (a single flipped bit — the CRC catches it on resume).
//   2. Arm a deterministic fault plan that hangs exactly that core's
//      job on the resume.
//   3. Resume: the campaign completes, quarantines the corrupt bytes,
//      and flags exactly the hung core with a structured reason.
//   4. Clear the plan and resume once more: results and checkpoint
//      bytes converge to the uninjected run.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "gen/soc.hpp"
#include "robust/robust.hpp"
#include "soc/campaign.hpp"
#include "soc/chip.hpp"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << bytes;
}

}  // namespace

int main() {
  using namespace lbist;
  std::printf("=== Failure drill: hung core + corrupt checkpoint ===\n\n");

  // --- the chip and its schedule -----------------------------------------
  soc::Chip chip("drillchip");
  gen::SocSpec spec;
  spec.name = "drillchip";
  spec.seed = 17;
  spec.num_cores = 4;
  spec.min_comb_gates = 250;
  spec.max_comb_gates = 500;
  spec.min_ffs = 24;
  spec.max_ffs = 40;
  spec.max_domains = 2;
  core::LbistConfig base;
  base.test_points = 4;
  base.tpi.warmup_patterns = 64;
  base.tpi.guidance_patterns = 32;
  appendGeneratedCores(chip, spec, base);
  chip.characterizeGolden(16);

  core::SessionOptions session;
  session.patterns = 16;
  const soc::TestSchedule sched = buildChipSchedule(
      chip, peakSessionPower(buildCoreSessions(chip, session, 64)), session,
      64);
  soc::CampaignRunner runner(chip, sched, session);

  const std::string path = "drill_checkpoint.txt";
  soc::CampaignOptions opts;
  opts.threads = 2;
  opts.checkpoint_path = path;

  // --- 1. clean run, then rot the final record ---------------------------
  const soc::CampaignResult clean = runner.run(opts);
  const std::string clean_bytes = slurp(path);
  std::string bytes = clean_bytes;
  const size_t last = bytes.rfind("\ncore ");
  if (last == std::string::npos) {
    std::printf("unexpected: checkpoint holds no core records\n");
    return 1;
  }
  bytes[last + 12] = static_cast<char>(bytes[last + 12] ^ 1);
  spit(path, bytes);

  // The rotted record's core must re-run on resume; that is the core we
  // hang. Recover its name from the schedule, not the damaged bytes.
  std::string victim = clean.cores.back().name;
  for (const soc::CoreRunResult& r : clean.cores) {
    const size_t rec = clean_bytes.find("name=" + r.name + " ");
    if (rec != std::string::npos && rec > last) victim = r.name;
  }
  std::printf("corrupted the checkpoint record of '%s' and armed a hang "
              "on its job\n\n", victim.c_str());

  // --- 2. arm the hang ----------------------------------------------------
#ifndef LBIST_ROBUST_OFF
  robust::FaultPlan plan;
  plan.rules.push_back(robust::FaultRule{.point = "campaign.job.run",
                                         .key = victim,
                                         .action = robust::FaultAction::kHang,
                                         .nth_hit = 1,
                                         .every_kth = 0,
                                         .max_fires = 1});
  robust::setFaultPlan(plan);
#else
  std::printf("(built with LBIST_ROBUST_OFF: injection sites compiled "
              "out, drilling corruption recovery only)\n\n");
#endif

  // --- 3. the drill --------------------------------------------------------
  opts.resume = true;
  const soc::CampaignResult drilled = runner.run(opts);
  robust::clearFaultPlan();

  std::printf("campaign %s: %zu records dropped, quarantined=%s\n",
              drilled.complete ? "completed" : "DID NOT COMPLETE",
              drilled.dropped_records,
              drilled.checkpoint_quarantined ? "yes" : "no");
  for (const soc::CoreRunResult& r : drilled.cores) {
    std::printf("  %-10s %s", r.name.c_str(), r.pass ? "pass" : "FLAGGED");
    if (r.error != robust::ErrorCode::kOk) {
      std::printf("  [%s: %s]", robust::errorCodeName(r.error),
                  r.error_detail.c_str());
    }
    std::printf("\n");
  }
  if (!drilled.complete || drilled.dropped_records == 0 ||
      !drilled.checkpoint_quarantined) {
    std::printf("\nunexpected: corruption was not recovered\n");
    return 1;
  }
#ifndef LBIST_ROBUST_OFF
  size_t flagged = 0;
  for (const soc::CoreRunResult& r : drilled.cores) {
    if (r.pass) continue;
    ++flagged;
    if (r.name != victim ||
        r.error != robust::ErrorCode::kBudgetExceeded) {
      std::printf("\nunexpected: wrong core or reason flagged\n");
      return 1;
    }
  }
  if (flagged != 1) {
    std::printf("\nunexpected: %zu cores flagged, want exactly 1\n",
                flagged);
    return 1;
  }
#endif

  // --- 4. heal -------------------------------------------------------------
  const soc::CampaignResult healed = runner.run(opts);
  const bool converged = slurp(path) == clean_bytes && healed.complete &&
                         healed.failures == clean.failures;
  std::printf("\nafter the hang cleared, one more resume %s the clean "
              "run's checkpoint bytes.\n",
              converged ? "reproduced" : "DIVERGED FROM");
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
  return converged ? 0 : 1;
}
