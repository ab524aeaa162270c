// Chip-level SoC campaign harness.
//
// Builds a generated 8-core chip (gen::generateSocPlan), estimates
// per-core test power from switching activity, and then sweeps the
// campaign over power budget x worker threads: for each budget the
// scheduler packs the cores into concurrent groups, and the campaign
// runner executes the schedule on the thread pool. Results go to
// BENCH_soc.json: scheduled total test time (TCKs) vs the serial
// baseline, the schedule's instance-lower-bound ratio, and the measured
// wall-clock per thread count, with the shared meta block. As with the
// fsim/atpg sweeps, multi-thread wall-clock rows are only meaningful on
// a multi-core host (CI); the TCK rows are host-independent. The
// mem_peak section covers the 1-thread campaigns only: every budget's
// serial run goes first and the gauges are read right after, because
// how 2- and 4-thread workers overlap their compiled netlists, and so
// the gauge peaks, changes from run to run.
//
// Flags: --quick   halve pattern counts (local smoke runs).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "gen/soc.hpp"
#include "soc/campaign.hpp"
#include "soc/chip.hpp"

namespace {

using namespace lbist;

struct SocRow {
  std::string budget_label;
  double power_budget = 0.0;
  unsigned threads = 0;
  size_t cores = 0;
  size_t groups = 0;
  uint64_t total_tcks = 0;
  uint64_t serial_tcks = 0;
  double tck_speedup = 0.0;
  double bound_ratio = 0.0;
  double wall_seconds = 0.0;
  size_t failures = 0;
};

void writeJson(const char* path, const std::vector<SocRow>& rows,
               const std::vector<obs::GaugeValue>& serial_gauges) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"soc_campaign\",\n");
  lbist::bench::writeMetaJson(f);
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SocRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"budget\": \"%s\", \"power_budget\": %.1f, \"threads\": %u, "
        "\"cores\": %zu, \"groups\": %zu, \"total_tcks\": %llu, "
        "\"serial_tcks\": %llu, \"tck_speedup\": %.3f, "
        "\"bound_ratio\": %.3f, \"wall_seconds\": %.6f, "
        "\"failures\": %zu}%s\n",
        r.budget_label.c_str(), r.power_budget, r.threads, r.cores, r.groups,
        static_cast<unsigned long long>(r.total_tcks),
        static_cast<unsigned long long>(r.serial_tcks), r.tck_speedup,
        r.bound_ratio, r.wall_seconds, r.failures,
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  lbist::obs::writeCountersJson(f, "  ");
  std::fprintf(f, ",\n");
  lbist::obs::writeSeriesJson(f, "  ");
  std::fprintf(f, ",\n");
  std::fprintf(f, "  \"mem_peak\": {");
  for (size_t i = 0; i < serial_gauges.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %lld", i == 0 ? "" : ",",
                 serial_gauges[i].name.c_str(),
                 static_cast<long long>(serial_gauges[i].peak));
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  lbist::obs::setMetricsEnabled(true);
  lbist::obs::setSeriesEnabled(true);
  lbist::bench::BenchObsArgs obs_args;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    obs_args.parse(argv[i]);
  }
  obs_args.header("bench_soc");
  const int64_t patterns = quick ? 16 : 32;

  gen::SocSpec spec;
  spec.name = "bench_soc8";
  spec.seed = 20'260'729;
  spec.num_cores = 8;

  core::LbistConfig base;
  base.tpi.warmup_patterns = 256;
  base.tpi.guidance_patterns = 64;

  soc::Chip chip(spec.name);
  soc::appendGeneratedCores(chip, spec, base);
  chip.characterizeGolden(patterns);

  core::SessionOptions session;
  session.patterns = patterns;
  const std::vector<soc::CoreSession> sessions =
      soc::buildCoreSessions(chip, session, /*power_sample=*/128);
  const double max_peak = soc::peakSessionPower(sessions);
  const double sum_peak = soc::totalSessionPower(sessions);
  struct Budget {
    const char* label;
    double value;
  };
  // tight admits only what must fit (full serialization pressure), half
  // allows ~2-way concurrency, open removes the constraint entirely.
  const Budget budgets[] = {
      {"tight", max_peak},
      {"half", sum_peak / 2.0},
      {"open", sum_peak},
  };

  std::vector<soc::TestSchedule> schedules;
  for (const Budget& b : budgets) {
    schedules.push_back(soc::Scheduler(b.value).build(sessions));
    std::fprintf(stderr, "%s",
                 core::renderScheduleStats(schedules.back()).c_str());
  }

  // Thread-major, so every serial campaign runs before any parallel
  // one; rows stay budget-major.
  const unsigned thread_counts[] = {1, 2, 4};
  const size_t n_threads = std::size(thread_counts);
  std::vector<SocRow> rows(std::size(budgets) * n_threads);
  std::vector<obs::GaugeValue> serial_gauges;
  for (size_t t = 0; t < n_threads; ++t) {
    const unsigned threads = thread_counts[t];
    for (size_t bi = 0; bi < std::size(budgets); ++bi) {
      const Budget& b = budgets[bi];
      const soc::TestSchedule& sched = schedules[bi];
      const lbist::bench::EventPhase phase(
          std::string("soc/") + b.label + "/t" + std::to_string(threads));
      soc::CampaignRunner runner(chip, sched, session);
      soc::CampaignOptions opts;
      opts.threads = threads;
      const auto t0 = std::chrono::steady_clock::now();
      const soc::CampaignResult res = runner.run(opts);
      const auto t1 = std::chrono::steady_clock::now();

      SocRow& row = rows[bi * n_threads + t];
      row.budget_label = b.label;
      row.power_budget = b.value;
      row.threads = threads;
      row.cores = res.cores.size();
      row.groups = sched.groups.size();
      row.total_tcks = sched.total_tcks;
      row.serial_tcks = sched.serial_tcks;
      row.tck_speedup = sched.speedup();
      row.bound_ratio = sched.boundRatio();
      row.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
      row.failures = res.failures;
      std::fprintf(stderr,
                   "soc budget=%s threads=%u: %.3fs wall, %zu groups, "
                   "tck speedup %.2fx\n",
                   b.label, threads, row.wall_seconds, row.groups,
                   row.tck_speedup);
    }
    if (threads == 1) serial_gauges = obs::gaugeSnapshot();
  }
  writeJson("BENCH_soc.json", rows, serial_gauges);
  obs_args.finish();
  return 0;
}
