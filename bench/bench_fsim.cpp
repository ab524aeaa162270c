// Microbenchmark: PPSFP fault-simulator throughput (google-benchmark).
//
// Reports gate-evaluations per second for the good machine and effective
// pattern throughput of full fault-simulation blocks with dropping — the
// quantities that determine the Table 1 "CPU Time" row.
//
// In addition to the google-benchmark suites, main() runs a sweep over
// worker threads (1/2/4/8) x lane widths (W=1 and W=8 words, 64 and 512
// pattern lanes per block) on the largest reference circuits and a
// generated IP core, and writes the results to BENCH_fsim.json so the
// performance trajectory of the engine is recorded per commit. Each
// (circuit, threads, lane_words) row is tagged with its configuration;
// scripts/bench_delta.py only compares rows whose configuration matches.
// Pass --sweep-only to skip the google-benchmark suites.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "fault/fsim.hpp"
#include "gen/ipcore.hpp"
#include "gen/refcircuits.hpp"
#include "sim/sim2v.hpp"

namespace {

using namespace lbist;

Netlist makeCore(size_t gates) {
  gen::IpCoreSpec spec;
  spec.seed = 42;
  spec.target_comb_gates = gates;
  spec.target_ffs = gates / 16;
  spec.num_inputs = 32;
  spec.num_outputs = 32;
  spec.num_domains = 1;
  spec.num_xsources = 0;
  spec.num_noscan_ffs = 0;
  return gen::generateIpCore(spec);
}

void BM_GoodSimLaneBlock(benchmark::State& state) {
  const Netlist nl = makeCore(static_cast<size_t>(state.range(0)));
  const size_t lane_words = static_cast<size_t>(state.range(1));
  sim::Simulator2v sim(nl, lane_words);
  std::mt19937_64 rng(1);
  for (GateId pi : nl.inputs()) {
    for (size_t wi = 0; wi < lane_words; ++wi) {
      sim.setSourceWord(pi, wi, rng());
    }
  }
  for (GateId dff : nl.dffs()) {
    for (size_t wi = 0; wi < lane_words; ++wi) {
      sim.setSourceWord(dff, wi, rng());
    }
  }
  for (auto _ : state) {
    sim.eval();
    benchmark::DoNotOptimize(sim.rawValues().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(nl.numGates()) *
                          static_cast<int64_t>(sim.lanes()));
  state.SetLabel(std::to_string(nl.numGates()) + " cells, " +
                 std::to_string(sim.lanes()) + " patterns/pass");
}
BENCHMARK(BM_GoodSimLaneBlock)
    ->Args({2'000, 1})
    ->Args({10'000, 1})
    ->Args({40'000, 1})
    ->Args({10'000, 4})
    ->Args({10'000, 8})
    ->Args({40'000, 8});

void BM_FaultSimBlock(benchmark::State& state) {
  const Netlist nl = makeCore(static_cast<size_t>(state.range(0)));
  const std::vector<GateId> obs = fault::fullObservationSet(nl);

  std::mt19937_64 rng(2);
  int64_t base = 0;
  // Fresh fault list per iteration batch would be unfair; keep dropping
  // realistic by re-enumerating when the live set runs dry.
  fault::FaultList faults = fault::FaultList::enumerateStuckAt(nl);
  auto fsim = std::make_unique<fault::FaultSimulator>(nl, faults, obs);
  for (auto _ : state) {
    if (fsim->liveFaultCount() < faults.size() / 10) {
      state.PauseTiming();
      faults = fault::FaultList::enumerateStuckAt(nl);
      fsim = std::make_unique<fault::FaultSimulator>(nl, faults, obs);
      state.ResumeTiming();
    }
    for (GateId pi : nl.inputs()) fsim->setSource(pi, rng());
    for (GateId dff : nl.dffs()) fsim->setSource(dff, rng());
    fsim->simulateBlockStuckAt(base, 64);
    base += 64;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
  state.SetLabel("patterns/s with fault dropping, " +
                 std::to_string(faults.size()) + " faults");
}
BENCHMARK(BM_FaultSimBlock)->Arg(2'000)->Arg(10'000);

void BM_TransitionBlock(benchmark::State& state) {
  const Netlist nl = makeCore(static_cast<size_t>(state.range(0)));
  const std::vector<GateId> obs = fault::fullObservationSet(nl);
  fault::FaultList faults = fault::FaultList::enumerateTransition(nl);
  fault::FaultSimulator fsim(nl, faults, obs);
  std::mt19937_64 rng(3);
  int64_t base = 0;
  for (auto _ : state) {
    for (GateId pi : nl.inputs()) fsim.setSource(pi, rng());
    for (GateId dff : nl.dffs()) fsim.setSource(dff, rng());
    fsim.simulateBlockTransition(base, 64);
    base += 64;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_TransitionBlock)->Arg(2'000);

// ------------------------------------------------------------------
// Thread x lane-width sweep JSON reporter.

struct SweepRow {
  std::string circuit;
  size_t gates = 0;
  size_t faults = 0;
  unsigned threads = 0;
  unsigned lane_words = 1;
  int64_t patterns = 0;
  // Sum over blocks of live faults * lanes: every live (fault, pattern)
  // pair the engine DECIDES per block, regardless of how few
  // propagations collapsing / stem-CPT spent deciding them — the
  // workload-accomplished rate, not a raw evaluation count.
  double fault_pattern_decisions = 0;
  double seconds = 0;
};

/// Runs `reps` identical campaigns of `blocks` lane blocks (fresh fault
/// list each rep, so dropping dynamics repeat exactly), one
/// simulateBlockStuckAt call per block, and reports the aggregate. Small
/// reference circuits finish a campaign in ~1ms; the repetitions push
/// each measurement well past timer noise. Only the block loop is timed —
/// enumeration, simulator construction, and the stimulus generation are
/// per-campaign setup, not the steady-state engine throughput this
/// sweep records.
SweepRow runSweep(const std::string& name, const Netlist& nl,
                  unsigned threads, unsigned lane_words, int blocks,
                  int reps) {
  SweepRow row;
  row.circuit = name;
  row.gates = nl.numGates();
  row.threads = threads;
  row.lane_words = lane_words;

  const std::vector<GateId> obs = fault::fullObservationSet(nl);
  std::vector<GateId> sources(nl.inputs().begin(), nl.inputs().end());
  sources.insert(sources.end(), nl.dffs().begin(), nl.dffs().end());
  std::mt19937_64 rng(11);
  std::vector<uint64_t> stimulus(sources.size() *
                                 static_cast<size_t>(blocks) * lane_words);
  for (uint64_t& w : stimulus) w = rng();

  for (int rep = 0; rep < reps; ++rep) {
    fault::FaultList faults = fault::FaultList::enumerateStuckAt(nl);
    fault::FsimOptions opts;
    opts.n_detect = 4;  // keep a dense live set so the sweep measures work
    opts.threads = threads;
    opts.lane_words = lane_words;
    fault::FaultSimulator sim(nl, faults, obs, opts);
    row.faults = faults.size();
    const int64_t block_lanes = static_cast<int64_t>(sim.lanes());

    int64_t base = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int b = 0; b < blocks; ++b) {
      row.fault_pattern_decisions +=
          static_cast<double>(sim.liveFaultCount()) *
          static_cast<double>(block_lanes);
      const uint64_t* words =
          stimulus.data() +
          static_cast<size_t>(b) * sources.size() * lane_words;
      for (size_t k = 0; k < sources.size(); ++k) {
        sim.setSourceRow(sources[k], words + k * lane_words);
      }
      sim.simulateBlockStuckAt(base, static_cast<int>(block_lanes));
      base += block_lanes;
    }
    const auto t1 = std::chrono::steady_clock::now();
    row.seconds += std::chrono::duration<double>(t1 - t0).count();
    row.patterns += base;
  }
  return row;
}

void writeSweepJson(const char* path) {
  struct Workload {
    std::string name;
    Netlist nl;
    int blocks;  // 64-lane blocks at W=1; scaled down 1/W at width W
    int reps;
  };
  std::vector<Workload> workloads;
  // Campaign lengths deliberately run well past the drop transient: the
  // first few blocks retire the easy faults (where narrow blocks win by
  // dropping every 64 patterns), and the remaining blocks measure the
  // steady state a real multi-thousand-pattern LBIST session spends its
  // time in — a stable hard-fault live set plus good-machine work,
  // which is where wide lane blocks amortize per-fault and per-block
  // overheads. Short-campaign behavior is documented in the README's
  // lane-width guidance rather than swept here.
  //
  // Largest hand-built reference circuits, scaled up. Their campaigns
  // are fast, so they are repeated until the timing is noise-free.
  workloads.push_back(
      {"refcircuit_adder512", gen::buildRippleAdder(512), 512, 6});
  workloads.push_back({"refcircuit_alu64", gen::buildMiniAlu(64), 512, 20});
  // Generated IP core at bench scale, run to production campaign length
  // (128K patterns): the drop transient costs a wide block roughly one
  // extra all-live pass, and the steady state repays it about 3x per
  // pattern, so the crossover sits near 75K patterns on this core.
  workloads.push_back({"ipcore_20k", makeCore(20'000), 2048, 1});

  const std::vector<unsigned> widths = {1u, 8u};
  const std::vector<unsigned> thread_counts = {1u, 2u, 4u, 8u};

  std::vector<SweepRow> rows;
  for (const Workload& w : workloads) {
    const lbist::bench::EventPhase phase("fsim/" + w.name);
    for (unsigned lane_words : widths) {
      // Hold total patterns constant across widths so dropping dynamics
      // and run time stay comparable: W-word blocks carry W x 64 lanes.
      const int blocks =
          std::max(1, w.blocks / static_cast<int>(lane_words));
      for (unsigned threads : thread_counts) {
        rows.push_back(
            runSweep(w.name, w.nl, threads, lane_words, blocks, w.reps));
        std::fprintf(stderr, "sweep %s threads=%u W=%u: %.3fs\n",
                     rows.back().circuit.c_str(), threads, lane_words,
                     rows.back().seconds);
      }
    }
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  // Swept configuration axes go into the meta block, so the delta tool
  // (and readers) know which (threads, lane_words) cells to expect.
  std::string axes = "\"lane_widths\": [";
  for (size_t i = 0; i < widths.size(); ++i) {
    axes += (i == 0 ? "" : ", ") + std::to_string(widths[i]);
  }
  axes += "], \"lane_bits\": [";
  for (size_t i = 0; i < widths.size(); ++i) {
    axes += (i == 0 ? "" : ", ") + std::to_string(widths[i] * 64);
  }
  axes += "], \"thread_counts\": [";
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    axes += (i == 0 ? "" : ", ") + std::to_string(thread_counts[i]);
  }
  axes += "]";
  std::fprintf(f, "{\n  \"bench\": \"fsim_thread_sweep\",\n");
  lbist::bench::writeMetaJson(f, axes.c_str());
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    double base_seconds = r.seconds;
    double base_patterns = static_cast<double>(r.patterns);
    for (const SweepRow& s : rows) {
      if (s.circuit == r.circuit && s.lane_words == r.lane_words &&
          s.threads == 1) {
        base_seconds = s.seconds;
        base_patterns = static_cast<double>(s.patterns);
      }
    }
    // Speedup is throughput-based so it stays meaningful even if block
    // rounding made the pattern counts differ slightly.
    const double speedup = (static_cast<double>(r.patterns) / r.seconds) /
                           (base_patterns / base_seconds);
    std::fprintf(
        f,
        "    {\"circuit\": \"%s\", \"gates\": %zu, \"faults\": %zu, "
        "\"threads\": %u, \"lane_words\": %u, \"lane_bits\": %u, "
        "\"patterns\": %lld, \"seconds\": %.6f, "
        "\"patterns_per_sec\": %.1f, "
        "\"fault_pattern_decisions_per_sec\": %.1f, "
        "\"speedup_vs_1t\": %.3f}%s\n",
        r.circuit.c_str(), r.gates, r.faults, r.threads, r.lane_words,
        r.lane_words * 64, static_cast<long long>(r.patterns), r.seconds,
        static_cast<double>(r.patterns) / r.seconds,
        r.fault_pattern_decisions / r.seconds, speedup,
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  lbist::obs::writeCountersJson(f, "  ");
  std::fprintf(f, ",\n");
  lbist::obs::writeSeriesJson(f, "  ");
  std::fprintf(f, ",\n");
  lbist::obs::writeGaugesJson(f, "  ");
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  // Counters, series, and gauges are always recorded (the JSON carries
  // populated counters/series/mem_peak sections per commit); tracing
  // and the event log stay opt-in via --trace=FILE / --events=FILE.
  lbist::obs::setMetricsEnabled(true);
  lbist::obs::setSeriesEnabled(true);
  lbist::bench::BenchObsArgs obs_args;
  bool sweep_only = false;
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--sweep-only") == 0) {
      sweep_only = true;
    } else if (!obs_args.parse(argv[i])) {
      ++i;
      continue;
    }
    for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
    --argc;
  }
  if (!sweep_only) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  // Only the sweep contributes counters: the google-benchmark suites
  // above rerun arbitrary iteration counts, which would make the totals
  // meaningless for commit-over-commit diffing.
  lbist::obs::resetAll();
  obs_args.header("bench_fsim");
  writeSweepJson("BENCH_fsim.json");
  obs_args.finish();
  return 0;
}
