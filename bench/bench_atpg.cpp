// Top-up ATPG throughput harness.
//
// For each workload the harness runs a short random phase to leave a
// realistic undetected tail, snapshots the fault statuses, and then
// measures runTopUp from that identical starting state for every
// (engine, threads, escalation) configuration: the compiled PODEM
// engine at 1/2/4 worker threads, the CDCL engine as primary on the
// reference circuits, and — on the resistant ipcore — the
// PODEM-with-SAT-escalation sweep at 1/2/4 threads, whose rows must
// show zero stranded targets and a thread-count-invariant
// cube/redundant split (the hard-tail acceptance criterion). Results go
// to BENCH_atpg.json (cubes/sec, backtracks/target, coverage, solver
// conflicts and learned clauses, stranded/redundant counts), with the
// shared meta block so the CI delta step can attribute numbers to an
// environment. A row's counts are one repetition's and its times the
// mean per repetition; repetitions that disagree on a count stop the
// harness.
//
// Flags: --quick   halve the repetition counts (local smoke runs).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "atpg/topup.hpp"
#include "bench_meta.hpp"
#include "fault/fsim.hpp"
#include "gen/ipcore.hpp"
#include "gen/refcircuits.hpp"

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

struct ScanSetup {
  std::vector<GateId> observed;
  std::vector<GateId> assignable;
};

ScanSetup scanSetup(Netlist& nl) {
  for (GateId dff : nl.dffs()) nl.setFlag(dff, kFlagScanCell);
  ScanSetup s;
  s.observed = fault::fullObservationSet(nl);
  s.assignable.assign(nl.inputs().begin(), nl.inputs().end());
  for (GateId dff : nl.dffs()) s.assignable.push_back(dff);
  return s;
}

/// One repetition's work and results. Every repetition starts from the
/// same snapshot, so every repetition must produce the same counts.
struct AtpgCounts {
  size_t targeted = 0;
  size_t cubes = 0;
  size_t backtracks = 0;
  size_t stranded = 0;   // budget-exhausted targets left unresolved
  size_t redundant = 0;  // UNSAT-proved targets
  size_t sat_escalated = 0;
  size_t sat_detected = 0;
  size_t sat_conflicts = 0;
  size_t sat_learned = 0;
  size_t patterns = 0;
  size_t patterns_before_compact = 0;
  double coverage_percent = 0.0;

  friend bool operator==(const AtpgCounts&, const AtpgCounts&) = default;
};

struct AtpgRow {
  std::string circuit;
  size_t gates = 0;
  size_t faults = 0;
  size_t tail = 0;  // undetected faults handed to top-up
  std::string engine;
  unsigned threads = 0;
  bool escalate = false;  // TopUpConfig::sat_escalate
  int reps = 0;
  AtpgCounts counts;  // of one repetition
  // Mean per repetition: the whole runTopUp (incl. fault sim, merge),
  // and the time inside generate() only, the cubes/sec basis.
  double seconds = 0.0;
  double atpg_seconds = 0.0;
};

/// Measures `reps` identical top-up campaigns from the post-random-phase
/// snapshot. Only runTopUp is timed; fault-list restoration and
/// simulator construction are per-rep setup. The row carries the first
/// repetition's counts and the mean time per repetition; a repetition
/// whose counts differ from the first exits the harness.
AtpgRow runCampaign(const std::string& name, const Netlist& nl,
                    const ScanSetup& s, const fault::FaultList& snapshot,
                    atpg::AtpgEngine engine, unsigned threads, bool escalate,
                    int reps) {
  AtpgRow row;
  row.circuit = name;
  row.gates = nl.numGates();
  row.faults = snapshot.size();
  row.tail = snapshot.undetectedIndices().size();
  row.engine = engine == atpg::AtpgEngine::kSat ? "sat" : "compiled";
  row.threads = threads;
  row.escalate = escalate;
  row.reps = reps;

  for (int rep = 0; rep < reps; ++rep) {
    fault::FaultList fl = snapshot;
    fault::FaultSimulator fsim(nl, fl, s.observed);
    atpg::TopUpConfig cfg;
    cfg.engine = engine;
    cfg.threads = threads;
    cfg.sat_escalate = escalate;
    const auto t0 = std::chrono::steady_clock::now();
    const atpg::TopUpResult res =
        atpg::runTopUp(nl, fl, fsim, s.observed, s.assignable, {}, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    row.seconds += std::chrono::duration<double>(t1 - t0).count();
    row.atpg_seconds += res.atpg_seconds;
    const AtpgCounts counts{res.targeted,
                            res.atpg_detected,
                            res.backtracks,
                            res.aborted,
                            res.proven_redundant,
                            res.sat_escalated,
                            res.sat_detected,
                            res.sat_conflicts,
                            res.sat_learned,
                            res.patterns.size(),
                            res.patterns_before_compact,
                            res.final_coverage.faultCoveragePercent()};
    if (rep == 0) {
      row.counts = counts;
    } else if (!(counts == row.counts)) {
      std::fprintf(stderr,
                   "atpg %s engine=%s threads=%u: repetition %d differs "
                   "from the first\n",
                   name.c_str(), row.engine.c_str(), threads, rep);
      std::exit(1);
    }
  }
  row.seconds /= reps;
  row.atpg_seconds /= reps;
  return row;
}

void writeJson(const char* path, const std::vector<AtpgRow>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"atpg_topup\",\n");
  lbist::bench::writeMetaJson(f);
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const AtpgRow& r = rows[i];
    const AtpgCounts& c = r.counts;
    // Engine-only rate (time inside generate()), so the shared
    // fault-simulation cost cannot dilute it. Counts and times are both
    // per repetition.
    const double rate = static_cast<double>(c.cubes) / r.atpg_seconds;
    std::fprintf(
        f,
        "    {\"circuit\": \"%s\", \"gates\": %zu, \"faults\": %zu, "
        "\"topup_tail\": %zu, \"engine\": \"%s\", \"threads\": %u, "
        "\"sat_escalate\": %s, \"reps\": %d, "
        "\"targeted\": %zu, \"cubes\": %zu, \"seconds_total\": %.6f, "
        "\"atpg_seconds\": %.6f, "
        "\"cubes_per_sec\": %.1f, \"backtracks_per_target\": %.3f, "
        "\"stranded\": %zu, \"proven_redundant\": %zu, "
        "\"sat_escalated\": %zu, \"sat_detected\": %zu, "
        "\"sat_conflicts\": %zu, \"sat_learned\": %zu, "
        "\"patterns\": %zu, \"patterns_before_compact\": %zu, "
        "\"coverage_percent\": %.4f}%s\n",
        r.circuit.c_str(), r.gates, r.faults, r.tail, r.engine.c_str(),
        r.threads, r.escalate ? "true" : "false", r.reps, c.targeted,
        c.cubes, r.seconds, r.atpg_seconds, rate,
        c.targeted == 0
            ? 0.0
            : static_cast<double>(c.backtracks) /
                  static_cast<double>(c.targeted),
        c.stranded, c.redundant, c.sat_escalated, c.sat_detected,
        c.sat_conflicts, c.sat_learned, c.patterns,
        c.patterns_before_compact, c.coverage_percent,
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
  lbist::obs::setMetricsEnabled(true);
  lbist::obs::setSeriesEnabled(true);
  lbist::bench::BenchObsArgs obs_args;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    obs_args.parse(argv[i]);
  }
  obs_args.header("bench_atpg");

  struct Workload {
    std::string name;
    Netlist nl;
    int random_blocks;  // 64-pattern random-phase blocks before top-up
    int reps;
    bool sat_primary;     // add an engine=sat row (1 thread)
    bool escalate_sweep;  // add compiled+escalation rows at 1/2/4 threads
  };
  std::vector<Workload> workloads;
  // The adder is almost fully random-testable, so its campaign is
  // deterministic-only (0 random blocks): every fault is an ATPG
  // target, which is what makes it a PODEM throughput workload. The
  // reference circuits carry the primary-SAT rows (cheap miters, pure
  // solver throughput); the resistant ipcore carries the escalation
  // sweep, whose stranded tail is the whole point.
  workloads.push_back({"refcircuit_adder512", gen::buildRippleAdder(512),
                       0, 3, true, false});
  workloads.push_back(
      {"refcircuit_alu64", gen::buildMiniAlu(64), 1, 10, true, false});
  workloads.push_back({"ipcore_20k", makeCore(20'000), 16, 1, false, true});

  std::vector<AtpgRow> rows;
  for (Workload& w : workloads) {
    const lbist::bench::EventPhase phase("atpg/" + w.name);
    const ScanSetup s = scanSetup(w.nl);
    fault::FaultList snapshot = fault::FaultList::enumerateStuckAt(w.nl);
    {
      fault::FaultSimulator fsim(w.nl, snapshot, s.observed);
      fsim.classifyUntestable();
      std::mt19937_64 rng(11);
      int64_t base = 0;
      for (int b = 0; b < w.random_blocks; ++b) {
        for (GateId src : s.assignable) fsim.setSource(src, rng());
        fsim.simulateBlockStuckAt(base, 64);
        base += 64;
      }
    }
    const int reps = quick ? std::max(1, w.reps / 2) : w.reps;

    struct Config {
      atpg::AtpgEngine engine;
      unsigned threads;
      bool escalate;
    };
    std::vector<Config> configs = {
        {atpg::AtpgEngine::kCompiled, 1, false},
        {atpg::AtpgEngine::kCompiled, 2, false},
        {atpg::AtpgEngine::kCompiled, 4, false},
    };
    if (w.sat_primary) {
      configs.push_back({atpg::AtpgEngine::kSat, 1, false});
    }
    if (w.escalate_sweep) {
      configs.push_back({atpg::AtpgEngine::kCompiled, 1, true});
      configs.push_back({atpg::AtpgEngine::kCompiled, 2, true});
      configs.push_back({atpg::AtpgEngine::kCompiled, 4, true});
    }
    for (const Config& c : configs) {
      rows.push_back(runCampaign(w.name, w.nl, s, snapshot, c.engine,
                                 c.threads, c.escalate, reps));
      std::fprintf(
          stderr,
          "atpg %s engine=%s%s threads=%u: %.3fs (%zu cubes, %zu stranded, "
          "%zu redundant)\n",
          rows.back().circuit.c_str(), rows.back().engine.c_str(),
          c.escalate ? "+escalate" : "", c.threads, rows.back().seconds,
          rows.back().counts.cubes, rows.back().counts.stranded,
          rows.back().counts.redundant);
    }
  }
  writeJson("BENCH_atpg.json", rows);
  obs_args.finish();
  return 0;
}
