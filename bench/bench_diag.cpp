// Diagnosis latency and resolution vs. interval-window size.
//
// For a generated IP core and an injected stuck-at defect, runs the full
// diagnosis flow at several signature_interval settings and records, per
// window size: end-to-end latency, dictionary build time, session
// replays spent, checkpoint storage (the hardware/tester memory cost of
// interval signatures), and the achieved resolution (candidates tied at
// the top score, rank of the injected fault). Writes BENCH_diag.json so
// the latency/resolution trade-off is tracked per commit.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "core/architect.hpp"
#include "diag/diagnoser.hpp"
#include "fault/inject.hpp"
#include "gen/ipcore.hpp"

namespace {

using namespace lbist;

struct Row {
  std::string circuit;
  size_t gates = 0;
  int64_t window = 0;
  bool exact_replay = false;
  int64_t patterns = 0;
  size_t faults = 0;
  size_t session_runs = 0;
  size_t tied_top = 0;
  size_t injected_rank = 0;  // 1-based; 0 = not in the reported list
  size_t checkpoint_bytes = 0;
  size_t dictionary_bytes = 0;
  double dictionary_seconds = 0.0;
  double total_seconds = 0.0;
};

/// One bench core. The full-scan cores have two domains and a flop per
/// 16 gates. The partial-scan core has three domains with many
/// cross-domain paths and leaves 40 % of its flops out of the scan, so
/// a fault's capture at such a flop in one stage is seen by the later
/// stages only: the dictionary's staged blocks then send those lanes
/// through the per-fault pass.
struct Workload {
  std::string name;
  size_t gates;
  uint64_t seed;
  bool partial_scan = false;
};

Netlist makeCore(const Workload& w) {
  gen::IpCoreSpec spec;
  spec.seed = w.seed;
  spec.target_comb_gates = w.gates;
  spec.num_xsources = 0;
  if (w.partial_scan) {
    spec.target_ffs = w.gates / 10;
    spec.num_inputs = 10;
    spec.num_outputs = 8;
    spec.num_domains = 3;
    spec.cross_domain_fraction = 0.2;
    spec.num_noscan_ffs = static_cast<int>(spec.target_ffs * 2 / 5);
  } else {
    spec.target_ffs = w.gates / 16;
    spec.num_inputs = 24;
    spec.num_outputs = 16;
    spec.num_domains = 2;
    spec.num_noscan_ffs = 0;
  }
  return gen::generateIpCore(spec);
}

size_t pickDefect(diag::Diagnoser& diagnoser, const Netlist& nl) {
  const diag::ResponseDictionary& dict = diagnoser.dictionary();
  for (size_t fi = 0; fi < dict.faults(); ++fi) {
    const fault::Fault& f = diagnoser.faults().record(fi).fault;
    const Gate& g = nl.gate(f.gate);
    if (f.pin == fault::kOutputPin && isCombinational(g.kind) &&
        (g.flags & kFlagDftInserted) == 0 && dict.detectionCount(fi) >= 4) {
      return fi;
    }
  }
  return 0;
}

Row runOne(const std::string& name, const core::BistReadyCore& ready,
           const Netlist& bad_die, const fault::Fault& defect,
           int64_t window, bool exact_replay) {
  diag::DiagnosisOptions opts;
  opts.patterns = 256;
  opts.signature_interval = window;
  opts.threads = 4;
  opts.exact_pattern_replay = exact_replay;
  diag::Diagnoser diagnoser(ready, opts);
  const diag::Diagnosis d = diagnoser.diagnoseDie(bad_die);

  Row r;
  r.circuit = name;
  r.gates = ready.netlist.numGates();
  r.window = window;
  r.exact_replay = exact_replay;
  r.patterns = opts.patterns;
  r.faults = d.faults_simulated;
  r.session_runs = d.session_runs;
  r.tied_top = d.tied_top;
  for (size_t i = 0; i < d.candidates.size(); ++i) {
    if (d.candidates[i].fault == defect) {
      r.injected_rank = i + 1;
      break;
    }
  }
  size_t words = 0;
  for (const core::DomainBist& db : ready.domain_bist) {
    words += static_cast<size_t>((db.odc.misr_length + 62) / 63);
  }
  r.checkpoint_bytes = d.syndrome.numWindows() * words * sizeof(uint64_t);
  r.dictionary_bytes = d.dictionary_bytes;
  r.dictionary_seconds = d.dictionary_seconds;
  r.total_seconds = d.total_seconds;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  lbist::obs::setMetricsEnabled(true);
  lbist::obs::setSeriesEnabled(true);
  lbist::bench::BenchObsArgs obs_args;
  for (int i = 1; i < argc; ++i) obs_args.parse(argv[i]);
  obs_args.header("bench_diag");
  const std::vector<Workload> workloads = {
      {"ipcore_2k", 2'000, 5},
      {"ipcore_6k", 6'000, 17},
      {"ipcore_6k_pscan", 6'000, 23, /*partial_scan=*/true}};

  std::vector<Row> rows;
  for (const Workload& w : workloads) {
    const lbist::bench::EventPhase phase("diag/" + w.name);
    const Netlist raw = makeCore(w);
    core::LbistConfig cfg;
    cfg.num_chains = 8;
    cfg.test_points = 16;
    const core::BistReadyCore ready = core::buildBistReadyCore(raw, cfg);

    diag::DiagnosisOptions pick_opts;
    pick_opts.patterns = 256;
    pick_opts.threads = 4;
    diag::Diagnoser picker(ready, pick_opts);
    const size_t defect_fi = pickDefect(picker, ready.netlist);
    const fault::Fault defect = picker.faults().record(defect_fi).fault;
    Netlist bad_die = ready.netlist;
    fault::injectStuckAt(bad_die, defect);

    for (const int64_t window : {8, 32, 128}) {
      rows.push_back(runOne(w.name, ready, bad_die, defect, window, true));
      std::fprintf(stderr, "%s window=%lld: %.3fs, rank %zu\n",
                   w.name.c_str(), static_cast<long long>(window),
                   rows.back().total_seconds, rows.back().injected_rank);
    }
    // Windows-only (ATE-style) reference point at one window size.
    rows.push_back(runOne(w.name, ready, bad_die, defect, 32, false));
    std::fprintf(stderr, "%s window=32 (windows-only): %.3fs, rank %zu\n",
                 w.name.c_str(), rows.back().total_seconds,
                 rows.back().injected_rank);
  }

  std::FILE* f = std::fopen("BENCH_diag.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_diag.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"diag_window_sweep\",\n");
  lbist::bench::writeMetaJson(f);
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"circuit\": \"%s\", \"gates\": %zu, \"window\": %lld, "
        "\"exact_replay\": %s, \"patterns\": %lld, \"faults\": %zu, "
        "\"session_runs\": %zu, \"tied_top\": %zu, \"injected_rank\": %zu, "
        "\"checkpoint_bytes\": %zu, \"dictionary_bytes\": %zu, "
        "\"dictionary_seconds\": %.6f, \"total_seconds\": %.6f}%s\n",
        r.circuit.c_str(), r.gates, static_cast<long long>(r.window),
        r.exact_replay ? "true" : "false",
        static_cast<long long>(r.patterns), r.faults, r.session_runs,
        r.tied_top, r.injected_rank, r.checkpoint_bytes, r.dictionary_bytes,
        r.dictionary_seconds, r.total_seconds,
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
  std::fprintf(stderr, "wrote BENCH_diag.json\n");
  obs_args.finish();
  return 0;
}
