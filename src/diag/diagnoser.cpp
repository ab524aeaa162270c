#include "diag/diagnoser.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "bist/lfsr.hpp"

namespace lbist::diag {

namespace {

// Top-ranked candidates confirmed by one lane-pass session replay.
constexpr size_t kConfirmTop = 10;

std::vector<uint64_t> xorWords(const std::vector<uint64_t>& a,
                               const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}

bool anyBit(const std::vector<uint64_t>& w) {
  for (uint64_t v : w) {
    if (v != 0) return true;
  }
  return false;
}

}  // namespace

bool Syndrome::anyDirty() const {
  return std::any_of(dirty_windows.begin(), dirty_windows.end(),
                     [](uint8_t d) { return d != 0; });
}

int64_t windowOfPattern(int64_t pattern, int64_t interval,
                        size_t num_windows) {
  const int64_t last = static_cast<int64_t>(num_windows) - 1;
  if (interval <= 0) return last;
  return std::min<int64_t>((pattern + 1) / interval, last);
}

Diagnoser::Diagnoser(const core::BistReadyCore& core, DiagnosisOptions opts)
    : core_(&core),
      opts_(opts),
      faults_(opts.transition
                  ? fault::FaultList::enumerateTransition(core.netlist)
                  : fault::FaultList::enumerateStuckAt(core.netlist)) {
  if (opts_.patterns <= 0) {
    throw std::invalid_argument("Diagnoser: patterns must be positive");
  }
  if (opts_.signature_interval <= 0) {
    throw std::invalid_argument(
        "Diagnoser: signature_interval must be positive");
  }

  // Per-domain reverse reachability to that domain's MISR observation
  // set: candidates that cannot reach a failing domain's signature are
  // impossible single-fault explanations. The closure crosses DFF
  // boundaries: with per-domain capture ordering, a fault can corrupt
  // another domain through state another domain captured earlier in the
  // same window, so only the full sequential backward cone is a safe
  // (conservative) filter.
  const Netlist& nl = core.netlist;
  domain_reach_.resize(core.domain_bist.size());
  for (size_t i = 0; i < core.domain_bist.size(); ++i) {
    std::vector<uint8_t>& reaches = domain_reach_[i];
    reaches.assign(nl.numGates(), 0);
    std::vector<GateId> queue;
    for (size_t ci : core.domain_bist[i].chain_indices) {
      for (GateId cell : core.scan.chains[ci].cells) {
        const GateId driver = nl.gate(cell).fanins[0];
        if (reaches[driver.v] == 0) {
          reaches[driver.v] = 1;
          queue.push_back(driver);
        }
      }
    }
    while (!queue.empty()) {
      const GateId g = queue.back();
      queue.pop_back();
      for (GateId f : nl.gate(g).fanins) {
        if (reaches[f.v] == 0) {
          reaches[f.v] = 1;
          queue.push_back(f);
        }
      }
    }
  }
}

core::SessionOptions Diagnoser::sessionOptions() const {
  core::SessionOptions o;
  o.patterns = opts_.patterns;
  o.signature_interval = opts_.signature_interval;
  if (!opts_.transition) {
    // The dictionary models one (staged) capture per pattern; run the
    // die the same way so per-pattern rows line up cycle-for-cycle.
    bist::AtSpeedTimingConfig timing = core_->config.timing;
    timing.double_capture = false;
    o.timing_override = timing;
  }
  return o;
}

core::BistSession& Diagnoser::coreSession() {
  if (!core_session_) core_session_.emplace(*core_, core_->netlist);
  return *core_session_;
}

const core::SessionResult& Diagnoser::goldenRun() {
  if (!golden_) {
    core::SessionOptions o = sessionOptions();
    o.signature_interval = 1;
    golden_ = coreSession().run(o);
  }
  return *golden_;
}

core::SessionResult Diagnoser::windowView(const core::SessionResult& fine,
                                          int64_t interval) {
  // The checkpoint interval only chooses which MISR states a run
  // records, so an interval-1 run holds every coarser run's checkpoints.
  core::SessionResult view = fine;
  view.checkpoints.clear();
  for (const core::SignatureCheckpoint& cp : fine.checkpoints) {
    if (cp.patterns_done % interval == 0) view.checkpoints.push_back(cp);
  }
  return view;
}

Syndrome Diagnoser::extractSyndrome(
    const core::SessionResult& golden,
    const core::SessionResult& failing) const {
  Syndrome s;
  s.patterns = opts_.patterns;
  s.signature_interval = golden.checkpoints.empty()
                             ? opts_.signature_interval
                             : golden.checkpoints[0].patterns_done;
  const size_t n_checkpoints = golden.checkpoints.size();
  s.dirty_windows.assign(n_checkpoints + 1, 0);
  s.failing_domains.assign(core_->domain_bist.size(), 0);

  const int64_t interval = s.signature_interval;
  const uint64_t shift_cycles =
      static_cast<uint64_t>(core_->shiftCyclesPerPattern());

  for (size_t i = 0; i < core_->domain_bist.size(); ++i) {
    const bist::WideMisr algebra(core_->domain_bist[i].odc.misr_length);
    // One matrix power per domain; checkpoints share the step size.
    const bist::WideMisr::Advancer step =
        algebra.advancer(static_cast<uint64_t>(interval) * shift_cycles);
    std::vector<uint64_t> diff_prev(algebra.numSegments(), 0);
    bool domain_failed = false;
    for (size_t c = 0; c < n_checkpoints; ++c) {
      const std::vector<uint64_t> diff =
          xorWords(failing.checkpoints[c].domain_words[i],
                   golden.checkpoints[c].domain_words[i]);
      if (diff != step.apply(diff_prev)) {
        s.dirty_windows[c] = 1;
      }
      if (anyBit(diff)) domain_failed = true;
      diff_prev = diff;
    }
    // Final signature: the remaining patterns plus the unload window.
    const int64_t covered = static_cast<int64_t>(n_checkpoints) * interval;
    const uint64_t tail_cycles =
        static_cast<uint64_t>(opts_.patterns - covered) * shift_cycles +
        shift_cycles;
    const std::vector<uint64_t> diff_final =
        xorWords(failing.signature_words[i], golden.signature_words[i]);
    if (diff_final != algebra.advance(diff_prev, tail_cycles)) {
      s.dirty_windows[n_checkpoints] = 1;
    }
    if (anyBit(diff_final)) domain_failed = true;
    if (domain_failed) s.failing_domains[i] = 1;
  }
  return s;
}

int64_t Diagnoser::binarySearchFirstFail(core::BistSession& die, int64_t lo,
                                         int64_t hi, size_t& session_runs) {
  // fail(p): does truncating the session after pattern p already show a
  // signature mismatch? Monotone in p (MISR errors persist), so the
  // first failing pattern is the boundary. Only the die replays: its
  // final unload is the shift window of pattern p + 1, so the golden
  // side is the golden interval-1 checkpoint after p + 2 patterns, or
  // the final signature when p + 1 is the whole session.
  const core::SessionResult& golden = goldenRun();
  core::SessionOptions o = sessionOptions();
  o.signature_interval = 0;
  auto fails = [&](int64_t p) {
    o.patterns = p + 1;
    const core::SessionResult b = die.run(o);
    ++session_runs;
    const auto next = static_cast<size_t>(p + 1);
    if (next == golden.checkpoints.size()) {
      return b.signature_words != golden.signature_words;
    }
    return b.signature_words != golden.checkpoints[next].domain_words;
  };
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (fails(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void Diagnoser::ensureDictionary() {
  if (!dict_) {
    dict_ = buildResponseDictionary(*core_, faults_, opts_.patterns,
                                    opts_.threads, opts_.transition,
                                    &dict_stats_, opts_.min_faults_per_thread);
  }
}

const ResponseDictionary& Diagnoser::dictionary() {
  ensureDictionary();
  return *dict_;
}

bool Diagnoser::reachesDomain(const fault::Fault& f, size_t domain) const {
  if (domain_reach_[domain][f.gate.v] != 0) return true;
  // Capture-pin fault: also observed directly at the cell's own chain.
  if (f.pin == fault::kOutputPin ||
      core_->netlist.gate(f.gate).kind != CellKind::kDff) {
    return false;
  }
  const dft::ScanChain* chain = core_->scan.chainOf(f.gate);
  if (chain == nullptr) return false;
  const auto chain_index =
      static_cast<size_t>(chain - core_->scan.chains.data());
  const auto& idx = core_->domain_bist[domain].chain_indices;
  return std::find(idx.begin(), idx.end(), chain_index) != idx.end();
}

void Diagnoser::matchSyndrome(const Syndrome& syndrome, Diagnosis& out) {
  ensureDictionary();
  const ResponseDictionary& dict = *dict_;
  const size_t num_windows = syndrome.numWindows();

  // Observed failing sets, in matchable form.
  const bool pattern_level = !syndrome.failing_patterns.empty();
  std::vector<uint64_t> obs_bits;
  std::vector<uint8_t> obs_windows(num_windows, 0);
  if (pattern_level) {
    obs_bits.assign(static_cast<size_t>((opts_.patterns + 63) / 64), 0);
    for (int64_t p : syndrome.failing_patterns) {
      obs_bits[static_cast<size_t>(p / 64)] |= uint64_t{1} << (p % 64);
    }
  } else {
    obs_windows.assign(syndrome.dirty_windows.begin(),
                       syndrome.dirty_windows.end());
  }
  std::vector<size_t> failing_domains;
  for (size_t i = 0; i < syndrome.failing_domains.size(); ++i) {
    if (syndrome.failing_domains[i] != 0) failing_domains.push_back(i);
  }

  std::vector<Candidate> all;
  std::vector<uint8_t> sim_windows(num_windows, 0);
  for (size_t fi = 0; fi < dict.faults(); ++fi) {
    const int64_t first = dict.firstDetection(fi);
    if (first < 0) continue;  // silent fault: cannot explain a failure
    const fault::Fault& f = faults_.record(fi).fault;
    // A single fault must be able to corrupt every failing domain.
    if (!std::all_of(failing_domains.begin(), failing_domains.end(),
                     [&](size_t i) { return reachesDomain(f, i); })) {
      continue;
    }

    size_t inter = 0;
    size_t uni = 0;
    if (pattern_level) {
      const auto r = dict.row(fi);
      for (size_t w = 0; w < r.size(); ++w) {
        inter += static_cast<size_t>(std::popcount(r[w] & obs_bits[w]));
        uni += static_cast<size_t>(std::popcount(r[w] | obs_bits[w]));
      }
    } else {
      std::fill(sim_windows.begin(), sim_windows.end(), 0);
      const auto r = dict.row(fi);
      for (size_t w = 0; w < r.size(); ++w) {
        uint64_t bits = r[w];
        while (bits != 0) {
          const int64_t p =
              static_cast<int64_t>(w) * 64 + std::countr_zero(bits);
          sim_windows[static_cast<size_t>(windowOfPattern(
              p, syndrome.signature_interval, num_windows))] = 1;
          bits &= bits - 1;
        }
      }
      for (size_t w = 0; w < num_windows; ++w) {
        inter += (sim_windows[w] != 0 && obs_windows[w] != 0) ? 1 : 0;
        uni += (sim_windows[w] != 0 || obs_windows[w] != 0) ? 1 : 0;
      }
    }
    if (inter == 0) continue;  // no overlap with the observed failure

    Candidate c;
    c.fault_index = fi;
    c.fault = f;
    c.description = f.describe(core_->netlist);
    c.score = static_cast<double>(inter) / static_cast<double>(uni);
    c.exact_match = inter == uni;
    c.first_fail_match = syndrome.first_failing_pattern >= 0 &&
                         first == syndrome.first_failing_pattern;
    all.push_back(std::move(c));
  }

  std::sort(all.begin(), all.end(), [](const Candidate& a,
                                       const Candidate& b) {
    if (a.exact_match != b.exact_match) return a.exact_match;
    if (a.first_fail_match != b.first_fail_match) return a.first_fail_match;
    if (a.score != b.score) return a.score > b.score;
    return a.fault_index < b.fault_index;
  });

  out.tied_top = 0;
  if (!all.empty()) {
    const Candidate& top = all.front();
    for (const Candidate& c : all) {
      if (c.exact_match == top.exact_match &&
          c.first_fail_match == top.first_fail_match &&
          c.score == top.score) {
        ++out.tied_top;
      }
    }
  }
  if (all.size() > opts_.max_candidates) all.resize(opts_.max_candidates);
  out.candidates = std::move(all);
  out.faults_simulated = dict.faults();
  out.dictionary_seconds = dict_stats_.seconds;
  out.dictionary_bytes = dict_stats_.bytes;
}

void Diagnoser::confirmCandidates(const core::SessionResult& observed,
                                  Diagnosis& out) {
  if (opts_.transition) return;  // transition faults cannot be hardwired
  // One lane pass over the core replays every stuck-at candidate; each
  // lane counts as one session run, the machine it replaces.
  const size_t n = std::min(kConfirmTop, out.candidates.size());
  std::vector<fault::Fault> faults;
  for (size_t k = 0; k < n; ++k) faults.push_back(out.candidates[k].fault);
  if (!faults.empty()) {
    const std::vector<core::SessionResult> lanes =
        coreSession().run(sessionOptions(), faults);
    out.session_runs += faults.size();
    for (size_t k = 0; k < n; ++k) {
      const core::SessionResult& replay = lanes[k + 1];
      out.candidates[k].confirmed =
          replay.signature_words == observed.signature_words &&
          replay.checkpoints == observed.checkpoints;
    }
  }
  std::stable_sort(out.candidates.begin(), out.candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.confirmed && !b.confirmed;
                   });
}

Diagnosis Diagnoser::diagnoseDie(const Netlist& bad_die) {
  const auto t0 = std::chrono::steady_clock::now();
  Diagnosis d;

  const bool golden_cached = golden_.has_value();
  const core::SessionResult& golden = goldenRun();
  // The die runs once: per pattern for the exact replay, whose window
  // view is the interval run, or at the window interval alone.
  core::BistSession die(*core_, bad_die);
  core::SessionOptions o = sessionOptions();
  if (opts_.exact_pattern_replay) o.signature_interval = 1;
  const core::SessionResult die_run = die.run(o);
  const core::SessionResult failing =
      windowView(die_run, opts_.signature_interval);
  d.session_runs = golden_cached ? 1 : 2;

  const core::SessionResult golden_windows =
      windowView(golden, opts_.signature_interval);
  d.syndrome = extractSyndrome(golden_windows, failing);
  d.failed = d.syndrome.anyDirty();
  if (!d.failed) {
    d.total_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return d;  // the die passed; nothing to diagnose
  }

  if (opts_.exact_pattern_replay) {
    // Per-pattern checkpoints turn every window into a single capture:
    // dirty window w (w >= 1) means pattern w-1 failed.
    const Syndrome fine = extractSyndrome(golden, die_run);
    for (size_t w = 1; w < fine.dirty_windows.size(); ++w) {
      if (fine.dirty_windows[w] != 0) {
        d.syndrome.failing_patterns.push_back(static_cast<int64_t>(w) - 1);
      }
    }
  }

  if (!d.syndrome.failing_patterns.empty()) {
    // The exact replay already recovered every failing pattern; the
    // binary search would only re-measure its minimum.
    d.syndrome.first_failing_pattern = d.syndrome.failing_patterns.front();
  } else {
    // The first failing pattern lies in the first dirty window; pin it
    // with O(log window) truncated re-runs.
    size_t first_dirty = 0;
    while (d.syndrome.dirty_windows[first_dirty] == 0) ++first_dirty;
    const int64_t interval = d.syndrome.signature_interval;
    const int64_t lo = std::max<int64_t>(
        0, static_cast<int64_t>(first_dirty) * interval - 1);
    const int64_t hi =
        first_dirty + 1 < d.syndrome.dirty_windows.size()
            ? std::min(opts_.patterns - 1,
                       (static_cast<int64_t>(first_dirty) + 1) * interval - 2)
            : opts_.patterns - 1;
    d.syndrome.first_failing_pattern =
        binarySearchFirstFail(die, lo, hi, d.session_runs);
  }

  matchSyndrome(d.syndrome, d);
  confirmCandidates(failing, d);

  d.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return d;
}

Diagnosis Diagnoser::diagnoseSyndrome(const Syndrome& syndrome) {
  // External (e.g. ATE-sourced) syndromes are untrusted: everything the
  // matcher indexes with must line up with this Diagnoser's options.
  if (syndrome.patterns != opts_.patterns) {
    throw std::invalid_argument(
        "diagnoseSyndrome: syndrome pattern count does not match options");
  }
  for (int64_t p : syndrome.failing_patterns) {
    if (p < 0 || p >= opts_.patterns) {
      throw std::invalid_argument(
          "diagnoseSyndrome: failing pattern index out of range");
    }
  }
  if (syndrome.failing_patterns.empty() &&
      (syndrome.signature_interval <= 0 ||
       syndrome.dirty_windows.size() != syndrome.numWindows())) {
    throw std::invalid_argument(
        "diagnoseSyndrome: dirty_windows must cover every window when no "
        "failing-pattern set is given");
  }
  if (!syndrome.failing_domains.empty() &&
      syndrome.failing_domains.size() != core_->domain_bist.size()) {
    throw std::invalid_argument(
        "diagnoseSyndrome: failing_domains size does not match the core");
  }
  const auto t0 = std::chrono::steady_clock::now();
  Diagnosis d;
  d.syndrome = syndrome;
  d.failed = syndrome.anyDirty() || !syndrome.failing_patterns.empty();
  if (d.failed) matchSyndrome(syndrome, d);
  d.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return d;
}

Syndrome Diagnoser::syndromeForFault(size_t fault_index) {
  if (fault_index >= faults_.size()) {
    throw std::invalid_argument(
        "syndromeForFault: fault index out of range");
  }
  ensureDictionary();
  Syndrome s;
  s.patterns = opts_.patterns;
  s.signature_interval = opts_.signature_interval;
  s.dirty_windows.assign(s.numWindows(), 0);
  s.failing_patterns = dict_->failingPatterns(fault_index);
  s.first_failing_pattern = dict_->firstDetection(fault_index);
  for (int64_t p : s.failing_patterns) {
    s.dirty_windows[static_cast<size_t>(
        windowOfPattern(p, s.signature_interval, s.numWindows()))] = 1;
  }
  return s;
}

std::string renderDiagnosisReport(const Diagnosis& d) {
  std::ostringstream os;
  os << "=== diagnosis report ===\n";
  if (!d.failed) {
    os << "verdict        : PASS (signatures match; nothing to diagnose)\n";
    return os.str();
  }
  size_t dirty = 0;
  for (uint8_t w : d.syndrome.dirty_windows) dirty += w != 0 ? 1 : 0;
  os << "verdict        : FAIL\n";
  os << "windows        : " << dirty << "/" << d.syndrome.dirty_windows.size()
     << " dirty (interval " << d.syndrome.signature_interval << ", "
     << d.syndrome.patterns << " patterns)\n";
  if (d.syndrome.first_failing_pattern >= 0) {
    os << "first failing  : pattern " << d.syndrome.first_failing_pattern
       << "\n";
  }
  if (!d.syndrome.failing_patterns.empty()) {
    os << "failing count  : " << d.syndrome.failing_patterns.size()
       << " patterns (exact replay)\n";
  }
  if (!d.syndrome.failing_domains.empty()) {
    size_t failing = 0;
    for (uint8_t f : d.syndrome.failing_domains) failing += f != 0 ? 1 : 0;
    os << "failing domains: " << failing << " of "
       << d.syndrome.failing_domains.size() << "\n";
  }
  os << "dictionary     : " << d.faults_simulated << " faults x "
     << d.syndrome.patterns << " patterns, " << d.dictionary_bytes / 1024
     << " KiB\n";
  os << "effort         : " << d.session_runs << " session runs, "
     << "resolution " << d.tied_top << " tied at top\n";
  os << "rank score  flags                   fault\n";
  for (size_t i = 0; i < d.candidates.size(); ++i) {
    const Candidate& c = d.candidates[i];
    std::string flags;
    if (c.confirmed) flags += "confirmed ";
    if (c.exact_match) flags += "exact ";
    if (c.first_fail_match) flags += "first ";
    if (flags.empty()) flags = "-";
    char line[160];
    std::snprintf(line, sizeof(line), "%4zu %.3f  %-22s  %s\n", i + 1,
                  c.score, flags.c_str(), c.description.c_str());
    os << line;
  }
  return os.str();
}

}  // namespace lbist::diag
