#!/usr/bin/env python3
"""Compares two BENCH_*.json files and (optionally) gates the delta.

Usage: bench_delta.py [--gate] [--thresholds=FILE] OLD.json NEW.json
       bench_delta.py --self-test

Without --gate the comparison is informational and always exits 0.
With --gate the script becomes a blocking CI job: it exits non-zero
when the delta crosses the checked-in thresholds
(scripts/bench_thresholds.json next to this script, or --thresholds=).

The gate attributes wall-clock regressions before failing, because the
obs layer's work counters are deterministic while CI wall-clock is not:

* wall regressed AND a work counter jumped  -> code regression, FAIL.
* wall regressed, work counters unchanged   -> host noise, auto-WAIVED.
* work counter jumped on its own            -> code regression, FAIL
  (more work is a regression even if a faster host hides it).
* a "mem_peak" gauge peak grew past its threshold -> FAIL.

The row key and the compared metric depend on the document's "bench"
field (see BENCH_SPECS); the meta blocks are printed so
apples-to-oranges comparisons (different host, compiler, or flags) are
visible at a glance. Beyond the throughput rows, the observability
sections are diffed key by key: the "counters" totals, the "mem_peak"
gauge high-waters, and the "series" endpoints (final work anchor and
per-counter delta sums), so a regression is visible at the phase that
caused it, not just in the run total. A row found in one file only is
listed as (gone) or (new) and never judged.

--self-test synthesizes a baseline and doctored variants and asserts
the gate passes/fails on each as documented above (and that one-sided
rows are listed); CI runs it so the gate is demonstrably live, not just
present.
"""

import contextlib
import io
import json
import os
import sys

# bench field -> (row key fields, metric, higher_is_better)
BENCH_SPECS = {
    "fsim_thread_sweep": (
        ("circuit", "threads", "lane_words"),
        "patterns_per_sec",
        True,
    ),
    "atpg_topup": (
        ("circuit", "engine", "threads", "sat_escalate"),
        "cubes_per_sec",
        True,
    ),
    "diag_window_sweep": (("circuit", "window"), "total_seconds", False),
    "soc_campaign": (("budget", "threads"), "wall_seconds", False),
}

# Key fields added after a bench's first committed JSON, with the value
# the older files implicitly ran at. Rows are only compared like-for-like
# on the full key; a pre-lane-fabric file (no "lane_words") is exactly a
# lane_words=1 configuration, and a pre-SAT atpg file (no "sat_escalate")
# is exactly an escalation-off run, not a missing row.
KEY_DEFAULTS = {"lane_words": 1, "sat_escalate": False}

DEFAULT_THRESHOLDS = {
    "wall_regress_pct": 25.0,
    "work_regress_pct": 2.0,
    "mem_regress_pct": 25.0,
}


def load_thresholds(path):
    if path is None:
        path = os.path.join(os.path.dirname(__file__),
                            "bench_thresholds.json")
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_delta: cannot read thresholds {path}: {e}")
        return None
    return doc


def thresholds_for(bench, doc):
    th = dict(DEFAULT_THRESHOLDS)
    for k in th:
        if isinstance(doc.get(k), (int, float)):
            th[k] = float(doc[k])
    per = doc.get("benches", {}).get(bench, {})
    for k in th:
        if isinstance(per.get(k), (int, float)):
            th[k] = float(per[k])
    return th


def rows(doc, key_fields, metric):
    out = {}
    for r in doc.get("runs", []):
        if metric not in r:
            continue
        try:
            key = tuple(
                r[k] if k in r else KEY_DEFAULTS[k] for k in key_fields
            )
        except KeyError:
            continue
        out[key] = r
    return out


def flag_oversubscribed(label, doc):
    """Warns about thread-sweep rows the producing host could not run."""
    cpus = doc.get("meta", {}).get("effective_cpus")
    if not isinstance(cpus, int) or cpus < 1:
        return
    bad = sorted(
        {
            r["threads"]
            for r in doc.get("runs", [])
            if isinstance(r.get("threads"), int) and r["threads"] > cpus
        }
    )
    if bad:
        print(
            f"bench_delta: WARNING: {label} rows with threads {bad} exceed "
            f"the host's {cpus} effective CPU(s) — wall-clock for those "
            f"rows measures oversubscription, not scaling"
        )


# Counters the robustness layer (src/robust) and the campaign's
# degradation paths emit; summarized separately so an injected-run bench
# is never mistaken for a clean baseline, and excluded from work-counter
# gating (their totals measure injected faults, not the workload).
ROBUST_PREFIXES = ("robust.", "soc.job_", "soc.ckpt_", "soc.backoff")


def counters_of(doc):
    """The embedded obs counter section, or {} — benches produced before
    the obs layer (or with metrics off) simply have none."""
    c = doc.get("counters")
    return c if isinstance(c, dict) else {}


def gauges_of(doc):
    g = doc.get("mem_peak")
    return g if isinstance(g, dict) else {}


def series_endpoints(doc):
    """Flattens the "series" section to endpoint scalars: per sample
    point, the final work anchor and the sum of each counter's deltas
    (its total attributed to that point)."""
    out = {}
    series = doc.get("series")
    if not isinstance(series, dict):
        return out
    for point, sec in sorted(series.items()):
        work = sec.get("work")
        if isinstance(work, list) and work:
            out[f"{point}/work[-1]"] = work[-1]
        for name, deltas in sorted(sec.get("counters", {}).items()):
            if isinstance(deltas, list):
                out[f"{point}/{name}"] = sum(deltas)
    return out


def robust_summary(label, doc):
    """Reports injection/recovery counters so fault-injected runs are
    visibly not comparable baselines."""
    c = {
        k: v
        for k, v in counters_of(doc).items()
        if k.startswith(ROBUST_PREFIXES)
    }
    if not c:
        return
    pretty = ", ".join(f"{k}={v}" for k, v in sorted(c.items()))
    print(f"bench_delta: {label} injection/recovery counters: {pretty}")


def diff_table(title, old_c, new_c):
    """Prints a key-by-key delta table; returns {name: pct} for keys
    present on both sides with a nonzero old value."""
    deltas = {}
    if not old_c and not new_c:
        return deltas
    names = sorted(set(old_c) | set(new_c))
    key_w = max(24, max(len(n) for n in names))
    print(f"\n{title:<{key_w}} {'old':>16} {'new':>16} {'delta':>8}")
    for name in names:
        o, n = old_c.get(name), new_c.get(name)
        if o is None or n is None:
            print(
                f"{name:<{key_w}} "
                f"{'-' if o is None else o:>16} "
                f"{'-' if n is None else n:>16} "
                f"{'(new)' if o is None else '(gone)':>8}"
            )
            continue
        delta = (n / o - 1.0) * 100.0 if o else float("nan")
        if o:
            deltas[name] = delta
        print(f"{name:<{key_w}} {o:>16} {n:>16} {delta:>+7.1f}%")
    return deltas


def compare(old, new, th):
    """Prints the full delta report; returns (failures, waived) — lists
    of human-readable gate verdicts. Callers not gating ignore them."""
    failures = []
    waived = []
    bench = old.get("bench")
    if bench != new.get("bench"):
        print(
            f"bench_delta: different benches "
            f"({bench} vs {new.get('bench')})"
        )
        failures.append(f"bench mismatch: {bench} vs {new.get('bench')}")
        return failures, waived
    if bench not in BENCH_SPECS:
        print(f"bench_delta: no comparison spec for '{bench}'")
        return failures, waived
    key_fields, metric, higher_is_better = BENCH_SPECS[bench]

    print(f"old meta: {old.get('meta')}")
    print(f"new meta: {new.get('meta')}")
    flag_oversubscribed("old", old)
    flag_oversubscribed("new", new)

    # Work-counter attribution input: deterministic totals, minus the
    # injection/recovery counters whose totals track injected faults.
    counter_deltas = diff_table("counter", counters_of(old),
                                counters_of(new))
    work_jumps = {
        name: d
        for name, d in counter_deltas.items()
        if not name.startswith(ROBUST_PREFIXES)
        and d > th["work_regress_pct"]
    }
    for name, d in sorted(work_jumps.items()):
        failures.append(f"work counter {name} jumped {d:+.1f}% "
                        f"(> {th['work_regress_pct']:.1f}%)")

    gauge_deltas = diff_table("mem_peak gauge", gauges_of(old),
                              gauges_of(new))
    for name, d in sorted(gauge_deltas.items()):
        if d > th["mem_regress_pct"]:
            failures.append(f"mem_peak {name} grew {d:+.1f}% "
                            f"(> {th['mem_regress_pct']:.1f}%)")

    diff_table("series endpoint", series_endpoints(old),
               series_endpoints(new))

    robust_summary("old", old)
    robust_summary("new", new)

    old_rows = rows(old, key_fields, metric)
    new_rows = rows(new, key_fields, metric)
    keys = sorted(set(old_rows) | set(new_rows), key=str)
    if not keys:
        print(f"bench_delta: no {key_fields} rows")
        return failures, waived

    key_w = max(24, max(len(" ".join(map(str, k))) for k in keys))
    print(
        f"\n{'row':<{key_w}} {'old ' + metric:>16} {'new ' + metric:>16} "
        f"{'delta':>8}"
    )
    for key in keys:
        label = " ".join(map(str, key))
        if key not in old_rows or key not in new_rows:
            # One-sided rows are listed, like one-sided counters, but
            # carry no verdict: there is nothing to compare them with.
            o, n = old_rows.get(key), new_rows.get(key)
            print(
                f"{label:<{key_w}} "
                f"{'-' if o is None else f'{o[metric]:.4f}':>16} "
                f"{'-' if n is None else f'{n[metric]:.4f}':>16} "
                f"{'(new)' if o is None else '(gone)':>8}"
            )
            continue
        o, n = old_rows[key], new_rows[key]
        old_v, new_v = o[metric], n[metric]
        delta = (new_v / old_v - 1.0) * 100.0 if old_v else float("nan")
        # For lower-is-better metrics a positive delta is the regression.
        wall_pct = th["wall_regress_pct"]
        regressed = (
            delta < -wall_pct if higher_is_better else delta > wall_pct
        )
        flag = ""
        if regressed:
            if work_jumps:
                flag = "  <-- regression (work counters jumped too)"
                failures.append(
                    f"row [{label}] {metric} regressed {delta:+.1f}% with "
                    f"a work-counter jump — code regression"
                )
            else:
                flag = "  <-- wall regressed, work unchanged: host noise"
                waived.append(
                    f"row [{label}] {metric} moved {delta:+.1f}% but every "
                    f"work counter is unchanged — waived as host noise"
                )
        print(
            f"{label:<{key_w}} {old_v:>16.4f} {new_v:>16.4f} "
            f"{delta:>+7.1f}%{flag}"
        )
    return failures, waived


def run_pair(old_path, new_path, th, gate):
    try:
        with open(old_path) as f:
            old = json.load(f)
        with open(new_path) as f:
            new = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_delta: cannot compare: {e}")
        return 1 if gate else 0

    failures, waived = compare(old, new, th)
    for w in waived:
        print(f"bench_delta: WAIVED: {w}")
    for fail in failures:
        print(f"bench_delta: {'FAIL' if gate else 'would fail'}: {fail}")
    if gate:
        if failures:
            print(f"bench_delta: gate FAILED ({len(failures)} finding(s))")
            return 1
        print("bench_delta: gate passed")
    return 0


def self_test():
    """Synthesizes a baseline and doctored variants; asserts the gate's
    verdict on each, so CI proves the gate actually blocks."""

    def synth(wall=1.0, work=1000, mem=4096):
        return {
            "bench": "soc_campaign",
            "meta": {"effective_cpus": 8},
            "runs": [
                {"budget": "open", "threads": 2, "wall_seconds": wall},
                {"budget": "tight", "threads": 1, "wall_seconds": 9.0},
            ],
            "counters": {"fsim.patterns": work, "robust.injected": 3},
            "mem_peak": {"sim.compiled_bytes": mem},
            "series": {
                "soc.group": {
                    "dropped": 0,
                    "work": [work],
                    "counters": {"fsim.patterns": [work]},
                }
            },
        }

    th = dict(DEFAULT_THRESHOLDS)
    runs = synth()["runs"]
    # (name, doctored new file, gate should fail, text the report must
    # contain or None).
    cases = [
        ("identical rerun passes", synth(), False, None),
        ("wall-only slowdown is waived", synth(wall=2.0), False, None),
        ("wall slowdown with work jump fails",
         synth(wall=2.0, work=1500), True, None),
        ("work jump alone fails", synth(work=1500), True, None),
        ("mem_peak growth fails", synth(mem=8192), True, None),
        # Robust counters track injected faults, not workload size.
        ("robust counter movement alone passes",
         {**synth(), "counters": {"fsim.patterns": 1000,
                                  "robust.injected": 30}}, False, None),
        # A row in one file only is listed and judged by nothing.
        ("removed row is listed as gone and passes",
         {**synth(), "runs": runs[:1]}, False, "(gone)"),
        ("added row is listed as new and passes",
         {**synth(), "runs": runs + [{**runs[1], "threads": 4}]}, False,
         "(new)"),
    ]
    ok = True
    base = synth()
    for name, doctored, want_fail, want_text in cases:
        print(f"\n--- self-test: {name} ---")
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            failures, _ = compare(base, doctored, th)
        print(report.getvalue(), end="")
        got_fail = bool(failures)
        listed = want_text is None or want_text in report.getvalue()
        verdict = "ok" if got_fail == want_fail and listed else "MISMATCH"
        if got_fail != want_fail or not listed:
            ok = False
        print(f"self-test [{verdict}]: {name}: gate "
              f"{'fails' if got_fail else 'passes'}, expected "
              f"{'fail' if want_fail else 'pass'}"
              f"{'' if listed else f'; report lacks {want_text}'}")
    print(f"\nbench_delta --self-test: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main() -> int:
    gate = False
    thresholds_path = None
    paths = []
    for arg in sys.argv[1:]:
        if arg == "--self-test":
            return self_test()
        if arg == "--gate":
            gate = True
        elif arg.startswith("--thresholds="):
            thresholds_path = arg.split("=", 1)[1]
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.strip())
        return 2 if gate else 0

    th_doc = load_thresholds(thresholds_path)
    if th_doc is None:
        return 1 if gate else 0
    # Bench-specific thresholds need the bench name; peek at the new file.
    try:
        with open(paths[1]) as f:
            bench = json.load(f).get("bench")
    except (OSError, ValueError):
        bench = None
    th = thresholds_for(bench, th_doc)
    return run_pair(paths[0], paths[1], th, gate)


if __name__ == "__main__":
    sys.exit(main())
