#!/usr/bin/env python3
"""Append a benchmark run to the BENCH_gemm.json trajectory; optionally gate.

Usage:
    bench_trajectory.py TRAJ_JSON BENCH_JSON TABLE2_TXT GIT_SHA
        [--fig09=FILE] [--trace=FILE] [--diagnose=FILE]
        [--render=FILE] [--gate] [--check-only]

Parses the google-benchmark JSON report (BM_MatMul{,Fp16,Int8}/256) and the
table2 smoke output, then updates-or-appends a git-SHA-keyed entry in the
trajectory file (re-running on the same SHA replaces that SHA's entry; a clean
run supersedes its own pre-commit "-dirty" entry).

Plausibility (the throttled-host defence): a run is SUSPECT when any gated
kernel lands below SUSPECT_FRACTION x the median of that kernel over the last
BASELINE_WINDOW non-suspect trajectory entries. Shared-host CPU throttling
produces exactly this signature (every kernel collapses together by 2-4x), and
one such entry must never become the gate baseline — that is how a genuine
regression hid behind a polluted baseline once.

    --check-only   Parse + judge plausibility only; write NOTHING. Exit 3 if
                   the run looks suspect (the caller re-runs the benchmark
                   once and records the second attempt), 0 otherwise.

A run still implausible on its final recording is written with
"suspect": true: it stays in the trajectory for forensics but is excluded
from gate baselines and future medians.

With --fig09=FILE, parses a FIG09_SMOKE line (fig09_breakdown --smoke) into a
"frozen_forward_saved" record: the steady-state frozen-prefix forward seconds
the feature store eliminated, and the fraction thereof. With --trace=FILE,
parses an EGERIA_TRACE_SMOKE line (scripts/check.sh's tracing drill) into a
"tracer_overhead" record: wall-time cost of EGERIA_TRACE=1 on the 2-process
TCP smoke (budget: <= 2%, but single-digit noise on a shared host is normal).
With --diagnose=FILE, parses the EGERIA_DIAGNOSIS line emitted by
tools/egeria_trace --diagnose into a "diagnosis" record: the bound
classification and straggler_skew of the healthy 2-process trace-smoke run.
All are advisory context: shared-host timings are too noisy to gate.

With --render=FILE, additionally writes a markdown before/after summary of the
recorded entry versus the recent clean baseline window — CI uploads it as an
artifact next to the trajectory itself.

With --gate, compares this run's GFLOP/s per kernel against the BEST of the
last BASELINE_WINDOW non-suspect foreign entries (best-of-K, so one slow-host
baseline cannot relax the gate, and one fast outlier is what you must stay
within GATE_DROP_FRACTION of) and exits 1 on a drop beyond GATE_DROP_FRACTION.
A run marked suspect skips the gate comparison (its measurement is
untrustworthy in BOTH directions) — loudly, exit 0 — because failing CI on a
throttled host is a false positive; the suspect flag keeps it out of every
future baseline instead. The entry is written either way, so the trajectory
stays continuous even across a failing gate.

Lives in its own file (not a shell heredoc) so `set -u` argv handling, exit
codes, and CI log capture are all ordinary — the script validates its own argv.
"""

import datetime
import json
import re
import sys

GATE_DROP_FRACTION = 0.15
SUSPECT_FRACTION = 0.5
BASELINE_WINDOW = 5
GATE_KERNELS = ("BM_MatMul/256", "BM_MatMulFp16/256", "BM_MatMulInt8/256")


def parse_benchmarks(bench_path):
    with open(bench_path) as f:
        report = json.load(f)
    gflops = {}
    for b in report.get("benchmarks", []):
        value = 2.0 * b.get("items_per_second", 0.0) / 1e9
        gflops[b["name"]] = round(value, 2)
        print(f"{b['name']}: {value:.1f} GFLOP/s")
    return gflops


def parse_table2(table2_path):
    smoke = {}
    with open(table2_path) as f:
        for line in f:
            m = re.match(
                r"TABLE2_SMOKE precision=(\S+) ref_fwd_ms=([\d.]+) "
                r"speedup_vs_fp32=([\d.]+)", line)
            if m:
                smoke[m.group(1)] = {
                    "ref_fwd_ms": float(m.group(2)),
                    "speedup_vs_fp32": float(m.group(3)),
                }
            m = re.match(r"TABLE2_SMOKE fastest=(\S+)", line)
            if m:
                smoke["fastest"] = m.group(1)
    return smoke


def parse_fig09(path):
    """First FIG09_SMOKE line -> the feature store's frozen-forward savings."""
    with open(path) as f:
        for line in f:
            if not line.startswith("FIG09_SMOKE "):
                continue
            kv = dict(field.partition("=")[::2] for field in line.split()[1:])
            try:
                record = {
                    "frozen_fp_store_off_s":
                        round(float(kv["frozen_fp_store_off_s"]), 6),
                    "frozen_fp_store_on_s":
                        round(float(kv["frozen_fp_store_on_s"]), 6),
                    "frozen_forward_saved_s": round(float(kv["saved_s"]), 6),
                    "saved_frac": round(float(kv["saved_frac"]), 4),
                    "fp_skips": int(kv["fp_skips"]),
                }
            except (KeyError, ValueError):
                continue
            print(f"frozen_forward_saved: {record}")
            return record
    return None


def parse_trace(path):
    """First EGERIA_TRACE_SMOKE line -> the tracing drill's overhead record."""
    with open(path) as f:
        for line in f:
            if not line.startswith("EGERIA_TRACE_SMOKE "):
                continue
            kv = dict(field.partition("=")[::2] for field in line.split()[1:])
            try:
                record = {
                    "tracer_overhead_pct": round(float(kv["tracer_overhead_pct"]), 2),
                    "traced_train_s": round(float(kv["traced_train_s"]), 6),
                    "untraced_train_s": round(float(kv["untraced_train_s"]), 6),
                }
            except (KeyError, ValueError):
                continue
            print(f"tracer_overhead: {record}")
            return record
    return None


def parse_diagnose(path):
    """Last EGERIA_DIAGNOSIS line -> the bottleneck-diagnosis advisory record.

    The line is machine-readable JSON from tools/egeria_trace --diagnose; the
    recorded subset is what trends usefully across PRs: the bound class and
    the straggler skew."""
    record = None
    try:
        f = open(path)
    except OSError:
        return None
    with f:
        for line in f:
            if not line.startswith("EGERIA_DIAGNOSIS "):
                continue
            try:
                d = json.loads(line[len("EGERIA_DIAGNOSIS "):])
            except ValueError:
                continue
            record = {
                "classification": d.get("classification"),
                "dominant_phase": d.get("dominant_phase"),
                "straggler_rank": d.get("straggler_rank"),
                "straggler_skew": d.get("straggler_skew"),
                "critical_path_s": d.get("critical_path_s"),
            }
    if record is not None:
        print(f"diagnosis: {record}")
    return record


def load_runs(traj_path):
    """Trajectory entries, oldest first; [] seeds a brand-new trajectory.

    A missing, empty, or unparseable file is the first-ever run (or a wiped
    trajectory), not an error: return [] so the new entry seeds the file and
    the gate passes on 'no prior clean entry'."""
    try:
        with open(traj_path) as f:
            existing = json.load(f)
    except (OSError, ValueError):
        return []
    if isinstance(existing, dict) and isinstance(existing.get("runs"), list):
        return [r for r in existing["runs"] if isinstance(r, dict)]
    if isinstance(existing, dict) and "benchmarks" in existing:
        # Pre-trajectory format: one raw google-benchmark report.
        legacy = {"sha": "pre-trajectory", "gemm_gflops": {}}
        for b in existing.get("benchmarks", []):
            legacy["gemm_gflops"][b["name"]] = round(
                2.0 * b.get("items_per_second", 0.0) / 1e9, 2)
        return [legacy]
    return []


def baseline_window(runs, sha):
    """The last BASELINE_WINDOW foreign, non-suspect entries (newest first).
    This SHA's own entries (and its dirty twin) never judge themselves."""
    base = sha[:-len("-dirty")] if sha.endswith("-dirty") else sha
    window = []
    for run in reversed(runs):
        run_sha = run.get("sha", "")
        if run_sha in (sha, base, base + "-dirty", "pre-trajectory"):
            continue
        if run.get("suspect"):
            continue
        if not run.get("gemm_gflops"):
            continue
        window.append(run)
        if len(window) == BASELINE_WINDOW:
            break
    return window


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    if n % 2:
        return ordered[n // 2]
    return 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])


def find_suspect_kernels(gflops, window):
    """Kernels implausibly below the recent trajectory median -> throttling."""
    bad = {}
    for name in GATE_KERNELS:
        new = gflops.get(name)
        history = [r["gemm_gflops"][name] for r in window
                   if r.get("gemm_gflops", {}).get(name)]
        if new is None or not history:
            continue
        med = median(history)
        if med > 0.0 and new < SUSPECT_FRACTION * med:
            bad[name] = (new, med)
    return bad


def report_suspects(bad):
    for name, (new, med) in bad.items():
        print(f"bench plausibility: {name}: {new:.1f} GFLOP/s is < "
              f"{100 * SUSPECT_FRACTION:.0f}% of the recent clean median "
              f"{med:.1f} — host throttling suspected")


def best_of_window(window):
    """Per-kernel best (value, sha) over the window — the gate baseline."""
    best = {}
    for run in window:
        for name in GATE_KERNELS:
            value = run.get("gemm_gflops", {}).get(name)
            if value and value > best.get(name, (0.0, ""))[0]:
                best[name] = (value, run.get("sha", "?"))
    return best


def check_gate(entry, window):
    best = best_of_window(window)
    if not best:
        print("bench gate: no prior clean entry to compare against; passing")
        return True
    ok = True
    for name in GATE_KERNELS:
        if name not in best:
            continue
        old, old_sha = best[name]
        new = entry["gemm_gflops"].get(name)
        if new is None:
            print(f"bench gate: {name} missing from this run (best of last "
                  f"{len(window)} clean: {old:.1f} GFLOP/s @ {old_sha}): FAIL")
            ok = False
            continue
        drop = 1.0 - new / old
        status = "FAIL" if drop > GATE_DROP_FRACTION else "ok"
        print(f"bench gate: {name}: {new:.1f} vs best-of-{len(window)} "
              f"{old:.1f} GFLOP/s (@ {old_sha}, drop {100.0 * drop:+.1f}%): "
              f"{status}")
        if drop > GATE_DROP_FRACTION:
            ok = False
    return ok


def render_summary(entry, window, path):
    """Markdown before/after summary of this run vs the clean baseline window."""
    lines = ["# Bench trajectory summary", "",
             f"Run `{entry['sha']}` at {entry.get('timestamp', '?')}."]
    if entry.get("suspect"):
        lines.append("")
        lines.append(f"**SUSPECT** — excluded from baselines: "
                     f"{entry.get('suspect_reason', '')}")
    lines += ["", "## Kernel throughput (gated)", "",
              "| kernel | this run (GFLOP/s) | best of recent clean | delta |",
              "|---|---|---|---|"]
    best = best_of_window(window)
    for name in GATE_KERNELS:
        new = entry["gemm_gflops"].get(name)
        if new is None:
            lines.append(f"| {name} | missing | — | — |")
            continue
        if name in best:
            old, old_sha = best[name]
            delta = f"{100.0 * (new / old - 1.0):+.1f}%"
            lines.append(f"| {name} | {new:.1f} | {old:.1f} (@ {old_sha}) | {delta} |")
        else:
            lines.append(f"| {name} | {new:.1f} | no clean baseline | — |")
    advisory = [
        ("table2_smoke", "Table 2 smoke (reference forward per precision)"),
        ("frozen_forward_saved", "Feature store: frozen forward eliminated"),
        ("tracer_overhead", "Span tracer: EGERIA_TRACE=1 wall-time cost"),
        ("diagnosis", "Trace diagnosis (bound class, straggler)"),
    ]
    lines += ["", "## Advisory records", ""]
    for key, title in advisory:
        value = entry.get(key)
        if value:
            lines.append(f"- **{title}**: `{json.dumps(value)}`")
    lines.append("")
    with open(path, "w") as f:
        f.write("\n".join(lines))
    print(f"summary rendered to {path}")


def main(argv):
    if len(argv) < 5:
        print(f"usage: {argv[0]} TRAJ_JSON BENCH_JSON TABLE2_TXT GIT_SHA "
              f"[--fig09=FILE] [--trace=FILE] "
              f"[--diagnose=FILE] [--render=FILE] [--gate] [--check-only]",
              file=sys.stderr)
        return 2
    traj_path, bench_path, table2_path, sha = argv[1:5]
    gate = "--gate" in argv[5:]
    check_only = "--check-only" in argv[5:]
    fig09_path = None
    trace_path = None
    diagnose_path = None
    render_path = None
    for arg in argv[5:]:
        if arg.startswith("--fig09="):
            fig09_path = arg[len("--fig09="):]
        elif arg.startswith("--trace="):
            trace_path = arg[len("--trace="):]
        elif arg.startswith("--diagnose="):
            diagnose_path = arg[len("--diagnose="):]
        elif arg.startswith("--render="):
            render_path = arg[len("--render="):]
        elif arg not in ("--gate", "--check-only"):
            print(f"{argv[0]}: unknown argument {arg}", file=sys.stderr)
            return 2

    gflops = parse_benchmarks(bench_path)
    runs = load_runs(traj_path)
    window = baseline_window(runs, sha)
    suspects = find_suspect_kernels(gflops, window)

    if check_only:
        if suspects:
            report_suspects(suspects)
            print("bench plausibility: SUSPECT (exit 3; re-run the benchmark "
                  "once and record the second attempt)")
            return 3
        print("bench plausibility: ok")
        return 0

    entry = {
        "sha": sha,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "gemm_gflops": gflops,
        "table2_smoke": parse_table2(table2_path),
    }
    if suspects:
        report_suspects(suspects)
        entry["suspect"] = True
        entry["suspect_reason"] = "; ".join(
            f"{name} {new:.1f} < {100 * SUSPECT_FRACTION:.0f}% of clean "
            f"median {med:.1f} GFLOP/s"
            for name, (new, med) in suspects.items())
        print("bench plausibility: recording entry with suspect=true "
              "(excluded from gate baselines and future medians)")
    if fig09_path:
        fig09 = parse_fig09(fig09_path)
        if fig09 is not None:
            entry["frozen_forward_saved"] = fig09
    if trace_path:
        trace = parse_trace(trace_path)
        if trace is not None:
            entry["tracer_overhead"] = trace
    if diagnose_path:
        diagnosis = parse_diagnose(diagnose_path)
        if diagnosis is not None:
            entry["diagnosis"] = diagnosis

    if not runs:
        print("trajectory: empty or missing; this run seeds the first entry")

    # Replace this SHA's entry. A clean run supersedes ALL dirty entries, not
    # just its own pre-commit twin: commits land as new SHAs, so a dirty entry's
    # "own" clean run usually never happens and scratch numbers would otherwise
    # be permanent baselines.
    base = sha[:-len("-dirty")] if sha.endswith("-dirty") else sha
    drop = {sha, base + "-dirty"}
    if not sha.endswith("-dirty"):
        drop.update(r.get("sha", "") for r in runs
                    if r.get("sha", "").endswith("-dirty"))
    runs = [r for r in runs if r.get("sha") not in drop]
    runs.append(entry)
    with open(traj_path, "w") as f:
        json.dump({"schema": "egeria-bench-trajectory-v1", "runs": runs}, f, indent=2)
        f.write("\n")
    print(f"trajectory: {len(runs)} run(s) in {traj_path} (this run: {sha})")

    if render_path:
        render_summary(entry, window, render_path)

    if gate:
        if suspects:
            print("bench gate: run is marked suspect (throttled host?); "
                  "gate comparison skipped — the entry will not become a "
                  "baseline", file=sys.stderr)
        elif not check_gate(entry, window):
            print(f"bench gate: REGRESSION (> {100 * GATE_DROP_FRACTION:.0f}% "
                  f"drop vs best of last {len(window)} clean entries)",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
