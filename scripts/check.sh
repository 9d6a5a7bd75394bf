#!/usr/bin/env bash
# Tier-1 verify plus kernel-throughput tracking.
#
# Runs the canonical build-and-test line from ROADMAP.md, then:
#   - the BM_MatMul{,Fp16,Int8}/256 microbenchmarks (items_per_second * 2 =
#     FLOP/s; each item is one multiply-add),
#   - the Table-2 smoke (reference-model forward latency per precision on the
#     paper-geometry ResNet-56),
#   - distributed smokes: a 2-process TCP world, a crash-resume drill, a
#     one-seed chaos drill (a frame corrupted inside the TCP transport's
#     framed pump, the wire path every world ships with -> typed checksum
#     abort -> checkpoint resume, hash-pinned), a tracing drill (per-rank
#     EGERIA_TRACE=1 EGERIA_EXPORTER=1 run -> egeria_trace merge + --diagnose
#     -> phase totals reconciled against EGERIA_RESULT within 5%, weights
#     hash pinned vs untraced), and an injected-delay
#     straggler drill (--fault=delay@1:N, with a live Prometheus /metrics
#     scrape mid-run -> --diagnose must name rank 1, comm-wait-bound, hash
#     still pinned),
# and APPENDS the results as a git-SHA-keyed entry to the BENCH_gemm.json
# trajectory (scripts/bench_trajectory.py), so successive PRs' numbers line up
# and kernel regressions surface (re-running on the same SHA updates that SHA's
# entry in place). The diagnosis record is advisory (never gated). The
# feature store's frozen-forward savings, the tracer's overhead, and the
# framed TCP pump with its heartbeat are measured end to end by the
# benchmark (perfbench/run.py: models.frozen_fp_s, trace.overhead_pct, dist-w2).
#
# Throttled-host defence: before recording, the kernel numbers are checked for
# plausibility against the trajectory median (bench_trajectory.py
# --check-only). An implausible run (exit 3) gets ONE re-run; if the second
# attempt is still implausible the entry is recorded with "suspect": true so
# it never becomes a gate baseline or median input.
#
# Usage: check.sh [--gate]
#   --gate   After recording, compare this run's BM_MatMul{,Fp16,Int8}/256
#            GFLOP/s against the per-kernel best of the last 5 clean
#            (non-suspect) trajectory entries and exit nonzero on a >15%
#            drop (the CI bench-regression gate). Suspect runs skip the
#            comparison — loudly — instead of failing CI on a throttled box.
set -euo pipefail

gate=0
for arg in "$@"; do
  case "$arg" in
    --gate) gate=1 ;;
    *) echo "check.sh: unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."
repo_root=$(pwd)

# Bench binaries are gated behind -DEGERIA_BUILD_BENCH=ON. A build/ directory
# cached from a configure with =OFF (or a failed google-benchmark fetch) leaves
# them unbuilt, and "./build/foo: No such file or directory" mid-script is not
# an actionable diagnosis — fail up front with the fix instead.
require_bench() {
  if [ ! -x "./build/$1" ]; then
    {
      echo "check.sh: bench binary ./build/$1 is missing."
      echo "  Likely causes:"
      echo "   - build/ was configured with -DEGERIA_BUILD_BENCH=OFF (cached"
      echo "     CMakeCache.txt wins over this script's flag on some setups);"
      echo "   - the google-benchmark FetchContent download failed at configure"
      echo "     time, so benchmark-dependent targets were skipped."
      echo "  Fix: rm -rf build && cmake -B build -S . -DEGERIA_BUILD_BENCH=ON"
      echo "       && cmake --build build -j \$(nproc), then re-run check.sh."
    } >&2
    exit 4
  fi
}

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . -DEGERIA_BUILD_BENCH=ON
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

require_bench micro_kernels
require_bench table2_ref_precision
require_bench fig09_breakdown
require_bench egeria_ckpt

echo "== bench smoke: BM_MatMul{,Fp16,Int8}/256 =="
bench_tmp=$(mktemp)
bench_err=$(mktemp)
table2_tmp=$(mktemp)
trap 'rm -f "$bench_tmp" "$bench_err" "$table2_tmp"' EXIT

run_micro() {
  ./build/micro_kernels \
    --benchmark_filter='^BM_MatMul(Fp16|Int8)?/256$' \
    --benchmark_min_time="$1" \
    --benchmark_out="$bench_tmp" \
    --benchmark_out_format=json 2> "$bench_err"
}

# "1x" (exactly one iteration) needs google-benchmark >= 1.8; older releases
# only accept a seconds value and reject the flag with a message naming it
# ("The value of flag --benchmark_min_time is expected to be a double").
# Fall back to a short min_time ONLY on that flag rejection — any other
# failure (crashed kernel, bad filter, missing binary) must propagate, not be
# retried and masked by the fallback run.
micro_mode=1x
rc=0
run_micro "$micro_mode" || rc=$?
if [ "$rc" -ne 0 ]; then
  if grep -q 'benchmark_min_time' "$bench_err"; then
    echo "check.sh: --benchmark_min_time=1x unsupported; falling back to 0.05s"
    micro_mode=0.05
    run_micro "$micro_mode"
  else
    cat "$bench_err" >&2
    echo "check.sh: micro_kernels failed (exit $rc); not retrying" >&2
    exit "$rc"
  fi
fi
cat "$bench_err" >&2 || true

git_sha=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
# Uncommitted changes are not HEAD's numbers — mark them so a pre-commit run
# never overwrites (or masquerades as) the parent commit's entry.
if ! git diff-index --quiet HEAD -- 2>/dev/null; then
  git_sha="${git_sha}-dirty"
fi

echo "== bench plausibility: kernel numbers vs trajectory median =="
# Exit 3 = implausibly slow vs the recent clean median (host throttling).
# One re-run; a still-implausible second attempt is recorded as suspect by
# the final bench_trajectory.py call below (and excluded from baselines).
plaus_rc=0
python3 scripts/bench_trajectory.py "$repo_root/BENCH_gemm.json" \
  "$bench_tmp" "$table2_tmp" "$git_sha" --check-only || plaus_rc=$?
if [ "$plaus_rc" -eq 3 ]; then
  echo "check.sh: implausible kernel numbers; re-running micro_kernels once"
  run_micro "$micro_mode"
  cat "$bench_err" >&2 || true
elif [ "$plaus_rc" -ne 0 ]; then
  exit "$plaus_rc"
fi

echo "== bench smoke: table2 reference-forward latency per precision =="
./build/table2_ref_precision --smoke | tee "$table2_tmp"

echo "== bench smoke: fig09 frozen-forward elimination (feature store on/off) =="
# Static-freeze pair on a small deterministic workload: the feature store must
# eliminate >= 80% of the steady-state frozen-prefix forward seconds (the
# binary exits nonzero below that bar or if the store never serves).
./build/fig09_breakdown --smoke

echo "== dist smoke: 2-process TCP ring (egeria_worker via launch_dist.sh) =="
./scripts/launch_dist.sh -n 2 -t 300 -- --workload=tiny --epochs=2

echo "== dist smoke: crash-resume (checkpoint, --fault=exit, restart, hash pin) =="
# A 2-process world writes checkpoints, every rank is killed mid-run by fault
# injection, and rerunning the SAME command (minus the fault) resumes from the
# latest complete checkpoint. The final weights hash must be bitwise-equal to
# an uninterrupted run's — the checkpoint subsystem's bitwise-resume contract,
# exercised end to end from the command line.
resume_tmp=$(mktemp -d "${TMPDIR:-/tmp}/egeria-resume-XXXXXX")
trap 'rm -f "$bench_tmp" "$bench_err" "$table2_tmp"; rm -rf "$resume_tmp"' EXIT
hash_of() {
  grep -h '^EGERIA_RESULT' "$1"/rank_*.log \
    | sed -n 's/.*params_hash=\([0-9a-f]*\).*/\1/p' | sort -u
}
./scripts/launch_dist.sh -n 2 -t 300 -l "$resume_tmp/ref" -- \
  --workload=tiny --epochs=3
ref_hash=$(hash_of "$resume_tmp/ref")
[ -n "$ref_hash" ] && [ "$(printf '%s\n' "$ref_hash" | wc -l)" -eq 1 ] || {
  echo "check.sh: reference run produced inconsistent hashes" >&2; exit 1; }
# Crash run: both ranks exit at iteration 6; the checkpoint at 4 survives.
./scripts/launch_dist.sh -n 2 -t 300 -l "$resume_tmp/crash" -- \
  --workload=tiny --epochs=3 --ckpt-dir="$resume_tmp/ckpt" --ckpt-interval=4 \
  --fault=exit:6 > /dev/null 2>&1 && {
  echo "check.sh: fault injection did not fire" >&2; exit 1; } || true
./build/egeria_ckpt latest "$resume_tmp/ckpt" > /dev/null || {
  echo "check.sh: no complete checkpoint survived the crash" >&2; exit 1; }
./build/egeria_ckpt list "$resume_tmp/ckpt"
# Restart (same command, no fault): workers resume and finish the run.
./scripts/launch_dist.sh -n 2 -t 300 -l "$resume_tmp/resume" -- \
  --workload=tiny --epochs=3 --ckpt-dir="$resume_tmp/ckpt" --ckpt-interval=4
resume_hash=$(hash_of "$resume_tmp/resume")
if [ "$resume_hash" != "$ref_hash" ]; then
  echo "check.sh: crash-resume hash $resume_hash != uninterrupted $ref_hash" >&2
  exit 1
fi
# The pin must come from a genuine resume, not a silent from-scratch rerun.
if grep -h '^EGERIA_RESULT' "$resume_tmp/resume"/rank_*.log \
     | grep -q 'resumed_from=-1'; then
  echo "check.sh: restart did not resume from the checkpoint" >&2
  exit 1
fi
echo "check.sh: crash-resume hash pin OK ($ref_hash)"

echo "== dist smoke: one-seed chaos (corrupt -> checksum abort -> resume pin) =="
# Seed 19's derived scenario at world 2 corrupts a frame on rank 0 at
# iteration 5 (FaultPlan::FromSeed is deterministic, so this smoke is too).
# The byte is flipped inside the framed TCP pump after the frame's digest is
# fixed, so it must surface as a typed integrity failure at the receiver —
# nonzero exit with EGERIA_ABORT code=checksum — never as silent gradient
# corruption, and the rerun without the fault must resume from the surviving
# checkpoint and pin the uninterrupted run's weights hash bitwise.
./scripts/launch_dist.sh -n 2 -t 300 -l "$resume_tmp/chaos" -- \
  --workload=tiny --epochs=3 --ckpt-dir="$resume_tmp/chaos_ckpt" \
  --ckpt-interval=4 --fault=seed:19 > /dev/null 2>&1 && {
  echo "check.sh: chaos seed 19 did not fire" >&2; exit 1; } || true
grep -h '^EGERIA_ABORT' "$resume_tmp/chaos"/rank_*.log || true
grep -hq 'code=checksum' "$resume_tmp/chaos"/rank_*.log || {
  echo "check.sh: expected a checksum abort from chaos seed 19" >&2; exit 1; }
./scripts/launch_dist.sh -n 2 -t 300 -l "$resume_tmp/chaos_resume" -- \
  --workload=tiny --epochs=3 --ckpt-dir="$resume_tmp/chaos_ckpt" \
  --ckpt-interval=4
chaos_hash=$(hash_of "$resume_tmp/chaos_resume")
if [ "$chaos_hash" != "$ref_hash" ]; then
  echo "check.sh: chaos-resume hash $chaos_hash != uninterrupted $ref_hash" >&2
  exit 1
fi
if grep -h '^EGERIA_RESULT' "$resume_tmp/chaos_resume"/rank_*.log \
     | grep -q 'resumed_from=-1'; then
  echo "check.sh: chaos restart did not resume from the checkpoint" >&2
  exit 1
fi
echo "check.sh: chaos smoke OK (seed 19: checksum abort, resume pin $chaos_hash)"

echo "== dist smoke: tracing + exporter (merge, reconcile, diagnose, hash pin) =="
# The crash-drill reference run above is the untraced twin: rerunning the SAME
# command with EGERIA_TRACE=1 EGERIA_EXPORTER=1 must (a) produce per-rank
# trace files that tools/egeria_trace merges into one timeline whose per-phase
# span totals reconcile with the EGERIA_RESULT seconds within 5%, (b) start
# the per-rank HTTP exporter, and (c) leave the trained weights hash
# bitwise-unchanged (observability, never arithmetic). The tiny run is over
# in well under a second, so the LIVE /metrics scrape happens during the
# longer injected-delay drill below — same world, same exporter.
trace_tmp="$resume_tmp/trace"
mkdir -p "$trace_tmp"
EGERIA_TRACE=1 EGERIA_TRACE_DIR="$trace_tmp" EGERIA_EXPORTER=1 \
  ./scripts/launch_dist.sh -n 2 -t 300 -l "$trace_tmp/logs" -- \
  --workload=tiny --epochs=3
grep -hq '^EGERIA_EXPORTER rank=0 port=' "$trace_tmp/logs"/rank_0.log || {
  echo "check.sh: worker did not start the metrics exporter" >&2; exit 1; }
traced_hash=$(hash_of "$trace_tmp/logs")
if [ "$traced_hash" != "$ref_hash" ]; then
  echo "check.sh: traced+exporter-run hash $traced_hash != untraced $ref_hash" >&2
  exit 1
fi
./build/egeria_trace --out="$trace_tmp/merged.json" --tolerance-pct=5 \
  --reconcile="$trace_tmp/logs/rank_0.log" --diagnose \
  "$trace_tmp"/trace_rank0.json "$trace_tmp"/trace_rank1.json \
  | tee "$repo_root/build/diagnosis_report.txt"
echo "check.sh: trace smoke OK (merged $trace_tmp/merged.json, hash pin $traced_hash)"

echo "== dist smoke: injected-delay straggler -> live scrape + --diagnose =="
# Same 2-process world, but rank 1 sleeps 400 ms per iteration (the FaultPlan
# delay scenario, rank-qualified so both ranks get identical argv). The sleeps
# land between phases on rank 1 (unattributed gap) and balloon rank 0's
# comm_wait — the diagnosis must name rank 1 as the straggler and classify the
# run comm-wait-bound. The delays also stretch the run to ~2.5 s, wide enough
# to scrape rank 0's live /metrics mid-run (the tiny run without delays is
# over in <100 ms — scraping it is a lost race by construction). Injected
# delay is pure sleep, so the trained-weights hash must STILL pin against the
# undelayed, unscraped reference. The diagnosis is the one definition of
# straggler skew; the heartbeat carries liveness only.
strag_tmp="$resume_tmp/straggler"
mkdir -p "$strag_tmp"
EGERIA_TRACE=1 EGERIA_TRACE_DIR="$strag_tmp" EGERIA_EXPORTER=1 \
  ./scripts/launch_dist.sh -n 2 -t 300 -l "$strag_tmp/logs" -- \
  --workload=tiny --epochs=3 \
  --fault=delay@1:1,delay@1:2,delay@1:3,delay@1:4,delay@1:5,delay@1:6 &
strag_run_pid=$!
# Scrape rank 0's exporter mid-run: the port file (tmp+rename, so complete the
# moment it exists) names the ephemeral port. Retry until the scrape contains
# the trainer-phase histograms — an early scrape can land before the trainer has
# registered them — or the run ends (which fails the assertion below).
scrape_file="$strag_tmp/scrape_metrics.txt"
scrape_ok=0
while kill -0 "$strag_run_pid" 2>/dev/null; do
  if [ -f "$strag_tmp/obs_port_rank0" ]; then
    if python3 - "$(cat "$strag_tmp/obs_port_rank0")" "$scrape_file" <<'EOF'
import sys
import urllib.request
try:
    body = urllib.request.urlopen(
        f"http://127.0.0.1:{sys.argv[1]}/metrics", timeout=2).read()
except OSError:
    sys.exit(1)
open(sys.argv[2], "wb").write(body)
EOF
    then
      if grep -q '^# TYPE egeria_trainer_fp_s histogram' "$scrape_file"; then
        scrape_ok=1
        break
      fi
    fi
  fi
  sleep 0.05
done
wait "$strag_run_pid"
if [ "$scrape_ok" -ne 1 ]; then
  echo "check.sh: live /metrics scrape never served the phase histograms" >&2
  exit 1
fi
grep -q '_bucket{le="' "$scrape_file" || {
  echo "check.sh: /metrics scrape has no histogram buckets" >&2; exit 1; }
echo "check.sh: live /metrics scrape OK ($(wc -l < "$scrape_file") lines)"
strag_hash=$(hash_of "$strag_tmp/logs")
if [ "$strag_hash" != "$ref_hash" ]; then
  echo "check.sh: delayed+scraped-run hash $strag_hash != reference $ref_hash" >&2
  exit 1
fi
./build/egeria_trace --diagnose \
  "$strag_tmp"/trace_rank0.json "$strag_tmp"/trace_rank1.json \
  | tee "$repo_root/build/diagnosis_straggler.txt"
grep -q '"classification":"comm-wait-bound"' \
  "$repo_root/build/diagnosis_straggler.txt" || {
  echo "check.sh: delayed run not classified comm-wait-bound" >&2; exit 1; }
grep -q '"straggler_rank":1' "$repo_root/build/diagnosis_straggler.txt" || {
  echo "check.sh: --diagnose did not name rank 1 as the straggler" >&2
  exit 1
}
echo "check.sh: straggler drill OK (diagnosis named rank 1, comm-wait-bound)"

gate_args=()
if [ "$gate" -eq 1 ]; then
  gate_args=(--gate)
fi
# The merged trace outlives the tmp dir so CI can upload it as an artifact.
cp "$trace_tmp/merged.json" "$repo_root/build/trace_merged.json"

python3 scripts/bench_trajectory.py "$repo_root/BENCH_gemm.json" \
  "$bench_tmp" "$table2_tmp" "$git_sha" \
  --diagnose="$repo_root/build/diagnosis_report.txt" \
  --render="$repo_root/BENCH_summary.md" ${gate_args[@]+"${gate_args[@]}"}

echo "check.sh: OK (trajectory in BENCH_gemm.json)"
