#!/usr/bin/env bash
# Full reproduction: build, test, regenerate every table and figure.
# Knobs: OWL_BENCH_SCALE (default 1.0), OWL_BENCH_SCHEDULES (default 4).
# Everything it writes lands under build/ (the tree stays clean): the logs
# test_output.txt and bench_output.txt, the BENCH_*.json numbers for this
# host, and bench_manifests/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast AND loud: name the step that died instead of ending silently.
current_step="startup"
trap 'echo "reproduce.sh: FAILED during: ${current_step}" >&2' ERR

# Prefer Ninja for fresh trees; an already-configured build/ keeps its
# generator (CMake refuses to switch generators in place).
generator=()
if [ ! -f build/CMakeCache.txt ] && command -v ninja > /dev/null 2>&1; then
  generator=(-G Ninja)
fi

current_step="configure (cmake)"
cmake -B build ${generator[@]+"${generator[@]}"}

current_step="build"
cmake --build build -j"$(nproc)"

current_step="tests (ctest)"
ctest --test-dir build --output-on-failure -j"$(nproc)" 2>&1 \
  | tee build/test_output.txt

current_step="benchmarks"
: > build/bench_output.txt
# Each bench sweep drops a run manifest (inputs, options, seeds,
# StageCounts, metrics — DESIGN.md §8) under build/bench_manifests/ so the
# recorded tables can be cross-checked after the fact.
export OWL_MANIFEST_DIR="$PWD/build/bench_manifests"
mkdir -p "$OWL_MANIFEST_DIR"
for b in build/bench/*; do
  [ -x "$b" ] || continue
  current_step="benchmark $(basename "$b")"
  "$b" 2>&1 | tee -a build/bench_output.txt
done

current_step="record build/BENCH_parallel.json"
./build/bench/micro_perf --benchmark_filter='Parallel|RunMany' \
  --benchmark_out=build/BENCH_parallel.json --benchmark_out_format=json \
  | tee -a build/bench_output.txt

# Detection-substrate numbers (impl:0 = reference, impl:1 = fast); the
# fast/reference ratio on BM_DetectorRead and BM_ShadowLookup is the
# headline claim in DESIGN.md §2's "fast substrate" note.
current_step="record build/BENCH_detector.json"
./build/bench/micro_perf \
  --benchmark_filter='Detector|ShadowLookup|VectorClockJoin' \
  --benchmark_repetitions=3 \
  --benchmark_out=build/BENCH_detector.json --benchmark_out_format=json \
  | tee -a build/bench_output.txt

# Static-analysis engine numbers: Andersen solve time, prescreen
# classification, and the detector hot path under a no_race verdict —
# the pruning payoff quoted in EXPERIMENTS.md's prescreen table.
current_step="record build/BENCH_static.json"
./build/bench/micro_perf \
  --benchmark_filter='Andersen|Prescreen' \
  --benchmark_repetitions=3 \
  --benchmark_out=build/BENCH_static.json --benchmark_out_format=json \
  | tee -a build/bench_output.txt

# Memory-aware value-flow numbers: graph construction cost and the
# Algorithm 1 walk when every propagation step crosses a store->load edge
# (the --vuln-flow extension, DESIGN.md §14).
current_step="record build/BENCH_valueflow.json"
./build/bench/micro_perf \
  --benchmark_filter='ValueFlow|VulnFlow' \
  --benchmark_repetitions=3 \
  --benchmark_out=build/BENCH_valueflow.json --benchmark_out_format=json \
  | tee -a build/bench_output.txt

echo
echo "Reproduction complete. See EXPERIMENTS.md for the paper-vs-measured"
echo "record. Under build/: bench_output.txt holds this run's tables and"
echo "figures, BENCH_parallel.json the --jobs scaling numbers for this host,"
echo "BENCH_detector.json the fast-vs-reference detector substrate numbers,"
echo "BENCH_static.json the static-analysis (points-to/prescreen) numbers,"
echo "BENCH_valueflow.json the value-flow build/walk numbers, and"
echo "bench_manifests/ the per-sweep run manifests (DESIGN.md §8)."
