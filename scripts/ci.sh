#!/usr/bin/env bash
# Staged CI gate. Usage:
#
#   scripts/ci.sh [stage ...]
#
# with stages:
#   build         configure + compile the main tree (plus ci.yml lint)
#   ctest         full test suite on the main tree
#   asan          unit tests under ASan+UBSan (own tree: build-asan)
#   tsan          concurrency tests under TSan (own tree: build-tsan)
#   differential  jobs/manifest differential gates on the examples
#   serve         owl_served robustness + differential gate under
#                 ASan+UBSan (shares the asan tree)
#   repair        automated race repair gate: every confirmed-race example
#                 must yield a verified *_fixed.mir matching the committed
#                 golden, byte-identical across jobs/repeat runs
#   bench         release bench tree + benchmark-regression gate
#   all           every stage above, in that order (the default)
#
# Stages assume `build` ran first (the GitHub matrix gives each stage its
# own job and runs `build` as its first step; locally `all` orders them).
# OWL_CI_REUSE_BUILD=1 skips the configure+compile of a tree whose
# binaries already exist (build/ and build-asan/), so chained local
# invocations — e.g. `ci.sh differential serve repair` after one `build`
# — pay for compilation once. Any failure fails the script and names the
# step that died. Per-stage wall-clock prints at exit.
set -euo pipefail
cd "$(dirname "$0")/.."

current_step="startup"
trap 'echo "ci.sh: FAILED during: ${current_step}" >&2' ERR

stage_times=()
print_stage_times() {
  [ ${#stage_times[@]} -gt 0 ] || return 0
  echo "ci.sh: per-stage wall-clock:"
  for entry in "${stage_times[@]}"; do
    echo "  ${entry}"
  done
}
trap print_stage_times EXIT

run_stage() {
  # Deliberately unique names: bash locals are dynamically scoped, so a
  # plain `name` would be visible to — and clobbered by — the stage body.
  local run_stage_name="$1"
  local run_stage_started="${SECONDS}"
  "stage_${run_stage_name}"
  stage_times+=("${run_stage_name}: $((SECONDS - run_stage_started))s")
}

jobs="$(nproc)"
reuse_build="${OWL_CI_REUSE_BUILD:-0}"

# ccache cuts the matrix's rebuild cost; configure with it only when the
# host actually has it so a bare container still works.
launcher_args=()
if command -v ccache > /dev/null 2>&1; then
  launcher_args=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

stage_build() {
  if [ "${reuse_build}" = "1" ] && [ -x build/tools/owl_cli ]; then
    echo "ci.sh: OWL_CI_REUSE_BUILD=1: reusing existing build/ tree"
  else
    current_step="configure"
    cmake -B build -S . ${launcher_args[@]+"${launcher_args[@]}"}

    current_step="build"
    cmake --build build -j"${jobs}"
  fi

  # Workflow lint: actionlint when available, else a YAML parse via
  # python3 — enough to catch a syntactically broken ci.yml in-repo.
  current_step="lint .github/workflows/ci.yml"
  if [ -f .github/workflows/ci.yml ]; then
    if command -v actionlint > /dev/null 2>&1; then
      actionlint .github/workflows/ci.yml
    else
      python3 -c "import yaml; yaml.safe_load(open('.github/workflows/ci.yml'))" \
        || { echo "ci.sh: ci.yml failed YAML validation" >&2; exit 1; }
    fi
  fi
}

stage_ctest() {
  current_step="ctest"
  ctest --test-dir build --output-on-failure -j"${jobs}"
}

# Sanitizer pass: a separate tree so the regular build stays reusable.
stage_asan() {
  if [ "${reuse_build}" = "1" ] && [ -x build-asan/tests/owl_unit_tests ]; then
    echo "ci.sh: OWL_CI_REUSE_BUILD=1: reusing existing build-asan/ tree"
  else
    current_step="configure (ASan+UBSan)"
    cmake -B build-asan -S . ${launcher_args[@]+"${launcher_args[@]}"} \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"

    current_step="build owl_unit_tests (ASan+UBSan)"
    cmake --build build-asan -j"${jobs}" --target owl_unit_tests
  fi

  current_step="run owl_unit_tests (ASan+UBSan)"
  ./build-asan/tests/owl_unit_tests
}

# ThreadSanitizer pass: a concurrency-attack detector must not ship its own
# races. The TSan tree runs the thread-pool/log/trace/metrics unit tests and
# the jobs=1-vs-jobs=4 pipeline equivalence tests with real worker threads
# (among them SpanTimingsAggregateAcrossWorkers: --timings rows from spans
# that pool workers closed concurrently).
stage_tsan() {
  current_step="configure (TSan)"
  cmake -B build-tsan -S . ${launcher_args[@]+"${launcher_args[@]}"} \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all -fno-omit-frame-pointer"

  current_step="build test binaries (TSan)"
  cmake --build build-tsan -j"${jobs}" --target owl_unit_tests owl_integration_tests

  current_step="run thread_pool/observability tests (TSan)"
  ./build-tsan/tests/owl_unit_tests \
    --gtest_filter='ThreadPoolTest.*:LogSinkTest.*:TraceCollectorTest.*:MetricsRegistryTest.*'

  current_step="run parallel_equivalence tests (TSan)"
  ./build-tsan/tests/owl_integration_tests --gtest_filter='ParallelEquivalenceTest.*'
}

stage_differential() {
  # Differential gates on every shipped example: parallel execution must
  # be byte-identical to sequential on stdout AND on the run manifest
  # (scripts/manifest_diff.py strips the non-diffable "environment" tail
  # before comparing). The detection substrate's own differential — the
  # product detector against the test-only reference on the pipeline's
  # schedules, examples and paper models, fault case included — is the
  # ctest DetectorDifferentialTest.PipelineSchedulesOnExamplesAndModels.
  current_step="collect examples"
  examples=(examples/ir/*.mir)
  [ ${#examples[@]} -ge 2 ] \
    || { echo "ci.sh: expected at least 2 examples, got ${#examples[@]}" >&2
         exit 1; }

  current_step="jobs=1 vs jobs=4 differential (examples)"
  for j in 1 4; do
    ./build/tools/owl_cli --jobs "$j" --print-reports \
      --manifest "build/manifest-j$j.json" \
      --metrics-out "build/metrics-j$j.txt" \
      "${examples[@]}" > "build/out-j$j.txt"
  done
  diff -u build/out-j1.txt build/out-j4.txt \
    || { echo "ci.sh: jobs=4 output diverged from jobs=1" >&2; exit 1; }
  python3 scripts/manifest_diff.py build/manifest-j1.json build/manifest-j4.json \
    || { echo "ci.sh: jobs=4 manifest diverged from jobs=1" >&2; exit 1; }
  cmp build/metrics-j1.txt build/metrics-j4.txt \
    || { echo "ci.sh: jobs=4 metrics diverged from jobs=1" >&2; exit 1; }

  # Prescreen gate: the static may-race pre-screen must never change
  # behavior. Stdout, manifest body (scripts/manifest_diff.py), and metric
  # snapshots must be byte-identical across --prescreen off/on/audit for
  # jobs=1/4. Audit mode exits 3 on any pruned-but-raced access, which
  # fails this stage via set -e.
  current_step="prescreen differential gate (off/on/audit)"
  for j in 1 4; do
    for mode in off on audit; do
      ./build/tools/owl_cli --jobs "$j" --print-reports --prescreen "$mode" \
        --manifest "build/manifest-ps-$mode-j$j.json" \
        --metrics-out "build/metrics-ps-$mode-j$j.txt" \
        "${examples[@]}" > "build/out-ps-$mode-j$j.txt"
    done
    for mode in on audit; do
      diff -u "build/out-ps-off-j$j.txt" "build/out-ps-$mode-j$j.txt" \
        || { echo "ci.sh: --prescreen $mode changed reports (jobs=$j)" >&2
             exit 1; }
      python3 scripts/manifest_diff.py \
        "build/manifest-ps-off-j$j.json" "build/manifest-ps-$mode-j$j.json" \
        || { echo "ci.sh: --prescreen $mode changed the manifest body (jobs=$j)" >&2
             exit 1; }
      cmp "build/metrics-ps-off-j$j.txt" "build/metrics-ps-$mode-j$j.txt" \
        || { echo "ci.sh: --prescreen $mode changed metrics (jobs=$j)" >&2
             exit 1; }
    done
  done

  # The pre-screen must also do real work: the examples include
  # threadlocal_noise.mir, whose private-buffer traffic is provably
  # thread-local, so pruned_accesses must be nonzero under --prescreen on
  # and the audit sweep must have counted zero violations.
  current_step="prescreen pruning effectiveness"
  python3 - <<'EOF'
import json
on = json.load(open("build/manifest-ps-on-j1.json"))
audit = json.load(open("build/manifest-ps-audit-j1.json"))
pruned = on["environment"]["advisory_metrics"].get("prescreen.pruned_accesses", 0)
prunable = on["metrics"].get("prescreen.prunable_instructions", 0)
violations = audit["environment"]["advisory_metrics"].get(
    "prescreen.audit_violations", 0)
if prunable <= 0:
    raise SystemExit("ci.sh: no statically prunable instructions on the examples")
if pruned <= 0:
    raise SystemExit("ci.sh: --prescreen on pruned no dynamic accesses")
if violations != 0:
    raise SystemExit(f"ci.sh: prescreen audit counted {violations} violations")
EOF

  # Predict gate (DESIGN.md §12), four promises:
  #   (a) --predict off is byte-identical to not passing the flag at all —
  #       stdout, manifest body, and metric snapshots;
  #   (b) on/audit produce the same final report stream as exhaustive
  #       exploration (modulo the predict summary line) on every steady
  #       example — predicted_only.mir is the deliberate exception, a
  #       planted race only prediction can surface, checked separately;
  #   (c) audit mode observes zero wrongly-pruned races (exit 3 otherwise,
  #       which fails this stage via set -e);
  #   (d) prediction does real work: pruned pairs and avoided schedules
  #       are nonzero on the guarded examples.
  current_step="predict off-mode byte-identity"
  for j in 1 4; do
    ./build/tools/owl_cli --jobs "$j" --print-reports \
      --predict off \
      --manifest "build/manifest-pr-off-j$j.json" \
      --metrics-out "build/metrics-pr-off-j$j.txt" \
      "${examples[@]}" > "build/out-pr-off-j$j.txt"
    diff -u "build/out-j$j.txt" "build/out-pr-off-j$j.txt" \
      || { echo "ci.sh: --predict off changed the reports (jobs=$j)" >&2
           exit 1; }
    python3 scripts/manifest_diff.py \
      "build/manifest-j$j.json" "build/manifest-pr-off-j$j.json" \
      || { echo "ci.sh: --predict off changed the manifest body (jobs=$j)" >&2
           exit 1; }
    cmp "build/metrics-j$j.txt" "build/metrics-pr-off-j$j.txt" \
      || { echo "ci.sh: --predict off changed metrics (jobs=$j)" >&2
           exit 1; }
  done

  current_step="predict differential gate (on/audit vs exhaustive)"
  steady=()
  for example in "${examples[@]}"; do
    [ "$(basename "$example")" = predicted_only.mir ] && continue
    steady+=("$example")
  done
  for j in 1 4; do
    ./build/tools/owl_cli --jobs "$j" --print-reports \
      "${steady[@]}" > "build/out-pr-base-j$j.txt"
    for mode in on audit; do
      ./build/tools/owl_cli --jobs "$j" --print-reports \
        --predict "$mode" \
        --manifest "build/manifest-pr-$mode-j$j.json" \
        "${steady[@]}" > "build/out-pr-$mode-j$j.txt"
      grep -v "^  predict: " "build/out-pr-$mode-j$j.txt" \
        > "build/out-pr-$mode-j$j.stripped"
      diff -u "build/out-pr-base-j$j.txt" "build/out-pr-$mode-j$j.stripped" \
        || { echo "ci.sh: --predict $mode changed the final reports (jobs=$j)" >&2
             exit 1; }
    done
  done

  current_step="predicted-race discovery (predicted_only.mir)"
  ./build/tools/owl_cli --jobs 1 --print-reports \
    examples/ir/predicted_only.mir > build/out-po-off.txt
  ./build/tools/owl_cli --jobs 1 --print-reports --predict on \
    examples/ir/predicted_only.mir > build/out-po-on.txt
  if grep -q "data race on 'stat'" build/out-po-off.txt; then
    echo "ci.sh: predicted_only.mir race manifested without prediction" >&2
    echo "ci.sh: (the example no longer plants a predicted-only race)" >&2
    exit 1
  fi
  grep -q "data race on 'stat'" build/out-po-on.txt \
    || { echo "ci.sh: --predict on missed the planted predicted-only race" >&2
         exit 1; }

  current_step="predict pruning effectiveness"
  python3 - <<'EOF'
import json
on = json.load(open("build/manifest-pr-on-j1.json"))
audit = json.load(open("build/manifest-pr-audit-j1.json"))
candidates = on["metrics"].get("predict.candidates", 0)
avoided = on["metrics"].get("predict.schedules_avoided", 0)
closure = on["environment"]["advisory_metrics"].get(
    "predict.closure_iterations", 0)
violations = audit["environment"]["advisory_metrics"].get(
    "predict.audit_violations", 0)
if candidates <= 0:
    raise SystemExit("ci.sh: predictor SP-checked no candidate pairs")
if avoided <= 0:
    raise SystemExit("ci.sh: --predict on avoided no verifier schedules")
if closure <= 0:
    raise SystemExit("ci.sh: predictor recorded no closure iterations")
if violations != 0:
    raise SystemExit(f"ci.sh: predict audit counted {violations} violations")
EOF

  current_step="predict trace span"
  ./build/tools/owl_cli --jobs 1 -q --predict on \
    --trace-out build/trace-predict.json "${examples[@]}" > /dev/null
  python3 - <<'EOF'
import json
trace = json.load(open("build/trace-predict.json"))
names = {e["name"] for e in trace["traceEvents"]}
if "predict" not in names:
    raise SystemExit("ci.sh: trace missing the predict span")
EOF

  # Value-flow gate (DESIGN.md §14), four promises:
  #   (a) --vuln-flow off is byte-identical to not passing the flag at all —
  #       stdout, manifest body, and metric snapshots;
  #   (b) on and audit produce the same report stream on every example
  #       (audit only adds the runtime cross-check, never changes reports);
  #   (c) audit observes zero store->load dependences missing from the
  #       static graph (exit 3 otherwise, which fails this stage via set -e);
  #   (d) the graph does real work: heap_relay.mir's exploit is reachable
  #       only across the store->load edges, and the builder records
  #       nonzero nodes and memory edges.
  current_step="vuln-flow off-mode byte-identity"
  for j in 1 4; do
    ./build/tools/owl_cli --jobs "$j" --print-reports \
      --vuln-flow off \
      --manifest "build/manifest-vf-off-j$j.json" \
      --metrics-out "build/metrics-vf-off-j$j.txt" \
      "${examples[@]}" > "build/out-vf-off-j$j.txt"
    diff -u "build/out-j$j.txt" "build/out-vf-off-j$j.txt" \
      || { echo "ci.sh: --vuln-flow off changed the reports (jobs=$j)" >&2
           exit 1; }
    python3 scripts/manifest_diff.py \
      "build/manifest-j$j.json" "build/manifest-vf-off-j$j.json" \
      || { echo "ci.sh: --vuln-flow off changed the manifest (jobs=$j)" >&2
           exit 1; }
    cmp "build/metrics-j$j.txt" "build/metrics-vf-off-j$j.txt" \
      || { echo "ci.sh: --vuln-flow off changed metrics (jobs=$j)" >&2
           exit 1; }
  done

  current_step="vuln-flow on vs audit report identity"
  for j in 1 4; do
    for mode in on audit; do
      ./build/tools/owl_cli --jobs "$j" --print-reports \
        --vuln-flow "$mode" \
        --manifest "build/manifest-vf-$mode-j$j.json" \
        "${examples[@]}" > "build/out-vf-$mode-j$j.txt"
    done
    diff -u "build/out-vf-on-j$j.txt" "build/out-vf-audit-j$j.txt" \
      || { echo "ci.sh: --vuln-flow audit changed the reports (jobs=$j)" >&2
           exit 1; }
  done

  current_step="flow-only exploit discovery (heap_relay.mir)"
  ./build/tools/owl_cli --jobs 1 --print-reports \
    examples/ir/heap_relay.mir > build/out-hr-off.txt
  grep -q "vulnerability reports: 0" build/out-hr-off.txt \
    || { echo "ci.sh: heap_relay.mir exploit visible without --vuln-flow" >&2
         echo "ci.sh: (the example no longer plants a flow-only exploit)" >&2
         exit 1; }
  ./build/tools/owl_cli --jobs 1 --print-reports --vuln-flow on \
    examples/ir/heap_relay.mir > build/out-hr-on.txt
  grep -q "vulnerability reports: 1" build/out-hr-on.txt \
    || { echo "ci.sh: --vuln-flow on missed the heap_relay exploit" >&2
         exit 1; }
  grep -q "null-pointer-dereference" build/out-hr-on.txt \
    || { echo "ci.sh: heap_relay exploit is not the planted deref" >&2
         exit 1; }

  current_step="vuln-flow effectiveness"
  python3 - <<'EOF'
import json
on = json.load(open("build/manifest-vf-on-j1.json"))
audit = json.load(open("build/manifest-vf-audit-j1.json"))
nodes = on["metrics"].get("valueflow.nodes", 0)
mem_edges = on["metrics"].get("valueflow.mem_edges", 0)
violations = audit["environment"]["advisory_metrics"].get(
    "vulnflow.audit_violations", -1)
if nodes <= 0:
    raise SystemExit("ci.sh: value-flow graph recorded no nodes")
if mem_edges <= 0:
    raise SystemExit("ci.sh: value-flow graph recorded no store->load edges")
if violations != 0:
    raise SystemExit(
        f"ci.sh: vuln-flow audit counted {violations} violation(s)")
EOF

  # Checker-suite gate (DESIGN.md §11), three promises:
  #   (a) --checkers off is byte-identical to not passing the flag at all
  #       (the baseline outputs above ran without it);
  #   (b) each planted exploit example trips exactly its one rule and the
  #       clean examples trip nothing (scripts/check_sarif.py also does
  #       the SARIF 2.1.0 structural validation);
  #   (c) reports and the SARIF log are byte-identical across jobs=1/4
  #       and across repeat runs.
  current_step="checker suite off-mode byte-identity"
  ./build/tools/owl_cli --jobs 1 --print-reports \
    --checkers off "${examples[@]}" > build/out-check-off.txt
  diff -u build/out-j1.txt build/out-check-off.txt \
    || { echo "ci.sh: --checkers off changed the reports" >&2; exit 1; }

  current_step="checker suite jobs=1 vs jobs=4 differential + SARIF"
  for j in 1 4; do
    ./build/tools/owl_cli --jobs "$j" --print-reports \
      --checkers all --sarif-out "build/checkers-j$j.sarif" \
      "${examples[@]}" > "build/out-check-on-j$j.txt"
  done
  diff -u build/out-check-on-j1.txt build/out-check-on-j4.txt \
    || { echo "ci.sh: jobs=4 checker reports diverged from jobs=1" >&2
         exit 1; }
  cmp build/checkers-j1.sarif build/checkers-j4.sarif \
    || { echo "ci.sh: jobs=4 SARIF diverged from jobs=1" >&2; exit 1; }
  ./build/tools/owl_cli --jobs 4 -q --checkers all \
    --sarif-out build/checkers-repeat.sarif "${examples[@]}" > /dev/null
  cmp build/checkers-j4.sarif build/checkers-repeat.sarif \
    || { echo "ci.sh: repeat run produced a different SARIF log" >&2
         exit 1; }
  python3 scripts/check_sarif.py build/checkers-j1.sarif \
    --expect OWL-DL-001=2 --expect OWL-AV-001=1 --expect OWL-LM-001=1 \
    --expect OWL-CV-001=1 --expect-total 5

  current_step="checker planted-exploit sweep"
  planted="lock_cycle atomicity_split double_unlock cv_missed_wakeup \
    nested_lock_cycle"
  for spec in lock_cycle=OWL-DL-001 atomicity_split=OWL-AV-001 \
              double_unlock=OWL-LM-001 cv_missed_wakeup=OWL-CV-001 \
              nested_lock_cycle=OWL-DL-001; do
    stem="${spec%%=*}"
    rule="${spec##*=}"
    ./build/tools/owl_cli --jobs 1 -q --checkers all \
      --sarif-out "build/checkers-$stem.sarif" \
      "examples/ir/$stem.mir" > /dev/null
    python3 scripts/check_sarif.py "build/checkers-$stem.sarif" \
      --expect "$rule=1" --expect-total 1 \
      || { echo "ci.sh: $stem.mir did not trip exactly one $rule" >&2
           exit 1; }
  done
  for example in "${examples[@]}"; do
    stem="$(basename "$example" .mir)"
    case " $planted " in *" $stem "*) continue ;; esac
    ./build/tools/owl_cli --jobs 1 -q --checkers all \
      --sarif-out build/checkers-clean.sarif "$example" > /dev/null
    python3 scripts/check_sarif.py build/checkers-clean.sarif \
      --expect-total 0 \
      || { echo "ci.sh: checkers reported a finding on clean $stem.mir" >&2
           exit 1; }
  done

  # Repeat-run determinism: two identical invocations must produce
  # byte-identical manifests (minus environment) and metric snapshots.
  current_step="repeat-run manifest/metrics determinism"
  for run in 1 2; do
    ./build/tools/owl_cli --jobs 4 -q \
      --manifest "build/manifest-repeat$run.json" \
      --metrics-out "build/metrics-repeat$run.txt" \
      "${examples[@]}" > /dev/null
  done
  python3 scripts/manifest_diff.py \
    build/manifest-repeat1.json build/manifest-repeat2.json \
    || { echo "ci.sh: repeat runs produced different manifests" >&2
         exit 1; }
  cmp build/metrics-repeat1.txt build/metrics-repeat2.txt \
    || { echo "ci.sh: repeat runs produced different metrics" >&2; exit 1; }

  # The emitted trace must be valid Chrome trace JSON covering every
  # Fig. 3 stage (detection, annotation, race-verification,
  # vuln-analysis, vuln-verification).
  current_step="trace span coverage"
  ./build/tools/owl_cli --jobs 1 -q --trace-out build/trace.json \
    "${examples[@]}" > /dev/null
  python3 - <<'EOF'
import json
trace = json.load(open("build/trace.json"))
names = {e["name"] for e in trace["traceEvents"]}
need = {"detection", "annotation", "race-verification", "vuln-analysis",
        "vuln-verification", "target"}
missing = need - names
if missing:
    raise SystemExit(f"ci.sh: trace missing spans: {sorted(missing)}")
EOF

  # --timings is the span table: its per-target row is the `target` span.
  # The table is not the last output to grep, so owl_cli writes to a file
  # first (a grep -q pipe could close early and fail owl_cli on SIGPIPE).
  current_step="per-stage timing summary"
  ./build/tools/owl_cli --jobs 4 --timings --quiet "${examples[@]}" \
    > build/timings.txt
  grep -qE "^  target +count +${#examples[@]} " build/timings.txt \
    || { echo "ci.sh: timing summary missing the target row" >&2; exit 1; }
}

# Service mode under ASan+UBSan: the daemon's fault handling, drain paths,
# and journal replay are exactly where lifetime bugs would hide, so the
# whole serve_check.py battery — differential vs owl_cli, overload shed,
# SIGTERM drain, corrupt-entry eviction, kill -9 journal recovery, and the
# 1k-request soak — runs against sanitized binaries.
stage_serve() {
  if [ "${reuse_build}" = "1" ] && [ -x build-asan/tools/owl_served ] \
     && [ -x build-asan/tools/owl_cli ] \
     && [ -x build-asan/tests/owl_integration_tests ]; then
    echo "ci.sh: OWL_CI_REUSE_BUILD=1: reusing existing build-asan/ tree"
  else
    current_step="configure (ASan+UBSan serve tree)"
    cmake -B build-asan -S . ${launcher_args[@]+"${launcher_args[@]}"} \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"

    current_step="build owl_served/owl_cli/integration tests (ASan+UBSan)"
    cmake --build build-asan -j"${jobs}" \
      --target owl_served owl_cli owl_integration_tests
  fi

  current_step="run serve lifecycle tests (ASan+UBSan)"
  ./build-asan/tests/owl_integration_tests --gtest_filter='Serve*'

  current_step="serve robustness + differential gate (ASan+UBSan)"
  python3 scripts/serve_check.py \
    --served build-asan/tools/owl_served \
    --cli build-asan/tools/owl_cli \
    --examples examples/ir
}

# Repair-differential gate (DESIGN.md §13). Four promises:
#   (a) every confirmed-race example yields a *_fixed.mir whose report
#       passes the owl-repair-v1 schema with the planted strategy, and
#       race-free examples report no_races;
#   (b) re-running the full pipeline on each fixed module — --predict on,
#       --checkers all — confirms zero races and no checker
#       finding the original did not already have;
#   (c) the produced fixed modules are byte-identical to the committed
#       goldens in examples/fixed/, across jobs=1/4 and repeat runs;
#   (d) a run without --repair never mentions the stage (off-mode purity).
stage_repair() {
  current_step="collect examples (repair)"
  examples=(examples/ir/*.mir)

  current_step="repair off-mode purity"
  ./build/tools/owl_cli --jobs 1 --print-reports \
    "${examples[@]}" > build/out-repair-off.txt
  if grep -q "repair" build/out-repair-off.txt; then
    echo "ci.sh: output without --repair mentions the repair stage" >&2
    exit 1
  fi

  current_step="repair sweep (per example, schema validation)"
  rm -rf build/repair-out
  for example in "${examples[@]}"; do
    stem="$(basename "$example" .mir)"
    ./build/tools/owl_cli "$example" --jobs 1 -q \
      --repair build/repair-out > /dev/null
    [ -f "build/repair-out/${stem}_repair.json" ] \
      || { echo "ci.sh: $stem: no repair report emitted" >&2; exit 1; }
    python3 scripts/check_repair.py "build/repair-out/${stem}_repair.json"
  done

  # Planted ground truth: which examples repair, with which strategy, and
  # which are race-free. A new example must be added to exactly one list.
  current_step="repair planted ground truth"
  repaired="cv_missed_wakeup=lock_insert double_fetch=lock_insert \
    fnptr_dispatch=lock_insert guarded_publish=lock_insert \
    heap_relay=lock_insert lost_update=lock_insert \
    null_publish=lock_insert spawn_window=relocate \
    stale_handoff=lock_insert threadlocal_noise=lock_insert \
    toctou=lock_insert"
  race_free="atomicity_split double_unlock lock_cycle nested_lock_cycle \
    predicted_only"
  for spec in $repaired; do
    stem="${spec%%=*}"
    strategy="${spec##*=}"
    python3 scripts/check_repair.py "build/repair-out/${stem}_repair.json" \
      --expect status=repaired --expect "strategy=${strategy}" \
      || { echo "ci.sh: $stem did not repair via ${strategy}" >&2; exit 1; }
  done
  for stem in $race_free; do
    python3 scripts/check_repair.py "build/repair-out/${stem}_repair.json" \
      --expect status=no_races \
      || { echo "ci.sh: race-free $stem no longer reports no_races" >&2
           exit 1; }
  done
  # Candidate post-mortems: pin the killed_by elimination sequence for two
  # representative reports (a single surviving candidate joins to "").
  for stem in heap_relay spawn_window; do
    python3 scripts/check_repair.py "build/repair-out/${stem}_repair.json" \
      --expect killed_by= \
      || { echo "ci.sh: $stem candidate post-mortem diverged" >&2; exit 1; }
  done
  for example in "${examples[@]}"; do
    stem="$(basename "$example" .mir)"
    case " ${repaired} ${race_free} " in
      *" ${stem}="*|*" ${stem} "*) ;;
      *) echo "ci.sh: $stem.mir missing from the repair ground truth" >&2
         exit 1 ;;
    esac
  done

  current_step="repair golden diff (examples/fixed)"
  for golden in examples/fixed/*_fixed.mir; do
    name="$(basename "$golden")"
    diff -u "$golden" "build/repair-out/$name" \
      || { echo "ci.sh: $name diverged from the committed golden" >&2
           exit 1; }
  done
  for produced in build/repair-out/*_fixed.mir; do
    name="$(basename "$produced")"
    [ -f "examples/fixed/$name" ] \
      || { echo "ci.sh: produced $name has no committed golden" >&2
           exit 1; }
  done

  current_step="repair re-verification of fixed modules"
  for fixed in examples/fixed/*_fixed.mir; do
    stem="$(basename "$fixed" _fixed.mir)"
    ./build/tools/owl_cli "$fixed" --jobs 1 --predict on --checkers all \
      > "build/repair-verify-$stem.txt"
    grep -q "verified races:        0" "build/repair-verify-$stem.txt" \
      || { echo "ci.sh: fixed $stem still has verified races" >&2; exit 1; }
    fixed_findings="$(sed -n 's/.*checker findings: *//p' \
      "build/repair-verify-$stem.txt" | head -1)"
    ./build/tools/owl_cli "examples/ir/$stem.mir" --jobs 1 -q --checkers all \
      > "build/repair-orig-$stem.txt"
    orig_findings="$(sed -n 's/.*checker findings: *//p' \
      "build/repair-orig-$stem.txt" | head -1)"
    [ "$fixed_findings" = "$orig_findings" ] \
      || { echo "ci.sh: fixed $stem has $fixed_findings checker finding(s)," \
                "original had $orig_findings" >&2
           exit 1; }
  done

  current_step="repair jobs=1 vs jobs=4 + repeat-run byte-identity"
  rm -rf build/repair-out-j1 build/repair-out-j4 build/repair-out-repeat
  ./build/tools/owl_cli --jobs 1 --print-reports \
    --repair build/repair-out-j1 --manifest build/manifest-repair-j1.json \
    "${examples[@]}" > build/out-repair-j1.txt
  ./build/tools/owl_cli --jobs 4 --print-reports \
    --repair build/repair-out-j4 --manifest build/manifest-repair-j4.json \
    "${examples[@]}" > build/out-repair-j4.txt
  diff -u build/out-repair-j1.txt build/out-repair-j4.txt \
    || { echo "ci.sh: jobs=4 repair output diverged from jobs=1" >&2
         exit 1; }
  diff -r build/repair-out-j1 build/repair-out-j4 \
    || { echo "ci.sh: jobs=4 repair artifacts diverged from jobs=1" >&2
         exit 1; }
  python3 scripts/manifest_diff.py \
    build/manifest-repair-j1.json build/manifest-repair-j4.json \
    || { echo "ci.sh: jobs=4 repair manifest diverged from jobs=1" >&2
         exit 1; }
  ./build/tools/owl_cli --jobs 4 --print-reports \
    --repair build/repair-out-repeat \
    "${examples[@]}" > build/out-repair-repeat.txt
  diff -u build/out-repair-j4.txt build/out-repair-repeat.txt \
    || { echo "ci.sh: repeat repair run produced different output" >&2
         exit 1; }
  diff -r build/repair-out-j4 build/repair-out-repeat \
    || { echo "ci.sh: repeat repair run produced different artifacts" >&2
         exit 1; }

  current_step="repair fault degradation (repair:throw)"
  ./build/tools/owl_cli examples/ir/lost_update.mir --jobs 1 \
    --repair build/repair-out-fault --inject-fault repair:throw \
    > build/out-repair-fault.txt
  grep -q "degraded(repair:" build/out-repair-fault.txt \
    || { echo "ci.sh: repair:throw did not degrade the repair stage" >&2
         exit 1; }
}

stage_bench() {
  # Release (-O2) build of the bench tree: the optimized code paths the
  # perf numbers come from must compile warning-clean (-Werror).
  # -Wno-restrict: GCC 12's -Wrestrict fires a known false positive inside
  # libstdc++'s inlined std::string operator+ at -O2 (GCC bug 105651).
  current_step="configure (Release bench tree)"
  cmake -B build-release -S . ${launcher_args[@]+"${launcher_args[@]}"} \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-O2 -Werror -Wno-restrict"

  current_step="build bench tree (Release, warning-clean)"
  cmake --build build-release -j"${jobs}" --target micro_perf

  # Regression gate: fresh medians vs the committed baselines. The
  # threshold lives in scripts/check_bench.py (25%); OWL_BENCH_SOFT=1
  # downgrades a regression to a report (shared-runner escape hatch).
  current_step="record fresh detector benchmarks"
  ./build-release/bench/micro_perf \
    --benchmark_filter='Detector|ShadowLookup|VectorClockJoin' \
    --benchmark_repetitions=3 \
    --benchmark_out=build-release/BENCH_detector.json \
    --benchmark_out_format=json > /dev/null

  current_step="record fresh parallel benchmarks"
  ./build-release/bench/micro_perf --benchmark_filter='Parallel|RunMany' \
    --benchmark_out=build-release/BENCH_parallel.json \
    --benchmark_out_format=json > /dev/null

  current_step="record fresh static-analysis benchmarks"
  ./build-release/bench/micro_perf --benchmark_filter='Andersen|Prescreen' \
    --benchmark_repetitions=3 \
    --benchmark_out=build-release/BENCH_static.json \
    --benchmark_out_format=json > /dev/null

  current_step="record fresh value-flow benchmarks"
  ./build-release/bench/micro_perf \
    --benchmark_filter='ValueFlow|VulnFlow' \
    --benchmark_repetitions=3 \
    --benchmark_out=build-release/BENCH_valueflow.json \
    --benchmark_out_format=json > /dev/null

  current_step="record fresh predict benchmarks"
  ./build-release/bench/micro_perf --benchmark_filter='Predict' \
    --benchmark_repetitions=3 \
    --benchmark_out=build-release/BENCH_predict.json \
    --benchmark_out_format=json > /dev/null

  current_step="record fresh serve benchmarks"
  ./build-release/bench/micro_perf --benchmark_filter='ServeRoundtrip' \
    --benchmark_repetitions=3 \
    --benchmark_out=build-release/BENCH_serve.json \
    --benchmark_out_format=json > /dev/null

  current_step="benchmark regression gate (detector)"
  python3 scripts/check_bench.py \
    build-release/BENCH_detector.json bench/baselines/BENCH_detector.json

  current_step="benchmark regression gate (parallel)"
  python3 scripts/check_bench.py \
    build-release/BENCH_parallel.json bench/baselines/BENCH_parallel.json

  current_step="benchmark regression gate (static analysis)"
  python3 scripts/check_bench.py \
    build-release/BENCH_static.json bench/baselines/BENCH_static.json

  current_step="benchmark regression gate (value flow)"
  python3 scripts/check_bench.py \
    build-release/BENCH_valueflow.json bench/baselines/BENCH_valueflow.json

  current_step="benchmark regression gate (predict)"
  python3 scripts/check_bench.py \
    build-release/BENCH_predict.json bench/baselines/BENCH_predict.json

  current_step="benchmark regression gate (serve)"
  python3 scripts/check_bench.py \
    build-release/BENCH_serve.json bench/baselines/BENCH_serve.json
}

stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
  stages=(all)
fi

for stage in "${stages[@]}"; do
  case "$stage" in
    build)        run_stage build ;;
    ctest)        run_stage ctest ;;
    asan)         run_stage asan ;;
    tsan)         run_stage tsan ;;
    differential) run_stage differential ;;
    serve)        run_stage serve ;;
    repair)       run_stage repair ;;
    bench)        run_stage bench ;;
    all)
      run_stage build
      run_stage ctest
      run_stage asan
      run_stage tsan
      run_stage differential
      run_stage serve
      run_stage repair
      run_stage bench
      ;;
    *)
      echo "ci.sh: unknown stage '$stage'" >&2
      echo "usage: scripts/ci.sh [build|ctest|asan|tsan|differential|serve|repair|bench|all]" >&2
      exit 1
      ;;
  esac
done

echo "ci.sh: all requested stages passed: ${stages[*]}"
