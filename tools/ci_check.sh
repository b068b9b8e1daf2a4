#!/usr/bin/env bash
# ci_check.sh — the single correctness gate a CI workflow invokes.
#
#   1. asan preset  (address+undefined sanitizers) : build + ctest -L "unit|stress"
#   2. fault tier   (asan build)                   : ctest -L fault with
#      CFSF_FAILPOINTS exported — fault-injection paths under ASan,
#      including the WAL kill-recover harness (tests/wal_crash_test.cpp:
#      SIGKILL a forked writer at seeded points mid-append/mid-rotate
#      and prove no acked rating is ever lost) and the checkpoint
#      kill-recover harness (tests/ckpt_crash_test.cpp: SIGKILL the
#      whole ingest+fold+checkpoint+compact loop — a third of the kills
#      aimed inside CheckpointNow — and prove zero acked loss, replay
#      bounded by the checkpoint watermark, and idempotent retries
#      across the crash)
#   2b. integration (asan build)                   : ctest -L integration —
#      loopback-socket round-trips over every HTTP route of the net
#      front end, parser and drain paths under ASan
#   2c. chaos soak  (asan build)                   : cfsf_cli serve-bench
#      --smoke — the serving stack under concurrent clients, randomized
#      failpoint schedules and a mid-traffic fold publish; exits nonzero
#      unless every resilience invariant held and the circuit breaker
#      completed a full trip-and-recover round trip
#   3. tsan preset  (thread sanitizer)             : build + ctest -L "unit|stress"
#   4. tsa preset   (clang -Wthread-safety -Werror): static lock-contract
#      check over src/ — skipped with a notice when clang++ is not on PATH
#   5. clang-tidy   (advisory)                     : `tidy` target when
#      clang-tidy is on PATH, skip notice otherwise; never fails the gate
#   6. cfsf_lint                                   : self-test (with the
#      fixture corpus) + whole-repo scan — per-file rules plus the v3
#      cross-file rules (layering DAG, include cycles, metric-name and
#      failpoint registry contracts, ctest-label vocabulary) and the v4
#      call-graph rules (blocking-call-on-hot-path, lock-order-inversion,
#      ack-before-durable).  The scan also emits a --json report that
#      must pass `cfsf_cli json-check`, and the call-graph rules rerun
#      as their own timed step with a < 30 s wall-clock budget so the
#      analyzer stays fast as the tree grows.
#   7. deep analyzer (non-advisory)                : clang --analyze when
#      clang is on PATH, else GCC -fanalyzer; every finding must be
#      fixed or carry an `analyzer-<flag> <path>` entry in
#      tools/cfsf_lint_allow.txt.  cppcheck runs non-advisory too when
#      present.  Both skip with a notice when the tool is absent.
#   8. bench smoke                                 : one CI-sized sweep must
#      emit a BENCH_smoke.json that parses and carries latency percentiles,
#      the committed perfbench trajectory (BENCH_perfbench_uniform.json,
#      BENCH_perfbench_zipf.json) must parse — validity only, no timing
#      gate — plus a corrupted-bundle check: verify-model must reject a
#      bit flip with a nonzero (but clean) exit
#   9. perfbench self-test                         : bench/perfbench/run.py
#      --self-test in its own build dir (build/perfbench).  It builds
#      perfbench_loadgen, which no other tier compiles and which calls
#      into src/ (model folds, Restore, the serving stack, ckpt::Recover),
#      so an API change breaks this gate rather than the benchmark run
#
# Any sanitizer report fails the corresponding test (UBSan is built
# non-recoverable, TSan runs with halt_on_error=1), so a zero exit here
# means: no data races, no UB, no leaks, no lint violations, and a live
# observability pipeline.
#
# Usage: tools/ci_check.sh [--jobs N] [--skip-tsan] [--skip-asan]
#                          [--skip-bench] [--skip-tsa] [--skip-analyze]
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
RUN_ASAN=1
RUN_TSAN=1
RUN_BENCH=1
RUN_TSA=1
RUN_ANALYZE=1

while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) JOBS="$2"; shift 2 ;;
    --skip-tsan) RUN_TSAN=0; shift ;;
    --skip-asan) RUN_ASAN=0; shift ;;
    --skip-bench) RUN_BENCH=0; shift ;;
    --skip-tsa) RUN_TSA=0; shift ;;
    --skip-analyze) RUN_ANALYZE=0; shift ;;
    *) echo "usage: $0 [--jobs N] [--skip-tsan] [--skip-asan] [--skip-bench] [--skip-tsa] [--skip-analyze]" >&2; exit 2 ;;
  esac
done

# The same sanitizer runtime options tests/CMakeLists.txt injects through
# CFSF_SANITIZER_TEST_ENV, exported for anything run outside ctest.
export TSAN_OPTIONS="suppressions=${ROOT}/cmake/suppressions/tsan.supp halt_on_error=1 second_deadlock_stack=1"
export UBSAN_OPTIONS="suppressions=${ROOT}/cmake/suppressions/ubsan.supp print_stacktrace=1"
export ASAN_OPTIONS="strict_string_checks=1"

run_tier() {
  local preset="$1"
  echo "=== [${preset}] configure + build ==="
  cmake --preset "${preset}" -S "${ROOT}"
  cmake --build --preset "${preset}" -j "${JOBS}"
  echo "=== [${preset}] ctest -L 'unit|stress' ==="
  ctest --preset "${preset}" -j "${JOBS}"
}

if [[ "${RUN_ASAN}" -eq 1 ]]; then
  run_tier asan
  echo "=== [asan] ctest -L fault (failpoints armed, WAL + checkpoint kill-recover) ==="
  # The env spec itself is exercised too: ci.noop targets no call site,
  # proving an armed-but-unreferenced failpoint is harmless, while the
  # tests arm their own points on top through the API.
  CFSF_FAILPOINTS="ci.noop=always" \
    ctest --test-dir "${ROOT}/build/asan" -L fault --output-on-failure \
    -j "${JOBS}"
  echo "=== [asan] ctest -L integration (net loopback round-trips) ==="
  # Real-socket round-trips over all six HTTP routes (incl. durable
  # /v1/rate acks and the slow-read timeout) with ASan watching the
  # parser, the connection workers and the drain path.
  ctest --test-dir "${ROOT}/build/asan" -L integration --output-on-failure \
    -j "${JOBS}"
  echo "=== [asan] chaos-soak smoke (cfsf_cli serve-bench) ==="
  cmake --build --preset asan -j "${JOBS}" --target cfsf_cli
  "${ROOT}/build/asan/tools/cfsf_cli" serve-bench --smoke
fi
if [[ "${RUN_TSAN}" -eq 1 ]]; then run_tier tsan; fi

if [[ "${RUN_TSA}" -eq 1 ]]; then
  echo "=== [tsa] clang thread-safety analysis ==="
  if command -v clang++ >/dev/null 2>&1; then
    # Build (not just configure): -Wthread-safety diagnostics surface at
    # compile time, and CFSF_WERROR=ON makes each one a build break.
    cmake --preset tsa -S "${ROOT}"
    cmake --build --preset tsa -j "${JOBS}"
    echo "=== [tsa] ctest -L lint (negative-compile proof) ==="
    ctest --test-dir "${ROOT}/build/tsa" -L lint -R tsa_negative_compile \
      --output-on-failure
  else
    echo "ci_check: clang++ not on PATH; skipping the thread-safety tier" \
         "(annotations still compile as no-ops under this toolchain)"
  fi
fi

echo "=== clang-tidy (advisory) ==="
if command -v clang-tidy >/dev/null 2>&1; then
  # Advisory only: surface the report, never fail the gate on it.  The
  # `tidy` target needs a configured build dir with compile commands.
  TIDY_DIR=""
  for d in "${ROOT}/build/release" "${ROOT}/build/asan" "${ROOT}/build/tsan"; do
    if [[ -f "${d}/compile_commands.json" ]]; then TIDY_DIR="${d}"; break; fi
  done
  if [[ -z "${TIDY_DIR}" ]]; then
    cmake --preset release -S "${ROOT}"
    TIDY_DIR="${ROOT}/build/release"
  fi
  if cmake --build "${TIDY_DIR}" --target tidy; then
    echo "ci_check: clang-tidy clean"
  else
    echo "ci_check: clang-tidy reported findings (advisory — not failing the gate)"
  fi
else
  echo "ci_check: clang-tidy not on PATH; skipping the advisory tidy step"
fi

echo "=== cfsf_lint ==="
# Either sanitizer build dir carries the linter; fall back to building one.
LINT_BIN=""
for d in "${ROOT}/build/asan" "${ROOT}/build/tsan" "${ROOT}/build/release" "${ROOT}/build"; do
  if [[ -x "${d}/tools/cfsf_lint" ]]; then LINT_BIN="${d}/tools/cfsf_lint"; break; fi
done
if [[ -z "${LINT_BIN}" ]]; then
  cmake --preset release -S "${ROOT}"
  cmake --build --preset release -j "${JOBS}" --target cfsf_lint
  LINT_BIN="${ROOT}/build/release/tools/cfsf_lint"
fi
"${LINT_BIN}" --self-test --fixtures "${ROOT}/tools/lint_fixtures"
"${LINT_BIN}" --allowlist "${ROOT}/tools/cfsf_lint_allow.txt" \
  --repo-root "${ROOT}" \
  "${ROOT}/src" "${ROOT}/bench" "${ROOT}/examples" "${ROOT}/tests" \
  "${ROOT}/tools"

echo "=== cfsf_lint --json report ==="
# The machine-readable report a CI workflow archives: per-rule counts and
# findings with call chains.  It must be valid JSON by our own validator.
CLI_BIN=""
for d in "${ROOT}/build/asan" "${ROOT}/build/tsan" "${ROOT}/build/release" "${ROOT}/build"; do
  if [[ -x "${d}/tools/cfsf_cli" ]]; then CLI_BIN="${d}/tools/cfsf_cli"; break; fi
done
if [[ -z "${CLI_BIN}" ]]; then
  cmake --preset release -S "${ROOT}"
  cmake --build --preset release -j "${JOBS}" --target cfsf_cli
  CLI_BIN="${ROOT}/build/release/tools/cfsf_cli"
fi
LINT_REPORT="$(mktemp)"
"${LINT_BIN}" --json --allowlist "${ROOT}/tools/cfsf_lint_allow.txt" \
  --repo-root "${ROOT}" \
  "${ROOT}/src" "${ROOT}/bench" "${ROOT}/examples" "${ROOT}/tests" \
  "${ROOT}/tools" > "${LINT_REPORT}"
"${CLI_BIN}" json-check --file="${LINT_REPORT}"
rm -f "${LINT_REPORT}"

echo "=== cfsf_lint call-graph rules (timed, budget 30 s) ==="
# The interprocedural rules walk a whole-repo call graph; assert they
# stay inside their wall-clock budget so the gate keeps scaling.
CG_START="${SECONDS}"
"${LINT_BIN}" \
  --rules blocking-call-on-hot-path,lock-order-inversion,ack-before-durable \
  --allowlist "${ROOT}/tools/cfsf_lint_allow.txt" \
  --repo-root "${ROOT}" "${ROOT}/src"
CG_ELAPSED=$((SECONDS - CG_START))
echo "ci_check: call-graph scan took ${CG_ELAPSED} s"
if [[ "${CG_ELAPSED}" -ge 30 ]]; then
  echo "ci_check: call-graph scan blew its 30 s budget (${CG_ELAPSED} s)" >&2
  exit 1
fi

if [[ "${RUN_ANALYZE}" -eq 1 ]]; then
  echo "=== deep analyzer (non-advisory) ==="
  # Static path analysis over every src/ TU.  clang's analyzer when
  # available, GCC's -fanalyzer otherwise (-fanalyzer needs codegen: it
  # runs after gimplification, so -c to /dev/null, NOT -fsyntax-only).
  # Every finding must be fixed or excused by an `analyzer-<flag> <path>`
  # line in tools/cfsf_lint_allow.txt — same file, same format, same
  # review pressure as the lint allowlist.  Diagnostics GCC anchors at
  # the pseudo-location `cc1plus:` (traces that end inside libstdc++)
  # are attributed to the TU being compiled so every allowlist entry
  # names a real repo file.
  ALLOW="${ROOT}/tools/cfsf_lint_allow.txt"
  ANALYZE_RAW="$(mktemp)"
  ANALYZE_PAIRS="$(mktemp)"
  if command -v clang++ >/dev/null 2>&1; then
    echo "ci_check: analyzer = clang --analyze"
    while IFS= read -r tu; do
      clang++ --analyze --analyzer-output text -std=c++20 \
        "-I${ROOT}/src" "$tu" -o /dev/null 2>"${ANALYZE_RAW}" || true
      # clang tags findings `[checker.Name]`; rule id = analyzer-<tag>.
      # `grep || true`: a clean TU (no findings) must not trip pipefail.
      grep -E 'warning:.*\[[A-Za-z][A-Za-z0-9.]*\]$' "${ANALYZE_RAW}" |
        while IFS= read -r line; do
          loc="${line%%:*}"; tag="${line##*\[}"; tag="${tag%\]}"
          rel="${loc#"${ROOT}"/}"
          [[ -f "${ROOT}/${rel}" ]] || rel="${tu#"${ROOT}"/}"
          echo "${rel} analyzer-${tag}"
        done >> "${ANALYZE_PAIRS}" || true
    done < <(find "${ROOT}/src" -name '*.cpp' | sort)
  else
    echo "ci_check: clang++ not on PATH; analyzer = g++ -fanalyzer"
    while IFS= read -r tu; do
      g++ -std=c++20 -O1 "-I${ROOT}/src" -fanalyzer -c "$tu" \
        -o /dev/null 2>"${ANALYZE_RAW}" || true
      # `grep || true`: a clean TU (no findings) must not trip pipefail.
      grep -E 'warning:.*\[-Wanalyzer-[a-z-]+\]' "${ANALYZE_RAW}" |
        while IFS= read -r line; do
          loc="${line%%:*}"
          flag="$(sed -E 's/.*\[-W(analyzer-[a-z-]+)\].*/\1/' <<< "$line")"
          rel="${loc#"${ROOT}"/}"
          [[ -f "${ROOT}/${rel}" ]] || rel="${tu#"${ROOT}"/}"
          echo "${rel} ${flag}"
        done >> "${ANALYZE_PAIRS}" || true
    done < <(find "${ROOT}/src" -name '*.cpp' | sort)
  fi
  ANALYZE_FAIL=0
  TOTAL=0
  UNALLOWED=0
  while read -r count rel rule; do
    [[ -z "${rel:-}" ]] && continue
    TOTAL=$((TOTAL + count))
    allowed=0
    while read -r arule asub _; do
      if [[ "${arule}" == "${rule}" && "${rel}" == *"${asub}"* ]]; then
        allowed=1; break
      fi
    done < <(grep -E '^analyzer-' "${ALLOW}" || true)
    if [[ "${allowed}" -eq 0 ]]; then
      echo "ci_check: unallowed analyzer finding: ${rel} [${rule}] (x${count})" >&2
      UNALLOWED=$((UNALLOWED + count))
      ANALYZE_FAIL=1
    fi
  done < <(sort "${ANALYZE_PAIRS}" | uniq -c | awk '{print $1, $2, $3}')
  rm -f "${ANALYZE_RAW}" "${ANALYZE_PAIRS}"
  echo "ci_check: deep analyzer: ${TOTAL} finding(s), ${UNALLOWED} unallowed"
  if [[ "${ANALYZE_FAIL}" -eq 1 ]]; then
    echo "ci_check: fix the finding or add \`analyzer-<flag> <path>\` to" \
         "tools/cfsf_lint_allow.txt with a justification" >&2
    exit 1
  fi

  echo "=== cppcheck (non-advisory) ==="
  if command -v cppcheck >/dev/null 2>&1; then
    cppcheck --enable=warning,performance,portability --inline-suppr \
      --error-exitcode=1 --quiet --suppress=missingIncludeSystem \
      "-I${ROOT}/src" "${ROOT}/src"
    echo "ci_check: cppcheck clean"
  else
    echo "ci_check: cppcheck not on PATH; skipping (non-advisory when present)"
  fi
fi

if [[ "${RUN_BENCH}" -eq 1 ]]; then
  echo "=== bench smoke (BENCH_smoke.json) ==="
  cmake --preset release -S "${ROOT}"
  cmake --build --preset release -j "${JOBS}" --target fig2_sweep_m cfsf_cli
  SMOKE_JSON="${ROOT}/build/release/BENCH_smoke.json"
  "${ROOT}/build/release/bench/fig2_sweep_m" --smoke --json="${SMOKE_JSON}" \
    > /dev/null
  "${ROOT}/build/release/tools/cfsf_cli" json-check --file="${SMOKE_JSON}"
  # The report must carry the online latency percentiles the smoke run
  # just produced (histogram snapshot, not just the table).
  grep -q '"p95"' "${SMOKE_JSON}" || {
    echo "ci_check: BENCH_smoke.json lacks latency percentiles" >&2; exit 1;
  }

  echo "=== committed perfbench trajectory (BENCH_perfbench_*.json) ==="
  # Validity only: each entry is an A/B measured on one host, whose speed
  # drifts ~30 % within an hour, so no timing is compared here.
  for TRAJECTORY in "${ROOT}/BENCH_perfbench_uniform.json" \
                    "${ROOT}/BENCH_perfbench_zipf.json"; do
    "${ROOT}/build/release/tools/cfsf_cli" json-check --file="${TRAJECTORY}"
  done

  echo "=== corrupted-bundle check (verify-model) ==="
  CLI="${ROOT}/build/release/tools/cfsf_cli"
  BUNDLE_DIR="$(mktemp -d)"
  trap 'rm -rf "${BUNDLE_DIR}"' EXIT
  "${CLI}" generate --users=60 --items=90 --out="${BUNDLE_DIR}/u.data" \
    > /dev/null
  "${CLI}" fit --data="${BUNDLE_DIR}/u.data" --model="${BUNDLE_DIR}/m.bin" \
    --clusters=5 --m=15 --k=5 > /dev/null
  "${CLI}" verify-model --model="${BUNDLE_DIR}/m.bin"
  # Flip one byte well inside the payload; verify-model must reject it
  # with a clean nonzero exit (an IoError naming the section, not a crash).
  printf '\xff' | dd of="${BUNDLE_DIR}/m.bin" bs=1 seek=120 count=1 \
    conv=notrunc status=none
  if "${CLI}" verify-model --model="${BUNDLE_DIR}/m.bin" 2>/dev/null; then
    echo "ci_check: verify-model accepted a corrupted bundle" >&2; exit 1
  fi

  echo "=== perfbench self-test (build/perfbench) ==="
  CARGO_TARGET_DIR="${ROOT}/build/perfbench" \
    python3 "${ROOT}/bench/perfbench/run.py" --self-test
fi

echo "ci_check: all tiers passed"
