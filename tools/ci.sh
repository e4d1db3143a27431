#!/usr/bin/env bash
#===- tools/ci.sh - Build + test all configs the way CI does --------------===#
#
# Part of mpl-em (PLDI 2023 reproduction).
#
# Builds the Release, ThreadSanitizer and AddressSanitizer configurations
# (CMakePresets.json) and runs the tier-1 tests plus the schedule-fuzz
# suite with the fixed seed corpus in each. Any fuzz failure prints a
# MPL_CHAOS_SEED line; see DESIGN.md §8 for how to replay it locally.
# The sanitizer configs additionally rerun the stress and fuzz suites
# under a tight MPL_MEM_LIMIT_MB with chunk-allocation faults injected
# (DESIGN.md §10): the memory-pressure governor must degrade gracefully,
# never abort. This script is the whole CI: .github/workflows/ci.yml runs
# it once per preset and only installs dependencies and uploads the
# artifacts it leaves in build-<preset>/.
#
# Usage:
#   tools/ci.sh                # all three configs
#   tools/ci.sh release        # one config: release | tsan | asan
#
#===----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

# Seed-corpus size per config. TSan is the config the fuzz suite exists
# for, so it gets the big corpus; the others keep CI time reasonable.
RELEASE_SEEDS=${RELEASE_SEEDS:-25}
TSAN_SEEDS=${TSAN_SEEDS:-50}
ASAN_SEEDS=${ASAN_SEEDS:-25}

# Perf-smoke knobs. The stage reruns three bench binaries at smoke scale
# and gates each file against its committed baseline with tools/mpl_report
# (DESIGN.md §12): checksum mismatches and leaked pins always fail.
#   T1 (time, space and counters, one file): median beyond baseline +
#                  max(k*sigma, floor%), sigma recomputed from the
#                  baseline's per-rep times; max residency / pinned
#                  bytes past tolerance (T2 is printed from T1's runs);
#                  and em counters past tolerance (--gate-counters; its
#                  64-event / 16 KiB slack fails a disentangled row that
#                  starts pinning). The par-w1 rows carry the entangled
#                  kernels' counters at one worker, where they do not
#                  depend on the schedule. One compare judges all three,
#                  so a run whose time rule fails still reports the rest;
#   T3 (pml):      VM carrier checksums + effect-handler continuation
#                  capture/resume + pml.jit.* counters past tolerance;
#                  the interp-vs-jit ablation's jit rows additionally get
#                  the T1 time rule (--time-gate-config pml-jit) — the
#                  JIT's speedup over the interpreter is a gated artifact;
#   T4 (entangle): the always-fatal checks only. Its rows run at two
#                  workers, where counters such as channel's
#                  em.pins.holder vary run to run, so T1's one-worker
#                  rows gate the em counters instead.
# T4 runs single-rep (no spread), so its time rule is off
# (--no-time-gate); wall time is T1's and the jit rows' job.
PERF_SCALE=${PERF_SCALE:-0.05}
PERF_REPS=${PERF_REPS:-2}
PERF_STDDEV_K=${PERF_STDDEV_K:-2}
PERF_TOLERANCE_PCT=${PERF_TOLERANCE_PCT:-25}
# The T3 jit rows get a wider floor: per-process timing on the VM ablation
# swings 20-30% in noisy containers (address-layout-sensitive), while the
# regression the rule exists to catch — losing the JIT's 1.5-1.7x speedup
# on sum-3m/primes-200k — shows as +60-70%. Total JIT loss is caught
# deterministically inside bench_table_pml (it asserts every jit cell
# tiered at least one function).
PERF_JIT_TOLERANCE_PCT=${PERF_JIT_TOLERANCE_PCT:-50}

# Memory-pressure stage knobs (see DESIGN.md §10). The stress/fuzz live
# peak is ~8 MiB, so a 16 MiB hard limit leaves emergency collection real
# headroom while SoftFrac 0.5 puts the soft watermark right at the peak —
# the pressure ladder and budget scaling actually engage. Every 5th chunk
# acquisition is made to fail (chaos::Fault::FailChunkAlloc), forcing the
# trim -> emergency-GC -> backoff recovery ladder on hot paths.
PRESSURE_LIMIT_MB=${PRESSURE_LIMIT_MB:-16}
PRESSURE_SOFT_FRAC=${PRESSURE_SOFT_FRAC:-0.5}
PRESSURE_CACHE_MB=${PRESSURE_CACHE_MB:-4}
PRESSURE_FAULT_EVERY_N=${PRESSURE_FAULT_EVERY_N:-5}
PRESSURE_SEEDS=${PRESSURE_SEEDS:-10}

# Server-smoke knobs (DESIGN.md §15). The request server runs under the
# same memory limit and alloc-fault cadence as the pressure stage, plus
# seeded wire chaos (drops, truncations, slow reads); mpl_client drives a
# mixed workload through the retry/backoff path, then SIGTERM drains the
# server. Pass criteria: server exits 0 (clean drain, leaked pins == 0),
# zero protocol errors, every shed structured, a mid-load stats frame
# answered in both JSON and checker-clean Prometheus form, no heap left
# once the client is done (mpl_hh_heaps 0: each run frees its heaps), the
# trace's net.request_flow enqueue/execute pairs balanced, and the request
# counters balanced (requests == ok+shed+deadline+error+draining).
SERVER_SMOKE_SEED=${SERVER_SMOKE_SEED:-7}
SERVER_SMOKE_REQS=${SERVER_SMOKE_REQS:-120}
SERVER_SMOKE_WIRE_PERMILLE=${SERVER_SMOKE_WIRE_PERMILLE:-30}

# Runs "$@" up to five times, 0.2 s apart, until it succeeds. Wire chaos
# can hit a scrape connection too, so a scraper retries.
retry5() {
  local i
  for i in 1 2 3 4 5; do
    "$@" && return 0
    sleep 0.2
  done
  return 1
}

# One stats frame from the smoke's server; "$@" are extra mpl_top flags.
# Reads $bdir and $srv_port from server_smoke via bash dynamic scoping.
top_once() {
  ASAN_OPTIONS="detect_leaks=0" \
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    "$bdir/tools/mpl_top" -port "$srv_port" -once "$@"
}

# One full server-smoke pass with the criteria above. $1 tags the artifact
# files ("" or "_jit"), $2 is the MPL_JIT value the server runs under (the
# jit variant tiers hot request bodies at threshold 1). Reads $preset and
# $bdir from the calling run_config via bash dynamic scoping.
server_smoke() {
  local tag=$1 jit=$2
  local srv_log="$bdir/server_smoke$tag.log" obs_dir="$bdir/server_obs$tag"
  rm -rf "$obs_dir"
  ASAN_OPTIONS="detect_leaks=0" \
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  MPL_MEM_LIMIT_MB=$PRESSURE_LIMIT_MB \
  MPL_MEM_SOFT_FRAC=$PRESSURE_SOFT_FRAC \
  MPL_JIT="$jit" MPL_JIT_THRESHOLD=1 \
  MPL_OBS=trace MPL_OBS_DIR="$obs_dir" \
    "$bdir/tools/mpl_server" -port 0 -workers 2 -queue-cap 16 \
    -chaos-seed "$SERVER_SMOKE_SEED" \
    -wire-permille "$SERVER_SMOKE_WIRE_PERMILLE" \
    -fault-every-n "$PRESSURE_FAULT_EVERY_N" > "$srv_log" 2>&1 &
  local srv_pid=$!
  local i
  for i in $(seq 1 100); do
    grep -q 'port=' "$srv_log" 2>/dev/null && break
    sleep 0.1
  done
  local srv_port
  srv_port=$(grep -o 'port=[0-9]*' "$srv_log" | head -1 | cut -d= -f2)
  ASAN_OPTIONS="detect_leaks=0" \
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    "$bdir/tools/mpl_client" -port "$srv_port" -n "$SERVER_SMOKE_REQS" \
    -conns 4 -deadline-ms 5000 -seed "$SERVER_SMOKE_SEED" \
    > "$bdir/server_client$tag.json" &
  local client_pid=$!
  # Mid-load introspection (DESIGN.md §16): a stats frame must answer
  # while the client hammers the server, and its Prometheus form must
  # pass the format checker (no duplicate series, monotone le buckets,
  # non-negative counters).
  sleep 0.3
  scrape_stats() {
    top_once -format prom -check > "$bdir/server_stats$tag.prom" &&
      top_once > "$bdir/server_stats$tag.json"
  }
  retry5 scrape_stats
  # One gauge from each layer that registers them must reach the wire.
  local gauge
  for gauge in mpl_net_queue_depth mpl_sched_deque_w0 mpl_hh_heaps \
      mpl_mm_pressure mpl_em_live_pinned_bytes mpl_obs_trace_dropped; do
    grep -q "^# TYPE $gauge gauge\$" "$bdir/server_stats$tag.prom"
  done
  grep -q '"mpl-stats/1"' "$bdir/server_stats$tag.json"
  grep -q '"stage"' "$bdir/server_stats$tag.json"
  # The JSON frame names counters and gauges as the registry does.
  grep -q '"em.reads.entangled"' "$bdir/server_stats$tag.json"
  grep -q '"mm.outstanding.bytes"' "$bdir/server_stats$tag.json"
  wait "$client_pid"
  cat "$bdir/server_client$tag.json"
  # Idle server, no heaps: every run freed its heaps when it ended.
  idle_heaps() {
    top_once -format prom > "$bdir/server_idle$tag.prom" &&
      grep -q '^mpl_hh_heaps 0$' "$bdir/server_idle$tag.prom"
  }
  retry5 idle_heaps
  kill -TERM "$srv_pid"
  wait "$srv_pid" # exit 0 iff clean drain and leaked pins == 0
  cat "$srv_log"
  grep -q '"leaked_pins":0' "$srv_log"
  grep -q '"net.protocol.errors":0' "$srv_log"
  # The client must have gotten real work through the chaos.
  local ok_count
  ok_count=$(sed -n 's/.*"ok":\([0-9]*\).*/\1/p' "$bdir/server_client$tag.json")
  [[ "$ok_count" -gt 0 ]]
  # Interleaved net.* events must validate, with every request_flow id
  # carrying both its enqueue ('s') and execute ('f') half, and the
  # request-counter balance (requests == ok+shed+deadline+error+draining,
  # stats frames excluded) must hold in the trace's counters block.
  "$bdir/tools/mpl_report" trace "$obs_dir/trace.json" \
    --require-event net.accept --require-event net.request_flow \
    --check-flow-pairs --check-net-balance
}

run_config() {
  local preset=$1 seeds=$2
  echo "==== [$preset] configure + build ===="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"

  echo "==== [$preset] tier-1 tests ===="
  ctest --preset "$preset" -j "$(nproc)" -E '^fuzz_sched_test$'

  echo "==== [$preset] schedule-fuzz, $seeds seeds ===="
  MPL_FUZZ_SEEDS=$seeds ctest --preset "$preset" -R '^fuzz_sched_test$'

  if [[ "$preset" == "tsan" ]]; then
    echo "==== [$preset] jit auto-disable assert ===="
    # Generated code is uninstrumented, so MPL_JIT=1 must be refused with
    # the one-line notice and the program must still run, interpreted.
    # jit_runtime_test asserts the same from C++ (tier-1 above); this
    # checks a production entry point's env-knob path end to end.
    TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    MPL_JIT=1 MPL_JIT_THRESHOLD=1 \
      "build-$preset/examples/pml_repl" -e \
      $'fun f n = if n < 1 then 0 else f (n - 1)\nf 100' \
      > /dev/null 2> "build-$preset/jit_notice.log"
    grep -q 'pml jit disabled under ThreadSanitizer' \
      "build-$preset/jit_notice.log"
  else
    echo "==== [$preset] jit differential plane (MPL_JIT=1, threshold 1) ===="
    # The differential suite already ran in tier-1 through its programmatic
    # gates; this rerun arms the env knobs instead, so the getenv path that
    # production entry points use is what feeds the interp-vs-JIT oracle.
    # The suite sweeps all three barrier modes (off/detect/manage) itself.
    ASAN_OPTIONS="detect_leaks=0" \
    MPL_JIT=1 MPL_JIT_THRESHOLD=1 \
      "build-$preset/tests/jit_diff_test"
  fi

  if [[ "$preset" == "tsan" || "$preset" == "asan" ]]; then
    echo "==== [$preset] memory-pressure stress (limit ${PRESSURE_LIMIT_MB}MB, fault 1/${PRESSURE_FAULT_EVERY_N}) ===="
    # Whole stress + fuzz suites under a tight memory budget with chunk
    # allocations failing on a fixed cadence: every test must pass
    # unchanged, proving the governor degrades and recovers instead of
    # aborting, with the sanitizer watching the recovery paths.
    # Same sanitizer env the ctest presets use (the per-thread TLS
    # allocations are intentional leaks; see src/chaos/ChaosSchedule.cpp).
    ASAN_OPTIONS="detect_leaks=0" \
    TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    MPL_MEM_LIMIT_MB=$PRESSURE_LIMIT_MB \
    MPL_MEM_SOFT_FRAC=$PRESSURE_SOFT_FRAC \
    MPL_CHUNK_CACHE_MB=$PRESSURE_CACHE_MB \
    MPL_CHAOS_FAULT_EVERY_N=$PRESSURE_FAULT_EVERY_N \
      "build-$preset/tests/stress_test"
    ASAN_OPTIONS="detect_leaks=0" \
    TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    MPL_MEM_LIMIT_MB=$PRESSURE_LIMIT_MB \
    MPL_MEM_SOFT_FRAC=$PRESSURE_SOFT_FRAC \
    MPL_CHUNK_CACHE_MB=$PRESSURE_CACHE_MB \
    MPL_CHAOS_FAULT_EVERY_N=$PRESSURE_FAULT_EVERY_N \
    MPL_FUZZ_SEEDS=$PRESSURE_SEEDS \
      "build-$preset/tests/fuzz_sched_test"
  fi

  echo "==== [$preset] trace smoke ===="
  # Run a real workload with the tracer armed and validate the exported
  # Chrome trace (Perfetto-loadable, B/E balanced, expected event kinds,
  # the metrics series as numeric "em" counter events).
  local bdir="build-$preset"
  rm -rf "$bdir/trace_smoke"
  ASAN_OPTIONS="detect_leaks=0" \
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  MPL_OBS=trace MPL_OBS_DIR="$bdir/trace_smoke" \
    "$bdir/examples/quickstart" > /dev/null
  "$bdir/tools/mpl_report" trace "$bdir/trace_smoke/trace.json" \
    --require-event fork --require-event heap_join \
    --require-event pin --require-event gc --require-event em

  echo "==== [$preset] server smoke (wire chaos + 1/${PRESSURE_FAULT_EVERY_N} alloc faults + ${PRESSURE_LIMIT_MB}MB limit) ===="
  server_smoke "" 0
  if [[ "$preset" != "tsan" ]]; then
    echo "==== [$preset] server smoke, MPL_JIT=1 variant ===="
    # Same chaos, same pass criteria, with the pml evaluator tiering hot
    # request bodies to native code at threshold 1: the JIT must hold the
    # leaked_pins==0 / protocol-clean invariants under wire + alloc chaos
    # and admission-control load. tsan skips the variant — the knob
    # auto-disables there (asserted by the jit stage above), so the run
    # would be byte-identical to the plain one.
    server_smoke "_jit" 1
  fi

  echo "==== [$preset] span smoke ===="
  # Run a pml workload with the causal span ledger armed and validate the
  # DAG the trace carries: its task slices and fork-edge flow pairs must
  # check, the ledger's critical path must agree with the scheduler's
  # online span S to within 5% (the consistency oracle, DESIGN.md §14),
  # and the entangled read must attribute to a source line.
  rm -rf "$bdir/spans_smoke"
  ASAN_OPTIONS="detect_leaks=0" \
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  MPL_OBS=spans MPL_OBS_DIR="$bdir/spans_smoke" \
    "$bdir/examples/pml_repl" -workers 2 -e \
    'let val r = ref (ref 0) in par ((r := ref 7; 0), !(!r)) end' > /dev/null
  "$bdir/tools/mpl_report" trace "$bdir/spans_smoke/trace.json" \
    --require-event task --check-flow-pairs
  "$bdir/tools/mpl_report" spans critical-path \
    "$bdir/spans_smoke/trace.json" --check-agreement 5
  "$bdir/tools/mpl_report" spans top-lines "$bdir/spans_smoke/trace.json"

  if [[ "$preset" == "release" ]]; then
    echo "==== [$preset] perf smoke: T1 time + residency + counters (scale $PERF_SCALE, k=$PERF_STDDEV_K floor ${PERF_TOLERANCE_PCT}%) ===="
    # Sanitizer presets skew times beyond any tolerance, so only release
    # runs the gates. The fresh JSONs and rendered reports are left in
    # the build dir for CI to upload as artifacts.
    "$bdir/bench/bench_table_time" -scale "$PERF_SCALE" -reps "$PERF_REPS" \
      -json "$bdir/perf_smoke.json" > "$bdir/perf_smoke.txt"
    "$bdir/tools/mpl_report" "$bdir/perf_smoke.json"
    "$bdir/tools/mpl_report" --baseline BENCH_T1.json \
      --current "$bdir/perf_smoke.json" \
      --stddev-k "$PERF_STDDEV_K" --floor-pct "$PERF_TOLERANCE_PCT" \
      --gate-residency --gate-counters

    echo "==== [$preset] spans-on overhead gate ===="
    # Same T1 table with the span ledger armed for every run (MPL_OBS=spans):
    # the per-task ledger bookkeeping must stay inside the same stddev
    # envelope as an unchanged build, bounding the ledger's overhead.
    MPL_OBS=spans "$bdir/bench/bench_table_time" -scale "$PERF_SCALE" \
      -reps "$PERF_REPS" -json "$bdir/spans_overhead.json" \
      > "$bdir/spans_overhead.txt"
    "$bdir/tools/mpl_report" --baseline BENCH_T1.json \
      --current "$bdir/spans_overhead.json" \
      --stddev-k "$PERF_STDDEV_K" --floor-pct "$PERF_TOLERANCE_PCT"

    echo "==== [$preset] pml carrier gate (BENCH_T3, jit rows time-gated) ===="
    # The effects row's continuation capture/resume counts are a pure
    # function of the program, so the counter gate pins them exactly
    # (upward only); checksums catch VM miscompiles at any scale. The
    # interp-vs-jit ablation rows carry per-rep times, and the jit rows
    # are held to the stddev-aware time rule (--time-gate-config pml-jit)
    # at the wider PERF_JIT_TOLERANCE_PCT floor: losing the JIT's speedup
    # is a regression even when checksums agree.
    "$bdir/bench/bench_table_pml" -reps "$PERF_REPS" \
      -json "$bdir/pml_smoke.json" > "$bdir/pml_smoke.txt"
    "$bdir/tools/mpl_report" --baseline BENCH_T3.json \
      --current "$bdir/pml_smoke.json" \
      --no-time-gate --gate-counters --time-gate-config pml-jit \
      --stddev-k "$PERF_STDDEV_K" --floor-pct "$PERF_JIT_TOLERANCE_PCT"

    echo "==== [$preset] entangle gate (BENCH_T4) ===="
    "$bdir/bench/bench_table_entangle" -scale "$PERF_SCALE" \
      -json "$bdir/entangle_smoke.json" > "$bdir/entangle_smoke.txt"
    "$bdir/tools/mpl_report" --baseline BENCH_T4.json \
      --current "$bdir/entangle_smoke.json" --no-time-gate
  fi
}

case "${1:-all}" in
release) run_config release "$RELEASE_SEEDS" ;;
tsan) run_config tsan "$TSAN_SEEDS" ;;
asan) run_config asan "$ASAN_SEEDS" ;;
all)
  run_config release "$RELEASE_SEEDS"
  run_config tsan "$TSAN_SEEDS"
  run_config asan "$ASAN_SEEDS"
  ;;
*)
  echo "usage: $0 [release|tsan|asan|all]" >&2
  exit 2
  ;;
esac

echo "==== all requested configs passed ===="
