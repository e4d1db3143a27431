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
# Release also reruns three bench binaries at smoke scale and compares each
# file with its committed baseline (tools/mpl_report, DESIGN.md §12). No
# compare reads time, only verdicts that repeat exactly from run to run;
# wall time is judged by tools/perf_ab.py. What each compare checks:
#   all: rows missing from the run, leaked pins, same-scale checksums;
#   T1, and T1 with the span ledger armed (--gate-residency
#        --gate-counters): also max residency and pinned bytes, and em
#        counters at one worker (a row that starts pinning fails), so
#        arming the ledger must move neither;
#   T3 (--gate-counters): also continuation capture/resume and pml.jit.*
#        counters; bench_table_pml itself fails a jit cell that tiered
#        nothing;
#   T4:  nothing more, since its two-worker counters vary run to run.
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

# Bench-gate knobs: the smoke scale must stay the baselines' 0.05, since
# checksums compare only between files of equal scale.
PERF_SCALE=${PERF_SCALE:-0.05}
PERF_REPS=${PERF_REPS:-2}

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
# once the client is done (mpl_hh_heaps 0: each run frees its heaps), a
# reconnect storm (two rounds of 25 `mpl_client -n 4 -conns 4` runs) that
# grows the server's VmData by at most 64 MiB over its second round, the
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
  # Reconnect storm: two rounds of 25 short four-connection clients under
  # the same chaos. A finished connection leaves nothing behind, so the
  # second round may grow the server's VmData by at most 64 MiB (a kept
  # thread stack or trace ring per connection grows it ~800 MiB). VmData,
  # not VmSize: a new malloc arena reserves 64 MiB of PROT_NONE space in
  # one step whenever more threads than ever before overlap. Its requests
  # carry 1 ms deadlines, so they stop early and the busiest worker's
  # trace ring still holds the whole smoke.
  storm_round() {
    local r
    for r in $(seq 1 25); do
      ASAN_OPTIONS="detect_leaks=0" \
      TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
        "$bdir/tools/mpl_client" -port "$srv_port" -n 4 -conns 4 \
        -deadline-ms 1 -seed "$r" > /dev/null
    done
  }
  vm_data_kb() { awk '/^VmData:/ { print $2 }' "/proc/$srv_pid/status"; }
  storm_round
  local vm_before vm_after
  vm_before=$(vm_data_kb)
  storm_round
  vm_after=$(vm_data_kb)
  echo "reconnect storm: server VmData ${vm_before} -> ${vm_after} KiB"
  (( vm_after - vm_before <= 64 * 1024 ))
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
    echo "==== [$preset] bench gate: T1 residency + counters (scale $PERF_SCALE) ===="
    # Release only: the sanitizer presets run the bench binaries many
    # times slower. The fresh JSONs and rendered reports are left in the
    # build dir for CI to upload as artifacts.
    "$bdir/bench/bench_table_time" -scale "$PERF_SCALE" -reps "$PERF_REPS" \
      -json "$bdir/perf_smoke.json" > "$bdir/perf_smoke.txt"
    "$bdir/tools/mpl_report" "$bdir/perf_smoke.json"
    "$bdir/tools/mpl_report" --baseline BENCH_T1.json \
      --current "$bdir/perf_smoke.json" --gate-residency --gate-counters

    echo "==== [$preset] bench gate: spans-armed T1 ===="
    MPL_OBS=spans "$bdir/bench/bench_table_time" -scale "$PERF_SCALE" \
      -reps "$PERF_REPS" -json "$bdir/spans_armed.json" \
      > "$bdir/spans_armed.txt"
    "$bdir/tools/mpl_report" --baseline BENCH_T1.json \
      --current "$bdir/spans_armed.json" --gate-residency --gate-counters

    echo "==== [$preset] bench gate: pml carrier (BENCH_T3) ===="
    "$bdir/bench/bench_table_pml" -reps "$PERF_REPS" \
      -json "$bdir/pml_smoke.json" > "$bdir/pml_smoke.txt"
    "$bdir/tools/mpl_report" --baseline BENCH_T3.json \
      --current "$bdir/pml_smoke.json" --gate-counters

    echo "==== [$preset] bench gate: entangle (BENCH_T4) ===="
    "$bdir/bench/bench_table_entangle" -scale "$PERF_SCALE" \
      -json "$bdir/entangle_smoke.json" > "$bdir/entangle_smoke.txt"
    "$bdir/tools/mpl_report" --baseline BENCH_T4.json \
      --current "$bdir/entangle_smoke.json"
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
