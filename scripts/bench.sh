#!/usr/bin/env bash
# Measure performance and refresh the committed baselines.
#
# Five suites, each run at full methodology (200 ms warmup, 11 samples,
# median-of-N — see crates/bench/src/harness.rs):
#
# * decode — the Viterbi hot path. Runs its three gates against the
#   fresh report at the paper-fidelity workload (cell 2.5 mm, beam
#   2500, 100 steps) and prints each result; only if all pass does it
#   copy the report to BENCH_decode.json:
#   - the headline fast-kernel-vs-reference speedup floor
#     (decode/opt vs decode/ref, default 8×: f32 tables + adaptive
#     beam compound well past the old exact-path floor of 3×);
#   - the adaptive beam must keep paying on top of the f32 tables
#     (decode/opt vs decode/f32 ≥ 1.5×), so it cannot silently
#     degenerate into a no-op;
#   - the bit-exact f64 SoA path must keep beating the naive
#     reference on its own (decode/exact vs decode/ref ≥ 6×: the
#     per-step hyperbola memo and stencil-settled distance tests
#     measured 7.7×).
# * fleet — the sharded fleet front door. Like the decode suite, runs
#   every one of its three gates against the fresh report and prints
#   each result; only if all pass does it copy the report to
#   BENCH_fleet.json (a failed gate leaves the committed baseline alone
#   and makes the script exit non-zero once every suite asked for has
#   run):
#   - the no-collapse floor: p99 per-report step latency under 8×
#     overload (fleet/step/sessions256/overload8x/p99) must stay
#     within 10× the unloaded fleet's p50
#     (fleet/step/sessions256) — backpressure plus the degradation
#     ladder must turn overload into deferral and cheaper kernels,
#     never into a latency cliff;
#   - the same core-count-aware scaling floor as the throughput
#     suite, on the 64-session fleet lifecycle at threads 1 vs 8;
#   - an absolute 20 ms ceiling on per-session crash recovery
#     (fleet/recover/session).
# * throughput — the multi-session serving engine (a one-shard fleet
#   router). Like the fleet suite, runs both of its gates against the
#   fresh report and prints each result; only if both pass does it
#   copy the report to BENCH_throughput.json:
#   - a core-count-aware scaling floor on the 8-session drain,
#     threads1 vs threads8: ≥ 4.0× with 8+ hardware threads, ≥ 1.5×
#     with 2+, and ≥ 0.8× on a single core (thread scaling is honest
#     wall-clock — one core cannot speed up CPU-bound work, so there
#     the gate only proves the drain doesn't collapse under its own
#     overhead);
#   - an absolute 80 ms ceiling on the contended step row
#     (serve/step/sessions8/threads8): one drain advancing all 8
#     sessions one pre-processing window each must stay within 8 × the
#     single-session 10 ms guarantee scripts/verify.sh enforces.
# * components — the physics/pipeline micro-benchmarks, filtered to the
#   channel rows. Gates the scalar fast path against the committed
#   BENCH_components.json at 1.1× *before* refreshing the baseline: the
#   Jones layer must not tax the legacy cos²β path the committed
#   artifacts were produced under. The jones row rides along as the
#   measured cost of `--channel jones` per link.
# * channel — emission-table builds and the link evaluator. Copies the
#   report to BENCH_channel.json and gates the paper-fidelity emission
#   workload (the default board at 2.5 mm): the bitwise f64 row build
#   must beat the retained per-link build ≥ 1.5×.
#   Also re-runs the components channel rows and holds them to the
#   committed BENCH_components.json at 1.1× WITHOUT refreshing that
#   baseline: the single-link rows must not regress.
#
# Usage: scripts/bench.sh [--suite decode|throughput|fleet|components|channel|all] [--min-speedup X]
#   --suite        which suite(s) to run (default all)
#   --min-speedup  decode opt-vs-ref floor (default 8.0)
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_SPEEDUP=8.0
SUITE=all
while [ $# -gt 0 ]; do
    case "$1" in
        --min-speedup) MIN_SPEEDUP="$2"; shift 2 ;;
        --suite) SUITE="$2"; shift 2 ;;
        *) echo "unknown flag: $1" >&2; exit 2 ;;
    esac
done
case "$SUITE" in
    decode|throughput|fleet|components|channel|all) ;;
    *) echo "unknown suite: $SUITE (want decode|throughput|fleet|components|channel|all)" >&2; exit 2 ;;
esac

# Gates that fail without stopping the run (the decode, throughput and
# fleet suites'); the script exits non-zero at the end if any did.
FAILED_GATES=()

# gate REPORT NAME ARGS...: run one bench_check gate against the fresh
# REPORT and print its result. A failure is remembered in suite_failed,
# so one failed gate does not hide the others.
gate() {
    local report="$1" name="$2"
    shift 2
    echo "== bench: $name =="
    if cargo run --release --offline -p polardraw-bench --bin bench_check -- "$report" "$@"; then
        echo "== bench: PASS: $name =="
    else
        echo "== bench: FAIL: $name ==" >&2
        suite_failed+=("$name")
    fi
}

# commit_baseline REPORT BASELINE: refresh the committed BASELINE from
# REPORT only if every gate of the suite passed; otherwise leave it as
# committed and make the script exit non-zero at the end.
commit_baseline() {
    local report="$1" baseline="$2"
    if [ ${#suite_failed[@]} -eq 0 ]; then
        cp "$report" "$baseline"
        echo "== bench: every gate passed; wrote $baseline =="
    else
        echo "== bench: ${#suite_failed[@]} gate(s) failed; $baseline left as committed ==" >&2
        FAILED_GATES+=("${suite_failed[@]}")
    fi
}

# The thread-scaling floor is a property of the host's core count; the
# measurement is honest wall-clock either way.
NPROC=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$NPROC" -ge 8 ]; then
    SCALE_FLOOR=4.0
elif [ "$NPROC" -ge 2 ]; then
    SCALE_FLOOR=1.5
else
    SCALE_FLOOR=0.8
fi

if [ "$SUITE" = decode ] || [ "$SUITE" = all ]; then
    echo "== bench: decode suite (full methodology; takes a few minutes) =="
    cargo bench --offline -p polardraw-bench --bench decode

    suite_failed=()
    gate results/bench_decode.json "decode headline gate (opt vs ref >= ${MIN_SPEEDUP}x)" \
        --min-speedup "$MIN_SPEEDUP"

    # Kernel-layer gates (see crates/bench/benches/decode.rs): the
    # adaptive beam on top of the f32 tables, and the exact f64 SoA
    # path on its own.
    gate results/bench_decode.json "decode adaptive gate (opt vs f32 >= 1.5x)" \
        --min-speedup 1.5 \
        --ref decode/f32/cell2.5mm/beam2500/steps100 \
        --opt decode/opt/cell2.5mm/beam2500/steps100
    gate results/bench_decode.json "decode exact gate (exact vs ref >= 6x)" \
        --min-speedup 6.0 \
        --ref decode/ref/cell2.5mm/beam2500/steps100 \
        --opt decode/exact/cell2.5mm/beam2500/steps100
    commit_baseline results/bench_decode.json BENCH_decode.json
fi

if [ "$SUITE" = throughput ] || [ "$SUITE" = all ]; then
    echo "== bench: throughput suite (full methodology) =="
    cargo bench --offline -p polardraw-bench --bench throughput

    suite_failed=()
    gate results/bench_throughput.json \
        "throughput scaling gate at ${SCALE_FLOOR}x (host has ${NPROC} hardware thread(s))" \
        --min-speedup "$SCALE_FLOOR" \
        --ref serve/drain/sessions8/threads1 \
        --opt serve/drain/sessions8/threads8
    gate results/bench_throughput.json \
        "contended step ceiling (serve/step/sessions8/threads8 <= 80 ms)" \
        --max-median "serve/step/sessions8/threads8=80000000"
    commit_baseline results/bench_throughput.json BENCH_throughput.json
fi

if [ "$SUITE" = fleet ] || [ "$SUITE" = all ]; then
    echo "== bench: fleet suite (full methodology) =="
    cargo bench --offline -p polardraw-bench --bench fleet

    suite_failed=()

    # No-collapse floor: under 8x overload the p99 per-report step
    # latency must stay within 10x the unloaded fleet's p50. bench_check
    # asserts median(ref)/median(opt) >= floor, so with ref = unloaded
    # p50 and opt = overloaded p99 the 0.1 floor is exactly that bound.
    gate results/bench_fleet.json "fleet no-collapse gate (overload8x p99 <= 10x unloaded p50)" \
        --min-speedup 0.1 \
        --ref fleet/step/sessions256 \
        --opt fleet/step/sessions256/overload8x/p99

    gate results/bench_fleet.json "fleet scaling gate at ${SCALE_FLOOR}x (host has ${NPROC} hardware thread(s))" \
        --min-speedup "$SCALE_FLOOR" \
        --ref fleet/lifecycle/sessions64/threads1 \
        --opt fleet/lifecycle/sessions64/threads8

    # Absolute ceiling on per-session crash recovery (checkpoint open +
    # CRC verify + tracker rebuild for a 128-report warm session):
    # 20 ms. Recovery must stay interactive — a shard restart serving
    # hundreds of sessions has to come back in seconds, not minutes.
    gate results/bench_fleet.json "fleet recovery ceiling (recover() <= 20 ms/session)" \
        --max-median "fleet/recover/session=20000000"

    commit_baseline results/bench_fleet.json BENCH_fleet.json
fi

if [ "$SUITE" = components ] || [ "$SUITE" = all ]; then
    echo "== bench: components suite (channel rows, full methodology) =="
    mkdir -p results/components
    cargo bench --offline -p polardraw-bench --bench components -- \
        --filter "channel/" --out "$(pwd)/results/components"

    # No-collapse floor FIRST, against the committed baseline: the
    # scalar fast path must stay within 1.1x of what it cost before the
    # polarimetric layer landed. Only then refresh the baseline.
    if [ -f BENCH_components.json ]; then
        echo "== bench: scalar-channel no-collapse gate (1.1x of committed baseline) =="
        cargo run --release --offline -p polardraw-bench --bin bench_check -- \
            results/components/bench_components.json \
            --baseline BENCH_components.json --max-regression 1.1
    fi

    cp results/components/bench_components.json BENCH_components.json
    echo "== bench: wrote BENCH_components.json =="
fi

if [ "$SUITE" = channel ] || [ "$SUITE" = all ]; then
    echo "== bench: channel suite (emission builds + link evaluator, full methodology) =="
    mkdir -p results/channel
    cargo bench --offline -p polardraw-bench --bench channel -- \
        --out "$(pwd)/results/channel"

    # The bitwise f64 row build must pay on its own (hoisting + SoA,
    # same bits).
    echo "== bench: emission exact batch gate (>= 1.5x per-link at 2.5 mm) =="
    cargo run --release --offline -p polardraw-bench --bin bench_check -- \
        results/channel/bench_channel.json \
        --min-speedup 1.5 \
        --ref channel/emission/per_link/cell2.5mm \
        --opt channel/emission/batch/cell2.5mm

    # No-regression on the per-link paths: re-measure the components
    # channel rows and hold them to the committed baseline — but do NOT
    # refresh it here (that is the components suite's job).
    if [ -f BENCH_components.json ]; then
        echo "== bench: per-link no-collapse gate (1.1x of committed components baseline) =="
        mkdir -p results/channel-components
        cargo bench --offline -p polardraw-bench --bench components -- \
            --filter "channel/" --out "$(pwd)/results/channel-components"
        cargo run --release --offline -p polardraw-bench --bin bench_check -- \
            results/channel-components/bench_components.json \
            --baseline BENCH_components.json --max-regression 1.1
    fi

    cp results/channel/bench_channel.json BENCH_channel.json
    echo "== bench: wrote BENCH_channel.json =="
fi

if [ ${#FAILED_GATES[@]} -gt 0 ]; then
    echo "== bench: FAILED gates: ==" >&2
    printf '  %s\n' "${FAILED_GATES[@]}" >&2
    exit 1
fi
