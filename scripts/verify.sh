#!/usr/bin/env bash
# Tier-1 verification entrypoint (see ROADMAP.md).
#
# Builds and tests the whole workspace *offline* and then proves the
# dependency graph is hermetic: every crate in `cargo tree` must be a
# workspace member (path dependency). Any registry/git crate — even one
# that happens to be cached — fails the run.
#
# Usage: scripts/verify.sh [--quick-bench]
#
# --quick-bench additionally smoke-runs the decode bench suite in
# `--quick` mode (milliseconds of sampling, not a real measurement),
# checks the report parses, gates every decode row shared with the
# committed BENCH_decode.json baseline at a generous 1.5×, and holds
# the fast-kernel-vs-reference speedup above a quick-noise-tolerant 5×
# floor (quick mode is noisy; real measurements and the full 8× floor
# come from scripts/bench.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK_BENCH=0
for arg in "$@"; do
    case "$arg" in
        --quick-bench) QUICK_BENCH=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "== verify: offline release build =="
cargo build --release --offline --workspace --benches

echo "== verify: clippy (warnings are errors) =="
# Every workspace target, tests and benches included. e2e-bench is a
# package of its own and is not linted here.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== verify: offline test suite =="
# One pass over every test target in the workspace. It runs without
# `-q` so the log names each test binary (`Running …`) and each passing
# test; the tier-1 gates below are checked against that log rather
# than run a second time.
TEST_LOG=target/verify-tests.log
mkdir -p target
cargo test --offline --workspace --release 2>&1 | tee "$TEST_LOG"

# ran TARGET [FILTER]: the workspace pass above ran test binary TARGET
# (an integration test such as `golden`, or a crate's unit tests such
# as `rfid_sim`) and at least one test in it whose name contains FILTER
# (cargo's own filter rule; empty = any test) passed. A gate whose
# target was dropped, renamed, or emptied fails here.
ran() {
    local target="$1" filter="${2:-}"
    if ! awk -v target="/deps/$target-" -v filter="$filter" '
        /^ *(Running|Doc-tests) / { cur = index($0, target) > 0; next }
        cur && /^test .* \.\.\. ok$/ && (filter == "" || index(substr($0, 6), filter) > 0) { n++ }
        END { exit n > 0 ? 0 : 1 }' "$TEST_LOG"; then
        echo "FAIL: no passing test${filter:+ matching '$filter'} in test target '$target'" >&2
        exit 1
    fi
}

echo "== verify: benchmark unit tests =="
# e2e-bench is a package of its own (empty [workspace]), so the
# workspace suite above never reaches it. Its unit tests pin the
# percentile rule, open-loop pacing, span self-time accounting, the
# recorded expected tables, and that its metric lists stay in sync
# with BENCHMARK.json.
cargo test -q --release --offline --manifest-path e2e-bench/Cargo.toml

echo "== verify: golden traces + fault layer =="
# Explicit tier-1 gates for the robustness layer (named here so a
# missing target is unmissable even if the workspace list changes):
# - tests/golden.rs pins bit-identical reports/traces vs committed
#   snapshots (the identity-FaultPlan no-op proof rides on these),
# - the fault-injection unit tests live in rfid-sim,
# - the adversarial-stream sweeps live in tests/properties.rs, which
#   also holds the one windower (batch preprocess and the online
#   engine share it) to tests/snapshots/preprocess_windows.json bit for
#   bit (gated by name).
ran golden
ran rfid_sim faults
ran properties preprocess_windows_match_the_pinned_snapshot

echo "== verify: decode kernel equivalence =="
# Explicit tier-1 gates for the beam decoder. There is one driver,
# FixedLagDecoder; hmm::decode is that decoder at unbounded lag, and
# viterbi_reference is the naive oracle both files hold it to:
# - tests/kernel_equivalence.rs pins the two precision contracts: the
#   f64 SoA path bit-identical to viterbi_reference (random scenarios,
#   plus steps whose bounds land exactly on stencil distances, and
#   still-heavy streams whose stencil radius grows mid-decode on boards
#   with differing centre-difference classes — both pinning scores and
#   DecodeStats per step; the latter gated by name), and the f32 fast path
#   inside the quantitative tolerance oracle (per-step best scores,
#   glyph-trail Procrustes < 1 cm, fig13 reduced-config letter-accuracy
#   parity), and holds the adaptive beam's decodes (three exact-kernel
#   margins and the fast kernel, over the random, stencil-boundary and
#   glyph families) to tests/snapshots/adaptive_decode.json bit for bit
#   (gated by name),
# - tests/decoder_equivalence.rs holds hmm::decode to viterbi_reference
#   bit for bit over randomized scenarios and through the degenerate
#   paths: carry-through and collapse steps (beams 8 to 2500) and tiny
#   beams under the `max(8)` clamp, each gated by name,
# - the beam cut sorts packed integer keys; a unit test in hmm.rs holds
#   their order to the canonical beam order on both lanes (gated by
#   name).
ran kernel_equivalence
ran kernel_equivalence adaptive_beam_decodes_match_the_pinned_bits
ran kernel_equivalence exact_kernel_distance_memo_is_bit_identical_on_still_heavy_streams
ran decoder_equivalence
ran decoder_equivalence carry_through_steps_stay_equivalent
ran decoder_equivalence tiny_beam_widths_stay_equivalent
ran polardraw_core packed_beam_keys_order_exactly_like_beam_order

echo "== verify: polarimetric channel =="
# Explicit tier-1 gates for the Jones channel layer:
# - tests/channel_equivalence.rs pins the reduction contract: on every
#   broadside linear-copolarized rig the Jones channel agrees with the
#   scalar cos²β path within 1e-12 per link and bit-for-bit through a
#   full letter trial, and is provably not a no-op off that family,
# - the physics-law unit tests (Fresnel Brewster/grazing closed forms,
#   the circular-reader 3 dB law, Jones unitarity/associativity) live
#   in rf-physics,
# - the polarization report snapshot + jones letter-L trace pin ride in
#   tests/golden.rs above.
ran channel_equivalence
ran rf_physics
ran golden golden_report_polarization
ran golden golden_trace_letter_trial_jones

echo "== verify: channel evaluator + emission builds =="
# Explicit tier-1 gates for the forward model and the grid kernels:
# - tests/channel_equivalence.rs holds RigFactors::evaluate, the one
#   link evaluator, to tests/snapshots/channel_links.json bit for bit
#   across every branch (scalar/Jones, linear/circular/elliptical
#   readers, Empirical/Fresnel reflectors, static/walking bystanders,
#   Dipole/Reconfigurable tags, fixed and hopping plans, both ports),
# - tests/channel_batch.rs pins the one emission build: the f64 row
#   build bit-identical to the per-cell spec at every worker count (the
#   fast kernel's f32 table is that table cast per cell, held by the
#   golden f32 oracles and kernel_equivalence), and holds
#   RigFactors::evaluate to tests/snapshots/channel_per_link_{scalar,
#   jones}.json (recorded from the per-link ChannelModel bodies over 12
#   scalar and 8 Jones derived-seed rigs) bit for bit,
# - the row-kernel bitwise pins live in polardraw-core.
ran channel_equivalence link_model_matches_the_pinned_snapshot_bitwise
ran channel_batch
ran polardraw_core distances_row
ran polardraw_core dtheta_row

echo "== verify: online engine + supervised sessions =="
# Explicit tier-1 gates for the streaming layer:
# - tests/online_equivalence.rs pins the batch pipeline (the online
#   tracker at infinite lag and hold) == finite-lag online output bit
#   for bit (lag ≥ horizon) and the checkpoint → restore → resume
#   cut-point sweep,
# - tests/session.rs pins supervised recovery: reconnect within the
#   backoff schedule, checkpoint resume through the session layer, and
#   bounded accuracy loss under the fault presets,
# - the supervisor/link/backoff unit tests live in rfid-sim.
ran online_equivalence
ran session
ran rfid_sim session

echo "== verify: multi-session serving =="
# Explicit tier-1 gates for the serving layer, on a one-shard router:
# - tests/serve.rs pins served == sequential bit-for-bit (32
#   mixed-fault sessions at threads 1/2/8, and mixed kernels), the
#   2-thread single-report stress run, checkpoint/restore through the
#   router (seal, shard kill, recover) at swept cuts, and the
#   shared-decode-artifact memory gate (one emission table per rig,
#   however many sessions),
# - the wake-on-work, panic-isolation (on both drain paths) and
#   finish unit tests live in polardraw-core (fleet), each gated by
#   name; the claim-order fan-out primitives in rf-core (par).
ran serve
ran polardraw_core empty_queues_stay_asleep
ran polardraw_core poisoned_session_is_quarantined_and_the_fleet_keeps_serving
ran polardraw_core finish_session_removes_the_session_and_finish_skips_it
ran rf_core par

echo "== verify: fleet front door =="
# Explicit tier-1 gates for the sharded fleet layer:
# - tests/fleet.rs pins live migration bitwise-equivalent to never
#   moving (swept cuts, queued reports carried, threads 1/2/8) and the
#   overload contract (bounded queues, deferral never drops, monotone
#   degradation, hysteretic recovery),
# - tests/serve_alloc.rs proves a warm store-less one-shard
#   single-thread offer + drain round allocates nothing (counting
#   global allocator),
# - the router/controller unit tests live in polardraw-core (fleet),
#   the traffic-model unit tests in rfid-sim (traffic).
ran fleet
ran serve_alloc
ran polardraw_core fleet
ran rfid_sim traffic

echo "== verify: durability & crash recovery =="
# Explicit tier-1 gates for the crash-safe durability layer:
# - tests/durability.rs sweeps 2000 mutated checkpoint.v2 envelopes
#   through the typed-error parser (every semantic mutation rejected,
#   every accepted envelope bit-identical), keeps rejecting a kernel
#   `threads` format field above its ceiling and negative or
#   fractional counts and cell ids (each gated by name), pins the
#   v1 → v2 migration golden snapshot, proves the store's
#   stage-then-commit atomicity plus generation walk-back over
#   corrupted blobs, and holds every warm-cache seal byte-identical to
#   the first seal of a never-sealed tracker in the same state (gated
#   by name), and holds every seal of fast- and exact-kernel trackers
#   at swept cuts to tests/snapshots/seal_bytes.json (length and CRC-32
#   each, two envelopes in full; gated by name),
# - tests/chaos.rs is the deterministic chaos soak: swept kill points ×
#   thread counts, corrupted-checkpoint fallbacks, duplicate recovery,
#   stalled drains, and random ChaosPlans — no panics, zero report
#   loss, recovery bitwise-identical to a fleet that never crashed,
# - the envelope/store unit tests live in polardraw-core (durability),
#   the chaos-plan/mutator unit tests in rfid-sim (chaos), and the
#   parser recursion-depth bound in rf-core (json).
ran durability
ran durability restore_bounds_the_kernel_thread_count
ran durability restore_rejects_negative_and_fractional_counts
ran durability incremental_seal_equals_cold_seal
ran durability seals_match_the_pinned_bytes
ran chaos
ran polardraw_core durability
ran rfid_sim chaos
ran rf_core json

echo "== verify: no unwrap/expect on untrusted-input paths =="
# Grep lint over modules that parse bytes arriving from outside the
# process (checkpoint envelopes, LLRP frames, JSON), that checksum or
# store them (CRC-32, blob stores), or that supervise crashed state.
# Test modules don't count (everything after the first `#[cfg(test)]`
# is stripped). Ceilings are the audited residue — each surviving site
# is invariant-backed (a slice the caller just length-checked, a field
# set before the only call site) and commented as such in the source;
# new untrusted-input unwraps fail the build.
lint_unwraps() {
    local file="$1" ceiling="$2"
    local n
    n=$(sed -n '1,/#\[cfg(test)\]/p' "$file" \
        | grep -c -E '\.unwrap\(\)|\.expect\(' || true)
    if [ "$n" -gt "$ceiling" ]; then
        echo "FAIL: $file has $n unwrap()/expect( sites above the audited ceiling of $ceiling" >&2
        exit 1
    fi
}
lint_unwraps crates/core/src/durability.rs 0
lint_unwraps crates/rf-core/src/json.rs 0
lint_unwraps crates/rf-core/src/crc.rs 0
lint_unwraps crates/rf-core/src/store.rs 0
lint_unwraps crates/rfid-sim/src/chaos.rs 0
lint_unwraps crates/core/src/online.rs 0
lint_unwraps crates/core/src/preprocess.rs 1
lint_unwraps crates/core/src/fleet.rs 2
lint_unwraps crates/rfid-sim/src/llrp.rs 2

echo "== verify: dependency graph is workspace-only =="
# Every line of `cargo tree` that names a crate must carry the marker of
# a local path dependency: "(/…)" pointing into this repo. Registry
# crates print "vX.Y.Z" with no path; catch them.
nonlocal=$(cargo tree --offline --workspace --edges normal,build,dev --prefix none \
    | sort -u \
    | grep -v "($(pwd)" || true)
if [ -n "$nonlocal" ]; then
    echo "FAIL: non-workspace dependencies found:" >&2
    echo "$nonlocal" >&2
    exit 1
fi

if [ "$QUICK_BENCH" = 1 ]; then
    echo "== verify: decode bench smoke (--quick) =="
    mkdir -p results/quickbench
    # Bench binaries run with the package dir as CWD; --out must be
    # absolute to land at the repo root.
    # The filter keeps the reference row in the quick report so the
    # speedup floor is measured, not assumed; the floor (5×) sits well
    # under the full-methodology 8× gate to absorb quick-mode noise.
    cargo bench --offline -p polardraw-bench --bench decode -- \
        --quick --filter "cell2.5mm/beam2500/steps100" --out "$(pwd)/results/quickbench"
    cargo run --release --offline -p polardraw-bench --bin bench_check -- \
        results/quickbench/bench_decode.json \
        --baseline BENCH_decode.json --max-regression 1.5 \
        --min-speedup 5.0

    echo "== verify: online step latency gate =="
    # The per-window online decode step, measured for real (not --quick:
    # a full warmup + 11 fixed-work samples take a few seconds) and
    # gated at an absolute 10 ms per step — 1 s per 100-step cycle from
    # a fresh decoder: the fixed-lag decoder must beat the stream's
    # window period, or live sessions fall behind their reader.
    mkdir -p results/quickbench_online
    cargo bench --offline -p polardraw-bench --bench decode -- \
        --filter decode/online --out "$(pwd)/results/quickbench_online"
    cargo run --release --offline -p polardraw-bench --bin bench_check -- \
        results/quickbench_online/bench_decode.json \
        --max-median "decode/online/cycle100/cell2.5mm/beam2500/lag64=1000000000"

    echo "== verify: contended serve step gate =="
    # The router's contended regime, measured for real: one drain
    # advancing 8 paper-fidelity sessions one pre-processing window
    # each, gated at an absolute 80 ms — 8 × the single-session 10 ms
    # guarantee above, so no session falls behind its reader even when
    # the whole fleet is busy.
    mkdir -p results/quickbench_serve
    cargo bench --offline -p polardraw-bench --bench throughput -- \
        --filter serve/step --out "$(pwd)/results/quickbench_serve"
    cargo run --release --offline -p polardraw-bench --bin bench_check -- \
        results/quickbench_serve/bench_throughput.json \
        --max-median "serve/step/sessions8/threads8=80000000"
fi

echo "verify: OK"
