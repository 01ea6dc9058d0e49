#!/usr/bin/env bash
# Full local gate: build, test, lint, static analysis. Run from the
# repository root.
#
#   ./scripts/check.sh                 # everything
#   SKIP_CLIPPY=1 ./scripts/check.sh   # skip the clippy pass
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

# The tier-1 suite runs twice: serial (LGO_THREADS=1 pins every lgo-runtime
# fan-out to the inline path) and parallel (LGO_THREADS=4 exercises real
# worker threads). Both must pass identically — parallelism is a pure
# performance knob, never a behavior change.
echo "==> cargo test (workspace, LGO_THREADS=1)"
LGO_THREADS=1 cargo test -q --workspace

echo "==> cargo test (workspace, LGO_THREADS=4)"
LGO_THREADS=4 cargo test -q --workspace

if [ -z "${SKIP_CLIPPY:-}" ]; then
    echo "==> cargo clippy (all targets, vendored deps excluded) -- -D warnings"
    cargo clippy --workspace --exclude rand --exclude proptest \
        --all-targets -- -D warnings
fi

# Analyze tier: the workspace must be clean under L1–L14, the machine-
# readable report must match the checked-in expectation byte for byte
# (drift in either direction — new findings or silently vanished coverage
# — fails the gate), and the analyzer's wall time is recorded for the
# bench history. Timing lives out here in the shell: the analyzer library
# itself is banned from wall-clock reads by its own L9.
echo "==> lgo-analyze --workspace (findings gate + report diff)"
cargo build -q --release -p lgo-analyze
mkdir -p results
t0=$(date +%s%N)
./target/release/lgo-analyze --workspace --json > results/analyze.json \
    || true # findings fail the gate below, with readable diagnostics
t1=$(date +%s%N)
./target/release/lgo-analyze --workspace
diff -u expected/analyze.json results/analyze.json \
    || { echo "analyze report drifted from expected/analyze.json"; exit 1; }
findings=$(grep -c '"file"' results/analyze.json || true)
printf '{\n  "bench": "analyze",\n  "findings": %s,\n  "wall_ms": %s\n}\n' \
    "$findings" "$(( (t1 - t0) / 1000000 ))" > results/BENCH_analyze.json
echo "    analyze wall time: $(( (t1 - t0) / 1000000 )) ms (results/BENCH_analyze.json)"

echo "==> cargo test (strict-numerics sanitizers)"
cargo test -q -p lgo-tensor -p lgo-nn -p lgo-runtime -p lgo-core \
    --features strict-numerics

echo "==> exp_scaling (fast scale): thread-count speedup + determinism gate"
LGO_SCALE=fast cargo run -q -p lgo-bench --release --bin exp_scaling > /dev/null

# Trace tier: the observability layer must pass the same tier-1 suite with
# instrumentation compiled in, and a traced pipeline run must emit a report
# that validates against the lgo-trace schema.
echo "==> cargo test (workspace, --features trace)"
cargo test -q --workspace --features trace

echo "==> exp_scaling (fast scale, traced): LGO_TRACE=json report emission"
rm -f results/trace_exp_scaling.json
LGO_SCALE=fast LGO_TRACE=json \
    cargo run -q -p lgo-bench --release --features trace --bin exp_scaling > /dev/null
cargo run -q -p lgo-trace --release --bin trace_schema -- results/trace_exp_scaling.json

# Serve tier: the online scoring service must survive a hostile fast-scale
# cohort (injected stalls + panics) end to end — backpressure, shedding,
# watchdog and quarantine all exercised — and its trace report must
# validate against the schema. bench_serve asserts the robustness contract
# (panics captured, patients quarantined, every accepted sample drained)
# before exiting, so a green run here is the contract holding.
echo "==> bench_serve (fast scale, traced): fault-injected serving gate"
rm -f results/trace_serve.json
LGO_SCALE=fast LGO_TRACE=json LGO_SERVE_PATIENTS=300 \
    cargo run -q -p lgo-bench --release --features trace --bin bench_serve > /dev/null
cargo run -q -p lgo-trace --release --bin trace_schema -- results/trace_serve.json

# Perf tier: the hot-path accelerations must stay bitwise equal to what
# each stage times them against — the flat-trace LSTM forward and
# forward + BPTT against bench-local reference loops, the AVX2
# instance of the LSTM kernels against the portable one, warm kernel-cache grid passes
# against cold ones, shared-prefix URET campaigns (with the early-exit
# campaign read off the maximizing one) against full-pass queries, the
# fused PGD/BIM/FGSM/CW attackers against a two-pass reference; the
# activations stage times libm against the owned sigmoid/tanh and reports
# their ULP distance instead of an identity. exp_perf asserts per-stage output identity internally
# and exits non-zero on any divergence — and the canonical report must
# carry the expected schema. Speedup magnitudes are NOT gated here: CI
# machines vary too much for a hard ratio; the committed
# results/BENCH_perf.json records the measured trajectory instead.
echo "==> exp_perf (fast scale, traced): hot-path equivalence + report gate"
LGO_PERF_SCALE=fast \
    cargo run -q -p lgo-bench --release --features trace --bin exp_perf > /dev/null
for key in '"stages"' '"detector_grid"' '"lstm_forward"' \
           '"lstm_bptt"' '"lstm_avx2"' '"uret_campaign"' '"pgd_campaign"' '"seq2seq_head"' \
           '"activations"' '"speedup"' \
           '"identical": true'; do
    grep -q "$key" results/BENCH_perf.json \
        || { echo "BENCH_perf.json missing $key"; exit 1; }
done
if grep -q '"identical": false' results/BENCH_perf.json; then
    echo "BENCH_perf.json reports a stage whose after path diverges from its before path"
    exit 1
fi

# Zoo tier: the attack subsystem must run its full eight-attacker study at
# fast scale with tracing compiled in, emit a schema-valid trace, and
# reproduce the checked-in canonical report byte for byte — success rates,
# recalls, per-patient rows and query counts are all deterministic by
# contract, so drift in any of them (the fgsm/bim/pgd presets included)
# means a behavior change, not noise. Report determinism across thread
# counts is pinned separately by tests/attack_zoo.rs in the tier-1 suite.
echo "==> exp_attack_zoo (fast scale, traced): attack-zoo gate"
rm -f results/trace_attack_zoo.json
LGO_SCALE=fast LGO_TRACE=json \
    cargo run -q -p lgo-bench --release --features trace --bin exp_attack_zoo > /dev/null
cargo run -q -p lgo-trace --release --bin trace_schema -- results/trace_attack_zoo.json
diff -u expected/BENCH_attack_zoo.json results/BENCH_attack_zoo.json \
    || { echo "BENCH_attack_zoo.json drifted from expected/BENCH_attack_zoo.json"; exit 1; }

# Defense tier: the pluggable defense strategies (LGO-selective,
# indiscriminate, ROAST, iterative retraining) must fit their full
# detector ladders at fast scale with tracing compiled in, emit a
# schema-valid trace, and reproduce the checked-in canonical report byte
# for byte — recall/FPR cells, crafted-window counts and kernel-cache
# deltas are all deterministic by contract (drift in any of them means a
# behavior change, not noise). Thread-count determinism is pinned
# separately by tests/defense.rs in the tier-1 suite.
echo "==> exp_defense (fast scale, traced): defense-strategy gate"
rm -f results/trace_defense.json
LGO_SCALE=fast LGO_TRACE=json \
    cargo run -q -p lgo-bench --release --features trace --bin exp_defense > /dev/null
cargo run -q -p lgo-trace --release --bin trace_schema -- results/trace_defense.json
diff -u expected/BENCH_defense.json results/BENCH_defense.json \
    || { echo "BENCH_defense.json drifted from expected/BENCH_defense.json"; exit 1; }

# Reproduction tier: repro_all must print every paper table and figure
# (plus the ROC extension, the clustering ablations, the adaptive
# re-profiling study and the sensor-fault sweep) at fast scale with
# tracing compiled in, emit a schema-valid trace, and reproduce the
# checked-in report byte for byte — its stdout carries no timing (that
# goes to stderr), so any drift means a behavior change, not noise.
echo "==> repro_all (fast scale, traced): paper-reproduction gate"
rm -f results/trace_repro_all.json
LGO_SCALE=fast LGO_TRACE=json \
    cargo run -q -p lgo-bench --release --features trace --bin repro_all \
    > results/repro_fast.txt
cargo run -q -p lgo-trace --release --bin trace_schema -- results/trace_repro_all.json
diff -u expected/repro_fast.txt results/repro_fast.txt \
    || { echo "repro_all output drifted from expected/repro_fast.txt"; exit 1; }

echo "==> all checks passed"
