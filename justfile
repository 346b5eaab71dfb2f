# Developer task runner. Install `just`, or paste the recipes into a shell.

# Full local gate: formatting, lints as errors on every target (tests
# included), the test suite, the benchmark's own tests (they run every
# workload end to end, so a kernel change that breaks a decode output
# check fails here), and the tensor suite re-run with the SIMD
# dispatcher forced to the scalar arm — the portability fallback must
# stay green, not just compile.
verify:
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings
    cargo test -q
    cargo test --manifest-path perfbench/Cargo.toml
    just check-devices
    just check-scenario
    just test-serving
    CARAML_SIMD=off cargo test -q -p caraml-tensor
    CARAML_SIMD=off cargo test -q -p caraml-models

# Load + validate every embedded device TOML through the registry and
# diff the rendered `caraml devices` table against the committed golden
# (regenerate with `cargo run -p caraml --bin caraml -- devices >
# docs/DEVICES.md` after editing a device file).
check-devices:
    cargo run -q -p caraml --bin caraml -- devices --check docs/DEVICES.md

# Parse, run, and checksum-verify the committed example scenario against
# its native-constructed twin — proves `caraml scenario <file>` stays
# bit-identical to hand-built sweeps (the scenario DSL's core contract).
check-scenario:
    cargo run -q --release -p caraml --bin caraml -- scenario examples/scenario.toml --check

# Trend analysis over the committed results.jsonl history store: rolling
# median/MAD anomalies, step changes, and sparklines per metric series.
# `just trend --gate` also fails on a direction-aware regression between
# the two latest generations.
trend *flags="":
    cargo run -q --release -p caraml --bin caraml -- trend --history results.jsonl {{flags}}

# Tier-1 check used by CI: release build + quiet tests, both over every
# workspace member.
ci:
    cargo build --release
    cargo test -q

# Regenerate every paper table and figure.
figures:
    cargo run -p caraml-bench --bin table1_systems
    cargo run -p caraml-bench --bin fig2_llm
    cargo run -p caraml-bench --bin table2_ipu_gpt
    cargo run -p caraml-bench --bin fig3_resnet
    cargo run -p caraml-bench --bin table3_ipu_resnet
    cargo run -p caraml-bench --bin fig4_heatmaps

# Serving slice: the serve and fleet unit tests, both scheduling
# property suites (incl. the pinned 10⁵-request fleet acceptance
# scenarios), and both determinism harnesses with the serve golden
# checksum — the latter re-run with the SIMD dispatcher forced off,
# since the serving FOM bits must not depend on the dispatch arm.
# `cargo test -q` already runs every workspace member's tests (the root
# manifest's `default-members` lists them all); `verify` calls this
# recipe for the SIMD-off re-run. The SlurmSim coverage lives in
# `test-sched`.
test-serving:
    cargo test -p caraml --lib serve -q
    cargo test -p caraml --lib fleet -q
    cargo test -p caraml --test serve_props -q
    cargo test -p caraml --test fleet_props -q
    cargo test -p caraml --test serve_determinism -q
    cargo test -p caraml --test fleet_determinism -q
    CARAML_SIMD=off cargo test -p caraml --test serve_determinism --test fleet_determinism -q

# Scheduler-focused slice: SlurmSim unit tests, the FIFO-starvation and
# bounded-pool regression coverage, and the sharded-sweep equivalence
# proptests — run both serialized and wide to shake out admission-order
# races that only show under a particular interleaving.
test-sched:
    cargo test -p jube scheduler -q
    cargo test -p jube --test slurm_sim -q -- --test-threads=1
    cargo test -p jube --test slurm_sim -q -- --test-threads=8
    cargo test -p caraml --test sharded_sweep -q -- --test-threads=1
    cargo test -p caraml --test sharded_sweep -q -- --test-threads=4

# Seeded serving load sweep on one system: p50/p95/p99 TTFT, per-token
# latency, goodput and Wh/ktoken across an arrival-rate × batch-cap
# grid. Try `just serve-demo GH200 --bursty`.
serve-demo tag="H100" *flags="":
    cargo run --release -p caraml --bin caraml -- serve {{tag}} {{flags}}

# Kernel throughput probes: GFLOP/s of the GEMM variants, batched
# matmul and ResNet50-shaped convolutions, GB/s of the fused non-GEMM
# kernel layer, fused attention, and the scalar-vs-AVX2 dual-arm sweep.
# Prints a JSON report to stdout (progress on stderr) and writes no file;
# end-to-end throughput and its regression bounds live in perfbench.
bench-json:
    cargo run --release -p caraml-bench --bin bench_json

# Quantized-tier slice of the kernel probes: just the int8
# quantize/dequantize/GEMM kernels, on every SIMD arm.
bench-quant:
    cargo run --release -p caraml-bench --bin bench_json -- --filter quantize,dequantize,gemm_i8

# Flake hunt: run the whole workspace suite `n` times and stop at the
# first failing run. A test that fails only under some schedules fails
# some runs, not all.
flake n="10":
    for i in $(seq 1 {{n}}); do echo "run $i of {{n}}"; cargo test --workspace -q || exit 1; done
