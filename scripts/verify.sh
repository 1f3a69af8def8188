#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, lints, format.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The serving benchmark gates that the deploy::Pipeline compressed form
# improves serving throughput, that the fused int8 deployment beats the
# f32 compressed path while agreeing with it on >=99% of predictions,
# and that the server neither deadlocks nor panics under open-loop load
# — in process and again end to end over real TCP connections (the
# socket section of BENCH_serve.json); the timeout turns a hang into a
# hard failure.
echo "==> serve_bench --smoke (includes socket-mode + int8 gates)"
timeout 300 cargo run --release -q -p alf-bench --bin serve_bench -- --smoke

# The int8 serving integration test drives Precision::Int8 through the
# public Server API: every request must come back with a valid class and
# the int8 predictions must track the f32 deployment's.
echo "==> int8 serving smoke (release)"
timeout 300 cargo test --release -q --test serving \
  int8_precision_serves_and_tracks_the_f32_deployment

# The socket smoke test drives the network front end over an ephemeral
# port: concurrent keep-alive clients, one hot checkpoint swap over the
# wire, one tenant-over-quota burst. Every request must be answered or
# typed-rejected and the /metrics totals must account exactly for the
# client-side tallies; the timeout turns a poll-loop wedge into a hard
# failure.
echo "==> alf-net socket smoke (release)"
timeout 300 cargo test --release -q -p alf-net --test socket_smoke

# The training benchmark gates that data-parallel training is bitwise
# independent of the worker count, that a killed run resumes from its
# checkpoint bitwise identically (plus a >=1.5x 4-worker speedup gate on
# multi-core hosts), and that per-step JSONL telemetry is read-only
# (bitwise-identical weights) and stays within noise of the
# telemetry-off wall time; the timeout turns a hang into a hard failure.
echo "==> train_bench --smoke (includes telemetry overhead + bitwise gates)"
timeout 300 cargo run --release -q -p alf-bench --bin train_bench -- --smoke

# The GEMM benchmark gates that the blocked kernel beats the seed loops
# and that packed-panel elision pays off monotonically as the zero-row
# fraction rises (the occupancy-sweep gate), while staying bitwise equal
# to the dense kernel; the timeout turns a hang into a hard failure.
echo "==> gemm_bench --smoke (includes occupancy-sweep gate)"
timeout 300 cargo run --release -q -p alf-bench --bin gemm_bench -- --scale smoke

# The kill/resume suite in release mode: checkpoints taken at every
# phase of an epoch must restore the exact trajectory.
echo "==> alf-dp resume tests (release)"
timeout 300 cargo test --release -q -p alf-dp --test resume

# The distributed-training smoke, end to end over real processes: a
# 4-rank socket collective is killed mid-epoch (rank 2 dies after its
# 6th step), which must surface as a typed RankLost and a nonzero exit
# with no final checkpoint; resuming the collective from rank 0's
# periodic checkpoint must then land bitwise on the checkpoint of a
# single-process run of the same schedule.
echo "==> alf dist 4-rank kill/resume smoke (bitwise vs 1 process)"
DIST_OUT=$(mktemp -d)
DIST_ARGS="--train-size 48 --test-size 16 --image-size 12 --batch 12 --width 8"
timeout 300 ./target/release/alf dist --ranks 1 --epochs 2 $DIST_ARGS \
  --out "$DIST_OUT/ref.ckpt" > /dev/null
set +e
timeout 300 ./target/release/alf dist --ranks 4 --epochs 2 $DIST_ARGS \
  --ckpt "$DIST_OUT/live.ckpt" --ckpt-every 4 --die-after 2:6 \
  --out "$DIST_OUT/never.ckpt" > "$DIST_OUT/fail.out" 2>&1
dist_code=$?
set -e
if [ "$dist_code" -eq 0 ]; then
  echo "FAIL: collective with a killed rank exited 0"
  exit 1
fi
if ! grep -q "RankLost: rank 2" "$DIST_OUT/fail.out"; then
  cat "$DIST_OUT/fail.out"
  echo "FAIL: killed rank did not surface as a typed RankLost"
  exit 1
fi
if [ -e "$DIST_OUT/never.ckpt" ]; then
  echo "FAIL: failed collective wrote a final checkpoint"
  exit 1
fi
timeout 300 ./target/release/alf dist --ranks 4 --epochs 1 $DIST_ARGS \
  --resume "$DIST_OUT/live.ckpt" --out "$DIST_OUT/resumed.ckpt" > /dev/null
if ! cmp -s "$DIST_OUT/ref.ckpt" "$DIST_OUT/resumed.ckpt"; then
  echo "FAIL: resumed 4-rank collective is not bitwise-equal to 1 process"
  exit 1
fi
rm -rf "$DIST_OUT"

# The campaign runner gates: a subset campaign (headline + the two
# geometry ablations, plus the baselines the DAG pulls in) is aborted
# after its first completion (exit 70 — the kill simulation), resumed,
# and must then report every declared job in a terminal state with the
# consolidated Pareto pair on disk. This exercises the manifest
# (write/truncate/replay), the scheduler, and the exactly-once training
# assertion end to end.
echo "==> alf-lab kill/resume campaign (smoke subset)"
LAB_OUT=$(mktemp -d)
LAB_ONLY="headline,ablation_dataflow,ablation_fusion"
set +e
timeout 300 cargo run --release -q -p alf-lab --bin alf-lab -- \
  run --smoke --out "$LAB_OUT" --only "$LAB_ONLY" --fresh --abort-after 1 \
  > /dev/null
lab_code=$?
set -e
if [ "$lab_code" -ne 70 ]; then
  echo "FAIL: expected --abort-after to exit 70, got $lab_code"
  exit 1
fi
timeout 300 cargo run --release -q -p alf-lab --bin alf-lab -- \
  run --smoke --out "$LAB_OUT" --only "$LAB_ONLY" > /dev/null
for f in pareto-smoke.txt pareto-smoke.json campaign-smoke.manifest; do
  if [ ! -s "$LAB_OUT/$f" ]; then
    echo "FAIL: resumed campaign left no $f"
    exit 1
  fi
done
if ! grep -q '"all_terminal":true' "$LAB_OUT/pareto-smoke.json"; then
  echo "FAIL: resumed campaign did not reach a terminal state for every job"
  exit 1
fi
if ! grep -q '"status":"cached"' "$LAB_OUT/pareto-smoke.json"; then
  echo "FAIL: resume re-ran jobs the aborted campaign already completed"
  exit 1
fi
rm -rf "$LAB_OUT"

# The experiment CLI surface is defined in exactly one place
# (alf_bench::cli::Scale::from_args). A second `fn from_args` means a
# binary regrew its own argv parsing that can drift from the shared
# --scale/--jobs/--out surface.
echo "==> single Scale::from_args definition"
from_args_defs=$(grep -rn "pub fn from_args" crates src --include='*.rs' | wc -l)
if [ "$from_args_defs" -ne 1 ]; then
  grep -rn "pub fn from_args" crates src --include='*.rs' || true
  echo "FAIL: expected exactly 1 from_args definition, found $from_args_defs"
  exit 1
fi

# JSON formatting/escaping is defined in exactly one place
# (alf_obs::json). A second `fn json_escape` anywhere in the workspace
# means an emitter drifted off the shared writer.
echo "==> single json_escape implementation"
escape_impls=$(grep -rn "fn json_escape" crates src --include='*.rs' | wc -l)
if [ "$escape_impls" -ne 1 ]; then
  grep -rn "fn json_escape" crates src --include='*.rs' || true
  echo "FAIL: expected exactly 1 json_escape implementation, found $escape_impls"
  exit 1
fi

# The sparse-execution descriptor is defined in exactly one place
# (alf_tensor::ops::gemm). A second `ActiveRows` definition means a
# consumer grew its own liveness bookkeeping that can drift from the
# packing-stage elision contract.
echo "==> single ActiveRows definition"
active_rows_defs=$(grep -rn "pub struct ActiveRows" crates src --include='*.rs' | wc -l)
if [ "$active_rows_defs" -ne 1 ]; then
  grep -rn "pub struct ActiveRows" crates src --include='*.rs' || true
  echo "FAIL: expected exactly 1 ActiveRows definition, found $active_rows_defs"
  exit 1
fi

# The fused i8×i8→i32 micro-kernel is defined in exactly one place
# (alf_gemm_kernels::microkernel_i8_into). A second definition means a
# consumer regrew its own quantized inner loop that can drift from the
# exactness contract (f32 accumulation, KC·127² < 2²⁴).
echo "==> single i8 micro-kernel definition"
i8_kernel_defs=$(grep -rn "pub fn microkernel_i8_into" crates src --include='*.rs' | wc -l)
if [ "$i8_kernel_defs" -ne 1 ]; then
  grep -rn "pub fn microkernel_i8_into" crates src --include='*.rs' || true
  echo "FAIL: expected exactly 1 i8 micro-kernel definition, found $i8_kernel_defs"
  exit 1
fi

# Deployment flows through deploy::Pipeline and nothing else: a
# `compress` function in deploy.rs means a flat wrapper regrew beside the
# Pipeline API (and with it a path that bypasses fold/quantize
# provenance).
echo "==> no deploy::compress wrapper"
if grep -n "pub fn compress" crates/core/src/deploy.rs; then
  echo "FAIL: crates/core/src/deploy.rs defines a compress wrapper"
  exit 1
fi

# Sparsity reaches a GEMM only as a declared ActiveRows descriptor
# (gemm_active_rows_into / gemm_active_k_into). A scan-based sparse entry
# point or a conv-level zero-row hint means a second sparse path regrew
# that inspects weights instead of trusting the clipped mask.
echo "==> no scan-based sparse GEMM path"
if grep -rnE "gemm_sparse_lhs|matmul_sparse_lhs|sparse_weight_hint" crates src --include='*.rs'; then
  echo "FAIL: a scan-based sparse GEMM path is back"
  exit 1
fi

# CRC-32 is defined in exactly one place (alf_obs::crc). A second table
# definition means a framing or manifest consumer regrew its own
# checksum that can drift from the shared IEEE 802.3 implementation.
echo "==> single crc32 implementation"
crc_defs=$(grep -rn "fn crc32(" crates src --include='*.rs' | wc -l)
if [ "$crc_defs" -ne 1 ]; then
  grep -rn "fn crc32(" crates src --include='*.rs' || true
  echo "FAIL: expected exactly 1 crc32 implementation, found $crc_defs"
  exit 1
fi

# Outside bytes are read through one checked reader (alf_obs::wire::Reader),
# which bounds every count by the bytes remaining. Importing the read trait
# `bytes::Buf` (whose getters panic when short) or copying a blob into
# `Bytes` to read it means a decoder regrew its own bounds checks.
# Writing through `bytes::BufMut` stays allowed.
echo "==> no bytes::Buf readers in crates/"
if grep -rnE 'bytes::(\{[^}]*\bBuf\b|Buf\b)|Bytes::copy_from_slice' crates --include='*.rs'; then
  echo "FAIL: a decoder reads through bytes::Buf instead of alf_obs::wire::Reader"
  exit 1
fi

# The conv lowering is one loop nest (alf_tensor::ops::conv: `unfold`
# and the span walk it shares with col2im), used alike by f32 training,
# the f32 deploy path and int8 serving. A second `fn unfold`, or a kernel
# tap loop (`for ky in` / `for kx in`) in non-test code outside that walk
# and ops/reference.rs (the scalar loops kept for differential tests),
# means a caller regrew its own im2col that can drift from the bitwise
# contract.
echo "==> one conv lowering loop"
unfold_defs=$(grep -rnw "fn unfold" crates --include='*.rs' | wc -l)
if [ "$unfold_defs" -ne 1 ]; then
  grep -rnw "fn unfold" crates --include='*.rs' || true
  echo "FAIL: expected exactly 1 unfold definition, found $unfold_defs"
  exit 1
fi
tap_loops=$(find crates -name '*.rs' ! -path 'crates/tensor/src/ops/reference.rs' \
  -exec awk '/#\[cfg\(test\)\]/ { nextfile } /for k[xy] in / { print FILENAME ":" FNR ": " $0 }' {} +)
stray_loops=$(printf '%s\n' "$tap_loops" | grep -v '^crates/tensor/src/ops/conv.rs:' || true)
conv_loops=$(printf '%s\n' "$tap_loops" | grep -c '^crates/tensor/src/ops/conv.rs:' || true)
if [ -n "$stray_loops" ] || [ "$conv_loops" -ne 2 ]; then
  printf '%s\n' "$tap_loops"
  echo "FAIL: expected one ky/kx tap walk (in ops/conv.rs) outside ops/reference.rs"
  exit 1
fi

# The observability crate is the workspace's public-facing telemetry
# API; its docs must build clean.
echo "==> cargo doc -p alf-obs (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q -p alf-obs

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: all gates passed"
