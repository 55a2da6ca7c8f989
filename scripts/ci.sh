#!/usr/bin/env bash
# Tier-1 gate for this repository (see ROADMAP.md). Runs entirely offline:
# the workspace has no registry dependencies, so no network is required.
#
# Usage: scripts/ci.sh [--quick]
#   --quick   skip the release build (debug build + tests only)
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
if [[ "${1:-}" == "--quick" ]]; then
  quick=1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

if [[ "$quick" -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release --workspace
fi

# Layering: the training crate must not link the serving engine. The dense
# cells are the serial oracle; the pool enters the stack in `deploy` only.
echo "==> layering (rtm-rnn's dependency closure has no rtm-exec)"
closure=$(cargo tree --offline -e normal -p rtm-rnn)
if grep -q rtm-exec <<< "$closure"; then
  echo "FAIL: rtm-rnn depends on rtm-exec" >&2
  exit 1
fi
# The engine runs the formats of rtm-sparse and needs none of the compiler's
# analyses: BSPC's stripe-grouped row tiles are the reorder's grouping.
echo "==> layering (rtm-exec's dependency closure has no rtm-compiler)"
closure=$(cargo tree --offline -e normal -p rtm-exec)
if grep -q rtm-compiler <<< "$closure"; then
  echo "FAIL: rtm-exec depends on rtm-compiler" >&2
  exit 1
fi

# Feature sets: a `#[target_feature]` body may only name features its
# dispatcher detects at run time — an `f16c` body behind an `avx2 && fma`
# check is an illegal instruction on the one host that differs, and no test
# on this host can see it. Per kernel file: the features its attributes
# enable must all appear in its own `is_*_feature_detected!` calls, or, for a
# file that has none, in `simd.rs`'s (`simd::vector_available`, the check
# every other kernel file dispatches on).
echo "==> feature sets (every enabled target feature is one the dispatcher detects)"
for f in $(grep -l 'target_feature(enable' crates/tensor/src/*.rs); do
  checks=$f
  grep -q 'is_x86_feature_detected!' "$f" || checks=crates/tensor/src/simd.rs
  enabled=$(grep -oh 'target_feature(enable = "[^"]*")' "$f" | cut -d'"' -f2 | tr ',' '\n' | sort -u)
  detected=$(grep -oh 'is_[a-z0-9_]*_feature_detected!("[^"]*")' "$checks" | cut -d'"' -f2 | sort -u)
  missing=$(comm -23 <(echo "$enabled") <(echo "$detected") | tr '\n' ' ')
  if [[ -n "${missing// /}" ]]; then
    echo "FAIL: $f enables { $missing} but $checks never detects it" >&2
    exit 1
  fi
done

# FFI stays in one place: the serving crate's only `unsafe` is the call in
# `serve/server.rs`'s `poll(2)` shim (the event loop's readiness wait).
# Any other line of `crates/rtmobile/src` that says `unsafe` fails.
echo "==> unsafe in rtmobile (the poll(2) shim only)"
hits=$(grep -rn unsafe crates/rtmobile/src || true)
if [[ $(grep -c . <<< "$hits") -ne 1 || "$hits" != crates/rtmobile/src/serve/server.rs:*"unsafe { poll("* ]]; then
  echo "FAIL: unsafe outside the poll shim:" >&2
  echo "$hits" >&2
  exit 1
fi

# The fault-injection suite's decoder fuzz runs 10k seeded mutations by
# default; --quick trims it to 1k (same seeds, shorter schedule).
if [[ "$quick" -eq 1 ]]; then
  export RTM_FUZZ_ITERS=1000
fi

echo "==> cargo test -q (includes fault_injection + batched_contracts)"
cargo test -q --workspace

# Second pass with the SIMD dispatcher pinned to the scalar-u1 reference:
# proves the whole suite (including every bit-exactness guarantee) holds on
# the pre-SIMD arithmetic, not just on the host's vector path.
echo "==> cargo test -q (RTM_SIMD=off)"
RTM_SIMD=off cargo test -q --workspace

# Third pass with tracing globally enabled: the instrumented paths must
# not change any result (trace_contract proves bit-identity for one model;
# this proves the whole suite holds with every counter/span hot).
echo "==> cargo test -q (RTM_TRACE=on)"
RTM_TRACE=on cargo test -q --workspace

# Passes four and five flip knobs that only `rtmobile::{env, config}` read,
# so they re-run the crates that depend on `rtmobile` rather than the
# whole workspace; the root `tests/` suites are `rtmobile` test targets,
# so every contract suite still runs under every knob.
knob_crates=(-p rtmobile -p rtm-bench -p rtm-benchmark)

# Fourth pass with the runtime precision forced to int8: every pipeline /
# end-to-end test must hold when the compiled model stores quantized
# weights (the precision-specific differential suites run in every pass;
# this pass additionally reroutes every default-precision compile).
echo "==> cargo test -q ${knob_crates[*]} (RTM_PRECISION=int8)"
RTM_PRECISION=int8 cargo test -q "${knob_crates[@]}"

# Fifth pass with the streaming decoder rerouted to CTC prefix beam
# search: every pipeline / serve / decode-contract test must hold when the
# default decode path is the beam decoder (per-lane state, partials and
# endpoints live on every served stream).
echo "==> cargo test -q ${knob_crates[*]} (RTM_DECODER=ctc-beam:4)"
RTM_DECODER=ctc-beam:4 cargo test -q "${knob_crates[@]}"

# Two element-wise kernels have a hardware body and a scalar definition
# that must agree on every input: the f16 rounding sweep (F16C in the
# production step, software in the reference step) and the sigmoid / tanh
# sweeps (AVX2 body, scalar `activations::{sigmoid, tanh}`). Their
# exhaustive comparisons over all 2^32 inputs are #[ignore]d in the passes
# above (about a minute in release, hours in debug), so the full gate runs
# them here.
#
# The register tiles are `#[inline]` + `#[target_feature]` unsafe code that
# serves only as a release build; the passes above test the debug one.
#
# The same holds one level up: the one-utterance chunked loop, the one-lane
# head tiles and the f16 tiles run here as they ship, against the reference.
if [[ "$quick" -eq 0 ]]; then
  echo "==> cargo test -q --release -p rtm-tensor -p rtm-sparse (the kernels as they ship)"
  cargo test -q --release -p rtm-tensor -p rtm-sparse
  echo "==> cargo test -q --release -p rtmobile (the production loops as they ship)"
  cargo test -q --release -p rtmobile --test forward_chunk_contract --test head_tile_contract --test f16_tile_contract
  echo "==> cargo test --release -p rtm-tensor -- --ignored (f16 rounding + sigmoid/tanh sweeps, all 2^32 inputs)"
  cargo test --release -p rtm-tensor -- --ignored
fi

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Documentation is part of the gate: a deleted or renamed entry point must
# not leave a dangling intra-doc link behind (runs offline in seconds).
echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Smoke the perf benchmark binaries (tiny shapes, one iteration). Reports
# land under target/quick/, never clobbering the committed BENCH_*.json.
echo "==> benchmark smoke runs (--quick)"
profile=()
if [[ "$quick" -eq 0 ]]; then
  profile=(--release)
fi
for bin in parallel_spmv simd_kernels batched_spmm quant_kernels serve_load reload_bench rtf_bench; do
  cargo run -q "${profile[@]}" -p rtm-bench --bin "$bin" -- --quick >/dev/null
done

# Serve smoke: train-and-save a tiny model, then run the real `rtm serve`
# binary against it — ephemeral loopback port, one stream driven by the
# in-process smoke client, bit-identity check, clean shutdown.
echo "==> rtm serve smoke (ephemeral port, one stream, clean shutdown)"
mkdir -p target/quick
cargo run -q "${profile[@]}" -p rtmobile --bin rtm -- \
  pipeline --hidden 12 --save target/quick/serve_smoke.rtm >/dev/null
cargo run -q "${profile[@]}" -p rtmobile --bin rtm -- \
  serve target/quick/serve_smoke.rtm --smoke 1 | grep -q "serve smoke ok"

# Bundle-integrity smoke: compile an AOT bundle with the real `rtm compile`,
# flip one byte mid-file, and require `rtm serve` to refuse it with a
# nonzero exit and the typed checksum error (never serve corrupt weights).
echo "==> corrupt-bundle refusal (one flipped byte must be rejected)"
cargo run -q "${profile[@]}" -p rtmobile --bin rtm -- \
  compile --hidden 12 --out target/quick/compile_smoke.rtm >/dev/null
cp target/quick/compile_smoke.rtm target/quick/corrupt_smoke.rtm
size=$(wc -c < target/quick/corrupt_smoke.rtm)
off=$((size / 2))
orig=$(dd if=target/quick/corrupt_smoke.rtm bs=1 skip="$off" count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $(( orig ^ 16 )))" \
  | dd of=target/quick/corrupt_smoke.rtm bs=1 seek="$off" count=1 conv=notrunc 2>/dev/null
if out=$(cargo run -q "${profile[@]}" -p rtmobile --bin rtm -- \
    serve target/quick/corrupt_smoke.rtm --smoke 1 2>&1); then
  echo "FAIL: rtm serve accepted a corrupt bundle" >&2
  exit 1
fi
grep -q "checksum mismatch" <<< "$out"

# `rtm inspect` only promises to *report* on a corrupt file: exit status 1
# with the checksum verdicts on stdout (a panic would be 101), and a clean
# bill for the pristine bundle.
echo "==> rtm inspect (reports the corrupt bundle, passes the pristine one)"
status=0
out=$(cargo run -q "${profile[@]}" -p rtmobile --bin rtm -- \
  inspect target/quick/corrupt_smoke.rtm 2>/dev/null) || status=$?
[[ $status -eq 1 ]] || { echo "FAIL: inspect exited $status on a corrupt bundle" >&2; exit 1; }
grep -q "file checksum : MISMATCH" <<< "$out"
out=$(cargo run -q "${profile[@]}" -p rtmobile --bin rtm -- \
  inspect target/quick/compile_smoke.rtm)
[[ $(grep -c "checksum ok" <<< "$out") -eq 3 ]]

# One precision per compile: `--precision auto` is the f16 default, so a
# compile's bytes depend only on its flags and seed. Two auto compiles and
# one default compile, each to a fresh path (a republish bumps the
# generation stamp), must be byte-identical.
echo "==> rtm compile is reproducible (auto twice, default once, same bytes)"
for run in auto_1 auto_2 default; do
  rm -f "target/quick/repro_$run.rtm"
  prec=(--precision auto)
  [[ $run == default ]] && prec=()
  cargo run -q "${profile[@]}" -p rtmobile --bin rtm -- \
    compile --hidden 12 "${prec[@]}" --out "target/quick/repro_$run.rtm" >/dev/null
done
cmp target/quick/repro_auto_1.rtm target/quick/repro_auto_2.rtm
cmp target/quick/repro_auto_1.rtm target/quick/repro_default.rtm

# `inspect` reads RTM_HEALTH like every other command: a typo exits 1 and
# names the variable instead of silently meaning `off`.
echo "==> rtm inspect refuses a bad RTM_HEALTH"
status=0
err=$(RTM_HEALTH=bogus cargo run -q "${profile[@]}" -p rtmobile --bin rtm -- \
  inspect target/quick/compile_smoke.rtm 2>&1 >/dev/null) || status=$?
[[ $status -eq 1 ]] || { echo "FAIL: inspect exited $status under RTM_HEALTH=bogus" >&2; exit 1; }
grep -q RTM_HEALTH <<< "$err"

# Informational, never failing: the non-test line counts of the kernel
# layer and the dense cells, the figure the simplicity PRs' acceptance
# tables quote.
echo "==> non-test lines of the kernel layer (scripts/loc.sh)"
scripts/loc.sh crates/sparse/src/{bspc,csr,kernel,scratch}.rs \
  crates/tensor/src/{simd,simd_i8,gemm,activations}.rs crates/exec/src/{spmv,dense}.rs \
  crates/rnn/src/gru.rs || true

echo "CI gate passed."
