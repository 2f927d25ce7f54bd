#!/usr/bin/env bash
# Tier-1 verification for the ffdl workspace, plus doc build.
#
# The workspace is hermetic (no external crates), so everything here
# runs offline from a clean checkout. Tier-1 (ROADMAP.md) is the
# release build and the quiet test run; we extend to the full
# workspace and `cargo doc` so API regressions and doc-link rot are
# caught in the same pass.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release --offline --workspace

echo "== tier-1: tests =="
cargo test -q --offline --workspace

echo "== lint: clippy (warnings are errors) =="
cargo clippy --offline --workspace -- -D warnings

echo "== guard: one mechanism (worker core, request path and Algorithm 1 each written once) =="
# serve, sched and stream share one model slot, one quarantine ->
# rollback routine, one request-path catch_unwind and one batch step
# (crates/serve/src/supervise.rs) behind one bounded queue and one wake
# protocol (crates/serve/src/queue.rs; DESIGN.md "Supervised worker
# core"), and every circulant layer shares one block-spectral product
# under both algorithms: the three multiply-accumulate kernels are *called*
# from one file only (crates/core/src/spectral.rs, DESIGN.md "Algorithm 1,
# once"). Each pattern must match in exactly one non-test source file: a
# second match is a private copy growing back.
non_test_source() {
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$1"
}
non_test_files_matching() {
    for f in crates/*/src/*.rs crates/*/src/*/*.rs; do
        # (not grep -q: an early exit would SIGPIPE awk under pipefail)
        non_test_source "$f" | grep -E "$1" > /dev/null && echo "$f"
    done || true
}
for pattern in 'struct GenRecord' 'const HISTORY_DEPTH' 'fn (handle|report)_unhealthy' 'catch_unwind\(' \
    'SpectralKernel::mul_accumulate\(' 'SpectralKernel::mul_accumulate_levels\(' \
    'SpectralKernel::mul_conj_accumulate\('; do
    hits="$(non_test_files_matching "${pattern}")"
    if [ "$(echo "${hits}" | grep -c .)" -ne 1 ]; then
        echo "one-mechanism guard: '${pattern}' must appear in exactly one file, found:" >&2
        echo "${hits:-  (none)}" >&2
        exit 1
    fi
    echo "'${pattern}' only in ${hits}"
done
# Algorithm 1 in two halves (DESIGN.md "Algorithm 1, once"): the view
# product is *the* product, so spectral.rs calls the weight source once;
# the forward-transform loop lives in spectra_of alone; and the only
# im2col lowering left in core is the CONV layer's b-does-not-divide-C
# fallback.
count_non_test() {
    for f in $2; do non_test_source "$f"; done | grep -cE "$1" || true
}
for check in 'weights\.accumulate\(|crates/core/src/spectral.rs' \
    '\.forward_into_slice\(|crates/core/src/*.rs' \
    'im2col_into\(|crates/core/src/*.rs'; do
    pattern="${check%%|*}"
    # shellcheck disable=SC2086  # the file list is a glob on purpose
    hits="$(count_non_test "${pattern}" "${check#*|}")"
    if [ "${hits}" -ne 1 ]; then
        echo "one-mechanism guard: '${pattern}' must appear exactly once in ${check#*|}, found ${hits}" >&2
        exit 1
    fi
    echo "'${pattern}' once in ${check#*|}"
done
# Input spectra have one form, the flat X-hat buffer read through a view:
# the enum that copied them out per row must not come back.
if grep -rn 'InputSpectra' crates/; then
    echo "one-mechanism guard: 'InputSpectra' is back under crates/ (input spectra are the flat buffer plus a view, kept or not)" >&2
    exit 1
fi
if ! awk '/fn spectra_of/,/^    }$/' crates/core/src/spectral.rs | grep -q '\.forward_into_slice('; then
    echo "one-mechanism guard: the forward-transform loop must live in SpectralKernel::spectra_of" >&2
    exit 1
fi
# One request path: the only condvar queues are the shared BoundedQueue
# and the WDRR dispatcher (which parks through the queue's protocol), and
# only the shared batch step, stream's per-session step and sched's
# offline breaker probe run an engine under supervision.
only_in() {
    hits="$(non_test_files_matching "$1" | tr '\n' ' ')"
    if [ "${hits}" != "$2 " ]; then
        echo "one-mechanism guard: '$1' must appear in $2 only, found: ${hits:-(none)}" >&2
        exit 1
    fi
    echo "'$1' only in ${hits}"
}
only_in 'Condvar::new\(' 'crates/sched/src/wdrr.rs crates/serve/src/queue.rs'
only_in 'run_supervised\(' 'crates/sched/src/pool.rs crates/serve/src/supervise.rs crates/stream/src/server.rs'
if grep 'run_supervised(' crates/sched/src/pool.rs | grep -v '"sched.breaker.probe"' > /dev/null; then
    echo "one-mechanism guard: crates/sched/src/pool.rs may call run_supervised( from the breaker probe only" >&2
    exit 1
fi
if [ -e crates/stream/src/queue.rs ]; then
    echo "one-mechanism guard: crates/stream/src/queue.rs is back (the stack has one queue: crates/serve/src/queue.rs)" >&2
    exit 1
fi
# Network has one layer loop; the telemetry-on copy of it must not come
# back.
hits="$(non_test_files_matching 'fn forward_instrumented')"
if [ -n "${hits}" ]; then
    echo "one-mechanism guard: 'fn forward_instrumented' is back in ${hits}" >&2
    exit 1
fi
# One forward pass: a layer writes its arithmetic once, in
# Layer::forward_with; forward / forward_infer exist only as the trait's
# provided methods and Network's entry points (DESIGN.md "One forward
# pass"). A third file defining either is the fork growing back.
for pattern in 'fn forward_infer' 'fn forward\(&mut self, input: &Tensor\)'; do
    hits="$(non_test_files_matching "${pattern}" | tr '\n' ' ')"
    if [ "${hits}" != "crates/nn/src/layer.rs crates/nn/src/network.rs " ]; then
        echo "one-mechanism guard: '${pattern}' must be defined in nn/src/{layer,network}.rs only, found: ${hits:-(none)}" >&2
        exit 1
    fi
    echo "'${pattern}' only in ${hits}"
done
# One prediction rule: the row-argmax lives next to softmax_rows.
hits="$(non_test_files_matching '\.max_by\(\|a, b\| a\.1\.partial_cmp')"
if [ "${hits}" != "crates/nn/src/softmax.rs" ]; then
    echo "one-mechanism guard: the row-argmax must appear in crates/nn/src/softmax.rs only, found: ${hits:-(none)}" >&2
    exit 1
fi
echo "row-argmax only in ${hits}"
# One dense product under every Dense and Conv2d: Tensor::matmul_into (and
# the loop it calls, matmul_into_rows) is written once, and it compacts a
# row's non-zero terms instead of branching on each zero (a mispredict on
# every other post-ReLU term).
only_in 'fn matmul_into' 'crates/tensor/src/ops.rs'
if { awk '/fn (matmul_into(_rows)?|taps_matmul_into)\(/,/^    }$/' crates/tensor/src/ops.rs
    awk '/^fn accumulate\(/,/^}$/' crates/tensor/src/ops.rs; } | grep -nE 'continue|== 0\.0' >&2; then
    echo "one-mechanism guard: a 'continue' or an '== 0.0' is back in Tensor::matmul_into or its tap view (compact the non-zero terms, do not branch on each)" >&2
    exit 1
fi
# No im2col matrix in the inference pass (DESIGN.md §3): Conv2d's forward
# product reads its lowered rows as taps of the driver's pixel-major image
# (Tensor::taps_matmul_into), so crates/nn/src/conv.rs lowers with
# im2col_into( at most once, in Conv2d::backward; and the pixel-major
# staging of a sample is ConvShape::forward's, not a layer's.
total="$(count_non_test 'im2col_into\(' crates/nn/src/conv.rs)"
in_backward="$(awk '/^impl Layer for Conv2d/,/^}$/' crates/nn/src/conv.rs |
    awk '/fn backward\(/,/^    }$/' | grep -c 'im2col_into(' || true)"
if [ "${total}" -gt 1 ] || [ "${total}" -ne "${in_backward}" ]; then
    echo "one-mechanism guard: crates/nn/src/conv.rs calls im2col_into( ${total} times, ${in_backward} of them in Conv2d::backward (the forward pass reads taps, it builds no im2col matrix)" >&2
    exit 1
fi
only_in '\[[a-z]+ \* c \+ ch\] = ' 'crates/nn/src/conv.rs'
echo "no im2col matrix in the CONV forward pass; one pixel-major staging, in ConvShape"
# The deployable CONV layers are the dense and the block-circulant one: the
# §I FFT-convolution baseline (LeCun et al. [11]) is experiment A3's
# forward-only fixture in crates/bench/src, in no registry or grammar.
hits="$(non_test_files_matching 'FftConv2d|fft_conv2d|"fft_conv"' | grep -v '^crates/bench/src/' || true)"
if [ -n "${hits}" ]; then
    echo "one-mechanism guard: a deployable FFT-convolution layer is back outside crates/bench/src:" >&2
    echo "${hits}" >&2
    exit 1
fi
echo "FFT-convolution baseline only in crates/bench/src"
# One CONV driver (DESIGN.md §3): Conv2d and CirculantConv2d keep only their
# product and weight gradient. The tap rule (which input pixel tap (ki, kj)
# of an output pixel reads, or padding) is ConvGeometry::for_each_tap in
# crates/tensor/src/image.rs, where conv2d_direct, the reference oracle,
# keeps its own; the [oh*ow, P] <-> [P, oh, ow] output tail and gradient
# gather are ConvShape::{forward, backward}'s in crates/nn/src/conv.rs, and
# not Conv2d's, which shares that file.
only_in 'stride \+ k[ij]\b|wrapping_sub\(.*pad' 'crates/tensor/src/image.rs'
only_in '\[pix \* [a-z_.]+ \+ p\]' 'crates/nn/src/conv.rs'
if awk '/^impl Layer for Conv2d/,/^}$/' crates/nn/src/conv.rs | grep -nE 'pix \*|for p in 0\.\.' >&2; then
    echo "one-mechanism guard: Conv2d keeps its own output tail or gradient gather (the driver is ConvShape's)" >&2
    exit 1
fi
hits="$(non_test_files_matching 'for p in 0\.\.self\.out_channels')"
if [ -n "${hits}" ]; then
    echo "one-mechanism guard: a per-layer [oh*ow, P] transpose is back in ${hits}" >&2
    exit 1
fi
echo "CONV tap rule only in crates/tensor/src/image.rs, output tail and gradient gather only in ConvShape"
# One block grid under every circulant layer (DESIGN.md "Algorithm 1,
# once"): BlockGrid in crates/core/src/circulant.rs owns the ceil(dim/b)
# padding, the transform cost of the op count (leading_zeros), the
# [in, out, block] config words and the [rows, in_dim] input screen. No
# layer file in core computes any of them itself; spectral.rs pads the
# rows it transforms.
core_hits() {
    non_test_files_matching "$1" | grep '^crates/core/src/' | tr '\n' ' ' || true
}
hits="$(core_hits 'leading_zeros')"
if [ "${hits}" != "crates/core/src/circulant.rs " ]; then
    echo "one-mechanism guard: 'leading_zeros' (the transform cost) must appear in crates/core/src/circulant.rs only, found: ${hits:-(none)}" >&2
    exit 1
fi
hits="$(core_hits 'div_ceil\(' | tr ' ' '\n' | grep -vE '^crates/core/src/(circulant|spectral)\.rs$' || true)"
if [ -n "${hits}" ]; then
    echo "one-mechanism guard: 'div_ceil(' (the block padding) outside crates/core/src/{circulant,spectral}.rs:" >&2
    echo "${hits}" >&2
    exit 1
fi
if grep -rn 'check_batch_input' crates/ >&2; then
    echo "one-mechanism guard: 'check_batch_input' is back (the input screen is BlockGrid::check_input)" >&2
    exit 1
fi
echo "block padding, transform cost and input screen only in BlockGrid"
# Layering: the serving runtime does not link the bench harness.
if grep -q 'ffdl-bench' crates/serve/Cargo.toml; then
    echo "layering guard: crates/serve/Cargo.toml names ffdl-bench" >&2
    exit 1
fi

echo "== benchmark smoke (benchmark/ builds and runs against this workspace) =="
# benchmark/ is a workspace of its own that imports the kernel parts and
# re-executes Algorithm 1 from them; a signature drift fails here instead
# of in the benchmark pipeline.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --workload all --smoke

echo "== serve smoke test =="
serve_out="$(cargo run --release --offline -q -p ffdl-cli -- serve-bench --workers 2 --requests 64)"
echo "${serve_out}"
echo "${serve_out}" | grep -q "serve stats" || {
    echo "serve smoke test: stats table missing" >&2
    exit 1
}

echo "== telemetry smoke test (--metrics on) =="
metrics_out="$(cargo run --release --offline -q -p ffdl-cli -- serve-bench --workers 2 --requests 64 --metrics on)"
for metric in \
    "ffdl.serve.requests" \
    "ffdl.serve.batch_size" \
    "ffdl.serve.queue_wait_ns" \
    "ffdl.serve.rejections" \
    "ffdl.fft.plan_cache.miss" \
    "ffdl.nn.forward_ns" \
    "ffdl.deploy.predict_ns"; do
    echo "${metrics_out}" | grep -q "${metric}" || {
        echo "telemetry smoke test: metric ${metric} missing from --metrics output" >&2
        exit 1
    }
done

echo "== registry smoke test (publish v1 -> serve -> publish v2 -> swap -> rollback) =="
store="$(mktemp -d)"
arch_file="${store}/net.arch"
printf 'input 16\ncirculant_fc 16 block=4\nrelu\nfc 4\nsoftmax\n' > "${arch_file}"
ffdl=(cargo run --release --offline -q -p ffdl-cli --)
out="$("${ffdl[@]}" model publish --store "${store}" --name prod --arch "${arch_file}" --seed 1)"
echo "${out}" | grep -q "generation 1" \
    || { echo "registry smoke test: first publish did not land as generation 1" >&2; exit 1; }
out="$("${ffdl[@]}" model publish --store "${store}" --name prod --arch "${arch_file}" --seed 2)"
echo "${out}" | grep -q "generation 2" \
    || { echo "registry smoke test: second publish did not bump the generation" >&2; exit 1; }
out="$("${ffdl[@]}" model rollback --store "${store}" --name prod)"
echo "${out}" | grep -q "new active generation 3" \
    || { echo "registry smoke test: rollback did not allocate generation 3" >&2; exit 1; }
out="$("${ffdl[@]}" model list --store "${store}" --name prod)"
echo "${out}" | grep -q "rollback of 1" \
    || { echo "registry smoke test: rollback provenance missing from list" >&2; exit 1; }
# Live hot-swap through the same pool the serve smoke test uses: two
# registry-mediated swaps mid-run must leave the pool on generation 3.
swap_out="$("${ffdl[@]}" serve-bench --workers 2 --requests 64 --swap-every 24)"
echo "${swap_out}" | grep -q "hot-swap: 2 registry-mediated swaps" || {
    echo "registry smoke test: serve-bench --swap-every did not report its swaps" >&2
    exit 1
}
echo "${swap_out}" | grep -q "final generation 3" || {
    echo "registry smoke test: pool did not reach generation 3" >&2
    exit 1
}
rm -rf "${store}"

echo "== quant smoke test (quantize -> serve -> top-1 agreement) =="
# Publish an f32 model, publish its int16 quantization as the next
# generation, then serve the quantized precision end to end. The served
# quantized model must agree with its f32 parent on >= 99% of top-1
# decisions (DESIGN.md §14: int16 is decision-lossless at this scale).
store="$(mktemp -d)"
arch_file="${store}/net.arch"
printf 'input 16\ncirculant_fc 16 block=4\nrelu\nfc 4\nsoftmax\n' > "${arch_file}"
out="$("${ffdl[@]}" model publish --store "${store}" --name prod --arch "${arch_file}" --seed 1)"
out="$("${ffdl[@]}" model quantize --store "${store}" --name prod --bits 16)"
echo "${out}" | grep -q "published generation 2" || {
    echo "quant smoke test: model quantize did not publish a child generation" >&2
    exit 1
}
out="$("${ffdl[@]}" model list --store "${store}" --name prod)"
echo "${out}" | grep -q -- "-int16" || {
    echo "quant smoke test: quantized generation's derived arch label missing from list" >&2
    exit 1
}
rm -rf "${store}"
quant_out="$("${ffdl[@]}" serve-bench --workers 2 --requests 64 --quantized 16)"
echo "${quant_out}" | grep -q "quantized: int16" || {
    echo "quant smoke test: serve-bench --quantized did not report the quantized precision" >&2
    exit 1
}
agreement="$(echo "${quant_out}" | sed -n 's/.*top-1 agreement \([0-9.]*\)%.*/\1/p')"
awk -v a="${agreement}" 'BEGIN {
    if (a == "") { print "quant smoke test: top-1 agreement missing from serve-bench output" > "/dev/stderr"; exit 1 }
    printf "served int16 top-1 agreement vs f32: %.2f%%\n", a
    if (a + 0 < 99) { print "quant smoke test: top-1 agreement below 99%" > "/dev/stderr"; exit 1 }
}'

# bench_field FILE LABEL_REGEX FIELD: the number after "FIELD": in the
# (last) row of FILE that matches LABEL_REGEX — empty when no row has it.
# The guards below read the committed JSON through this one function and
# keep their own thresholds and messages.
bench_field() {
    awk -v row="$2" -v field="\"$3\": " '
        $0 ~ row && match($0, field "-?[0-9.]+") { v = substr($0, RSTART + length(field), RLENGTH - length(field)) }
        END { print v }
    ' "$1"
}

echo "== bench guard: quantized forward latency + model bytes in BENCH_quant.json =="
# The dequantization-free serving claim (DESIGN.md §14): int16 spectra
# must forward within 15% of the f32 spectral path (the scale is applied
# once per output block, never per MAC) while the model file shrinks to
# at most 55% of the f32 payload. Sizes ride in the bench rows' "size"
# field as exact wire-format bytes.
awk -v f32_ns="$(bench_field BENCH_quant.json '"label": "forward/f32_spectral"' median_ns)" \
    -v f32_bytes="$(bench_field BENCH_quant.json '"label": "forward/f32_spectral"' size)" \
    -v q_ns="$(bench_field BENCH_quant.json '"label": "forward/int16"' median_ns)" \
    -v q_bytes="$(bench_field BENCH_quant.json '"label": "forward/int16"' size)" 'BEGIN {
        if (f32_ns == "" || q_ns == "" || f32_bytes == "" || q_bytes == "") { print "bench guard: forward/f32_spectral or forward/int16 rows missing from BENCH_quant.json" > "/dev/stderr"; exit 1 }
        lat = q_ns / f32_ns; bytes = q_bytes / f32_bytes
        printf "int16/f32 forward median ratio: %.3fx, model bytes ratio: %.3f\n", lat, bytes
        if (lat > 1.15)    { print "bench guard: int16 forward latency above 1.15x the f32 spectral path" > "/dev/stderr"; exit 1 }
        if (bytes > 0.55)  { print "bench guard: int16 model bytes above 55% of the f32 payload" > "/dev/stderr"; exit 1 }
    }'

echo "== bench guard: frozen spectral Arch. 1 vs dense in BENCH_inference.json =="
# The paper's claim as a committed measurement (ROADMAP "make the FFT
# path win"): at Arch. 1's own size the frozen block-circulant network
# — FFT, multiply-accumulate, IFFT — must forward in at most 0.7x the
# time of its dense equivalent.
awk -v frozen="$(bench_field BENCH_inference.json '"label": "arch1_spectral_frozen"' median_ns)" \
    -v dense="$(bench_field BENCH_inference.json '"label": "arch1_dense_baseline"' median_ns)" 'BEGIN {
        if (frozen == "" || dense == "") { print "bench guard: arch1_spectral_frozen/arch1_dense_baseline rows missing from BENCH_inference.json" > "/dev/stderr"; exit 1 }
        ratio = frozen / dense
        printf "arch1_spectral_frozen / arch1_dense_baseline median ratio: %.3fx\n", ratio
        if (ratio > 0.7) { print "bench guard: frozen spectral Arch. 1 above 0.7x the dense baseline" > "/dev/stderr"; exit 1 }
    }'

echo "== bench guard: circulant vs dense CONV at Arch. 3's shape in BENCH_conv_reformulation.json =="
# Table III's layer as a committed measurement: 64 -> 128 filters on 28x28,
# 3x3, b = 64. The block-circulant layer reads a spectral image of the
# input (one transform a pixel, not one per kernel offset) and must
# forward in at most 0.2x the time of the dense im2col layer (0.25 when
# it still lowered every row).
awk -v circ="$(bench_field BENCH_conv_reformulation.json '"label": "arch3_circulant_conv_layer"' median_ns)" \
    -v dense="$(bench_field BENCH_conv_reformulation.json '"label": "arch3_dense_conv_layer"' median_ns)" 'BEGIN {
        if (circ == "" || dense == "") { print "bench guard: arch3_circulant_conv_layer/arch3_dense_conv_layer rows missing from BENCH_conv_reformulation.json" > "/dev/stderr"; exit 1 }
        ratio = circ / dense
        printf "arch3_circulant_conv_layer / arch3_dense_conv_layer median ratio: %.3fx\n", ratio
        if (ratio > 0.2) { print "bench guard: circulant CONV above 0.2x the dense layer at Arch. 3 shape" > "/dev/stderr"; exit 1 }
    }'

echo "== chaos smoke test (--chaos: deterministic fault injection) =="
# One seeded campaign over a swapping run: a worker panic (restart), a
# latency spike, a NaN activation (typed failure) and a bit flip on a
# registry load (typed Corrupt, swap skipped). The run must finish and
# report every injected fault. Same seed, same faults.
chaos_out="$(cargo run --release --offline -q -p ffdl-cli -- \
    serve-bench --workers 2 --requests 64 --swap-every 16 --chaos 7 --deadline-ms 2000 2>/dev/null)"
echo "${chaos_out}" | grep -q "chaos: seed 7, injected 1 panics, 1 latency spikes, 1 NaN activations, 1 bit flips" || {
    echo "chaos smoke test: fault summary missing or campaign not fully consumed" >&2
    exit 1
}
echo "${chaos_out}" | grep -q "1 corrupt swap loads tolerated" || {
    echo "chaos smoke test: injected bit flip was not caught as a typed Corrupt swap" >&2
    exit 1
}
echo "${chaos_out}" | grep -q "1 worker restarts" || {
    echo "chaos smoke test: injected panic did not surface as a worker restart" >&2
    exit 1
}
echo "${chaos_out}" | grep -q "serve stats" || {
    echo "chaos smoke test: run did not survive to its stats table" >&2
    exit 1
}

echo "== sched smoke test (--tenants 2: WDRR + open-loop driver) =="
# Two tenants, 8:1 weights, high/normal classes, seeded open-loop
# Poisson arrivals, autoscale 1->2. Must print the per-tenant breakdown
# with SLO attainment and the autoscale summary.
sched_out="$(cargo run --release --offline -q -p ffdl-cli -- \
    serve-bench --tenants 2 --tenant-weights 8,1 --tenant-classes high,normal \
    --rate-rps 300 --duration-ms 400 --slo-ms 25 \
    --workers 1 --max-workers 2 --seed 7)"
echo "${sched_out}"
echo "${sched_out}" | grep -q "serve-bench\[sched\]" || {
    echo "sched smoke test: multi-tenant header missing" >&2
    exit 1
}
for tenant in "tenant t0: weight 8 class high" "tenant t1: weight 1 class normal"; do
    echo "${sched_out}" | grep -q "${tenant}" || {
        echo "sched smoke test: per-tenant line '${tenant}' missing" >&2
        exit 1
    }
done
echo "${sched_out}" | grep -q "slo-attainment" || {
    echo "sched smoke test: SLO attainment missing from per-tenant lines" >&2
    exit 1
}
echo "${sched_out}" | grep -q "autoscale:" || {
    echo "sched smoke test: autoscale summary missing" >&2
    exit 1
}

echo "== bench guard: priority-tenant SLO attainment in BENCH_sched.json =="
# The overload scenario (DESIGN.md §13): a high-class tenant sharing the
# pool with a saturating bulk tenant while the autoscaler grows 1->4.
# Priority preemption must hold the prio tenant at >= 0.95 attainment,
# and the autoscaler must actually have fired (scale_ups >= 1).
awk -v prio="$(bench_field BENCH_sched.json '"label": "overload", "tenant": "prio"' slo_attainment)" \
    -v ups="$(bench_field BENCH_sched.json '"label": "overload", "tenants":' scale_ups)" 'BEGIN {
        if (prio == "" || ups == "") { print "bench guard: overload rows missing from BENCH_sched.json" > "/dev/stderr"; exit 1 }
        printf "overload prio slo_attainment: %.4f, scale_ups: %d\n", prio, ups
        if (prio + 0 < 0.95) { print "bench guard: priority tenant attainment below 0.95 under overload" > "/dev/stderr"; exit 1 }
        if (ups + 0 < 1)     { print "bench guard: autoscaler never scaled up under overload" > "/dev/stderr"; exit 1 }
    }'

echo "== brownout smoke test (--brownout on: ladder publish + controller) =="
# Two tenants with a pre-published f32/int16/int8 ladder on tenant 0 and
# the closed-loop controller enabled. The run must report the ladder it
# published and one brownout line per ladder-bearing tenant.
brownout_out="$(cargo run --release --offline -q -p ffdl-cli -- \
    serve-bench --tenants 2 --tenant-weights 8,1 --tenant-classes normal,high \
    --brownout on --ladder f32,int16,int8 --target-delay-ms 10 \
    --rate-rps 300 --duration-ms 400 --slo-ms 25 \
    --workers 1 --max-workers 2 --seed 7)"
echo "${brownout_out}"
echo "${brownout_out}" | grep -q "ladder:" || {
    echo "brownout smoke test: ladder line missing (precision rungs not published?)" >&2
    exit 1
}
echo "${brownout_out}" | grep -q "brownout: t0 peak level" || {
    echo "brownout smoke test: per-tenant brownout summary missing" >&2
    exit 1
}

echo "== bench guard: brownout isolation + recovery in BENCH_sched.json =="
# The graceful-degradation claim (DESIGN.md §16): under the 8:1 skew
# with the heavy tenant 1.5x over f32 capacity, the ladder must keep the
# heavy tenant >= 0.5 attainment (instead of shed collapse), hold the
# high-class light tenant >= 0.9, and the committed brownout row must
# show a real round trip: peak_level >= 1 degraded, final_level == 0
# recovered.
awk -v heavy="$(bench_field BENCH_sched.json '"label": "skewed_8to1_brownout", "tenant": "heavy", "requests"' slo_attainment)" \
    -v light="$(bench_field BENCH_sched.json '"label": "skewed_8to1_brownout", "tenant": "light", "requests"' slo_attainment)" \
    -v peak="$(bench_field BENCH_sched.json '"label": "skewed_8to1_brownout", "tenant": "heavy", "peak_level"' peak_level)" \
    -v final="$(bench_field BENCH_sched.json '"label": "skewed_8to1_brownout", "tenant": "heavy", "peak_level"' final_level)" 'BEGIN {
        if (heavy == "" || light == "" || peak == "") { print "bench guard: skewed_8to1_brownout rows missing from BENCH_sched.json" > "/dev/stderr"; exit 1 }
        printf "brownout skew: heavy slo_attainment %.4f, light %.4f, peak level %d -> final %d\n", heavy, light, peak, final
        if (heavy + 0 < 0.5)  { print "bench guard: heavy tenant attainment below 0.5 despite the ladder" > "/dev/stderr"; exit 1 }
        if (light + 0 < 0.9)  { print "bench guard: light tenant attainment below 0.9 under brownout" > "/dev/stderr"; exit 1 }
        if (peak + 0 < 1)     { print "bench guard: controller never degraded (peak_level 0)" > "/dev/stderr"; exit 1 }
        if (final + 0 != 0)   { print "bench guard: controller never recovered to full precision" > "/dev/stderr"; exit 1 }
    }'

echo "== bench guard: ladder win + recovery in BENCH_brownout.json =="
# The same 2.5x one-second spike with and without the ladder: the ladder
# run must beat the baseline attainment by >= 0.3 absolute, reach
# peak_level >= 1, and end recovered (final_level 0, recovery_ms >= 0).
awk -v base="$(bench_field BENCH_brownout.json '"label": "spike_no_ladder"' slo_attainment)" \
    -v ladder="$(bench_field BENCH_brownout.json '"label": "spike_ladder"' slo_attainment)" \
    -v peak="$(bench_field BENCH_brownout.json '"label": "spike_ladder"' peak_level)" \
    -v final="$(bench_field BENCH_brownout.json '"label": "spike_ladder"' final_level)" \
    -v recovery="$(bench_field BENCH_brownout.json '"label": "spike_ladder"' recovery_ms)" 'BEGIN {
        if (base == "" || ladder == "" || recovery == "") { print "bench guard: spike rows missing from BENCH_brownout.json" > "/dev/stderr"; exit 1 }
        printf "spike attainment: no ladder %.4f -> ladder %.4f, peak level %d, recovery %.0f ms\n", base, ladder, peak, recovery
        if (ladder - base < 0.3) { print "bench guard: ladder attainment win below 0.3 over the no-ladder baseline" > "/dev/stderr"; exit 1 }
        if (peak + 0 < 1)        { print "bench guard: spike never degraded the ladder" > "/dev/stderr"; exit 1 }
        if (final + 0 != 0)      { print "bench guard: ladder never recovered after the spike" > "/dev/stderr"; exit 1 }
        if (recovery + 0 < 0)    { print "bench guard: recovery_ms missing (controller never returned to level 0)" > "/dev/stderr"; exit 1 }
    }'

echo "== bench guard: monotone worker scaling in BENCH_sched.json =="
# With the delay layer pinning service time, added workers must add real
# concurrency: throughput w4 >= w2 >= w1 (2% tolerance for the load
# generator sharing the box).
awk -v w1="$(bench_field BENCH_sched.json '"label": "scale_w1", "tenants":' throughput_rps)" \
    -v w2="$(bench_field BENCH_sched.json '"label": "scale_w2", "tenants":' throughput_rps)" \
    -v w4="$(bench_field BENCH_sched.json '"label": "scale_w4", "tenants":' throughput_rps)" 'BEGIN {
        if (w1 == "" || w2 == "" || w4 == "") { print "bench guard: scale_w* rows missing from BENCH_sched.json" > "/dev/stderr"; exit 1 }
        printf "worker scaling: w1 %.0f -> w2 %.0f -> w4 %.0f req/s\n", w1, w2, w4
        if (w2 + 0 < 0.98 * w1 || w4 + 0 < 0.98 * w2) { print "bench guard: worker scaling not monotone" > "/dev/stderr"; exit 1 }
    }'

echo "== bench guard: deadline bookkeeping in BENCH_registry.json =="
# Deadline-aware serving (DESIGN.md §11): with a deadline configured,
# every admission stamps an Instant and every dequeue compares it. The
# committed serve_64req_deadline row must stay within 5% of the no-swap
# row. Compared at min_ns — the noise floor — because the medians of
# these ~0.5 ms closed-loop rows jitter more than the effect measured.
awk -v base="$(bench_field BENCH_registry.json '"label": "serve_64req_no_swap"' min_ns)" \
    -v deadline="$(bench_field BENCH_registry.json '"label": "serve_64req_deadline"' min_ns)" 'BEGIN {
        if (base == "" || deadline == "") { print "bench guard: serve_64req_no_swap/serve_64req_deadline rows missing from BENCH_registry.json" > "/dev/stderr"; exit 1 }
        ratio = deadline / base
        printf "serve_64req_deadline / serve_64req_no_swap min ratio: %.3fx\n", ratio
        if (ratio > 1.05) { print "bench guard: deadline bookkeeping above 5%" > "/dev/stderr"; exit 1 }
    }'

echo "== bench guard: batching win in BENCH_serve.json =="
# The dynamic-batching claim (DESIGN.md §7): batching must still beat
# unbatched single-worker serving. The guard compares the BEST batched
# row against w1_b1 at 1.05x: the historical 1.5x was carried by the
# per-request weight-spectra recompute, which the Arc-shared spectra
# cache eliminated — unbatched serving got ~3x faster, so batching's
# remaining (real) win is dispatch amortization, and the single-core CI
# box adds scheduling noise to any individual multi-worker row.
awk -v base="$(bench_field BENCH_serve.json '"label": "w1_b1"' throughput_rps)" \
    -v b1="$(bench_field BENCH_serve.json '"label": "w1_b16"' throughput_rps)" \
    -v b2="$(bench_field BENCH_serve.json '"label": "w2_b16"' throughput_rps)" \
    -v b4="$(bench_field BENCH_serve.json '"label": "w4_b16"' throughput_rps)" 'BEGIN {
        batched = b1 + 0
        if (b2 + 0 > batched) batched = b2 + 0
        if (b4 + 0 > batched) batched = b4 + 0
        if (base == "" || batched == 0) { print "bench guard: w1_b1/w*_b16 rows missing from BENCH_serve.json" > "/dev/stderr"; exit 1 }
        ratio = batched / base
        printf "best batched / w1_b1 throughput ratio: %.2fx\n", ratio
        if (ratio < 1.05) { print "bench guard: batching win below 1.05x" > "/dev/stderr"; exit 1 }
    }'

echo "== bench guard: hot-swap overhead in BENCH_registry.json =="
# The zero-copy swap claim: a swap is an O(1) Arc+generation exchange,
# and each worker adopts it with a structural clone that only bumps
# parameter refcounts. Swapping every 16 requests must therefore keep
# the closed-loop median within 15% of the no-swap run.
awk -v base="$(bench_field BENCH_registry.json '"label": "serve_64req_no_swap"' median_ns)" \
    -v swap="$(bench_field BENCH_registry.json '"label": "serve_64req_swap_every_16"' median_ns)" 'BEGIN {
        if (base == "" || swap == "") { print "bench guard: serve_64req_no_swap/serve_64req_swap_every_16 rows missing from BENCH_registry.json" > "/dev/stderr"; exit 1 }
        ratio = swap / base
        printf "serve_64req_swap_every_16 / serve_64req_no_swap median ratio: %.3fx\n", ratio
        if (ratio > 1.15) { print "bench guard: hot-swap overhead above 15%" > "/dev/stderr"; exit 1 }
    }'

echo "== bench guard: disabled telemetry path in BENCH_telemetry.json =="
# The contract that lets metric hooks live in hot loops (DESIGN.md §8):
# with telemetry off, a guarded hook is one relaxed atomic load plus a
# branch. The streaming worker's per-step hook pattern (counter bump +
# latency record) must stay under 5 ns/op absolute when disabled.
awk -v ns="$(bench_field BENCH_telemetry.json '"label": "disabled/stream_step_hooks"' median_ns)" 'BEGIN {
        if (ns == "") { print "bench guard: disabled/stream_step_hooks row missing from BENCH_telemetry.json" > "/dev/stderr"; exit 1 }
        printf "disabled stream step hooks: %.1f ns/op\n", ns
        if (ns + 0 > 5) { print "bench guard: disabled telemetry path above 5 ns/op" > "/dev/stderr"; exit 1 }
    }'

echo "== stream smoke test (--stream: open -> step x16 -> close) =="
# One sticky session stepped 16 times through the block-circulant GRU.
# The run must survive to its stream stats table, answer every step,
# and — run twice with the same seed — produce the same prediction
# digest: per-session hidden state makes streaming output a pure
# function of the token sequence.
stream_cmd() {
    cargo run --release --offline -q -p ffdl-cli -- \
        serve-bench --stream on --sessions 1 --steps-per-session 16 \
        --workers 2 --seed 11
}
stream_out="$(stream_cmd)"
echo "${stream_out}"
echo "${stream_out}" | grep -q "serve-bench\[stream\]" || {
    echo "stream smoke test: streaming header missing" >&2
    exit 1
}
echo "${stream_out}" | grep -q "stream: 1 opened" || {
    echo "stream smoke test: session ledger missing" >&2
    exit 1
}
echo "${stream_out}" | grep -q "16 steps answered" || {
    echo "stream smoke test: steps lost (expected 16 answered)" >&2
    exit 1
}
echo "${stream_out}" | grep -q "stream stats" || {
    echo "stream smoke test: run did not survive to its stats table" >&2
    exit 1
}
digest1="$(echo "${stream_out}" | grep "prediction digest")"
digest2="$(stream_cmd | grep "prediction digest")"
if [ "${digest1}" != "${digest2}" ]; then
    echo "stream smoke test: digest not deterministic (${digest1} vs ${digest2})" >&2
    exit 1
fi
echo "stream digest stable across runs: ${digest1#prediction digest: }"

echo "== bench guard: sticky-routed worker scaling in BENCH_stream.json =="
# Sticky routing parallelises across sessions (one session's steps are
# inherently serial), and the bench pins per-step service time with the
# delay layer: adding a second worker must add real concurrency,
# throughput w2 >= w1 (2% tolerance for the submitter sharing the box).
awk -v w1="$(bench_field BENCH_stream.json '"label": "stream_w1"' throughput_rps)" \
    -v w2="$(bench_field BENCH_stream.json '"label": "stream_w2"' throughput_rps)" 'BEGIN {
        if (w1 == "" || w2 == "") { print "bench guard: stream_w* rows missing from BENCH_stream.json" > "/dev/stderr"; exit 1 }
        printf "sticky-session scaling: w1 %.0f -> w2 %.0f steps/s\n", w1, w2
        if (w2 + 0 < 0.98 * w1) { print "bench guard: streaming throughput not monotone 1->2 workers" > "/dev/stderr"; exit 1 }
    }'

echo "== docs =="
cargo doc --no-deps --offline --workspace

echo "verify: OK"
