//! Counting-allocator proof of the steady-state allocation diet.
//!
//! A `#[global_allocator]` wrapper around [`std::alloc::System`] counts
//! heap allocations, but only while a thread-local gate is raised — so
//! the harness, other test threads, and warmup traffic stay invisible.
//! After two warmup passes (which populate the [`Scratch`] pool and
//! every layer's private FFT scratch), repeated
//! [`Network::forward_batch_with`] calls must perform **zero** heap
//! allocations: that is the contract the serving hot path relies on,
//! for every form the one Algorithm 1 routine is served in — training
//! layer, frozen `f32` spectra, fixed-point levels, the CONV layer's
//! spectral image and its im2col fallback — at power-of-two blocks and at
//! the odd and even chirp-transform blocks of Arch. 2's sizes, for the
//! dense product under `Conv2d` (wide and narrow) and a multi-chunk `Dense`,
//! and for both CONV layers reading the driver's staged image in one stack.
//!
//! This lives in an integration test (its own crate) deliberately: the
//! allocator shim needs `unsafe`, which the library crates forbid.

use ffdl_core::{
    CirculantConv2d, CirculantDense, QuantBits, QuantizedSpectralDense, SpectralDense,
};
use ffdl_nn::{Conv2d, Dense, Flatten, Network, Relu, Scratch, Softmax};
use ffdl_rng::{Rng, SeedableRng, SmallRng};
use ffdl_tensor::{ConvGeometry, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations observed while the thread-local gate is raised.
static COUNTED_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-init: a lazily initialized thread-local would itself
    // allocate on first access and deadlock the accounting.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn note(&self) {
        // `try_with`: allocator calls can arrive during thread teardown
        // after the TLS slot is destroyed.
        let gated = COUNTING.try_with(Cell::get).unwrap_or(false);
        if gated {
            COUNTED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: pure pass-through to System; the only addition is counting.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place is still a potential allocation: count it.
        self.note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting enabled on this thread and returns
/// how many allocations it performed.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = COUNTED_ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    COUNTED_ALLOCS.load(Ordering::Relaxed) - before
}

/// The served stacks, each with its per-sample input shape.
fn stacks() -> Vec<(&'static str, Network, Vec<usize>)> {
    let mut rng = SmallRng::seed_from_u64(11);
    let mut training = Network::new();
    training.push(CirculantDense::new(16, 16, 4, &mut rng).unwrap());
    training.push(Relu::new());
    training.push(Dense::new(16, 4, &mut rng));
    training.push(Softmax::new());

    let first = CirculantDense::new(16, 16, 4, &mut rng).unwrap();
    let second = CirculantDense::new(16, 6, 4, &mut rng).unwrap();
    let mut frozen = Network::new();
    frozen.push(SpectralDense::from_matrix(first.matrix(), first.bias().clone()));
    frozen.push(Relu::new());
    frozen.push(QuantizedSpectralDense::from_matrix(
        second.matrix(),
        second.bias().clone(),
        QuantBits::Eight,
    ));
    frozen.push(Softmax::new());

    let mut conv = Network::new();
    conv.push(CirculantConv2d::new(2, 4, 6, 6, ConvGeometry::valid(3), 4, &mut rng).unwrap());
    conv.push(Relu::new());
    conv.push(Flatten::new());
    conv.push(Dense::new(4 * 4 * 4, 4, &mut rng));
    conv.push(Softmax::new());

    // b | C with padded taps: the spectral image and its zero slot.
    let same = ConvGeometry { kernel: 3, stride: 1, pad: 1 };
    let mut conv_image = Network::new();
    conv_image.push(CirculantConv2d::new(8, 4, 6, 6, same, 4, &mut rng).unwrap());
    conv_image.push(Relu::new());
    conv_image.push(Flatten::new());
    conv_image.push(Dense::new(4 * 6 * 6, 4, &mut rng));
    conv_image.push(Softmax::new());

    // Blocks that are not powers of two run the chirp transform: odd 11
    // as a full complex transform, even 6 around a 3-point half.
    let head = CirculantDense::new(64, 10, 6, &mut rng).unwrap();
    let mut chirp = Network::new();
    chirp.push(CirculantDense::new(121, 64, 11, &mut rng).unwrap());
    chirp.push(Relu::new());
    chirp.push(SpectralDense::from_matrix(head.matrix(), head.bias().clone()));
    chirp.push(Softmax::new());

    // The dense product's term buffer under both of its layers, with a
    // head wider than one compaction chunk (336 > 256 terms a row).
    let mut dense_conv = Network::new();
    dense_conv.push(Conv2d::new(4, 21, 6, 6, ConvGeometry::valid(3), &mut rng).unwrap());
    dense_conv.push(Relu::new());
    dense_conv.push(Flatten::new());
    dense_conv.push(Dense::new(21 * 4 * 4, 4, &mut rng));
    dense_conv.push(Softmax::new());

    // Few output maps over a wide input: the pooled buffers trade call
    // sites from pass to pass, so the pool must rank them by capacity,
    // not by the length of their last use.
    let mut dense_conv_narrow = Network::new();
    dense_conv_narrow.push(Conv2d::new(2, 5, 10, 10, ConvGeometry::valid(3), &mut rng).unwrap());
    dense_conv_narrow.push(Relu::new());
    dense_conv_narrow.push(Flatten::new());
    dense_conv_narrow.push(Dense::new(5 * 8 * 8, 4, &mut rng));
    dense_conv_narrow.push(Softmax::new());

    // Both CONV layers on the driver's one staged image per sample: the
    // dense product's tap view over a padded, strided geometry, then the
    // spectral image with `b | C`.
    let padded_strided = ConvGeometry {
        kernel: 3,
        stride: 2,
        pad: 1,
    };
    let mut conv_stack = Network::new();
    conv_stack.push(Conv2d::new(4, 8, 9, 9, padded_strided, &mut rng).unwrap());
    conv_stack.push(Relu::new());
    let circulant = CirculantConv2d::new(8, 4, 5, 5, ConvGeometry::valid(3), 4, &mut rng);
    conv_stack.push(circulant.unwrap());
    conv_stack.push(Flatten::new());
    conv_stack.push(Dense::new(4 * 3 * 3, 4, &mut rng));

    vec![
        ("circulant_dense", training, vec![16]),
        ("frozen_f32_int8", frozen, vec![16]),
        ("circulant_conv2d_fallback", conv, vec![2, 6, 6]),
        ("circulant_conv2d_image", conv_image, vec![8, 6, 6]),
        ("chirp_blocks", chirp, vec![121]),
        ("dense_conv2d_multi_chunk", dense_conv, vec![4, 6, 6]),
        ("dense_conv2d_c2_p5", dense_conv_narrow, vec![2, 10, 10]),
        ("strided_conv2d_circulant", conv_stack, vec![4, 9, 9]),
    ]
}

// One test on purpose: the allocation counter is process-wide, so the
// stacks are measured one after another.
#[test]
fn steady_state_forward_batch_allocates_nothing() {
    for (name, net, shape) in stacks() {
        steady_state_allocates_nothing(name, net, &shape);
    }
}

fn steady_state_allocates_nothing(name: &str, mut net: Network, shape: &[usize]) {
    let mut scratch = Scratch::new();

    let mut rng = SmallRng::seed_from_u64(77);
    let samples: Vec<Tensor> = (0..8)
        .map(|_| Tensor::from_fn(shape, |_| rng.next_f32() * 2.0 - 1.0))
        .collect();
    let refs: Vec<&Tensor> = samples.iter().collect();

    // Warmup: the first pass allocates the scratch-pool tensors and each
    // layer's private FFT spectra; the second catches any buffer that
    // only materializes once the pool is partially warm.
    for _ in 0..2 {
        let out = net.forward_batch_with(&refs, &mut scratch).unwrap();
        scratch.recycle(out);
    }
    let reference = net.forward_batch_with(&refs, &mut scratch).unwrap();

    // `reference` keeps one buffer checked out of the pool for the rest
    // of the test; two more unmeasured passes let the pool replace it
    // (the CONV stack cycles five buffers, so the replacement takes a
    // pass to reach the call site whose size it has to grow to).
    for _ in 0..2 {
        let out = net.forward_batch_with(&refs, &mut scratch).unwrap();
        scratch.recycle(out);
    }

    // Steady state: zero heap allocations across many full passes.
    let allocs = count_allocs(|| {
        for _ in 0..16 {
            let out = net
                .forward_batch_with(&refs, &mut scratch)
                .expect("steady-state forward");
            scratch.recycle(out);
        }
    });
    assert_eq!(
        allocs, 0,
        "{name}: steady-state forward_batch_with must not touch the heap"
    );

    // The diet changes nothing numerically: still bit-identical.
    let after = net.forward_batch_with(&refs, &mut scratch).unwrap();
    assert_eq!(reference.as_slice(), after.as_slice(), "{name}");
}
