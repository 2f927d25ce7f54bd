//! FFT planning: the [`Fft`] algorithm trait, the power-of-two
//! Cooley–Tukey kernel (Fig. 1 of the paper, as radix-4 passes), and the
//! [`FftPlanner`] that caches twiddle tables per transform size.
//!
//! There is one butterfly implementation. [`Fft::process`] on a
//! [`Radix2`] plan permutes and then runs it; [`RealFft`](crate::RealFft)
//! runs it on data its pack step already permuted; `Bluestein` and
//! `Fft2d` reach it through `process`.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, OnceLock};

use crate::bluestein::Bluestein;
use crate::complex::{Complex, FftFloat};
use crate::error::FftError;
use ffdl_telemetry::Counter;

/// Process-wide plan-cache counters (`ffdl.fft.plan_cache.hit` /
/// `.miss`), registered in the global telemetry registry on first use
/// and cached so the hot path never takes the registry lock.
fn plan_cache_counters() -> &'static (Arc<Counter>, Arc<Counter>) {
    static COUNTERS: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = ffdl_telemetry::global();
        (
            registry.counter("ffdl.fft.plan_cache.hit"),
            registry.counter("ffdl.fft.plan_cache.miss"),
        )
    })
}

/// Transform direction.
///
/// The forward transform is unscaled; the inverse transform divides by the
/// length `n`, so `ifft(fft(x)) == x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Time domain → frequency domain, kernel `e^{-2πi jk/n}`.
    Forward,
    /// Frequency domain → time domain, kernel `e^{+2πi jk/n} / n`.
    Inverse,
}

impl Direction {
    /// The opposite direction.
    pub fn reversed(self) -> Self {
        match self {
            Direction::Forward => Direction::Inverse,
            Direction::Inverse => Direction::Forward,
        }
    }

    /// Sign of the exponent in the transform kernel.
    pub fn sign<T: FftFloat>(self) -> T {
        match self {
            Direction::Forward => -T::ONE,
            Direction::Inverse => T::ONE,
        }
    }
}

/// A planned fast Fourier transform of a fixed size and direction.
///
/// Implementations precompute twiddle factors so repeated calls to
/// [`Fft::process`] avoid trigonometry entirely — the usage pattern of the
/// paper's inference engine, which transforms thousands of activation
/// vectors with the same block size.
pub trait Fft<T: FftFloat>: Send + Sync {
    /// Transform size this plan was built for.
    fn len(&self) -> usize;

    /// `true` when the transform size is zero (never, for planner-built
    /// plans, but required for a well-behaved `len`/`is_empty` pair).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Direction this plan computes.
    fn direction(&self) -> Direction;

    /// Transforms `buf` in place.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when `buf.len() != self.len()`.
    fn process(&self, buf: &mut [Complex<T>]) -> Result<(), FftError>;

    /// Working space [`Fft::process_with`] needs beside `buf`, in
    /// elements: 0 for a plan that works in place.
    fn scratch_len(&self) -> usize {
        0
    }

    /// [`Fft::process`] on caller-owned working space: `scratch` holds at
    /// least [`Fft::scratch_len`] elements, of any content, and the call
    /// performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when `buf.len() != self.len()`.
    fn process_with(
        &self,
        buf: &mut [Complex<T>],
        _scratch: &mut [Complex<T>],
    ) -> Result<(), FftError> {
        self.process(buf)
    }
}

/// `e^{sign·2πi·num/den}`, evaluated in `f64` and rounded once, so `f32`
/// tables hold correctly rounded entries instead of the `f32` sine of an
/// already-rounded angle.
pub(crate) fn twiddle<T: FftFloat>(sign: f64, num: usize, den: usize) -> Complex<T> {
    let theta = sign * 2.0 * std::f64::consts::PI * (num % den) as f64 / den as f64;
    Complex::new(T::from_f64(theta.cos()), T::from_f64(theta.sin()))
}

/// Power-of-two decimation-in-time Cooley–Tukey FFT — Fig. 1 of the
/// paper, taken two stages at a time.
///
/// [`Fft::process`] is the bit-reversal permutation followed by the
/// butterflies: one twiddle-free pass over groups of four (stages 1–2;
/// groups of eight, stages 1–3, when `log₂ n` is odd), then radix-4
/// passes that each fuse two stages and walk a contiguous twiddle table
/// of their own. [`RealFft`](crate::RealFft) runs the butterflies alone
/// and folds the permutation and the `1/n` scale into the pack step it
/// performs anyway.
pub struct Radix2<T> {
    len: usize,
    direction: Direction,
    /// `bit_reverse[i]` is `i` with its `log₂ n` bits reversed.
    bit_reverse: Vec<u32>,
    /// The radix-4 pass tables back to back, in pass order: the pass that
    /// joins four sub-transforms of size `q` owns `q` triples
    /// `[Wᵏ, W²ᵏ, W³ᵏ]` with `W = e^{sign·2πi/4q}`.
    twiddles: Vec<[Complex<T>; 3]>,
}

/// Size of the sub-transforms the twiddle-free first pass leaves behind.
fn first_pass_len(len: usize) -> usize {
    match len.trailing_zeros() {
        0 => 1,
        1 => 2,
        bits if bits % 2 == 0 => 4,
        _ => 8,
    }
}

impl<T: FftFloat> Radix2<T> {
    /// Builds a power-of-two plan.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a power of two (the planner guarantees this;
    /// direct constructors validate it so the invariant is explicit).
    pub fn new(len: usize, direction: Direction) -> Self {
        assert!(
            len.is_power_of_two(),
            "radix-2 FFT requires a power-of-two length, got {len}"
        );
        let bits = len.trailing_zeros();
        let bit_reverse = (0..len as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();

        let sign = direction.sign::<f64>();
        let mut twiddles = Vec::new();
        let mut q = first_pass_len(len);
        while q < len {
            twiddles.extend((0..q).map(|k| [1, 2, 3].map(|p| twiddle(sign, p * k, 4 * q))));
            q *= 4;
        }

        Self {
            len,
            direction,
            bit_reverse,
            twiddles,
        }
    }

    /// The bit-reversal permutation, for a caller that fuses it into a
    /// write it makes anyway.
    pub(crate) fn bit_reverse(&self) -> &[u32] {
        &self.bit_reverse
    }

    /// The butterfly passes alone. `buf` holds the plan's length in
    /// bit-reversed order; the result is unscaled in both directions.
    pub(crate) fn butterflies(&self, buf: &mut [Complex<T>]) {
        match self.direction {
            Direction::Forward => self.passes::<false>(buf),
            Direction::Inverse => self.passes::<true>(buf),
        }
    }

    fn passes<const INV: bool>(&self, buf: &mut [Complex<T>]) {
        assert_eq!(buf.len(), self.len);
        let mut q = first_pass_len(self.len);
        match q {
            2 => {
                let (a, b) = (buf[0], buf[1]);
                buf[0] = a + b;
                buf[1] = a - b;
            }
            4 => first4::<T, INV>(buf),
            8 => first8::<T, INV>(buf),
            _ => {}
        }
        let mut tables = &self.twiddles[..];
        while q < self.len {
            let (table, rest) = tables.split_at(q);
            pass4::<T, INV>(buf, table);
            tables = rest;
            q *= 4;
        }
    }
}

/// `z·(−i)` for the forward kernel, `z·(+i)` for the inverse: the
/// quarter-turn twiddle, a swap and a sign instead of a product.
#[inline(always)]
fn quarter_turn<T: FftFloat, const INV: bool>(z: Complex<T>) -> Complex<T> {
    if INV {
        Complex::new(-z.im, z.re)
    } else {
        Complex::new(z.im, -z.re)
    }
}

/// A 4-point DFT of `[a, b, c, d]` given in bit-reversed order.
#[inline(always)]
fn dft4<T: FftFloat, const INV: bool>(
    [a, b, c, d]: [Complex<T>; 4],
) -> [Complex<T>; 4] {
    let (s0, d0) = (a + b, a - b);
    let (s1, d1) = (c + d, quarter_turn::<T, INV>(c - d));
    [s0 + s1, d0 + d1, s0 - s1, d0 - d1]
}

// The passes are kept out of line on purpose: as arguments of a function
// `buf` and `table` are known not to alias, which is what lets the
// compiler vectorize the butterfly loops; inlined into a caller that
// reaches both through `&self` it no longer does (1.6× on a 64-point
// transform).

/// Stages 1–2 on bit-reversed data: every twiddle is `1` or `∓i`.
#[inline(never)]
fn first4<T: FftFloat, const INV: bool>(buf: &mut [Complex<T>]) {
    for g in buf.chunks_exact_mut(4) {
        let out = dft4::<T, INV>([g[0], g[1], g[2], g[3]]);
        g.copy_from_slice(&out);
    }
}

/// Stages 1–3 on bit-reversed data: two 4-point DFTs joined by the
/// eighth roots of unity, which cost two real products each.
#[inline(never)]
fn first8<T: FftFloat, const INV: bool>(buf: &mut [Complex<T>]) {
    let h = T::from_f64(std::f64::consts::FRAC_1_SQRT_2);
    for g in buf.chunks_exact_mut(8) {
        let p = dft4::<T, INV>([g[0], g[1], g[2], g[3]]);
        let [q0, q1, q2, q3] = dft4::<T, INV>([g[4], g[5], g[6], g[7]]);
        // W₈ᵏ·qₖ with W₈ = (1 ∓ i)/√2: W₈·q = (q ∓ iq)/√2, W₈³·q = (∓iq − q)/√2.
        let t = [
            q0,
            (q1 + quarter_turn::<T, INV>(q1)).scale(h),
            quarter_turn::<T, INV>(q2),
            (quarter_turn::<T, INV>(q3) - q3).scale(h),
        ];
        for k in 0..4 {
            g[k] = p[k] + t[k];
            g[k + 4] = p[k] - t[k];
        }
    }
}

/// One radix-4 pass: joins four adjacent sub-transforms of size
/// `q = table.len()` into one of size `4q` (two radix-2 stages, with the
/// three products per butterfly a radix-4 split needs instead of four).
#[inline(never)]
fn pass4<T: FftFloat, const INV: bool>(buf: &mut [Complex<T>], table: &[[Complex<T>; 3]]) {
    let q = table.len();
    for block in buf.chunks_exact_mut(4 * q) {
        let (a, rest) = block.split_at_mut(q);
        let (b, rest) = rest.split_at_mut(q);
        let (c, d) = rest.split_at_mut(q);
        for ((((a, b), c), d), w) in a.iter_mut().zip(b).zip(c).zip(d).zip(table) {
            let (tb, tc, td) = (*b * w[1], *c * w[0], *d * w[2]);
            let (s0, d0) = (*a + tb, *a - tb);
            let (s1, d1) = (tc + td, quarter_turn::<T, INV>(tc - td));
            *a = s0 + s1;
            *b = d0 + d1;
            *c = s0 - s1;
            *d = d0 - d1;
        }
    }
}

impl<T: FftFloat> Fft<T> for Radix2<T> {
    fn len(&self) -> usize {
        self.len
    }

    fn direction(&self) -> Direction {
        self.direction
    }

    fn process(&self, buf: &mut [Complex<T>]) -> Result<(), FftError> {
        if buf.len() != self.len {
            return Err(FftError::LengthMismatch {
                expected: self.len,
                actual: buf.len(),
            });
        }
        // Permute (a swap per transposition pair), scaling the inverse
        // on the way so the butterflies stay direction-agnostic.
        let scale = match self.direction {
            Direction::Forward => None,
            Direction::Inverse => Some(T::ONE / T::from_usize(self.len)),
        };
        for (i, &j) in self.bit_reverse.iter().enumerate() {
            let j = j as usize;
            if j >= i {
                let (lo, hi) = (buf[i], buf[j]);
                (buf[i], buf[j]) = match scale {
                    Some(s) => (hi.scale(s), lo.scale(s)),
                    None => (hi, lo),
                };
            }
        }
        self.butterflies(buf);
        Ok(())
    }
}

/// Plans FFTs and caches them per `(size, direction)`.
///
/// Power-of-two sizes use [`Radix2`]; all other sizes use
/// [`Bluestein`](crate::bluestein::Bluestein)'s chirp-z algorithm. Plans are
/// returned as `Arc`s so layers can share them cheaply.
///
/// # Examples
///
/// ```
/// use ffdl_fft::{Complex, Direction, FftPlanner};
///
/// let mut planner = FftPlanner::<f64>::new();
/// let fft = planner.plan(8, Direction::Forward);
/// let ifft = planner.plan(8, Direction::Inverse);
///
/// let original: Vec<_> = (0..8).map(|k| Complex::from_real(k as f64)).collect();
/// let mut buf = original.clone();
/// fft.process(&mut buf)?;
/// ifft.process(&mut buf)?;
/// for (a, b) in buf.iter().zip(&original) {
///     assert!((*a - *b).norm() < 1e-12);
/// }
/// # Ok::<(), ffdl_fft::FftError>(())
/// ```
pub struct FftPlanner<T> {
    cache: HashMap<(usize, Direction), Planned<T>>,
}

/// A cached plan, kept concrete so [`RealFft`](crate::RealFft) can take
/// the power-of-two kernel without the `dyn Fft` in between.
enum Planned<T> {
    Pow2(Arc<Radix2<T>>),
    Chirp(Arc<Bluestein<T>>),
}

impl<T: FftFloat> FftPlanner<T> {
    /// Creates an empty planner.
    pub fn new() -> Self {
        Self {
            cache: HashMap::new(),
        }
    }

    /// The cached plan for `(len, direction)`, built on first use; counts
    /// the hit or the miss.
    fn lookup(&mut self, len: usize, direction: Direction) -> &Planned<T> {
        assert!(len > 0, "cannot plan a zero-length FFT");
        let counters = ffdl_telemetry::enabled().then(plan_cache_counters);
        match self.cache.entry((len, direction)) {
            Entry::Occupied(hit) => {
                if let Some((hits, _)) = counters {
                    hits.inc();
                }
                hit.into_mut()
            }
            Entry::Vacant(miss) => {
                if let Some((_, misses)) = counters {
                    misses.inc();
                }
                miss.insert(if len.is_power_of_two() {
                    Planned::Pow2(Arc::new(Radix2::new(len, direction)))
                } else {
                    Planned::Chirp(Arc::new(Bluestein::new(len, direction)))
                })
            }
        }
    }

    /// Returns a plan for the given size and direction, creating and
    /// caching it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn plan(&mut self, len: usize, direction: Direction) -> Arc<dyn Fft<T>> {
        match self.lookup(len, direction) {
            Planned::Pow2(plan) => Arc::clone(plan) as Arc<dyn Fft<T>>,
            Planned::Chirp(plan) => Arc::clone(plan) as Arc<dyn Fft<T>>,
        }
    }

    /// [`FftPlanner::plan`] for a power-of-two `len`, as the concrete type.
    pub(crate) fn plan_pow2(&mut self, len: usize, direction: Direction) -> Arc<Radix2<T>> {
        match self.lookup(len, direction) {
            Planned::Pow2(plan) => Arc::clone(plan),
            Planned::Chirp(_) => panic!("{len} is not a power of two"),
        }
    }

    /// Shorthand for a forward plan.
    pub fn plan_forward(&mut self, len: usize) -> Arc<dyn Fft<T>> {
        self.plan(len, Direction::Forward)
    }

    /// Shorthand for an inverse plan.
    pub fn plan_inverse(&mut self, len: usize) -> Arc<dyn Fft<T>> {
        self.plan(len, Direction::Inverse)
    }

    /// Number of cached plans (diagnostics / tests).
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }
}

impl<T: FftFloat> Default for FftPlanner<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot forward FFT of a complex buffer (convenience wrapper).
///
/// For hot paths, prefer an explicit [`FftPlanner`] so twiddle tables are
/// reused across calls.
pub fn fft<T: FftFloat>(input: &[Complex<T>]) -> Vec<Complex<T>> {
    let mut buf = input.to_vec();
    if buf.is_empty() {
        return buf;
    }
    let plan = FftPlanner::new().plan(buf.len(), Direction::Forward);
    plan.process(&mut buf).expect("length matches plan");
    buf
}

/// One-shot inverse FFT of a complex buffer (convenience wrapper).
pub fn ifft<T: FftFloat>(input: &[Complex<T>]) -> Vec<Complex<T>> {
    let mut buf = input.to_vec();
    if buf.is_empty() {
        return buf;
    }
    let plan = FftPlanner::new().plan(buf.len(), Direction::Inverse);
    plan.process(&mut buf).expect("length matches plan");
    buf
}

/// One-shot forward FFT of a real signal.
pub fn fft_real<T: FftFloat>(input: &[T]) -> Vec<Complex<T>> {
    let buf: Vec<Complex<T>> = input.iter().map(|&x| Complex::from_real(x)).collect();
    fft(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use crate::dft::dft;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|k| {
                Complex64::new(
                    (k as f64 * 0.37).sin() + 0.25 * (k as f64),
                    (k as f64 * 1.11).cos(),
                )
            })
            .collect()
    }

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).norm() < tol, "index {i}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn radix2_matches_dft_for_all_pow2_up_to_256() {
        for exp in 0..=8 {
            let n = 1usize << exp;
            let x = signal(n);
            let mut buf = x.clone();
            Radix2::new(n, Direction::Forward)
                .process(&mut buf)
                .unwrap();
            let reference = dft(&x, Direction::Forward);
            assert_close(&buf, &reference, 1e-8 * (n as f64));
        }
    }

    #[test]
    fn radix2_inverse_matches_dft() {
        let n = 64;
        let x = signal(n);
        let mut buf = x.clone();
        Radix2::new(n, Direction::Inverse)
            .process(&mut buf)
            .unwrap();
        let reference = dft(&x, Direction::Inverse);
        assert_close(&buf, &reference, 1e-10);
    }

    #[test]
    fn roundtrip_identity() {
        let n = 128;
        let x = signal(n);
        let mut buf = x.clone();
        Radix2::new(n, Direction::Forward)
            .process(&mut buf)
            .unwrap();
        Radix2::new(n, Direction::Inverse)
            .process(&mut buf)
            .unwrap();
        assert_close(&buf, &x, 1e-10);
    }

    #[test]
    fn length_one_is_identity() {
        let x = vec![Complex64::new(2.0, -3.0)];
        let mut buf = x.clone();
        Radix2::new(1, Direction::Forward)
            .process(&mut buf)
            .unwrap();
        assert_eq!(buf, x);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn radix2_rejects_non_pow2() {
        let _ = Radix2::<f64>::new(6, Direction::Forward);
    }

    #[test]
    fn process_rejects_wrong_length() {
        let plan = Radix2::<f64>::new(8, Direction::Forward);
        let mut buf = vec![Complex64::zero(); 4];
        let err = plan.process(&mut buf).unwrap_err();
        assert_eq!(
            err,
            FftError::LengthMismatch {
                expected: 8,
                actual: 4
            }
        );
    }

    #[test]
    fn planner_caches_plans() {
        let mut planner = FftPlanner::<f64>::new();
        let a = planner.plan(16, Direction::Forward);
        let b = planner.plan(16, Direction::Forward);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(planner.cached_plans(), 1);
        let _ = planner.plan(16, Direction::Inverse);
        assert_eq!(planner.cached_plans(), 2);
    }

    #[test]
    fn repeated_same_size_plans_reuse_twiddles_and_count_as_hits() {
        let hits = || {
            ffdl_telemetry::global()
                .snapshot()
                .counter("ffdl.fft.plan_cache.hit")
                .unwrap_or(0)
        };
        let misses = || {
            ffdl_telemetry::global()
                .snapshot()
                .counter("ffdl.fft.plan_cache.miss")
                .unwrap_or(0)
        };
        let (h0, m0) = (hits(), misses());
        ffdl_telemetry::set_enabled(true);
        let mut planner = FftPlanner::<f64>::new();
        let first = planner.plan(32, Direction::Forward); // builds twiddles
        let second = planner.plan(32, Direction::Forward); // cache hit
        let third = planner.plan_forward(32); // cache hit via shorthand
        ffdl_telemetry::set_enabled(false);
        // Same Arc ⇒ the twiddle table was built once and reused.
        assert!(Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&first, &third));
        assert_eq!(planner.cached_plans(), 1);
        // Counters are global and monotone, so concurrent tests can only
        // add: ≥, not ==.
        assert!(hits() >= h0 + 2, "hits {} -> {}", h0, hits());
        assert!(misses() > m0, "misses {} -> {}", m0, misses());
    }

    #[test]
    fn planner_handles_non_pow2_via_bluestein() {
        let mut planner = FftPlanner::<f64>::new();
        let n = 12;
        let plan = planner.plan_forward(n);
        let x = signal(n);
        let mut buf = x.clone();
        plan.process(&mut buf).unwrap();
        let reference = dft(&x, Direction::Forward);
        assert_close(&buf, &reference, 1e-8);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn planner_rejects_zero() {
        let _ = FftPlanner::<f64>::new().plan(0, Direction::Forward);
    }

    #[test]
    fn convenience_fft_ifft() {
        let x = signal(32);
        let back = ifft(&fft(&x));
        assert_close(&back, &x, 1e-10);
        assert!(fft::<f64>(&[]).is_empty());
        assert!(ifft::<f64>(&[]).is_empty());
    }

    #[test]
    fn fft_real_matches_complex_path() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let via_real = fft_real(&xs);
        let via_complex = fft(&xs
            .iter()
            .map(|&v| Complex64::from_real(v))
            .collect::<Vec<_>>());
        assert_close(&via_real, &via_complex, 1e-12);
    }

    #[test]
    fn direction_reversed() {
        assert_eq!(Direction::Forward.reversed(), Direction::Inverse);
        assert_eq!(Direction::Inverse.reversed(), Direction::Forward);
    }

    #[test]
    fn f32_roundtrip() {
        let x: Vec<Complex<f32>> = (0..64)
            .map(|k| Complex::new((k as f32 * 0.1).sin(), 0.0))
            .collect();
        let mut buf = x.clone();
        let mut planner = FftPlanner::<f32>::new();
        planner.plan_forward(64).process(&mut buf).unwrap();
        planner.plan_inverse(64).process(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).norm() < 1e-4);
        }
    }
}
