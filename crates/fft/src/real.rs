//! Real-input FFTs.
//!
//! Weight vectors and activations in the paper's layers are real, so the
//! forward transform only needs the `n/2 + 1` non-redundant spectrum bins.
//! For even lengths this module packs the real signal into an `n/2`-point
//! complex transform (the classic two-for-one trick), halving the work of
//! the kernel that dominates inference time. The packing is made to cost
//! as little as it can: when `n/2` is a power of two the pack step writes
//! straight into bit-reversed order, so the transform is the [`Radix2`]
//! butterflies alone, and the unpack twiddles are stored folded —
//! `wᵏ·(−i)/2` forward, `conj(wᵏ)·i/n` inverse — so the quarter turn and
//! both scalings are free and bins `k` and `n/2 − k` share one product.
//! Other even lengths run the same pack and unpack routines around the
//! planned (Bluestein) transform with an identity permutation. Odd
//! lengths fall back to the full complex transform.

use crate::complex::{Complex, FftFloat};
use crate::error::FftError;
use crate::plan::{twiddle, Direction, Fft, FftPlanner, Radix2};
use std::sync::Arc;

/// A planned real-input FFT of fixed length `n`.
///
/// [`RealFft::forward`] maps `n` reals to the `n/2 + 1` (rounded down
/// division, plus one) non-redundant complex bins; [`RealFft::inverse`]
/// maps them back. The remaining bins of the full spectrum are the
/// conjugate mirror `X[n−k] = conj(X[k])` and are never materialized.
///
/// # Examples
///
/// ```
/// use ffdl_fft::RealFft;
///
/// let plan = RealFft::<f64>::new(8);
/// let x = [1.0, 2.0, 0.0, -1.0, 3.0, 0.5, -2.0, 1.5];
/// let spectrum = plan.forward(&x)?;
/// assert_eq!(spectrum.len(), 5); // 8/2 + 1
/// let back = plan.inverse(&spectrum)?;
/// for (a, b) in back.iter().zip(&x) {
///     assert!((a - b).abs() < 1e-12);
/// }
/// # Ok::<(), ffdl_fft::FftError>(())
/// ```
pub struct RealFft<T> {
    len: usize,
    /// Immutable tables, shared by every clone of the plan.
    plans: Arc<Plans<T>>,
}

impl<T> Clone for RealFft<T> {
    fn clone(&self) -> Self {
        Self {
            len: self.len,
            plans: Arc::clone(&self.plans),
        }
    }
}

enum Plans<T> {
    /// Even lengths: a half-size complex transform between a pack and an
    /// unpack step.
    Packed(Packed<T>),
    /// Odd lengths: full-size complex plans.
    Full {
        forward: Arc<dyn Fft<T>>,
        inverse: Arc<dyn Fft<T>>,
    },
}

struct Packed<T> {
    forward: HalfPlan<T>,
    inverse: HalfPlan<T>,
    /// Where element `j` of the packed signal is written: bit-reversed
    /// order for the butterflies, the identity for a planned transform.
    order: Vec<u32>,
    /// `wᵏ·(−i)/2` for `1 ≤ k ≤ (n/2 − 1)/2`, `w = e^{−2πi/n}`: the
    /// forward unpack twiddles. Bin `n/2 − k` uses the conjugate.
    unpack: Vec<Complex<T>>,
    /// `conj(wᵏ)·i·prepack_scale` over the same `k`: the inverse pre-pack
    /// twiddles.
    prepack: Vec<Complex<T>>,
    /// `1/2`, times the `2/n` that butterflies leave to their caller.
    prepack_scale: T,
}

/// The `n/2`-point complex transform under the packed path.
enum HalfPlan<T> {
    /// Power-of-two half: the butterflies alone, on input the pack step
    /// already wrote in bit-reversed order.
    Butterflies(Arc<Radix2<T>>),
    /// Any other half: the planned (Bluestein) transform, natural order.
    Planned(Arc<dyn Fft<T>>),
}

impl<T: FftFloat> HalfPlan<T> {
    /// Working space `run` wants behind `z` (the chirp convolution's).
    fn scratch_len(&self) -> usize {
        match self {
            HalfPlan::Butterflies(_) => 0,
            HalfPlan::Planned(plan) => plan.scratch_len(),
        }
    }

    fn run(&self, z: &mut [Complex<T>], work: &mut [Complex<T>]) -> Result<(), FftError> {
        match self {
            HalfPlan::Butterflies(plan) => {
                plan.butterflies(z);
                Ok(())
            }
            HalfPlan::Planned(plan) => plan.process_with(z, work),
        }
    }
}

/// `v` as a slice of exactly `n` elements that the caller overwrites in
/// full: a warm buffer of the right length is left untouched.
fn sized<U: Copy>(v: &mut Vec<U>, n: usize, fill: U) -> &mut [U] {
    v.resize(n, fill);
    v
}

/// `scratch` as the `n`-point signal a transform runs on and, behind it,
/// the `extra` elements of working space the planned transform asked for.
fn signal_and_work<T: FftFloat>(
    scratch: &mut Vec<Complex<T>>,
    n: usize,
    extra: usize,
) -> (&mut [Complex<T>], &mut [Complex<T>]) {
    sized(scratch, n + extra, Complex::zero()).split_at_mut(n)
}

// The three steps below are kept out of line for the same reason as the
// butterfly passes (`plan.rs`): as arguments of a function their slices
// are known not to alias.

/// Packs pairs of reals into one complex signal, `z[at[j]] = (x[2j],
/// x[2j+1])` — the order the half transform wants it in.
#[inline(never)]
fn pack<T: FftFloat>(input: &[T], at: &[u32], z: &mut [Complex<T>]) {
    for (pair, &at) in input.chunks_exact(2).zip(at) {
        z[at as usize] = Complex::new(pair[0], pair[1]);
    }
}

/// Forward unpack. `X[k] = E[k] + wᵏ·O[k]` with `E`, `O` the spectra of
/// the even and odd samples: `E = (z[k] + conj z[n/2−k])/2` and
/// `wᵏ·O = t·(z[k] − conj z[n/2−k])`, `t` the folded twiddle; the mirror
/// bin is `conj(E − wᵏ·O)`, so each pair of bins costs one product.
#[inline(never)]
fn unpack<T: FftFloat>(z: &[Complex<T>], twiddles: &[Complex<T>], out: &mut [Complex<T>]) {
    let (half, pairs) = (z.len(), twiddles.len());
    let half_scale = T::from_f64(0.5);
    out[0] = Complex::from_real(z[0].re + z[0].im);
    out[half] = Complex::from_real(z[0].re - z[0].im);
    let (z_low, z_high) = (&z[1..=pairs], &z[half - pairs..]);
    // Bins k, the self-mirrored middle bin (even n/2 only), bins n/2 − k.
    let (low, rest) = out[1..half].split_at_mut(pairs);
    let (middle, high) = rest.split_at_mut(rest.len() - pairs);
    if let [mid] = middle {
        *mid = z[half / 2].conj();
    }
    let bins = low.iter_mut().zip(high.iter_mut().rev());
    let zs = z_low.iter().zip(z_high.iter().rev());
    for (((xk, xm), (&zk, &zm)), &t) in bins.zip(zs).zip(twiddles) {
        let e = (zk + zm.conj()).scale(half_scale);
        let o = t * (zk - zm.conj());
        *xk = e + o;
        *xm = (e - o).conj();
    }
}

/// Inverse pre-pack: the forward unpack solved for `z`, `z[k] = E[k] +
/// i·O[k]`, scaled by `c` and written to `z[at[k]]`. A real signal's
/// spectrum has no `Im X[0]` / `Im X[n/2]`, so only their real parts are
/// read.
#[inline(never)]
fn prepack<T: FftFloat>(
    spectrum: &[Complex<T>],
    twiddles: &[Complex<T>],
    c: T,
    at: &[u32],
    z: &mut [Complex<T>],
) {
    let (half, pairs) = (z.len(), twiddles.len());
    let (x0, xh) = (spectrum[0].re, spectrum[half].re);
    z[at[0] as usize] = Complex::new((x0 + xh) * c, (x0 - xh) * c);
    if half % 2 == 0 {
        z[at[half / 2] as usize] = spectrum[half / 2].conj().scale(c + c);
    }
    let (x_low, x_high) = (&spectrum[1..=pairs], &spectrum[half - pairs..half]);
    let (at_low, at_high) = (&at[1..=pairs], &at[half - pairs..]);
    let xs = x_low.iter().zip(x_high.iter().rev());
    let ats = at_low.iter().zip(at_high.iter().rev());
    for (((&xk, &xm), (&ak, &am)), &t) in xs.zip(ats).zip(twiddles) {
        let e = (xk + xm.conj()).scale(c);
        let o = t * (xk - xm.conj());
        z[ak as usize] = e + o;
        z[am as usize] = (e - o).conj();
    }
}

impl<T: FftFloat> RealFft<T> {
    /// Builds a real-FFT plan of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "cannot build a zero-length real FFT plan");
        let mut planner = FftPlanner::new();
        let plans = if len.is_multiple_of(2) {
            let half = len / 2;
            let (forward, inverse, order, inverse_scale) = if half.is_power_of_two() {
                let forward = planner.plan_pow2(half, Direction::Forward);
                let order = forward.bit_reverse().to_vec();
                let inverse = planner.plan_pow2(half, Direction::Inverse);
                let scale = 1.0 / half as f64;
                (HalfPlan::Butterflies(forward), HalfPlan::Butterflies(inverse), order, scale)
            } else {
                let (forward, inverse) = (planner.plan_forward(half), planner.plan_inverse(half));
                let order = (0..half as u32).collect();
                (HalfPlan::Planned(forward), HalfPlan::Planned(inverse), order, 1.0)
            };
            let prepack_scale = 0.5 * inverse_scale;
            // wᵏ·(−i) forward, conj(wᵏ)·i inverse: wᵏ a quarter turn on, the
            // way `sign` points.
            let folded = |sign: f64, scale: f64| {
                (1..=(half - 1) / 2)
                    .map(|k| {
                        let w: Complex<f64> = twiddle(sign, 4 * k + len, 4 * len);
                        Complex::new(T::from_f64(w.re * scale), T::from_f64(w.im * scale))
                    })
                    .collect()
            };
            Plans::Packed(Packed {
                forward,
                inverse,
                order,
                unpack: folded(-1.0, 0.5),
                prepack: folded(1.0, prepack_scale),
                prepack_scale: T::from_f64(prepack_scale),
            })
        } else {
            Plans::Full {
                forward: planner.plan_forward(len),
                inverse: planner.plan_inverse(len),
            }
        };
        Self {
            len,
            plans: Arc::new(plans),
        }
    }

    /// Signal length this plan was built for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`: zero-length plans cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of non-redundant spectrum bins: `len/2 + 1`.
    pub fn spectrum_len(&self) -> usize {
        self.len / 2 + 1
    }

    /// Forward transform of a real signal into its half spectrum.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when `input.len() != self.len()`.
    pub fn forward(&self, input: &[T]) -> Result<Vec<Complex<T>>, FftError> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.forward_into(input, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Allocation-reusing variant of [`RealFft::forward`]: writes the
    /// half spectrum into `out` and uses `scratch` for the packed
    /// intermediate (and, at a length that is not a power of two, the
    /// chirp convolution's working space). Both vectors are resized to
    /// fit and overwritten; once they have grown to capacity, repeated
    /// calls perform no heap allocation, at any length.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when `input.len() != self.len()`.
    pub fn forward_into(
        &self,
        input: &[T],
        scratch: &mut Vec<Complex<T>>,
        out: &mut Vec<Complex<T>>,
    ) -> Result<(), FftError> {
        let out = sized(out, self.spectrum_len(), Complex::zero());
        self.forward_into_slice(input, scratch, out)
    }

    /// [`RealFft::forward_into`] writing into a slice — one slot of a
    /// caller's flat buffer of spectra.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when `input.len() != self.len()`
    /// or `out.len() != self.spectrum_len()`.
    pub fn forward_into_slice(
        &self,
        input: &[T],
        scratch: &mut Vec<Complex<T>>,
        out: &mut [Complex<T>],
    ) -> Result<(), FftError> {
        for (expected, actual) in [(self.len, input.len()), (self.spectrum_len(), out.len())] {
            if actual != expected {
                return Err(FftError::LengthMismatch { expected, actual });
            }
        }
        match &*self.plans {
            Plans::Packed(p) => {
                let (z, work) = signal_and_work(scratch, self.len / 2, p.forward.scratch_len());
                pack(input, &p.order, z);
                p.forward.run(z, work)?;
                unpack(z, &p.unpack, out);
            }
            Plans::Full { forward, .. } => {
                let (z, work) = signal_and_work(scratch, self.len, forward.scratch_len());
                for (v, &x) in z.iter_mut().zip(input) {
                    *v = Complex::from_real(x);
                }
                forward.process_with(z, work)?;
                out.copy_from_slice(&z[..out.len()]);
            }
        }
        Ok(())
    }

    /// Inverse transform of a half spectrum back to a real signal.
    ///
    /// Imaginary residue produced by rounding is discarded. Bins beyond the
    /// conjugate-symmetry constraint (`Im X[0]`, and `Im X[n/2]` for even
    /// `n`) are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when
    /// `spectrum.len() != self.spectrum_len()`.
    pub fn inverse(&self, spectrum: &[Complex<T>]) -> Result<Vec<T>, FftError> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.inverse_into(spectrum, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Allocation-reusing variant of [`RealFft::inverse`]: writes the
    /// reconstructed real signal into `out` and uses `scratch` for the
    /// complex intermediate (and the chirp convolution's working space,
    /// as [`RealFft::forward_into`]). Both vectors are resized to fit and
    /// overwritten; once they have grown to capacity, repeated calls
    /// perform no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when
    /// `spectrum.len() != self.spectrum_len()`.
    pub fn inverse_into(
        &self,
        spectrum: &[Complex<T>],
        scratch: &mut Vec<Complex<T>>,
        out: &mut Vec<T>,
    ) -> Result<(), FftError> {
        if spectrum.len() != self.spectrum_len() {
            return Err(FftError::LengthMismatch {
                expected: self.spectrum_len(),
                actual: spectrum.len(),
            });
        }
        let out = sized(out, self.len, T::ZERO);
        match &*self.plans {
            Plans::Packed(p) => {
                let (z, work) = signal_and_work(scratch, self.len / 2, p.inverse.scratch_len());
                prepack(spectrum, &p.prepack, p.prepack_scale, &p.order, z);
                p.inverse.run(z, work)?;
                for (pair, v) in out.chunks_exact_mut(2).zip(z.iter()) {
                    pair[0] = v.re;
                    pair[1] = v.im;
                }
            }
            Plans::Full { inverse, .. } => {
                // Rebuild the full spectrum by conjugate symmetry.
                let (z, work) = signal_and_work(scratch, self.len, inverse.scratch_len());
                z[..spectrum.len()].copy_from_slice(spectrum);
                z[0].im = T::ZERO;
                for (v, x) in z[spectrum.len()..].iter_mut().zip(spectrum[1..].iter().rev()) {
                    *v = x.conj();
                }
                inverse.process_with(z, work)?;
                for (o, v) in out.iter_mut().zip(z.iter()) {
                    *o = v.re;
                }
            }
        }
        Ok(())
    }
}

/// One-shot forward real FFT (half spectrum). See [`RealFft`].
pub fn rfft<T: FftFloat>(input: &[T]) -> Vec<Complex<T>> {
    if input.is_empty() {
        return Vec::new();
    }
    RealFft::new(input.len())
        .forward(input)
        .expect("length matches plan")
}

/// One-shot inverse real FFT: reconstructs a length-`n` real signal from
/// its half spectrum.
///
/// # Panics
///
/// Panics if `spectrum.len() != n/2 + 1` or `n == 0`.
pub fn irfft<T: FftFloat>(spectrum: &[Complex<T>], n: usize) -> Vec<T> {
    RealFft::new(n)
        .inverse(spectrum)
        .expect("spectrum length matches plan")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_real;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| (k as f64 * 0.613).sin() + 0.3 * (k as f64 * 1.71).cos())
            .collect()
    }

    #[test]
    fn forward_matches_full_dft_even() {
        for n in [2usize, 4, 6, 8, 16, 64, 100] {
            let x = signal(n);
            let half = RealFft::new(n).forward(&x).unwrap();
            let full = dft_real(&x);
            assert_eq!(half.len(), n / 2 + 1);
            for (k, v) in half.iter().enumerate() {
                assert!(
                    (*v - full[k]).norm() < 1e-9,
                    "n={n} k={k}: {v:?} vs {:?}",
                    full[k]
                );
            }
        }
    }

    #[test]
    fn forward_matches_full_dft_odd() {
        for n in [1usize, 3, 5, 7, 9, 121] {
            let x = signal(n);
            let half = RealFft::new(n).forward(&x).unwrap();
            let full = dft_real(&x);
            assert_eq!(half.len(), n / 2 + 1);
            for (k, v) in half.iter().enumerate() {
                assert!((*v - full[k]).norm() < 1e-8, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn roundtrip_even_and_odd() {
        for n in [2usize, 5, 8, 11, 16, 121, 128] {
            let x = signal(n);
            let plan = RealFft::new(n);
            let back = plan.inverse(&plan.forward(&x).unwrap()).unwrap();
            for (a, b) in back.iter().zip(&x) {
                assert!((a - b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn into_variants_match_and_reuse_buffers() {
        for n in [8usize, 7, 16] {
            let x = signal(n);
            let plan = RealFft::new(n);
            let mut scratch = Vec::new();
            let mut spec = Vec::new();
            plan.forward_into(&x, &mut scratch, &mut spec).unwrap();
            let reference = plan.forward(&x).unwrap();
            assert_eq!(spec.len(), reference.len());
            for (a, b) in spec.iter().zip(&reference) {
                assert!((*a - *b).norm() < 1e-12, "n={n}");
            }
            let mut back = Vec::new();
            plan.inverse_into(&spec, &mut scratch, &mut back).unwrap();
            for (a, b) in back.iter().zip(&x) {
                assert!((a - b).abs() < 1e-9, "n={n}");
            }
            // Steady state: capacities are warm, repeated calls only refill.
            let (cs, co) = (scratch.capacity(), spec.capacity());
            plan.forward_into(&x, &mut scratch, &mut spec).unwrap();
            assert_eq!(scratch.capacity(), cs);
            assert_eq!(spec.capacity(), co);
        }
    }

    #[test]
    fn forward_into_slice_fills_one_slot_of_a_flat_buffer() {
        // Power-of-two, chirp-half and odd plans, on a scratch left dirty
        // by the other direction.
        for n in [8usize, 12, 7] {
            let (x, plan) = (signal(n), RealFft::new(n));
            let bins = plan.spectrum_len();
            let mut scratch = Vec::new();
            plan.inverse_into(&vec![Complex::from_real(1.0); bins], &mut scratch, &mut Vec::new())
                .unwrap();
            let mut flat = vec![Complex::from_real(9.0); 3 * bins];
            plan.forward_into_slice(&x, &mut scratch, &mut flat[bins..2 * bins]).unwrap();
            assert_eq!(flat[bins..2 * bins], plan.forward(&x).unwrap()[..], "n={n}");
            assert_eq!(flat[0], Complex::from_real(9.0));
            assert_eq!(flat[2 * bins], Complex::from_real(9.0));
            assert!(matches!(
                plan.forward_into_slice(&x, &mut scratch, &mut flat[..bins + 1]),
                Err(FftError::LengthMismatch { .. })
            ));
        }
    }

    #[test]
    fn inverse_ignores_imaginary_parts_of_self_conjugate_bins() {
        // The documented contract: `Im X[0]` (and `Im X[n/2]`, even n)
        // cannot come from a real signal and are not read — on the
        // power-of-two fast path, around a Bluestein half, and on the odd
        // fallback alike.
        for n in [2usize, 8, 64, 6, 12, 100, 1, 7, 121] {
            let plan = RealFft::new(n);
            let clean = plan.forward(&signal(n)).unwrap();
            let mut dirty = clean.clone();
            dirty[0].im = 3.0;
            if n % 2 == 0 {
                dirty[n / 2].im = -2.0;
            }
            assert_eq!(
                plan.inverse(&dirty).unwrap(),
                plan.inverse(&clean).unwrap(),
                "n={n}"
            );
        }
    }

    #[test]
    fn spectrum_len_accessor() {
        assert_eq!(RealFft::<f64>::new(8).spectrum_len(), 5);
        assert_eq!(RealFft::<f64>::new(7).spectrum_len(), 4);
        assert_eq!(RealFft::<f64>::new(1).spectrum_len(), 1);
    }

    #[test]
    fn length_mismatch_errors() {
        let plan = RealFft::<f64>::new(8);
        assert!(matches!(
            plan.forward(&[0.0; 7]),
            Err(FftError::LengthMismatch { .. })
        ));
        assert!(matches!(
            plan.inverse(&[Complex::zero(); 4]),
            Err(FftError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn one_shot_wrappers() {
        let x = signal(12);
        let spec = rfft(&x);
        let back = irfft(&spec, 12);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-10);
        }
        assert!(rfft::<f64>(&[]).is_empty());
    }

    #[test]
    fn f32_roundtrip() {
        let x: Vec<f32> = (0..32).map(|k| (k as f32 * 0.2).sin()).collect();
        let plan = RealFft::<f32>::new(32);
        let back = plan.inverse(&plan.forward(&x).unwrap()).unwrap();
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_panics() {
        let _ = RealFft::<f64>::new(0);
    }
}
