//! The host-speed reference: a fixed kernel of the benchmark's own,
//! timed between the rounds of every run.
//!
//! The reference host is a virtual machine on a shared server, and what
//! the server's other guests do changes how fast the same instructions
//! run — by a fifth or more, for minutes at a time (the benchmark's
//! first check measured a 23–29% inter-quartile spread on the
//! single-threaded, cache-resident `mnist_single` between runs of
//! identical code, on the *median* latency of a 5 µs call). No statistic
//! taken inside one run sees through that. So this kernel is sampled
//! before and after every round of a run, and the run's timings are
//! divided by [`Calibrator::slowdown`]: the first decile of all the
//! samples' chunk times (the median of their fastest fifth, as a
//! reported timing is the median over the quiet fifth of its segments)
//! over [`REFERENCE_CHUNK_NS`]. They read as on the reference host when
//! it is quiet.
//!
//! What that corrects and what it does not: anything that slows all
//! arithmetic on the core alike (the host's clock, a busy sibling
//! hyper-thread) moves the kernel and the program together and divides
//! out. Interruptions do not, and are left to the quiet-segment
//! statistic (`stats.rs`) and the thread CPU clock (`host.rs`).
//!
//! The kernel is a 256-point radix-2 complex FFT followed by a complex
//! multiply-accumulate, on 7 KB of `f32` arrays — the instruction mix
//! of the program under test, in code no later change to the program
//! can touch.

use std::time::Instant;

const POINTS: usize = 256;
/// FFT-and-accumulate passes in one timed chunk (about 30 µs).
const PASSES_PER_CHUNK: usize = 16;
/// Chunks in one sample (about 2 ms).
const CHUNKS_PER_SAMPLE: usize = 64;
/// Nanoseconds one chunk takes on the reference host when it is quiet
/// (the decile [`Calibrator::slowdown`] takes, measured there), fixed
/// here so that reported timings keep one scale from host to host and
/// run to run.
pub const REFERENCE_CHUNK_NS: f64 = 29_000.0;

pub struct Calibrator {
    input: [(f32, f32); POINTS],
    twiddle: [(f32, f32); POINTS / 2],
    weights: [(f32, f32); POINTS],
    work: [(f32, f32); POINTS],
    /// Chunk times of every sample since the last reset.
    chunk_ns: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut c = Self {
            input: [(0.0, 0.0); POINTS],
            twiddle: [(0.0, 0.0); POINTS / 2],
            weights: [(0.0, 0.0); POINTS],
            work: [(0.0, 0.0); POINTS],
            chunk_ns: Vec::with_capacity(256 * CHUNKS_PER_SAMPLE),
        };
        for i in 0..POINTS {
            let t = i as f32;
            c.input[i] = ((t * 0.37).sin(), (t * 0.11).cos());
            c.weights[i] = ((t * 0.53).cos(), (t * 0.29).sin());
        }
        for (k, tw) in c.twiddle.iter_mut().enumerate() {
            let angle = -2.0 * std::f32::consts::PI * k as f32 / POINTS as f32;
            *tw = (angle.cos(), angle.sin());
        }
        // Once untimed: the first pass pulls the arrays into the cache.
        c.sample();
        c.reset();
        c
    }

    /// Forgets the samples taken so far.
    pub fn reset(&mut self) {
        self.chunk_ns.clear();
    }

    /// One pass: decimation-in-frequency FFT of the input (output left
    /// in bit-reversed order), then Σ xᵢ·wᵢ.
    fn pass(&mut self) -> (f32, f32) {
        self.work = self.input;
        let mut half = POINTS / 2;
        while half >= 1 {
            let stride = POINTS / 2 / half;
            for group in (0..POINTS).step_by(2 * half) {
                for k in 0..half {
                    let (ar, ai) = self.work[group + k];
                    let (br, bi) = self.work[group + k + half];
                    let (wr, wi) = self.twiddle[k * stride];
                    let (dr, di) = (ar - br, ai - bi);
                    self.work[group + k] = (ar + br, ai + bi);
                    self.work[group + k + half] = (dr * wr - di * wi, dr * wi + di * wr);
                }
            }
            half /= 2;
        }
        let mut acc = (0.0f32, 0.0f32);
        for (x, w) in self.work.iter().zip(&self.weights) {
            acc.0 += x.0 * w.0 - x.1 * w.1;
            acc.1 += x.0 * w.1 + x.1 * w.0;
        }
        acc
    }

    /// Times [`CHUNKS_PER_SAMPLE`] chunks now.
    pub fn sample(&mut self) {
        for _ in 0..CHUNKS_PER_SAMPLE {
            let start = Instant::now();
            for _ in 0..PASSES_PER_CHUNK {
                std::hint::black_box(self.pass());
            }
            self.chunk_ns.push(start.elapsed().as_nanos() as f64);
        }
    }

    /// How much slower than the reference host the kernel ran over the
    /// samples since the last reset: the first decile of their chunk
    /// times over [`REFERENCE_CHUNK_NS`].
    ///
    /// # Panics
    ///
    /// Panics when no sample was taken.
    pub fn slowdown(&self) -> f64 {
        let sorted = crate::stats::sorted(&self.chunk_ns);
        crate::stats::percentile(&sorted, 10.0) / REFERENCE_CHUNK_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_computes_a_fourier_transform() {
        // Bin 0 of the transform is the sum of the input, and
        // bit-reversal leaves bin 0 in place.
        let mut c = Calibrator::new();
        c.pass();
        let sum = c
            .input
            .iter()
            .fold((0.0f32, 0.0f32), |s, x| (s.0 + x.0, s.1 + x.1));
        assert!((c.work[0].0 - sum.0).abs() < 1e-3 && (c.work[0].1 - sum.1).abs() < 1e-3);
        // Parseval: Σ|X|² = N·Σ|x|².
        let energy = |v: &[(f32, f32)]| {
            v.iter()
                .map(|x| (x.0 * x.0 + x.1 * x.1) as f64)
                .sum::<f64>()
        };
        let ratio = energy(&c.work) / (POINTS as f64 * energy(&c.input));
        assert!((ratio - 1.0).abs() < 1e-4, "{ratio}");
    }

    #[test]
    fn samples_repeat() {
        let mut c = Calibrator::new();
        c.sample();
        let a = c.slowdown();
        c.reset();
        c.sample();
        let b = c.slowdown();
        assert!(a > 0.0 && (a / b - 1.0).abs() < 0.25, "{a} {b}");
    }
}
