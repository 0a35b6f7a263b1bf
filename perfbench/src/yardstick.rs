//! A fixed yardstick for the host's current speed.
//!
//! On a shared 2-CPU x86-64 virtual machine the same binary was measured
//! running its MD steps 30–50% slower for stretches of seconds to minutes,
//! with every mode slowed alike. The MD workloads therefore time this
//! yardstick in every round next to the simulations and scale each round's
//! CPU-bound timings to a nominal host speed. The yardstick is the
//! benchmark's own code, independent of the repository, so a change to the
//! program cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Yardstick time (s) measured on that 2-CPU x86-64 (AVX-512, 2.1 GHz)
/// machine in a quiet phase. Timings are reported as if the yardstick had
/// taken this long.
pub const NOMINAL_S: f64 = 1.7e-3;

const N: usize = 1 << 16;

/// Two fixed loops: scalar libm math over a shuffled gather, and a
/// polynomial over f32 lanes on the widest vector ISA the host runs.
pub struct Yardstick {
    buf: Vec<f64>,
    idx: Vec<u32>,
    lanes: Vec<f32>,
}

impl Yardstick {
    pub fn new() -> Self {
        let mut rng = crate::gen::Rng::new(0xca1);
        let mut idx: Vec<u32> = (0..N as u32).collect();
        rng.shuffle(&mut idx);
        Yardstick {
            buf: (0..N).map(|i| i as f64 / N as f64).collect(),
            idx,
            lanes: (0..N).map(|i| i as f32 / N as f32).collect(),
        }
    }

    /// Seconds of one yardstick pass: the geometric mean of the scalar and
    /// the vector loop.
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0.0;
        for pass in 0..4 {
            for (k, &j) in self.idx.iter().enumerate() {
                let x = self.buf[j as usize];
                let y = (x * 1.0001 + 0.5).sqrt() + (-x).exp() + (x + f64::from(pass)).sin();
                self.buf[k] = 0.25 * y;
                acc += y;
            }
        }
        black_box(acc);
        let scalar = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        black_box(vector_pass(&mut self.lanes));
        (scalar * t0.elapsed().as_secs_f64()).sqrt()
    }
}

/// Rounds on each side of a round whose yardstick times are pooled for it.
const HALF_WINDOW: usize = 2;

/// Per round, the factor that scales the round's times to the nominal host
/// speed: `NOMINAL_S` over the median yardstick time of the round and its
/// neighbors. Pooling a few rounds damps the yardstick's own jitter while
/// still following phases that last seconds.
pub fn round_scales(yardstick_s: &[f64]) -> Vec<f64> {
    let n = yardstick_s.len();
    (0..n)
        .map(|r| {
            let window = &yardstick_s[r.saturating_sub(HALF_WINDOW)..(r + HALF_WINDOW + 1).min(n)];
            NOMINAL_S / crate::stats::median(window)
        })
        .collect()
}

#[inline(always)]
fn polynomial(v: &mut [f32]) -> f32 {
    for _ in 0..64 {
        for x in v.iter_mut() {
            *x = (((0.3 * *x + 0.2) * *x + 0.1) * *x + 0.05) * 0.999 + 1e-4;
        }
    }
    v.iter().sum()
}

fn vector_pass(v: &mut [f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2,fma,avx512f")]
        unsafe fn avx512(v: &mut [f32]) -> f32 {
            polynomial(v)
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn avx2(v: &mut [f32]) -> f32 {
            polynomial(v)
        }
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("fma")
        {
            // SAFETY: the host was just detected to execute these features.
            return unsafe { avx512(v) };
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: as above.
            return unsafe { avx2(v) };
        }
    }
    polynomial(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_scales_pool_neighbouring_rounds() {
        let slow = 2.0 * NOMINAL_S;
        let y = [
            NOMINAL_S,
            NOMINAL_S,
            10.0 * NOMINAL_S,
            NOMINAL_S,
            slow,
            slow,
            slow,
            slow,
        ];
        let s = round_scales(&y);
        // One outlier among five rounds is ignored.
        assert_eq!(s[2], 1.0);
        // A sustained slow phase halves the scale.
        assert_eq!(s[6], 0.5);
        assert_eq!(s.len(), y.len());
    }
}
