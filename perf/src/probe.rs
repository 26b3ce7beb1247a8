//! Host-speed probe: every timing a run reports is scaled to a reference
//! host speed, measured by a fixed kernel timed right before the timed
//! work.
//!
//! Why: the benchmark runs on a guest that shares physical cores with
//! other guests. Their load makes the same code run up to 2× (scalar
//! machine) or 2.6× (lane kernel) slower for seconds to minutes at a
//! time, with no CPU steal the guest could see. No statistic of wall
//! time over a run of a few seconds is steady under that. A kernel with
//! the workload's instruction mix slows down with it: over 15 minutes of
//! such contention, with medians taken each 10 s, the scalar machine's
//! speed spread 39% (IQR over median) and its ratio to this module's
//! [`Mix::Machine`] probe 2%; the lane kernel's speed spread 60% and its
//! ratio to [`Mix::BitSliced`] 8%.
//!
//! Time at reference speed = wall time × speed, where speed is the
//! probe's reference duration over its measured duration: 1 on a host
//! where the probe takes its reference time (an idle core of the 2-vCPU
//! Sapphire Rapids guest the references were measured on), below 1 on a
//! slower or contended host. The probe uses only this file's code and
//! the standard library, so no change to the program moves it.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The instruction mix a probe runs, matched to the code it normalises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Bit-sliced counter updates only: the lane kernel's mix of
    /// independent 64-bit logic on register-resident planes.
    BitSliced,
    /// Bit-sliced updates and a streaming pass over an L2-sized array in
    /// about equal time: the scalar machine's mix (contention slows the
    /// machine more than the stream and less than the bit-sliced part).
    Machine,
}

/// Iterations of the bit-sliced kernel per probe.
const BITSLICED_ITERS: usize = 20_000;
/// Seconds [`BITSLICED_ITERS`] take on the reference host: the fastest
/// 1% of 4,000+ back-to-back probes, which repeated within 1% over six
/// 20 s samples.
const BITSLICED_REF_S: f64 = 1.25e-3;

/// Passes over the stream array per probe.
const STREAM_PASSES: usize = 128;
/// Seconds [`STREAM_PASSES`] take on the reference host, measured the
/// same way.
const STREAM_REF_S: f64 = 1.08e-3;

/// Words in the stream array: 256 KiB, resident in L2.
const STREAM_WORDS: usize = 32_768;

/// Rows of bit planes the bit-sliced kernel cycles through (32 words a
/// row: 7 queue entries of a valid and 3 code planes, 4 words wide).
const PLANE_ROWS: usize = 512;

/// A probe and the speeds it measured.
pub struct Probe {
    mix: Mix,
    planes: Vec<u64>,
    counters: Vec<u64>,
    stream: Vec<u64>,
    speeds: Vec<f64>,
}

impl Probe {
    /// A probe running `mix`, its inputs built.
    pub fn new(mix: Mix) -> Probe {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let planes = (0..PLANE_ROWS * 32)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Probe {
            mix,
            planes,
            counters: vec![0; 4 * 16 * 3],
            stream: (0..STREAM_WORDS as u64).collect(),
            speeds: Vec::new(),
        }
    }

    /// Run the probe once: the host's speed now, relative to the
    /// reference host.
    pub fn speed(&mut self) -> f64 {
        let t = Instant::now();
        black_box(bit_sliced(
            &self.planes,
            &mut self.counters,
            BITSLICED_ITERS,
        ));
        let mut secs = t.elapsed().as_secs_f64();
        let mut reference = BITSLICED_REF_S;
        if self.mix == Mix::Machine {
            let t = Instant::now();
            black_box(stream(&self.stream, STREAM_PASSES));
            secs += t.elapsed().as_secs_f64();
            reference += STREAM_REF_S;
        }
        let speed = reference / secs;
        self.speeds.push(speed);
        speed
    }

    /// Run `f` right after a probe; its result and its duration in
    /// seconds at reference speed.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let speed = self.speed();
        let t = Instant::now();
        let product = f();
        (product, t.elapsed().as_secs_f64() * speed)
    }

    /// Median of every speed measured so far (0 before the first).
    pub fn median_speed(&self) -> f64 {
        median(&self.speeds)
    }
}

/// Carry-save 3-bit counters per unit type, incremented by masks decoded
/// from rows of planes, 4 words at a time, like one lane-kernel step.
fn bit_sliced(planes: &[u64], state: &mut [u64], iters: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..iters {
        let row = (i % PLANE_ROWS) * 32;
        for w in 0..4 {
            let mut cnt = [[0u64; 3]; 5];
            for e in 0..7 {
                let valid = planes[row + e * 4];
                let code = [
                    planes[row + e * 4 + 1],
                    planes[row + e * 4 + 2],
                    planes[row + e * 4 + 3],
                ];
                for (t, c) in cnt.iter_mut().enumerate() {
                    let bit = |b: usize| {
                        if t >> b & 1 == 1 {
                            code[b]
                        } else {
                            !code[b]
                        }
                    };
                    let mut m = valid & bit(0) & bit(1) & bit(2);
                    for plane in c.iter_mut() {
                        let carry = *plane & m;
                        *plane ^= m;
                        m = carry;
                    }
                }
            }
            for (t, c) in cnt.iter().enumerate() {
                for (b, plane) in c.iter().enumerate() {
                    let s = &mut state[(w * 16 + t) * 3 + b];
                    *s = (*s ^ plane).rotate_left(1 + w as u32);
                }
            }
            acc ^= state[w * 48];
        }
        acc = acc.wrapping_add(black_box(acc).count_ones() as u64);
    }
    acc
}

/// `passes` summing passes over `buf`.
fn stream(buf: &[u64], passes: usize) -> u64 {
    let mut acc = 0u64;
    for p in 0..passes {
        for (i, v) in buf.iter().enumerate() {
            acc = acc.wrapping_add(*v ^ (i + p) as u64);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_positive_speeds_and_scale_time() {
        for mix in [Mix::BitSliced, Mix::Machine] {
            let mut p = Probe::new(mix);
            let s = p.speed();
            assert!(s.is_finite() && s > 0.0, "{mix:?}: {s}");
            let (v, secs) = p.time(|| stream(&[1, 2, 3], 4));
            assert!(v > 0 && secs > 0.0);
            assert!(p.median_speed() > 0.0);
        }
    }
}
