//! Host-speed calibration.
//!
//! The benchmark shares its host with other tenants whose load changes
//! over seconds to minutes: back-to-back processes of identical code have
//! read anywhere from 4 500 to 10 500 T-COV trials/s. Every timed sample
//! is therefore taken next to a sample of a fixed calibration kernel, and
//! reported rescaled to the host speed at which that kernel takes
//! [`NOMINAL_S`].
//!
//! The kernel is the geometric mean of four small parts, each slowed by a
//! different kind of interference: an ILP-heavy branchy loop, random
//! read-modify-write over 2 MiB, a binary-heap event loop over 256 KiB of
//! state checkpointed with `clone_from`, and a mix of standard-library
//! maps, sorting and float formatting. The campaign engine slows more
//! steeply than any single part does: over two 3-minute recordings of
//! 10-pass T-COV medians, `ln(pass time)` followed `ln(kernel time)` with
//! slope 1.53 and 1.59. Rescaling with that [`ELASTICITY`] took the
//! spread (standard deviation of the log) from 0.136 and 0.164 down to
//! 0.063 and 0.062; with slope 1 it fell to 0.075 and 0.083.
//!
//! The kernel lives in the benchmark, so no change to the program under
//! test can move it.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines the reference host speed.
pub const NOMINAL_S: f64 = 0.004;
/// How steeply campaign time follows kernel time (see the module docs).
pub const ELASTICITY: f64 = 1.5;

const ILP_STEPS: u64 = 1_000_000;
const RMW_WORDS: usize = 1 << 18;
const RMW_STEPS: u64 = 1_000_000;
const SIM_WORDS: usize = 1 << 15;
const SIM_EVENTS: u64 = 100_000;
/// Events between a checkpoint and the restore that rewinds to it.
const SIM_FORK: u64 = 2_048;
const STD_STEPS: u64 = 10_000;

/// A map whose layout does not depend on a per-process random seed.
type FixedHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

pub struct Calibrator {
    table: Vec<u32>,
    rmw: Vec<u64>,
    state: Vec<u64>,
    checkpoint: Vec<u64>,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
}

/// xorshift64: a fixed pseudo-random stream.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibrator {
    pub fn new() -> Self {
        let mut calib = Calibrator {
            table: (0..4_096u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            rmw: (0..RMW_WORDS as u64).collect(),
            state: (0..SIM_WORDS as u64).collect(),
            checkpoint: vec![0; SIM_WORDS],
            queue: BinaryHeap::with_capacity(64),
        };
        // The first samples fault pages in and warm the caches.
        calib.sample();
        calib.sample();
        calib
    }

    /// Runs the kernel once and returns its time in seconds.
    pub fn sample(&mut self) -> f64 {
        let parts: [fn(&mut Self) -> u64; 4] =
            [Self::ilp, Self::rmw, Self::event_loop, Self::std_mix];
        let log_sum: f64 = parts
            .iter()
            .map(|part| {
                let start = Instant::now();
                black_box(part(self));
                start.elapsed().as_secs_f64().ln()
            })
            .sum();
        (log_sum / parts.len() as f64).exp()
    }

    /// `seconds` of work measured next to a kernel time of `kernel_s`,
    /// rescaled to the reference host speed.
    pub fn normalize(seconds: f64, kernel_s: f64) -> f64 {
        seconds * (NOMINAL_S / kernel_s).powf(ELASTICITY)
    }

    fn ilp(&mut self) -> u64 {
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        let mut acc = 0u64;
        for i in 0..black_box(ILP_STEPS) {
            next(&mut a);
            b = b.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            c = c.rotate_left(5) ^ u64::from(self.table[(a & 4_095) as usize]);
            d = d.wrapping_add(u64::from(self.table[(b >> 52) as usize]));
            if (a ^ c) & 1 == 0 {
                acc = acc.wrapping_add(d);
            } else {
                acc ^= c;
            }
            if b & 6 == 2 {
                acc = acc.rotate_left(3);
            }
        }
        acc
    }

    fn rmw(&mut self) -> u64 {
        let mask = RMW_WORDS as u64 - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for _ in 0..black_box(RMW_STEPS) {
            let i = (next(&mut x) & mask) as usize;
            acc = acc.wrapping_add(self.rmw[i]);
            self.rmw[i] = acc ^ x;
        }
        acc
    }

    fn event_loop(&mut self) -> u64 {
        let len = SIM_WORDS as u64;
        let mut x = 0x0123_4567;
        let mut acc = 0u64;
        self.queue.clear();
        for id in 0..64u64 {
            self.queue.push(Reverse(((id * 7_919) % 1_000, id)));
        }
        for k in 0..black_box(SIM_EVENTS) {
            let Reverse((t, id)) = self.queue.pop().expect("queue never drains");
            let r = next(&mut x);
            let j = ((id * 1_031 + (r & 255)) % len) as usize;
            self.state[j] = self.state[j].wrapping_add(t ^ r);
            acc = acc.wrapping_add(self.state[(r % len) as usize]);
            self.queue.push(Reverse((t + 1 + (r & 15), id)));
            match k % (2 * SIM_FORK) {
                0 => self.checkpoint.clone_from(&self.state),
                SIM_FORK => self.state.clone_from(&self.checkpoint),
                _ => {}
            }
        }
        acc
    }

    fn std_mix(&mut self) -> u64 {
        let mut tree = BTreeMap::new();
        let mut hashed = FixedHashMap::default();
        let mut sorted: Vec<u64> = Vec::new();
        let mut x = 7u64;
        let mut acc = 0u64;
        for i in 0..black_box(STD_STEPS) {
            let r = next(&mut x);
            tree.insert(r % 5_000, i);
            hashed.insert(r % 3_000, i);
            if i % 50 == 0 {
                let text = format!("{:.3}/{i}", r as f64 / 3.0);
                let value: f64 = text
                    .split('/')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0.0);
                acc = acc.wrapping_add(text.len() as u64 + value as u64 % 7);
            }
            if i % 200 == 0 {
                sorted.clear();
                sorted.extend(tree.values().take(300).copied());
                sorted.sort_unstable_by(|a, b| b.cmp(a));
                acc = acc.wrapping_add(sorted[0]);
            }
            acc = acc.wrapping_add(*hashed.get(&(i % 3_000)).unwrap_or(&0));
        }
        acc
    }
}
