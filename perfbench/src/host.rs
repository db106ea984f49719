//! Host speed, measured by a fixed reference kernel that belongs to this
//! package, so it is the same code on every commit under test.
//!
//! The reference host switches between speed bands that last from seconds
//! to minutes; a whole run can sit in the slow one. The kernel is timed
//! after every lap and each lap's figures are scaled to the kernel's
//! nominal speed, which cancels the band the lap ran in. The kernel mixes
//! what the workloads do — calls through trait objects, a small hash map,
//! vector pushes and data-dependent branches — so the bands slow it the
//! way they slow the workloads. A memory-bound kernel does not track them.

use std::collections::HashMap;
use std::time::Instant;

/// Kernel iterations per sample (about 4 ms on the reference host).
const ITERATIONS: u64 = 200_000;
/// The kernel's rate on the reference host's fast band, iterations per
/// second. Any fixed value works: it only sets the scale of the normalised
/// figures, and it is the same for every commit.
const NOMINAL_RATE: f64 = 50e6;

trait Op {
    fn apply(&mut self, x: u64) -> u64;
}

struct Lcg(u64);
struct Window(Vec<u64>);
struct Counts(HashMap<u64, u64>);

impl Op for Lcg {
    fn apply(&mut self, x: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(x);
        self.0 >> 7
    }
}

impl Op for Window {
    fn apply(&mut self, x: u64) -> u64 {
        if self.0.len() > 64 {
            self.0.clear();
        }
        self.0.push(x);
        self.0
            .iter()
            .rev()
            .take(4)
            .fold(x, |a, b| a ^ b.rotate_left(3))
    }
}

impl Op for Counts {
    fn apply(&mut self, x: u64) -> u64 {
        let e = self.0.entry(x & 255).or_insert(0);
        *e += 1;
        *e ^ x
    }
}

fn kernel(iterations: u64) -> u64 {
    let mut ops: Vec<Box<dyn Op>> = vec![
        Box::new(Lcg(1)),
        Box::new(Window(Vec::new())),
        Box::new(Counts(HashMap::new())),
    ];
    let (mut x, mut acc) = (0x1234_u64, 0_u64);
    for i in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(ops[(x % 3) as usize].apply(x ^ i));
        acc = if acc & 1 == 0 {
            acc.rotate_left(5)
        } else {
            acc ^ x
        };
    }
    acc
}

/// Times the kernel once and returns the host's speed relative to nominal
/// (1.0 = the reference host's fast band).
pub fn speed() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(ITERATIONS)));
    ITERATIONS as f64 / t.elapsed().as_secs_f64() / NOMINAL_RATE
}
