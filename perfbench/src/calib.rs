//! Host-speed calibration: a fixed kernel owned by the benchmark, timed
//! between the phases' repetitions, that measures how fast the host ran
//! during this run independently of the program under test.
//!
//! A shared virtual machine runs the same code up to twice as slowly in
//! one stretch of minutes as in another. The kernel's median time over a
//! run, against `REFERENCE_MS`, gives the run's slowdown, and every host
//! time the run reports is divided by it. The kernel calls nothing of the
//! program, so a change to the program moves the reported times and
//! never the slowdown.

use std::time::{Duration, Instant};

/// Words of the kernel's table (1 MiB): larger than L2, like the
/// simulator's working set.
const TABLE_WORDS: usize = 1 << 18;
/// Kernel steps per sample (a few milliseconds).
const STEPS: u32 = 300_000;
/// Median time of one sample on the 2-vCPU shared VM the benchmark was
/// tuned on: the host speed the reported times refer to.
pub const REFERENCE_MS: f64 = 5.0;

/// The calibration samples of one run.
pub struct Calib {
    table: Vec<u32>,
    pub samples: Vec<Duration>,
}

impl Calib {
    pub fn new() -> Self {
        Calib { table: vec![0; TABLE_WORDS], samples: Vec::new() }
    }

    /// Times one run of the kernel from a fixed table state.
    pub fn sample(&mut self) {
        for (i, w) in self.table.iter_mut().enumerate() {
            *w = (i as u32).wrapping_mul(0x9e37_79b9);
        }
        let t0 = Instant::now();
        std::hint::black_box(kernel(&mut self.table));
        self.samples.push(t0.elapsed());
    }
}

/// Data-dependent loads, stores and branches over the table, driven by a
/// xorshift generator: the kind of work an interpreter loop does.
fn kernel(table: &mut [u32]) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        let v = table[i];
        match v & 3 {
            0 => table[i] = v.wrapping_add(x as u32),
            1 => acc = acc.wrapping_add(u64::from(v)).rotate_left(5),
            2 => table[(i + 1) & mask] ^= v >> 3,
            _ => acc ^= u64::from(v).wrapping_mul(0x2545_f491_4f6c_dd1d),
        }
        table[i] = table[i].wrapping_add(1);
    }
    acc
}
