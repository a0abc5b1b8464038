//! A tiny wall-clock timing harness — the in-tree replacement for the
//! criterion benches.
//!
//! Each benchmark binary declares [`FLAGS`], builds a [`Bench`] from its
//! parsed arguments and calls [`Bench::run`] per measured routine. In
//! quick mode (`--quick`, used by `scripts/ci.sh`) every routine executes
//! exactly once as a smoke test; otherwise it is warmed up and sampled
//! repeatedly, and min / median / mean times are printed.
//!
//! ```no_run
//! use l15_testkit::{bench, cli};
//! let args = cli::parse_or_exit("bench_alg1", bench::FLAGS, &[]);
//! let bench = bench::Bench::from_cli("alg1", &args);
//! bench.run("alg1/8x16", || {
//!     // ... workload under test ...
//! });
//! ```

use std::time::{Duration, Instant};

use crate::cli::Parsed;

/// The flags every timing binary declares to the [`crate::cli`] parser.
pub const FLAGS: &[&str] = &["--samples N", "--warmup N"];

/// Harness state shared by every measured routine in one binary.
#[derive(Debug, Clone)]
pub struct Bench {
    suite: String,
    quick: bool,
    samples: u32,
    warmup: u32,
}

impl Bench {
    /// Builds a harness for `suite` from arguments parsed against
    /// [`FLAGS`]: `--quick` (single smoke iteration), `--samples N`
    /// (default 20) and `--warmup N` (default 3). A count above
    /// `u32::MAX` is rejected like any bad argument.
    pub fn from_cli(suite: &str, args: &Parsed) -> Self {
        Bench::new(suite, args.quick, args.value_or("--samples", 20), args.value_or("--warmup", 3))
    }

    /// Constructs a harness directly (for tests).
    pub fn new(suite: &str, quick: bool, samples: u32, warmup: u32) -> Self {
        Bench { suite: suite.to_owned(), quick, samples: samples.max(1), warmup }
    }

    /// Whether the harness is in `--quick` smoke mode. Binaries use this
    /// to shrink problem sizes so CI stays fast.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Times `f`, printing one line per routine:
    /// `bench <suite>/<name>  min=…  median=…  mean=…  (N samples)`.
    /// Returns the minimum observed duration.
    pub fn run(&self, name: &str, mut f: impl FnMut()) -> Duration {
        if self.quick {
            let t = Instant::now();
            f();
            let d = t.elapsed();
            println!("bench {}/{name}  quick-smoke  {}", self.suite, fmt(d));
            return d;
        }
        for _ in 0..self.warmup {
            f();
        }
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed()
            })
            .collect();
        times.sort();
        let min = times[0];
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        println!(
            "bench {}/{name}  min={}  median={}  mean={}  ({} samples)",
            self.suite,
            fmt(min),
            fmt(median),
            fmt(mean),
            times.len()
        );
        min
    }
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Prevents the optimiser from deleting a benchmarked computation —
/// a dependency-free stand-in for `criterion::black_box`.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_runs_once() {
        let b = Bench::new("t", true, 50, 10);
        let mut count = 0;
        b.run("once", || count += 1);
        assert_eq!(count, 1);
    }

    #[test]
    fn sampling_runs_warmup_plus_samples() {
        let b = Bench::new("t", false, 5, 2);
        let mut count = 0;
        b.run("seven", || count += 1);
        assert_eq!(count, 7);
    }

    #[test]
    fn fmt_scales_units() {
        assert_eq!(fmt(Duration::from_nanos(500)), "500ns");
        assert_eq!(fmt(Duration::from_micros(1500)), "1.50ms");
        assert_eq!(fmt(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn black_box_is_identity() {
        assert_eq!(black_box(42), 42);
    }
}
