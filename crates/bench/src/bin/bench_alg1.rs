//! Micro-benchmarks of Alg. 1: planning throughput vs DAG size (the
//! paper claims cubic complexity; these track the constant).
//!
//! `--quick` runs each routine once (CI smoke); `--samples N` /
//! `--warmup N` tune the measurement.

use l15_core::alg1::schedule_with_l15;
use l15_core::baseline::baseline_priorities;
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::ExecutionTimeModel;
use l15_testkit::bench::{self, black_box, Bench};
use l15_testkit::cli;
use l15_testkit::rng::SmallRng;

fn main() {
    let args = cli::parse_or_exit("bench_alg1", bench::FLAGS, &[]);
    let bench = Bench::from_cli("alg1_plan", &args);
    let etm = ExecutionTimeModel::new(2048).expect("valid way size");
    for p in [9usize, 15, 21] {
        let gen = DagGenerator::new(DagGenParams { max_width: p, ..Default::default() });
        let mut rng = SmallRng::seed_from_u64(42);
        let task = gen.generate(&mut rng).expect("valid params");
        bench.run(&format!("proposed/{p}"), || {
            black_box(schedule_with_l15(black_box(&task), 16, &etm));
        });
        bench.run(&format!("baseline/{p}"), || {
            black_box(baseline_priorities(black_box(&task)));
        });
    }
}
