//! Benchmarks of the makespan and periodic simulators — the engines
//! behind Fig. 7 / Tab. 2 and Fig. 8 respectively.
//!
//! `--quick` runs each routine once (CI smoke).

use l15_core::baseline::SystemModel;
use l15_core::casestudy::{generate_case_study, CaseStudyParams};
use l15_core::periodic::{simulate_taskset, PeriodicParams};
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_testkit::bench::{self, black_box, Bench};
use l15_testkit::cli;
use l15_testkit::rng::SmallRng;

fn main() {
    let args = cli::parse_or_exit("bench_makespan", bench::FLAGS, &[]);
    let bench = Bench::from_cli("makespan", &args);

    for (name, model) in [("proposed", SystemModel::proposed()), ("cmp_l1", SystemModel::cmp_l1())]
    {
        let gen = DagGenerator::new(DagGenParams::default());
        let mut rng = SmallRng::seed_from_u64(3);
        let task = gen.generate(&mut rng).expect("valid params");
        let plan = model.plan(&task);
        let mut r = SmallRng::seed_from_u64(5);
        bench.run(&format!("instance/{name}/8c"), || {
            black_box(model.simulate_instance(black_box(&task), 8, &plan, 1, &mut r));
        });
    }

    {
        // The Fig. 7 inner loop at batch granularity: 8 DAG instances
        // simulated as independent sweep items with per-item seeds.
        let model = SystemModel::proposed();
        let gen = DagGenerator::new(DagGenParams::default());
        let mut rng = SmallRng::seed_from_u64(3);
        let tasks: Vec<_> = (0..8).map(|_| gen.generate(&mut rng).expect("valid params")).collect();
        let plans: Vec<_> = tasks.iter().map(|t| model.plan(t)).collect();
        bench.run("instance_batch_par/8", || {
            let spans = l15_bench::par_sweep(tasks.len(), |i| {
                let seed = l15_testkit::pool::item_seed(5, i);
                let mut r = SmallRng::seed_from_u64(seed);
                model.simulate_instance(&tasks[i], 8, &plans[i], 1, &mut r).makespan
            });
            black_box(spans.iter().sum::<f64>());
        });
    }

    {
        let model = SystemModel::proposed();
        let params = PeriodicParams::default();
        let cs = CaseStudyParams::default();
        let mut set_rng = SmallRng::seed_from_u64(11);
        let tasks = generate_case_study(4, 6.4, &cs, &mut set_rng).expect("valid params");
        let mut rng = SmallRng::seed_from_u64(13);
        bench.run("periodic_trial_8c_80pct", || {
            black_box(simulate_taskset(black_box(&tasks), &model, &params, &mut rng));
        });
    }
}
