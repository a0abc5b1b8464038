use l15_core::baseline::SystemModel;
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_testkit::rng::SmallRng;

fn main() {
    let quick = l15_testkit::cli::parse_or_exit("probe", &[], &[]).quick;
    let n_dags = l15_bench::scaled(quick, 100, 5);
    let instances = 10;
    let cores = 8;
    for u in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let gen = DagGenerator::new(DagGenParams { utilisation: u, ..Default::default() });
        let mut rng = SmallRng::seed_from_u64(1);
        let tasks: Vec<_> = (0..n_dags).map(|_| gen.generate(&mut rng).unwrap()).collect();
        let eval = |m: &SystemModel| {
            let mut r = SmallRng::seed_from_u64(2);
            let mut avg = 0.0;
            let mut wc: f64 = 0.0;
            let mut wcs = 0.0;
            for t in &tasks {
                let spans = m.evaluate(t, cores, instances, &mut r);
                avg += spans.iter().sum::<f64>() / spans.len() as f64;
                let w = spans.iter().cloned().fold(f64::MIN, f64::max);
                wcs += w;
                wc = wc.max(w);
            }
            (avg / n_dags as f64, wcs / n_dags as f64)
        };
        let (pa, pw) = eval(&SystemModel::proposed());
        let (l1a, l1w) = eval(&SystemModel::cmp_l1());
        let (l2a, l2w) = eval(&SystemModel::cmp_l2());
        println!("U={u}: avg prop/l1={:.3} prop/l2={:.3} | wc prop/l1={:.3} wc prop/l2={:.3} | avg prop={pa:.1} l1={l1a:.1} l2={l2a:.1} wc prop={pw:.1} l1={l1w:.1}",
            pa/l1a, pa/l2a, pw/l1w, pw/l2w);
    }
}
