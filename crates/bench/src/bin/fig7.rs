//! Regenerates **Fig. 7**: average normalised makespan of a DAG task under
//! varied `U_i` (a), `p` (b) and `cpr` (c), comparing the proposed
//! L1.5 schedule against the SOTA \[15\] on CMP|L1 and CMP|L2.
//!
//! Paper setup: 500 synthetic DAGs, first 10 instances each, series
//! normalised by the highest value observed. Scale with `L15_DAGS`.

use l15_bench::{env_seed, env_usize, makespan_sweep, normalise, scaled, Sweep};
use l15_core::baseline::SystemModel;

fn main() {
    let quick = l15_testkit::cli::parse_or_exit("fig7", &[], &[]).quick;
    let n_dags = env_usize("L15_DAGS", scaled(quick, 500, 8));
    let instances = env_usize("L15_INSTANCES", scaled(quick, 10, 3));
    let cores = env_usize("L15_CORES", 8);
    let seed = env_seed();
    let systems = [SystemModel::proposed(), SystemModel::cmp_l1(), SystemModel::cmp_l2()];
    let names = ["Prop.", "CMP|L1", "CMP|L2"];

    println!("Fig. 7 — average normalised makespan ({n_dags} DAGs x {instances} instances, {cores} cores)");
    for (fig, kind) in [("(a)", "utilisation"), ("(b)", "p"), ("(c)", "cpr")] {
        let points = Sweep::paper_points(kind);
        let sweep = makespan_sweep(&points, &systems, n_dags, instances, cores, seed);
        // Normalise across the whole panel.
        let mut series: Vec<Vec<f64>> = (0..systems.len())
            .map(|s| sweep.iter().map(|p| p.stats[s].average).collect())
            .collect();
        normalise(&mut series);

        println!("\nFig. 7{fig}: x = {kind}");
        print!("{:>8}", "x");
        for n in names {
            print!("{n:>10}");
        }
        println!();
        for (i, pt) in sweep.iter().enumerate() {
            print!("{:>8.2}", pt.x);
            for row in &series {
                print!("{:>10.3}", row[i]);
            }
            println!();
        }
        // Headline deltas, as the paper reports for Fig. 7(a).
        let avg_gain = |s: usize| -> f64 {
            let mut g = 0.0;
            for (prop, other) in series[0].iter().zip(&series[s]) {
                g += 1.0 - prop / other;
            }
            g / series[0].len() as f64 * 100.0
        };
        println!(
            "  Prop. vs CMP|L1: {:.1}% lower makespan on average; vs CMP|L2: {:.1}%",
            avg_gain(1),
            avg_gain(2)
        );
    }
}
