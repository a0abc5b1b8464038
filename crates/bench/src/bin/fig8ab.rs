//! Regenerates **Fig. 8(a)/(b)**: success ratios of the proposed system
//! and the three comparators on 8-core and 16-core SoCs, over target
//! utilisations 40–90 % (5 % steps), 200 trials per point.
//!
//! Workloads are the DAG-ified PARSEC shapes of Sec. 5.2 with dependent
//! data in [2 KiB, 16 KiB]; the same task sets are used for every system
//! in a trial (the paper: "we ensured the dependent data and timing
//! parameters in each trial were identical").

use l15_bench::{env_seed, env_usize, scaled, success_at};
use l15_core::baseline::SystemModel;

fn main() {
    let quick = l15_testkit::cli::parse_or_exit("fig8ab", &[], &[]).quick;
    let trials = env_usize("L15_TRIALS", scaled(quick, 200, 3));
    let seed = env_seed();
    let systems = [
        ("Prop.", SystemModel::proposed()),
        ("CMP|L1", SystemModel::cmp_l1()),
        ("CMP|L2", SystemModel::cmp_l2()),
        ("CMP|Shared-L1", SystemModel::cmp_shared_l1()),
    ];
    let utils: Vec<f64> = (0..=10).map(|i| 0.40 + 0.05 * i as f64).collect();

    for (panel, cores) in [("(a)", 8usize), ("(b)", 16usize)] {
        println!("\nFig. 8{panel} — success ratio, {cores}-core SoC ({trials} trials/point)");
        print!("{:>8}", "util");
        for (n, _) in &systems {
            print!("{n:>15}");
        }
        println!();
        let mut gains: Vec<f64> = vec![0.0; systems.len() - 1];
        for &u in &utils {
            print!("{:>7.0}%", u * 100.0);
            let mut row = Vec::new();
            for (_, m) in &systems {
                let s = success_at(m, cores, u, trials, seed);
                row.push(s);
                print!("{:>15.3}", s);
            }
            println!();
            for (i, g) in gains.iter_mut().enumerate() {
                *g += row[0] - row[i + 1];
            }
        }
        for (i, (n, _)) in systems.iter().enumerate().skip(1) {
            println!(
                "  Prop. vs {n}: +{:.1} pp success ratio on average (paper band: 5-40 pp)",
                gains[i - 1] / utils.len() as f64 * 100.0
            );
        }
    }
}
