//! Cluster-count vs success-ratio sweep for the federated multi-cluster
//! tier: at a fixed **absolute** utilisation, how many 4-core L1.5
//! clusters does each system need before the task sets are both admitted
//! (federated partition: heavy/light split, dedicated clusters, first-fit
//! packing) and simulate without a deadline miss?
//!
//! The proposed system's single-cluster admission bound keeps the ETM
//! benefit term, so it reaches a given success ratio with fewer clusters
//! than the CMP baselines — the multi-cluster extension of the Fig. 8
//! argument.
//!
//! The artifact on stdout is byte-identical at every `L15_JOBS` worker
//! count (per-trial streams derive from `(seed, trial)` alone), which
//! `scripts/ci.sh` checks by diffing `L15_JOBS=1` against `L15_JOBS=4`.

use l15_bench::{env_seed, env_usize, scaled, success_at_clusters};
use l15_core::baseline::SystemModel;

fn main() {
    let quick = l15_testkit::cli::parse_or_exit("l15-cluster", &[], &[]).quick;
    let trials = env_usize("L15_TRIALS", scaled(quick, 200, 3));
    let seed = env_seed();
    let systems = [
        ("Prop.", SystemModel::proposed()),
        ("CMP|L1", SystemModel::cmp_l1()),
        ("CMP|L2", SystemModel::cmp_l2()),
    ];
    let clusters: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let utils: &[f64] = if quick { &[2.0] } else { &[2.0, 4.0, 6.0] };

    for &u in utils {
        println!("\nCluster sweep — success ratio at total utilisation {u:.1} ({trials} trials)");
        print!("{:>10}{:>8}", "clusters", "cores");
        for (n, _) in &systems {
            print!("{n:>12}");
        }
        println!();
        for &c in clusters {
            print!("{c:>10}{:>8}", c * 4);
            for (_, m) in &systems {
                print!("{:>12.3}", success_at_clusters(m, c, u, trials, seed));
            }
            println!();
        }
    }
}
