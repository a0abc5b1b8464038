//! Regenerates **Fig. 8(c)** (Sec. 5.3 side-effects analysis): L1.5 way
//! utilisation and misconfiguration ratio φ on busy systems —
//! `xc|y%` = an SoC with `x` cores at `y` % target utilisation.
//!
//! Paper expectations: utilisation > 95 % at 80 % load, > 98 % at 100 %
//! load, and φ consistently below 1 % (rising slightly with load, caused
//! by the Walloc's one-way-per-cycle constraint).

use l15_bench::{env_seed, env_usize, scaled, side_effects_at};

fn main() {
    let quick = l15_testkit::cli::parse_or_exit("fig8c", &[], &[]).quick;
    let trials = env_usize("L15_TRIALS", scaled(quick, 200, 2));
    let seed = env_seed();
    println!("Fig. 8(c) — L1.5 side effects ({trials} trials/point)");
    println!(
        "{:>10} {:>16} {:>12} {:>17}",
        "config", "way-util (busy)", "phi (avg)", "phi (worst trial)"
    );
    for (cores, util) in [(8usize, 0.8), (8, 1.0), (16, 0.8), (16, 1.0)] {
        let out = side_effects_at(cores, util, trials, seed);
        println!(
            "{:>7}|{:>2.0}% {:>15.1}% {:>11.3}% {:>11.3}%",
            format!("{cores}c"),
            util * 100.0,
            out.l15_utilisation * 100.0,
            out.phi_avg * 100.0,
            out.phi_max * 100.0
        );
    }
    println!("  (paper: util >95% @80%, >98% @100%; phi < 1% everywhere)");
}
