//! Bound-vs-observed sweep for the `l15-check` abstract-interpretation
//! certifier: every (preset, workload) pair is certified statically, then
//! executed cycle-accurately on the simulated SoC, and the per-node
//! observed cycles are compared against the static bounds.
//!
//! The artifact is a precision table — `bound / observed` per node,
//! reported as the worst and mean ratio of each sweep item — plus a hard
//! soundness gate: any node whose observed cycles exceed its certified
//! bound aborts the run with a non-zero exit. `scripts/ci.sh` diffs the
//! full output between `L15_JOBS=1` and `L15_JOBS=4`; items are evaluated
//! on the deterministic pool and printed in index order, so the bytes
//! must match at any worker count.

use l15_bench::{env_usize, par_sweep, scaled};
use l15_check::certify_task;
use l15_core::alg1::schedule_with_l15;
use l15_core::baseline::baseline_priorities;
use l15_dag::topology::{fork_join, layered_mesh, UniformPayload};
use l15_dag::{DagTask, ExecutionTimeModel};
use l15_runtime::kernel::{run_task, KernelConfig};
use l15_runtime::WorkScale;
use l15_soc::{Soc, SocConfig};

fn workloads(quick: bool) -> Vec<(&'static str, DagTask)> {
    let mk = |data| UniformPayload { wcet: 1.0, data_bytes: data, edge_cost: 1.0, alpha: 0.6 };
    let task = |g| DagTask::new(g, 1e9, 1e9).expect("valid task");
    let mut out = vec![
        ("fork_join(3)", task(fork_join(3, mk(2048)).expect("valid"))),
        ("mesh(2x3)", task(layered_mesh(2, 3, mk(2048)).expect("valid"))),
    ];
    if !quick {
        out.push(("fork_join(5)", task(fork_join(5, mk(4096)).expect("valid"))));
        out.push(("mesh(3x3)", task(layered_mesh(3, 3, mk(4096)).expect("valid"))));
    }
    out
}

/// One sweep item, fully evaluated: certification and concrete run.
struct Row {
    certified: bool,
    findings: usize,
    nodes: usize,
    /// Worst and mean `bound / observed` over the nodes (1.0 = exact).
    worst_ratio: f64,
    mean_ratio: f64,
    /// Nodes whose observed cycles exceeded the static bound (must be 0).
    violations: Vec<String>,
}

fn evaluate(preset: &str, task: &DagTask, compute: u32) -> Row {
    let cfg = SocConfig::preset(preset).expect("known preset");
    let use_l15 = cfg.l15.is_some();
    let etm = ExecutionTimeModel::new(2048).expect("valid way size");
    let plan = if use_l15 {
        schedule_with_l15(task, cfg.l15.map(|c| c.ways).unwrap_or(16), &etm)
    } else {
        baseline_priorities(task)
    };
    let scale = WorkScale { compute_iters: compute };
    let report = certify_task(task, &plan, &cfg, scale);

    let mut soc = Soc::new(cfg, 0);
    let kcfg = KernelConfig { use_l15, scale, ..Default::default() };
    let run = run_task(&mut soc, task, &plan, &kcfg).expect("workload runs to completion");
    assert!(run.dataflow_ok, "{preset}: data must flow");

    let mut worst: f64 = 0.0;
    let mut sum = 0.0;
    let mut violations = Vec::new();
    for nb in &report.node_bounds {
        let observed = run.node_finish[nb.node].saturating_sub(run.node_start[nb.node]).max(1);
        if nb.bound_cycles != u64::MAX && observed > nb.bound_cycles {
            violations.push(format!(
                "node {}: observed {observed} cycles > certified bound {}",
                nb.node, nb.bound_cycles
            ));
        }
        let ratio = nb.bound_cycles as f64 / observed as f64;
        worst = worst.max(ratio);
        sum += ratio;
    }
    Row {
        certified: report.certified(),
        findings: report.findings.len(),
        nodes: report.node_bounds.len(),
        worst_ratio: worst,
        mean_ratio: sum / report.node_bounds.len().max(1) as f64,
        violations,
    }
}

fn main() {
    let quick = l15_testkit::cli::parse_or_exit("l15-absint", &[], &[]).quick;
    let compute = env_usize("L15_COMPUTE_ITERS", scaled(quick, 16, 4)) as u32;
    let presets: &[&str] = if quick {
        &["proposed_8core", "cmp_l2_8core"]
    } else {
        &[
            "proposed_8core",
            "proposed_16core",
            "cmp_l1_8core",
            "cmp_l2_8core",
            "cmp_l1_16core",
            "cmp_l2_16core",
        ]
    };
    let tasks = workloads(quick);
    let items: Vec<(&str, &str, &DagTask)> =
        presets.iter().flat_map(|&p| tasks.iter().map(move |(name, t)| (p, *name, t))).collect();

    println!("Static bound vs observed cycles (compute_iters = {compute}):");
    println!(
        "{:>16} {:>14} {:>6} {:>10} {:>11} {:>11}",
        "preset", "workload", "nodes", "certified", "worst b/o", "mean b/o"
    );
    let rows = par_sweep(items.len(), |i| {
        let (preset, name, task) = items[i];
        (preset, name, evaluate(preset, task, compute))
    });
    let mut broken = 0usize;
    for (preset, name, row) in &rows {
        let cert = if row.certified { "yes".to_string() } else { format!("no ({})", row.findings) };
        println!(
            "{preset:>16} {name:>14} {:>6} {cert:>10} {:>11.3} {:>11.3}",
            row.nodes, row.worst_ratio, row.mean_ratio
        );
        for v in &row.violations {
            eprintln!("SOUNDNESS VIOLATION {preset}/{name}: {v}");
            broken += 1;
        }
    }
    assert_eq!(broken, 0, "{broken} node(s) exceeded their certified static bound");
    println!("l15-absint: {} item(s), 0 soundness violation(s)", rows.len());
}
