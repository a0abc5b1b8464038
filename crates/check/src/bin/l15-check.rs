//! `l15-check` — lint L1.5 programs against the six protocol rules.
//!
//! ```sh
//! # lint the built-in sweep: generated corpus + case-study programs +
//! # the Walloc FSM model check (--quick shrinks the sweep for CI)
//! cargo run --release -p l15-check --bin l15-check -- [--quick]
//! # lint a directory of .dag files (optionally with embedded plan lines)
//! cargo run --release -p l15-check --bin l15-check -- lint <dir>
//! ```
//!
//! Reports go through the shared testkit formatter, one block per
//! program, in deterministic order regardless of `L15_JOBS`. Exit code 1
//! when any finding is reported, 2 on usage errors.

use std::path::Path;
use std::process::ExitCode;

use l15_check::program::{parse_program_text, CheckProgram};
use l15_check::{fsm, Finding};
use l15_core::alg1::schedule_with_l15;
use l15_core::casestudy::{generate_case_study, CaseStudyParams};
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::{DagTask, ExecutionTimeModel};
use l15_runtime::emit::EmitOptions;
use l15_testkit::diag::format_report;
use l15_testkit::rng::SmallRng;
use l15_testkit::{cli, pool};

fn env_seed() -> u64 {
    std::env::var("L15_SEED").ok().and_then(|v| v.trim().parse().ok()).unwrap_or(1)
}

/// Checks one task under an Alg. 1 plan; returns the rendered report and
/// the finding count.
fn check_task(name: &str, task: DagTask, opts: &EmitOptions) -> (String, usize) {
    let etm = ExecutionTimeModel::new(2048).expect("2 KiB is a valid way size");
    let plan = schedule_with_l15(&task, opts.ways, &etm);
    render(name, &CheckProgram::new(task, plan, opts).check())
}

fn render(name: &str, findings: &[Finding]) -> (String, usize) {
    let diags: Vec<_> = findings.iter().map(Finding::diagnostic).collect();
    (format_report(name, &diags), findings.len())
}

/// The built-in sweep: synthetic corpus, case-study shapes, FSM check.
fn sweep(quick: bool) -> Result<usize, String> {
    let seed = env_seed();
    let opts = EmitOptions::default();

    let n_gen = if quick { 3 } else { 12 };
    let generator = DagGenerator::new(DagGenParams::default());
    let gen_reports = pool::run_seeded(seed, n_gen, |i, item_seed| {
        let mut rng = SmallRng::seed_from_u64(item_seed);
        let task = generator.generate(&mut rng).expect("default parameters are valid");
        check_task(&format!("gen_{i:02}"), task, &opts)
    });

    // Case-study workload shapes (Sec. 5.2), generated up front (cheap),
    // checked on the pool.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
    let n_cs = if quick { 2 } else { 4 };
    let tasks = generate_case_study(n_cs, 2.0, &CaseStudyParams::default(), &mut rng)
        .map_err(|e| format!("case-study generation: {e}"))?;
    let cs_reports = pool::run(tasks.len(), {
        let tasks = &tasks;
        move |i| check_task(&format!("case_{i:02}"), tasks[i].clone(), &opts)
    });

    let bounds = if quick {
        fsm::FsmBounds { max_cores: 2, max_ways: 3 }
    } else {
        fsm::FsmBounds::default()
    };
    let fsm_report = render("walloc_fsm", &fsm::check_walloc(&bounds));

    let mut total = 0;
    for (text, count) in gen_reports.into_iter().chain(cs_reports).chain([fsm_report]) {
        print!("{text}");
        total += count;
    }
    Ok(total)
}

/// Lints every `.dag` file in `dir` (embedded `plan` lines are honoured;
/// files without them get an Alg. 1 plan).
fn lint(dir: &Path) -> Result<usize, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "dag"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .dag files in {}", dir.display()));
    }
    let reports = pool::run(paths.len(), |i| {
        let path = &paths[i];
        let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return (format!("{name}: error: {e}\n"), 1),
        };
        let spec = match parse_program_text(&text) {
            Ok(s) => s,
            Err(e) => return (format!("{name}: error: {e}\n"), 1),
        };
        let mut opts = EmitOptions { tids: spec.tids.clone(), ..EmitOptions::default() };
        let plan = match spec.plan {
            Some(p) => p,
            None => {
                let etm = ExecutionTimeModel::new(2048).expect("valid way size");
                schedule_with_l15(&spec.task, opts.ways, &etm)
            }
        };
        if let Some(t) = &opts.tids {
            if t.len() != spec.task.graph().node_count() {
                opts.tids = None;
            }
        }
        render(&name, &CheckProgram::new(spec.task, plan, &opts).check())
    });
    let mut total = 0;
    for (text, count) in reports {
        print!("{text}");
        total += count;
    }
    Ok(total)
}

fn main() -> ExitCode {
    let args = cli::parse_or_exit("l15-check", &[], &["lint DIR"]);
    let result = match args.words()[..] {
        [] => sweep(args.quick),
        ["lint", dir] => {
            args.only(&[]);
            lint(Path::new(dir))
        }
        _ => args.reject("no such command"),
    };
    match result {
        Ok(0) => {
            println!("l15-check: all programs clean");
            ExitCode::SUCCESS
        }
        Ok(n) => {
            println!("l15-check: {n} finding(s)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
