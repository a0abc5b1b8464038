//! Reproducible corpora: generate a directory of `.dag` task files from
//! the Sec. 5.1 generator, or evaluate all systems over an existing corpus
//! — so experiment inputs can be archived, shared and diffed.
//!
//! ```sh
//! # generate 20 default-parameter tasks into ./corpus
//! cargo run --release -p l15-bench --bin corpus -- gen ./corpus 20
//! # evaluate them
//! cargo run --release -p l15-bench --bin corpus -- eval ./corpus
//! # lint them against the l15-check protocol rules
//! cargo run --release -p l15-bench --bin corpus -- lint ./corpus
//! ```

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use l15_bench::env_seed;
use l15_check::{parse_program_text, CheckProgram, Finding};
use l15_core::alg1::schedule_with_l15;
use l15_core::baseline::SystemModel;
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::{textio, ExecutionTimeModel};
use l15_runtime::emit::EmitOptions;
use l15_testkit::cli;
use l15_testkit::diag::format_report;
use l15_testkit::rng::SmallRng;

fn generate(dir: &Path, count: usize, seed: u64) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let gen = DagGenerator::new(DagGenParams::default());
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..count {
        let task = gen.generate(&mut rng).expect("default parameters are valid");
        let path = dir.join(format!("task_{i:04}.dag"));
        fs::write(&path, textio::write_task(&task))?;
    }
    println!("wrote {count} tasks to {}", dir.display());
    Ok(())
}

fn evaluate(dir: &Path) -> std::io::Result<()> {
    let mut paths: Vec<_> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "dag"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("no .dag files in {}", dir.display());
        return Ok(());
    }
    let systems = [
        ("Prop.", SystemModel::proposed()),
        ("CMP|L1", SystemModel::cmp_l1()),
        ("CMP|L2", SystemModel::cmp_l2()),
    ];
    println!("{:>16} {:>9} {:>9}  avg makespan per system", "file", "nodes", "edges");
    // One sweep item per corpus file; every file's evaluation is seeded
    // independently (fixed seed 7, as before), so the parallel sweep
    // prints exactly what the sequential loop printed.
    let rows = l15_bench::par_sweep(paths.len(), |i| {
        let path = &paths[i];
        let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
        let task = textio::parse_task(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let averages: Vec<f64> = systems
            .iter()
            .map(|(_, m)| {
                let mut rng = SmallRng::seed_from_u64(7);
                let spans = m.evaluate(&task, 8, 10, &mut rng);
                spans.iter().sum::<f64>() / spans.len() as f64
            })
            .collect();
        Ok::<_, String>((task.graph().node_count(), task.graph().edge_count(), averages))
    });
    let mut totals = vec![0.0f64; systems.len()];
    for (path, row) in paths.iter().zip(rows) {
        let (nodes, edges, averages) = match row {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                continue;
            }
        };
        print!(
            "{:>16} {:>9} {:>9} ",
            path.file_name().unwrap_or_default().to_string_lossy(),
            nodes,
            edges
        );
        for (i, avg) in averages.iter().enumerate() {
            totals[i] += avg;
            print!(" {avg:>10.2}");
        }
        println!();
    }
    print!("{:>37} ", "mean:");
    for (i, (name, _)) in systems.iter().enumerate() {
        print!(" {:>10.2}", totals[i] / paths.len() as f64);
        let _ = name;
    }
    println!();
    Ok(())
}

/// Lints every corpus file against the `l15-check` protocol rules, one
/// parallel sweep item per file; returns the total finding count so the
/// process can exit non-zero when the corpus is dirty.
fn lint(dir: &Path) -> std::io::Result<usize> {
    let mut paths: Vec<_> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "dag"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("no .dag files in {}", dir.display());
        return Ok(0);
    }
    let reports = l15_bench::par_sweep(paths.len(), |i| {
        let path = &paths[i];
        let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        let text = fs::read_to_string(path).map_err(|e| format!("{name}: {e}"))?;
        let spec = parse_program_text(&text).map_err(|e| format!("{name}: {e}"))?;
        let opts = EmitOptions { tids: spec.tids.clone(), ..EmitOptions::default() };
        let plan = match spec.plan {
            Some(p) => p,
            None => {
                let etm = ExecutionTimeModel::new(2048).expect("2 KiB is a valid way size");
                schedule_with_l15(&spec.task, opts.ways, &etm)
            }
        };
        let findings = CheckProgram::new(spec.task, plan, &opts).check();
        let diags: Vec<_> = findings.iter().map(Finding::diagnostic).collect();
        Ok::<_, String>((format_report(&name, &diags), findings.len()))
    });
    let mut total = 0;
    for report in reports {
        match report {
            Ok((text, count)) => {
                print!("{text}");
                total += count;
            }
            Err(e) => {
                eprintln!("error: {e}");
                total += 1;
            }
        }
    }
    if total == 0 {
        println!("corpus lint: all programs clean");
    } else {
        println!("corpus lint: {total} finding(s)");
    }
    Ok(total)
}

fn main() -> ExitCode {
    let args = cli::parse_or_exit("corpus", &[], &["gen DIR [COUNT]", "eval DIR", "lint DIR"]);
    let words = args.words();
    if !words.is_empty() {
        args.only(&[]);
    }
    let result = match words[..] {
        // CI smoke: round-trip a tiny corpus through a temp dir.
        [] if args.quick => {
            let dir = std::env::temp_dir().join(format!("l15-corpus-quick-{}", std::process::id()));
            let r = generate(&dir, 3, env_seed())
                .and_then(|()| evaluate(&dir))
                .and_then(|()| lint(&dir))
                .and_then(|n| {
                    if n == 0 {
                        Ok(())
                    } else {
                        Err(std::io::Error::other(format!("{n} lint finding(s) in quick corpus")))
                    }
                });
            let _ = fs::remove_dir_all(&dir);
            r
        }
        ["gen", dir, ref count @ ..] => {
            let count = count.first().map_or(Ok(20), |c| c.parse::<usize>());
            let count = count.unwrap_or_else(|_| args.reject("COUNT must be a number"));
            generate(Path::new(dir), count, env_seed())
        }
        ["eval", dir] => evaluate(Path::new(dir)),
        ["lint", dir] => {
            return match lint(Path::new(dir)) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(_) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => args.reject("a command is required"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
