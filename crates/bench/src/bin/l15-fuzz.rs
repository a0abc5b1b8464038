//! Parallel regression fuzzer for the L1.5 memory subsystem.
//!
//! Generates per-core op streams from shared/private address pools
//! (FlexiCAS `ParallelRegressionGen` style), executes them on a real
//! single-cluster SoC and checks every run three ways: differentially
//! against a flat sequential memory oracle, through the always-on counter
//! conservation laws, and through the R1–R6 static protocol rules. Any
//! divergence is shrunk to a minimal replayable case with its
//! `L15_PROP_SEED` printed.
//!
//! ```sh
//! # sweep generated cases (quick profile under --quick)
//! cargo run --release -p l15-bench --bin l15-fuzz -- run --quick --cases 8 --seed 1
//! # replay (and re-shrink) one failing seed
//! L15_PROP_SEED=0x1282c5cd2debcee8 cargo run --release -p l15-bench --bin l15-fuzz -- replay
//! # replay the seeded regression corpus
//! cargo run --release -p l15-bench --bin l15-fuzz -- corpus crates/testkit/corpus/fuzz
//! ```
//!
//! Case seeds derive from the master seed via `l15_testkit::pool`
//! per-item SplitMix64 streams and results return in index order, so the
//! report is byte-identical at any `L15_JOBS`.

use std::any::Any;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;

use l15_check::fuzz::{check_case, parse_corpus_entry, sweep, FuzzBug};
use l15_testkit::fuzz::{draw_case, FuzzKnobs};
use l15_testkit::{cli, prop};

const BUG_CLASSES: &str =
    "drop-ip-set, leak-ways, skip-gv-set, foreign-tid, racy-write, stuck-walloc";

fn parse_bug(name: &str) -> Option<FuzzBug> {
    match name {
        "drop-ip-set" => Some(FuzzBug::DropIpSet),
        "leak-ways" => Some(FuzzBug::LeakWays),
        "skip-gv-set" => Some(FuzzBug::SkipGvSet),
        "foreign-tid" => Some(FuzzBug::ForeignTid),
        "racy-write" => Some(FuzzBug::RacyWrite),
        "stuck-walloc" => Some(FuzzBug::StuckWalloc),
        _ => None,
    }
}

fn knobs_for(quick: bool) -> FuzzKnobs {
    if quick {
        FuzzKnobs::quick()
    } else {
        FuzzKnobs::default()
    }
}

fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// The property handed to the shrinker: a drawn case must check clean.
/// The assertion carries the case shape so the shrunk counterexample is
/// readable straight off the report.
fn clean_property(knobs: &FuzzKnobs) -> impl Fn(&mut prop::G) + Sync + '_ {
    move |g| {
        let case = draw_case(g, knobs);
        let verdict = check_case(&case);
        assert!(
            verdict.is_clean(),
            "{}\n    case: {}\n    steps: {:?}",
            verdict.headline(),
            case.summary(),
            case.steps
        );
    }
}

/// Replays `seed` through the shrinker, printing either a clean line or
/// the shrunk counterexample with its `L15_PROP_SEED` repro. Returns the
/// number of failing seeds (0 or 1).
fn shrink_and_report(knobs: &FuzzKnobs, seed: u64) -> usize {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        prop::check_seed("l15_fuzz_case", seed, clean_property(knobs));
    }));
    match outcome {
        Ok(()) => {
            println!("seed {seed:#018x}: clean");
            0
        }
        Err(payload) => {
            println!("{}", payload_message(payload.as_ref()));
            println!(
                "corpus entry for this finding:\n\
                 seed = {seed:#x}\nops = {}\ncores = {}\nclusters = {}\nways = {}\n\
                 private = {}\nshared = {}\narrivals = {}",
                knobs.ops,
                knobs.cores,
                knobs.clusters,
                knobs.ways,
                knobs.private_slots,
                knobs.shared_slots,
                knobs.arrivals
            );
            1
        }
    }
}

fn run(knobs: &FuzzKnobs, master_seed: u64, cases: usize, bug: Option<FuzzBug>) -> usize {
    println!(
        "l15-fuzz: {cases} case(s), master seed {master_seed}, {} ops x {} cores, \
         {}+{} slots{}",
        knobs.ops,
        knobs.cores,
        knobs.private_slots,
        knobs.shared_slots,
        match bug {
            Some(b) => format!(", injected {b:?}"),
            None => String::new(),
        }
    );
    let outcomes = sweep(knobs, master_seed, cases, bug);
    let mut failing: Vec<u64> = Vec::new();
    let mut findings = 0usize;
    for o in &outcomes {
        let v = &o.verdict;
        if v.is_clean() {
            println!("case {:>4} seed {:#018x} [{}]: clean", o.index, o.seed, o.summary);
        } else {
            let n = v.divergences.len() + v.soundness.len() + v.findings.len();
            findings += n;
            println!("case {:>4} seed {:#018x} [{}]: {n} finding(s)", o.index, o.seed, o.summary);
            print!("{}", v.render(&format!("  case {}", o.index)));
            failing.push(o.seed);
        }
    }
    // Shrink clean-contract failures to minimal replayable cases (an
    // injected bug is expected to fail, so there is nothing to shrink).
    if bug.is_none() {
        for seed in failing {
            shrink_and_report(knobs, seed);
        }
    }
    println!("l15-fuzz: {} case(s), {findings} finding(s)", outcomes.len());
    findings
}

fn replay(knobs: &FuzzKnobs, seed: u64) -> usize {
    let case = l15_check::fuzz::case_from_seed(knobs, seed);
    println!("replaying seed {seed:#018x}: {}", case.summary());
    shrink_and_report(knobs, seed)
}

fn corpus(dir: &Path) -> Result<usize, String> {
    let mut paths: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .case files in {}", dir.display()));
    }
    let mut findings = 0usize;
    for path in &paths {
        let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        let text = fs::read_to_string(path).map_err(|e| format!("{name}: {e}"))?;
        let entry = parse_corpus_entry(&text).map_err(|e| format!("{name}: {e}"))?;
        let verdict = check_case(&entry.case());
        if verdict.is_clean() {
            println!("{name}: clean (seed {:#018x})", entry.seed);
        } else {
            findings +=
                verdict.divergences.len() + verdict.soundness.len() + verdict.findings.len();
            print!("{}", verdict.render(&name));
        }
    }
    println!("corpus: {} case(s), {findings} finding(s)", paths.len());
    Ok(findings)
}

/// Reads a replay seed: `--seed` wins, else `L15_PROP_SEED` (decimal or
/// `0x` hex, matching the testkit's repro lines).
fn replay_seed(flag: Option<u64>) -> Result<u64, String> {
    if let Some(s) = flag {
        return Ok(s);
    }
    let raw = std::env::var("L15_PROP_SEED")
        .map_err(|_| "replay needs --seed or L15_PROP_SEED=0x…".to_owned())?;
    let t = raw.trim();
    let parsed = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    };
    parsed.ok_or_else(|| format!("unparsable L15_PROP_SEED {raw:?}"))
}

fn main() -> ExitCode {
    let args = cli::parse_or_exit(
        "l15-fuzz",
        &["--cases N", "--seed N", "--bug CLASS"],
        &["run", "replay", "corpus DIR"],
    );
    let bug = args.text("--bug").map(|name| {
        parse_bug(name).unwrap_or_else(|| {
            args.reject(&format!("unknown bug class {name:?}; one of {BUG_CLASSES}"))
        })
    });
    // Shrinking replays failing cases on purpose; keep the default hook's
    // per-replay backtrace spam off stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let findings = match args.words()[..] {
        // `--quick` alone is an alias for `run --quick`.
        [] if !args.quick => args.reject("a command is required"),
        [] | ["run"] => {
            let cases = args.value_or("--cases", if args.quick { 8 } else { 32 });
            let seed = args.value_or("--seed", l15_bench::env_seed());
            run(&knobs_for(args.quick), seed, cases, bug)
        }
        ["replay"] => {
            args.only(&["--quick", "--seed"]);
            match replay_seed(args.get("--seed")) {
                Ok(seed) => replay(&knobs_for(args.quick), seed),
                Err(e) => args.reject(&e),
            }
        }
        ["corpus", dir] => {
            args.only(&[]);
            match corpus(Path::new(dir)) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("l15-fuzz: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => args.reject("no such command"),
    };
    if findings == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
