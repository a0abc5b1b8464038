//! The repository benchmark: one process runs the `fullstack`, `serve`
//! and `online` phases, checks every output, and prints every metric by
//! name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fullstack --seed 1 --seconds 55 --trace 0
//! ```
//!
//! Every run executes all three phases, so every end-to-end metric is
//! measured on every workload (`fullstack` or `online`): the named
//! workload's phase gets the largest share of the time. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` runs the same work twice,
//! untraced and then with a span around every layer call, and prints the
//! per-layer metrics, each layer's self time and the tracing overhead.
//! The last line of standard output is one JSON object; the exit code is
//! non-zero when a correctness gate fails.

mod calib;
mod fullstack;
mod online;
mod report;
mod serve;

use std::process::ExitCode;
use std::time::Instant;

use l15::online::OnlineSession;
use l15::serve::ServeConfig;
use l15::soc::{Soc, SocConfig};

use report::{median, peak_rss_mb, self_times, spans_json, Better, Metric, Report, Tracer};

const WORKLOADS: [&str; 2] = ["fullstack", "online"];
/// Fewest repetitions of any phase: best-of and quartile estimates need
/// a few samples however short the run.
const MIN_REPS: usize = 4;
/// Calibration-kernel samples taken before every step of a pass.
const CALIB_SAMPLES: usize = 3;
/// Where the traced run writes its spans, relative to the checkout.
const SPAN_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: l15-perfbench --workload <fullstack|online> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args { workload: String::new(), seed: 1, seconds: 55.0, trace: false };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                out.workload = value;
            }
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => out.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => out.seconds = s,
                _ => return Err(bad("not a positive number")),
            },
            "--trace" => match value.as_str() {
                "0" => out.trace = false,
                "1" => out.trace = true,
                _ => return Err(bad("must be 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(out)
}

/// The generated inputs every phase draws from.
struct Inputs {
    shapes: Vec<fullstack::Shape>,
    arrivals: Vec<online::Arrival>,
}

/// One set-up: input generation, `Soc::new` for each preset, server
/// start (and its drain) and session creation.
fn set_up(seed: u64) -> Inputs {
    let shapes = fullstack::dag_set(seed);
    let arrivals = online::stream(seed);
    for name in fullstack::PRESETS {
        std::hint::black_box(Soc::new(SocConfig::preset(name).expect("preset exists"), 0));
    }
    let server = l15::serve::start(ServeConfig::default()).expect("bind an ephemeral port");
    server.shutdown();
    std::hint::black_box(OnlineSession::new(online::config()));
    Inputs { shapes, arrivals }
}

/// Share of the pass each phase's repetitions fill, in the order
/// `fullstack`, `online`, `serve`: the named workload's phase gets the
/// largest. `fullstack` never gets less than 0.35, because its
/// best-of-rounds host times need the most rounds; `serve` gets 0.25 on
/// both, enough for its ladder and a dozen windows.
fn shares(workload: &str) -> [f64; 3] {
    if workload == "fullstack" {
        [0.55, 0.2, 0.25]
    } else {
        [0.35, 0.4, 0.25]
    }
}

/// What a pass runs: phases by share until `--seconds` have passed, or
/// exactly the steps of an earlier pass (a traced pass repeating an
/// untraced one).
enum Plan {
    Timed { shares: [f64; 3], seconds: f64 },
    Replay { steps: Vec<Step>, probes: Vec<usize> },
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    Round,
    Stream,
    Window,
    Probe,
}

/// The steps a pass ran and the ladder rungs it probed.
struct Ran {
    steps: Vec<Step>,
    probes: Vec<usize>,
}

/// The next step of a timed pass: the phase furthest below its share of
/// the wall time so far; once the time is up, only a phase that still
/// lacks its `MIN_REPS` repetitions (or the ladder its probes), until
/// none does. The serve phase alternates windows and ladder probes until
/// the probes are done.
fn next_step(
    shares: &[f64; 3],
    seconds: f64,
    elapsed: f64,
    wall: &[f64; 3],
    ran: &[Step],
) -> Option<Step> {
    let count = |s: Step| ran.iter().filter(|&&r| r == s).count();
    let (windows, probes) = (count(Step::Window), count(Step::Probe));
    let serve_step =
        if probes < serve::LADDER_PROBES && probes < windows { Step::Probe } else { Step::Window };
    let short = [
        count(Step::Round) < MIN_REPS,
        count(Step::Stream) < MIN_REPS,
        windows < MIN_REPS || probes < serve::LADDER_PROBES,
    ];
    let phase = (0..3)
        .filter(|&p| elapsed < seconds || short[p])
        .min_by(|&a, &b| (wall[a] / shares[a]).total_cmp(&(wall[b] / shares[b])))?;
    Some([Step::Round, Step::Stream, serve_step][phase])
}

/// Runs the three phases with their repetitions interleaved, so that
/// each phase samples the whole pass rather than one stretch of a shared
/// host's time. Before every step it also times one set-up and the
/// calibration kernel, so both sample the whole pass too.
fn pass(
    inputs: &Inputs,
    seed: u64,
    plan: &Plan,
    host: &mut Host,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Ran {
    let (ran, _) = tracer.time("pass", "bench", 0, |t| {
        let start = Instant::now();
        let replay = match plan {
            Plan::Replay { probes, .. } => Some(probes.clone()),
            Plan::Timed { .. } => None,
        };
        let mut fs = fullstack::Phase::new(&inputs.shapes);
        let mut on = online::Phase::new(&inputs.arrivals);
        let mut sv = serve::Phase::start(seed, replay);
        let mut steps = Vec::new();
        let mut wall = [0.0f64; 3];
        loop {
            let step = match plan {
                Plan::Timed { shares, seconds } => {
                    next_step(shares, *seconds, start.elapsed().as_secs_f64(), &wall, &steps)
                }
                Plan::Replay { steps: all, .. } => all.get(steps.len()).copied(),
            };
            let Some(step) = step else { break };
            host.sample(seed);
            let t0 = Instant::now();
            let phase = match step {
                Step::Round => {
                    fs.round(t, rep);
                    0
                }
                Step::Stream => {
                    on.stream(t, rep);
                    1
                }
                Step::Window => {
                    sv.window(t);
                    2
                }
                Step::Probe => {
                    sv.probe(t);
                    2
                }
            };
            wall[phase] += t0.elapsed().as_secs_f64();
            steps.push(step);
        }
        let n = |s: Step| steps.iter().filter(|&&r| r == s).count();
        println!(
            "pass: {:.1} s in {} fullstack rounds, {:.1} s in {} online streams, \
             {:.1} s in {} serve windows and {} ladder probes",
            wall[0],
            n(Step::Round),
            wall[1],
            n(Step::Stream),
            wall[2],
            n(Step::Window),
            n(Step::Probe)
        );
        fs.finish(t, rep);
        on.finish(rep);
        let probes = sv.finish(rep);
        Ran { steps, probes }
    });
    ran
}

/// Set-up times and calibration samples, taken between the steps of a
/// pass.
struct Host {
    setups: Vec<f64>,
    calib: calib::Calib,
}

impl Host {
    /// How much slower than the reference the host ran during this run:
    /// the median calibration time over `calib::REFERENCE_MS`.
    fn slowdown(&self) -> f64 {
        let ms: Vec<f64> = self.calib.samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        median(&ms) / calib::REFERENCE_MS
    }

    /// Converts the run's host times and host-bound rates to what they
    /// would read at the reference host speed, and adds the slowdown
    /// itself to the per-layer metrics. Simulated counts, virtual cycles,
    /// ratios and memory are left as measured.
    fn to_reference_speed(&self, metrics: &mut Vec<Metric>, per_layer: bool) {
        let slowdown = self.slowdown();
        println!(
            "host: calibration {} samples, slowdown {slowdown:.4} against the reference; \
             host times below are at the reference speed",
            self.calib.samples.len()
        );
        for m in metrics.iter_mut() {
            match m.unit {
                "s" | "ms" | "us" | "ns" => m.value /= slowdown,
                "MIPS" | "req/s" => m.value *= slowdown,
                _ => {}
            }
        }
        if per_layer {
            metrics.push(Metric {
                name: "host.slowdown".to_owned(),
                unit: "ratio",
                better: Better::Lower,
                value: slowdown,
            });
        }
    }

    fn sample(&mut self, seed: u64) {
        let t0 = Instant::now();
        std::hint::black_box(set_up(seed));
        self.setups.push(t0.elapsed().as_secs_f64());
        for _ in 0..CALIB_SAMPLES {
            self.calib.sample();
        }
    }
}

fn print_result(report: &Report, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<44} {:>16.6} {:<8} ({} is better)", m.name, m.value, m.unit, m.better.name());
    }
    for (name, d) in &report.digests {
        println!("digest {name} {d:016x}");
    }
    for v in &report.violations {
        println!("GATE FAILED: {v}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.violations.is_empty(),
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
}

/// A JSON number with all its digits (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();

    let inputs = set_up(args.seed);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let shares = shares(&args.workload);
    let mut host = Host { setups: Vec::new(), calib: calib::Calib::new() };
    let mut report = Report::default();
    if !args.trace {
        let mut tracer = Tracer::new(false, epoch, 0);
        let plan = Plan::Timed { shares, seconds: args.seconds };
        pass(&inputs, args.seed, &plan, &mut host, &mut tracer, &mut report);
        report.e2e("setup_s", "s", Better::Lower, median(&host.setups));
        report.e2e("peak_rss_mb", "MB", Better::Lower, peak_rss_mb());
        let mut metrics = std::mem::take(&mut report.end_to_end);
        host.to_reference_speed(&mut metrics, false);
        print_result(&report, &metrics);
    } else {
        // Untraced, then the same steps traced: counts and digests must
        // agree, and the wall-time difference is the tracing overhead.
        let mut untraced = Report::default();
        let mut quiet = Tracer::new(false, epoch, 0);
        let t0 = Instant::now();
        let plan = Plan::Timed { shares, seconds: args.seconds / 2.0 };
        let ran = pass(&inputs, args.seed, &plan, &mut host, &mut quiet, &mut untraced);
        let wall_untraced = t0.elapsed();

        let mut tracer = Tracer::new(true, epoch, 0);
        let t1 = Instant::now();
        let plan = Plan::Replay { steps: ran.steps, probes: ran.probes };
        pass(&inputs, args.seed, &plan, &mut host, &mut tracer, &mut report);
        let wall_traced = t1.elapsed();

        report.violations.extend(untraced.violations);
        report.attempted += untraced.attempted;
        report.failed += untraced.failed;
        let same = untraced.digests == report.digests;
        let (a, b) = (untraced.digests.clone(), report.digests.clone());
        report.gate(same, || format!("traced and untraced digests differ: {a:x?} vs {b:x?}"));
        for (name, dur) in self_times(&tracer.spans) {
            report.layer(&format!("self_ms.{name}"), "ms", Better::Lower, dur.as_secs_f64() * 1e3);
        }
        let overhead = wall_traced.as_secs_f64() - wall_untraced.as_secs_f64();
        report.layer("bench.tracing_overhead_ms", "ms", Better::Lower, overhead * 1e3);
        let path = format!("{SPAN_DIR}/spans_{}_seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, spans_json(&tracer.spans)));
        match written {
            Ok(()) => println!("{} spans written to {path}", tracer.spans.len()),
            Err(e) => println!("spans not written to {path}: {e}"),
        }
        let mut metrics = std::mem::take(&mut report.per_layer);
        host.to_reference_speed(&mut metrics, true);
        print_result(&report, &metrics);
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
