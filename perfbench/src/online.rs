//! `online`: an analytic `OnlineSession` (`execute: false`, the
//! configuration `l15-serve` runs) fed a seeded sporadic stream of
//! low-utilisation DAGs with long lifetimes, plus periodic R6-gated mode
//! changes. Admission re-runs the federated partition and RTA over every
//! resident job, so its cost grows with the resident set.

use l15::core::baseline::SystemModel;
use l15::core::federated::federated_partition;
use l15::dag::gen::{DagGenParams, DagGenerator};
use l15::dag::DagTask;
use l15::online::{small_gen, OnlineConfig, OnlineSession};
use l15::testkit::arrivals::{sporadic_stream, SporadicParams};
use l15::testkit::rng::{Rng, SmallRng};

use crate::report::{fnv, median, quantile, sorted, Best, Better, Report, Tracer};

/// Arrivals per stream.
const ARRIVALS: usize = 330;
/// Per-arrival utilisation range: low enough that a few hundred jobs fit
/// the 2 × 4-core platform's light-task capacity.
const UTIL_RANGE: (f64, f64) = (0.004, 0.012);
/// Virtual cycles an admitted job stays resident. Each decision charges
/// 2 000 virtual cycles per evaluated job, so the resident set climbs to
/// about 280 and stays there as jobs retire.
const JOB_LIFETIME: u64 = 80_000_000;
/// A mode change is requested before every this many arrivals.
const SWITCH_EVERY: usize = 120;
/// Resident-set bucket edges for the per-bucket submit latencies.
const BUCKETS: [(&str, usize, usize); 3] =
    [("lt64", 0, 64), ("r64-255", 64, 256), ("ge256", 256, usize::MAX)];

/// One arrival of the stream.
pub struct Arrival {
    pub cycle: u64,
    pub task: DagTask,
}

/// The seeded stream: sporadic arrival cycles and one small generator
/// DAG per arrival.
pub fn stream(seed: u64) -> Vec<Arrival> {
    let law = SporadicParams { count: ARRIVALS, min_gap: 5_000, max_extra: 10_000 };
    sporadic_stream(seed, &law)
        .into_iter()
        .map(|a| {
            let mut rng = SmallRng::seed_from_u64(a.seed);
            let utilisation = rng.gen_range(UTIL_RANGE.0..UTIL_RANGE.1);
            let gen = DagGenerator::new(DagGenParams { utilisation, ..small_gen() });
            let task = gen.generate(&mut rng).expect("stream generator parameters are valid");
            Arrival { cycle: a.cycle, task }
        })
        .collect()
}

pub fn config() -> OnlineConfig {
    OnlineConfig { execute: false, job_lifetime: JOB_LIFETIME, ..OnlineConfig::default() }
}

/// The phase's state across stream repetitions.
///
/// Host times are best-of-repetitions per decision: every repetition
/// replays the same stream, and a shared host only ever slows a call.
pub struct Phase<'a> {
    arrivals: &'a [Arrival],
    submit: Best,
    switch: Best,
    federated: Best,
    residents: Vec<usize>,
    digests: Vec<u64>,
    first: Option<OnlineSession>,
}

impl<'a> Phase<'a> {
    pub fn new(arrivals: &'a [Arrival]) -> Self {
        Phase {
            arrivals,
            submit: Best::new(arrivals.len()),
            switch: Best::new(arrivals.len().saturating_sub(1) / SWITCH_EVERY),
            federated: Best::new(1),
            residents: Vec::new(),
            digests: Vec::new(),
            first: None,
        }
    }

    /// One repetition: a fresh session fed the whole stream.
    pub fn stream(&mut self, tracer: &mut Tracer, rep: &mut Report) {
        let r = self.digests.len() as u64;
        let Phase { arrivals, submit, switch, federated, .. } = self;
        let ((session, sizes), _) = tracer.time("online.stream", "bench", r, |t| {
            let mut session = OnlineSession::new(config());
            let mut sizes = Vec::with_capacity(arrivals.len());
            let mut replayed = false;
            for (i, a) in arrivals.iter().enumerate() {
                if i > 0 && i % SWITCH_EVERY == 0 {
                    let keep = session.active().to_vec();
                    let zeta = if (i / SWITCH_EVERY) % 2 == 1 { 8 } else { 16 };
                    let name = format!("m{i}");
                    let (result, took) = t.time("online.switch_mode", "online", i as u64, |_| {
                        session.switch_mode(&name, &keep, zeta)
                    });
                    rep.attempted += 1;
                    switch.observe(i / SWITCH_EVERY - 1, took);
                    if let Err(e) = result {
                        rep.failed += 1;
                        println!("online: mode change before arrival {i} refused: {e}");
                    }
                }
                let resident = session.active().len();
                if resident >= BUCKETS[2].1 && !replayed {
                    replayed = true;
                    let tasks: Vec<DagTask> = session
                        .active()
                        .iter()
                        .map(|&j| session.job(j).expect("active job exists").task.clone())
                        .collect();
                    let (_, took) = t.time("core.federated_partition", "core", i as u64, |_| {
                        federated_partition(&tasks, config().topology, &SystemModel::proposed())
                    });
                    federated.observe(0, took);
                }
                sizes.push(resident);
                let task = a.task.clone();
                let (_, took) =
                    t.time("online.submit", "online", i as u64, |_| session.submit(task, a.cycle));
                rep.attempted += 1;
                submit.observe(i, took);
            }
            (session, sizes)
        });
        self.digests.push(fnv(session.log().join("\n").as_bytes()));
        if self.first.is_none() {
            self.first = Some(session);
            self.residents = sizes;
        }
    }

    /// The gate across repetitions and the metrics.
    pub fn finish(self, rep: &mut Report) {
        let Phase { arrivals, submit, switch, federated, residents, digests, first } = self;
        let digest = digests[0];
        let mismatched = digests.iter().filter(|&&d| d != digest).count();
        rep.failed += mismatched as u64;
        rep.gate(mismatched == 0, || {
            format!("online: session-log digests differ across repetitions: {digests:x?}")
        });

        let ms = |i: usize| submit.get(i).as_secs_f64() * 1e3;
        let all = sorted((0..arrivals.len()).map(ms).collect());
        rep.e2e("admit.p50_ms", "ms", Better::Lower, quantile(&all, 0.50));
        rep.e2e("admit.p99_ms", "ms", Better::Lower, quantile(&all, 0.99));

        for (label, lo, hi) in BUCKETS {
            let of = (0..arrivals.len()).filter(|&i| (lo..hi).contains(&residents[i]));
            let v = sorted(of.map(ms).collect());
            rep.layer(
                &format!("online.submit_p50_ms.{label}"),
                "ms",
                Better::Lower,
                quantile(&v, 0.5),
            );
            let p99 = quantile(&v, 0.99);
            rep.layer(&format!("online.submit_p99_ms.{label}"), "ms", Better::Lower, p99);
        }
        let switches = arrivals.len().saturating_sub(1) / SWITCH_EVERY;
        let switch_ms: Vec<f64> =
            (0..switches).map(|k| switch.get(k).as_secs_f64() * 1e3).collect();
        rep.layer("online.switch_mode_ms", "ms", Better::Lower, median(&switch_ms));
        let fed_ms = federated.get(0).as_secs_f64() * 1e3;
        rep.layer("core.federated_ms", "ms", Better::Lower, fed_ms);

        let session = first.expect("at least one repetition ran");
        let m = session.metrics();
        rep.count("online.admitted", Better::Higher, m.admitted);
        rep.count("online.rejected", Better::Lower, m.rejected);
        rep.count("online.replans", Better::Lower, m.replans);
        rep.count("online.mode_changes", Better::Higher, m.mode_changes);
        rep.count("online.reclaimed_ways", Better::Higher, m.reclaimed_ways);
        rep.count("online.retired", Better::Higher, m.retired);
        let resident_max = residents.iter().copied().max().unwrap_or(0);
        println!(
            "online: {} arrivals, resident max {resident_max}, {} retired, {} repetitions",
            arrivals.len(),
            m.retired,
            digests.len()
        );
        rep.count("online.resident_max", Better::Higher, resident_max as u64);
        let lat = sorted(session.jobs().iter().map(|j| j.admission_latency() as f64).collect());
        rep.layer("online.admit_latency_cycles_p50", "cycles", Better::Lower, quantile(&lat, 0.5));
        rep.layer("online.admit_latency_cycles_p99", "cycles", Better::Lower, quantile(&lat, 0.99));
        rep.digest("online.session_log", digest);
    }
}
