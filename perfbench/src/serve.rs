//! `serve`: an in-process `l15_serve::start` server driven open-loop at
//! fixed offered rates from two client threads, one connection each.
//!
//! Every request is due at a fixed time on the schedule; its latency runs
//! from that due time to the last response byte, so a stalled client or
//! server charges the wait to every request queued behind it. Each
//! distinct request is first handled in-process by `api::handle_compute`
//! and every response the server sends must match it byte for byte.

use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use l15::core::alg1::schedule_with_l15;
use l15::core::baseline::SystemModel;
use l15::core::federated::{federated_partition, ClusterTopology};
use l15::core::makespan::simulate;
use l15::core::rta;
use l15::dag::gen::{DagGenParams, DagGenerator};
use l15::dag::{textio, DagTask, ExecutionTimeModel};
use l15::serve::api::handle_compute;
use l15::serve::http::read_request;
use l15::serve::{scrape, Endpoint, Limits, ServeConfig};
use l15::testkit::rng::{Rng, SmallRng};

use crate::report::{fnv, median, quantile, sorted, Better, Report, Tracer};

/// Client threads; each holds at most one connection at a time.
const CLIENTS: usize = 2;
/// Share of requests that repeat an earlier (endpoint, body) pair.
const REPEAT_SHARE: f64 = 0.5;
/// The fixed offered rate the latency percentiles are measured at: a
/// fifth of the ~2,000 req/s a 2-vCPU host serves within the p99 limit.
/// A shared host can lose two thirds of its speed for a minute; at this
/// rate that lengthens each request without building a queue that
/// swamps the median.
const FIXED_RATE: f64 = 400.0;
/// Requests per fixed-rate window. Short windows, many of them: a stall
/// of the shared host spoils the window it falls in, and fewer windows
/// are spoilt.
const WINDOW_REQUESTS: usize = 500;
/// The p99 latency limit a ladder rung must meet.
const P99_LIMIT_MS: f64 = 5.0;
/// The rate ladder: `LADDER_BASE × LADDER_STEP^k` requests per second,
/// searched by bisection for the highest rung that meets the limit.
const LADDER_BASE: f64 = 500.0;
const LADDER_STEP: f64 = 1.08;
const LADDER_RUNGS: usize = 36;
/// Rate-ladder probes per pass: a bisection over the rungs with room
/// for retries.
pub const LADDER_PROBES: usize = 6;
/// Unmeasured requests sent before each window and rung.
const WARMUP_REQUESTS: usize = 100;
/// Requests per ladder rung (p99 then has 10 samples beyond it).
const RUNG_REQUESTS: usize = 1000;
/// Distinct requests whose handler phases are replayed and timed.
const REPLAY_SAMPLE: usize = 200;
/// How long before a request is due its client stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(150);
/// Client connect, read and write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Schedule,
    Analyze,
    Federated,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Schedule, Kind::Analyze, Kind::Federated];

    fn label(self) -> &'static str {
        match self {
            Kind::Schedule => "schedule",
            Kind::Analyze => "analyze",
            Kind::Federated => "federated",
        }
    }

    fn target(self) -> &'static str {
        match self {
            Kind::Schedule => "/schedule?cores=8",
            Kind::Analyze => "/analyze?cores=8",
            Kind::Federated => "/schedule?clusters=2&cores_per_cluster=4",
        }
    }

    fn endpoint(self) -> Endpoint {
        match self {
            Kind::Analyze => Endpoint::Analyze,
            Kind::Schedule | Kind::Federated => Endpoint::Schedule,
        }
    }
}

/// One distinct request with the response the server must send.
struct Item {
    kind: Kind,
    raw: Vec<u8>,
    expect_status: u16,
    expect_digest: u64,
}

/// Handler-phase replay timings over the sampled distinct requests, µs.
#[derive(Default)]
struct HandlerPhases {
    http_parse: Vec<f64>,
    dag_parse: Vec<f64>,
    alg1: Vec<f64>,
    makespan_sim: Vec<f64>,
    rta: Vec<f64>,
    federated: Vec<f64>,
    render: Vec<f64>,
}

/// The seeded request mix: fresh small DAG bodies, with `REPEAT_SHARE`
/// of requests repeating an earlier pair. Requests are drawn in order, so
/// a prefix of the stream is the same however far a run gets.
struct Mix {
    rng: SmallRng,
    items: Vec<Item>,
    phases: HandlerPhases,
}

impl Mix {
    fn new(seed: u64) -> Self {
        Mix {
            rng: SmallRng::seed_from_u64(seed ^ 0x7365_7276),
            items: Vec::new(),
            phases: HandlerPhases::default(),
        }
    }

    fn fresh_item(&mut self, kind: Kind, tracer: &mut Tracer) -> Item {
        let blocks = if kind == Kind::Federated { self.rng.gen_range(2..=3usize) } else { 1 };
        let mut tasks = Vec::with_capacity(blocks);
        let mut texts = Vec::with_capacity(blocks);
        for _ in 0..blocks {
            let utilisation = self.rng.gen_range(0.1..0.4);
            let gen = DagGenerator::new(DagGenParams {
                layers: (2, 4),
                max_width: 4,
                utilisation,
                ..DagGenParams::default()
            });
            let task = gen.generate(&mut self.rng).expect("mix generator parameters are valid");
            texts.push(textio::write_task(&task));
            tasks.push(task);
        }
        let body = texts.concat();
        let mut raw = format!(
            "POST {} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            kind.target(),
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body.as_bytes());

        // The in-process reference, timed phase by phase.
        let id = self.items.len() as u64;
        let sample = self.items.len() < REPLAY_SAMPLE;
        let limits = Limits::default();
        let (req, took) = tracer.time("serve.http_parse", "serve", id, |_| {
            read_request(&mut Cursor::new(&raw), ServeConfig::default().max_body)
        });
        let req = req.expect("generated requests are well-formed");
        let (resp, _) = tracer.time("serve.handle_compute", "serve", id, |_| {
            handle_compute(kind.endpoint(), &req, &limits)
        });
        let (bytes, render) = tracer.time("serve.render", "serve", id, |_| resp.to_bytes());
        if sample {
            self.phases.http_parse.push(took.as_secs_f64() * 1e6);
            self.phases.render.push(render.as_secs_f64() * 1e6);
            self.replay_phases(kind, &tasks, &texts, id, tracer);
        }
        Item { kind, raw, expect_status: resp.status, expect_digest: fnv(&bytes) }
    }

    /// Times the library calls the handler makes for this request.
    fn replay_phases(
        &mut self,
        kind: Kind,
        tasks: &[DagTask],
        texts: &[String],
        id: u64,
        tracer: &mut Tracer,
    ) {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut parse = Duration::ZERO;
        for text in texts {
            let (parsed, took) =
                tracer.time("dag.parse_task", "dag", id, |_| textio::parse_task(text));
            parsed.expect("written tasks parse back");
            parse += took;
        }
        self.phases.dag_parse.push(us(parse));
        let task = &tasks[0];
        let dag = task.graph();
        match kind {
            Kind::Schedule => {
                let etm = ExecutionTimeModel::new(2048).expect("2 KiB is a valid way size");
                let (plan, took) =
                    tracer.time("core.alg1", "core", id, |_| schedule_with_l15(task, 16, &etm));
                self.phases.alg1.push(us(took));
                let exec = |v| dag.node(v).wcet;
                let edge = |e| etm.edge_cost_in(dag, e, plan.local_ways[dag.edge(e).from.0]);
                let (_, took) = tracer.time("core.makespan_sim", "core", id, |_| {
                    simulate(task, 8, &plan.priorities, exec, |e, _| edge(e))
                });
                self.phases.makespan_sim.push(us(took));
                let (_, took) = tracer
                    .time("core.rta", "core", id, |_| rta::makespan_bound(task, 8, exec, edge));
                self.phases.rta.push(us(took));
            }
            Kind::Analyze => {
                let (_, took) = tracer.time("core.rta", "core", id, |_| {
                    rta::makespan_bound(task, 8, |v| dag.node(v).wcet, |e| dag.edge(e).cost)
                });
                self.phases.rta.push(us(took));
            }
            Kind::Federated => {
                let topo = ClusterTopology { clusters: 2, cores_per_cluster: 4 };
                let (_, took) = tracer.time("core.federated_partition", "core", id, |_| {
                    federated_partition(tasks, topo, &SystemModel::proposed())
                });
                self.phases.federated.push(us(took));
            }
        }
    }

    /// Draws the next `n` requests (item indices), building and checking
    /// the reference response of every fresh one. Never timed.
    fn take(&mut self, n: usize, tracer: &mut Tracer) -> Vec<usize> {
        (0..n)
            .map(|_| {
                if !self.items.is_empty() && self.rng.gen_bool(REPEAT_SHARE) {
                    self.rng.gen_range(0..self.items.len())
                } else {
                    let kind = Kind::ALL[self.rng.gen_range(0..Kind::ALL.len())];
                    let item = self.fresh_item(kind, tracer);
                    self.items.push(item);
                    self.items.len() - 1
                }
            })
            .collect()
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    item: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    outcome: Outcome,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    /// 503: shed at admission or expired in the queue.
    Shed,
    /// Any other status or a body that differs from the reference.
    Wrong(u16),
    /// Connect, read or write failed or timed out.
    Transport,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

fn exchange(addr: SocketAddr, raw: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(raw)?;
    let mut out = Vec::new();
    stream.read_to_end(&mut out)?;
    Ok(out)
}

fn status_of(resp: &[u8]) -> u16 {
    resp.get(9..12)
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Sends `reqs` open-loop at `rate` per second from `CLIENTS` threads.
fn drive(
    addr: SocketAddr,
    items: &[Item],
    reqs: &[usize],
    rate: f64,
    tracer: &mut Tracer,
) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(2);
    let gap = Duration::from_secs_f64(1.0 / rate);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let mine: Vec<(usize, usize)> =
                    reqs.iter().copied().enumerate().skip(k).step_by(CLIENTS).collect();
                let mut t = tracer.fork(1 + k as u32);
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(mine.len());
                    for (j, item) in mine {
                        let due = start + gap * j as u32;
                        // Sleep to just short of the due time, then spin:
                        // timer wake-up lag would otherwise count as
                        // latency of every request.
                        let now = Instant::now();
                        if due > now + SPIN {
                            thread::sleep(due - now - SPIN);
                        }
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                        let sent = Instant::now();
                        let it = &items[item];
                        let outcome = match exchange(addr, &it.raw) {
                            Ok(resp) => {
                                let got = status_of(&resp);
                                if got == 503 {
                                    Outcome::Shed
                                } else if got == it.expect_status && fnv(&resp) == it.expect_digest
                                {
                                    Outcome::Ok
                                } else {
                                    Outcome::Wrong(got)
                                }
                            }
                            Err(_) => Outcome::Transport,
                        };
                        let done = Instant::now();
                        t.record("serve.request", "serve", j as u64, due, done);
                        out.push(Sample { item, due, sent, done, outcome });
                    }
                    (out, t)
                })
            })
            .collect();
        let mut samples = Vec::with_capacity(reqs.len());
        for h in handles {
            let (out, t) = h.join().expect("client thread panicked");
            samples.extend(out);
            tracer.absorb(t);
        }
        samples.sort_by_key(|s| s.due);
        samples
    })
}

struct Window {
    p50: f64,
    p99: f64,
    ok: bool,
    throughput: f64,
}

fn window(samples: &[Sample]) -> Window {
    let lat = sorted(samples.iter().map(Sample::latency_ms).collect());
    let p99 = quantile(&lat, 0.99);
    let failures = samples.iter().any(|s| s.outcome != Outcome::Ok);
    // A growing backlog: the generator ends later than it started by
    // more than the limit.
    let q = samples.len() / 4;
    let late = |part: &[Sample]| median(&part.iter().map(Sample::late_ms).collect::<Vec<_>>());
    let growing = late(&samples[samples.len() - q..]) > late(&samples[..q]) + P99_LIMIT_MS;
    let first = samples.first().expect("windows are non-empty").due;
    let last = samples.iter().map(|s| s.done).max().expect("windows are non-empty");
    Window {
        p50: quantile(&lat, 0.5),
        p99,
        ok: !failures && !growing && p99 <= P99_LIMIT_MS,
        throughput: samples.len() as f64 / (last - first).as_secs_f64(),
    }
}

fn metrics_page(addr: SocketAddr) -> String {
    let raw = b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n";
    let resp = exchange(addr, raw).expect("the metrics page is reachable");
    String::from_utf8_lossy(&resp).into_owned()
}

fn counter(page: &str, selector: &str) -> u64 {
    scrape(page, selector).unwrap_or_else(|| panic!("metrics page lacks {selector}"))
}

/// The phase's state: a running server, the request mix and every
/// sample taken so far.
pub struct Phase {
    handle: l15::serve::Handle,
    addr: SocketAddr,
    mix: Mix,
    before: String,
    all: Vec<Sample>,
    windows: Vec<Window>,
    fixed: Vec<Sample>,
    ladder: Ladder,
    plan: Option<Vec<usize>>,
}

/// Misses after which a rung counts as missed.
const MISSES: u8 = 3;

/// A bisection over the fixed rate ladder that tolerates a shared host:
/// a rung counts as missed only after `MISSES` misses, and once the search
/// has converged, spare probes retry the lowest missed rung, so a rung
/// missed during a slow stretch can still be met later in the run.
struct Ladder {
    /// Highest rung met so far, with its measured throughput.
    best: Option<(usize, f64)>,
    /// Lowest rung missed `MISSES` times (`LADDER_RUNGS` while none has).
    hi: usize,
    misses: [u8; LADDER_RUNGS],
    probes: Vec<usize>,
}

impl Ladder {
    fn new() -> Self {
        Ladder { best: None, hi: LADDER_RUNGS, misses: [0; LADDER_RUNGS], probes: Vec::new() }
    }

    /// The next rung: a bisection of the rungs not yet decided; once
    /// converged, the lowest missed rung again.
    fn next(&self) -> usize {
        let from = self.best.map_or(0, |(k, _)| k + 1);
        ((from + self.hi) / 2).min(LADDER_RUNGS - 1)
    }

    fn record(&mut self, k: usize, w: &Window) {
        self.probes.push(k);
        if w.ok {
            if self.best.is_none_or(|(b, _)| k > b) {
                self.best = Some((k, w.throughput));
            }
            if k >= self.hi {
                self.hi = LADDER_RUNGS;
            }
        } else {
            self.misses[k] += 1;
            if self.misses[k] >= MISSES {
                self.hi = self.hi.min(k);
            }
        }
    }
}

impl Phase {
    /// Starts the server and reads its metrics page as the baseline.
    /// With `plan`, the ladder probes exactly those rungs (a traced pass
    /// repeating an untraced one).
    pub fn start(seed: u64, plan: Option<Vec<usize>>) -> Phase {
        let handle = l15::serve::start(ServeConfig::default()).expect("bind an ephemeral port");
        let addr = handle.addr();
        let before = metrics_page(addr);
        Phase {
            handle,
            addr,
            mix: Mix::new(seed),
            before,
            all: Vec::new(),
            windows: Vec::new(),
            fixed: Vec::new(),
            ladder: Ladder::new(),
            plan,
        }
    }

    /// One fixed-rate window of `WINDOW_REQUESTS` requests.
    pub fn window(&mut self, tracer: &mut Tracer) {
        self.warm_up(tracer);
        let w = self.windows.len() as u64;
        let reqs = self.mix.take(WINDOW_REQUESTS, tracer);
        let (addr, items) = (self.addr, &self.mix.items);
        let (samples, _) =
            tracer.time("serve.window", "bench", w, |tr| drive(addr, items, &reqs, FIXED_RATE, tr));
        let win = window(&samples);
        println!("serve: window {w} p50 {:.3} ms p99 {:.3} ms", win.p50, win.p99);
        self.windows.push(win);
        self.fixed.extend_from_slice(&samples);
        self.all.extend(samples);
    }

    /// Sends `WARMUP_REQUESTS` at the fixed rate, so a measurement
    /// never starts on a server that sat idle; checked but not timed.
    fn warm_up(&mut self, tracer: &mut Tracer) {
        let reqs = self.mix.take(WARMUP_REQUESTS, tracer);
        let samples = drive(self.addr, &self.mix.items, &reqs, FIXED_RATE, tracer);
        self.all.extend(samples);
    }

    /// One probe of the rate ladder: the next rung of the plan, or the
    /// next rung the search picks.
    pub fn probe(&mut self, tracer: &mut Tracer) {
        self.warm_up(tracer);
        let done = self.ladder.probes.len();
        let k = match &self.plan {
            Some(plan) => plan[done],
            None => self.ladder.next(),
        };
        let rate = LADDER_BASE * LADDER_STEP.powi(k as i32);
        let reqs = self.mix.take(RUNG_REQUESTS, tracer);
        let (addr, items) = (self.addr, &self.mix.items);
        let (samples, _) =
            tracer.time("serve.rung", "bench", k as u64, |tr| drive(addr, items, &reqs, rate, tr));
        let w = window(&samples);
        println!(
            "serve: rung {k} ({rate:.0} req/s) p50 {:.3} ms p99 {:.3} ms {}",
            w.p50,
            w.p99,
            if w.ok { "meets the limit" } else { "misses" }
        );
        self.ladder.record(k, &w);
        self.all.extend(samples);
    }

    /// Stops the server, checks every response and reconciles the client
    /// tallies with `/metrics`; returns the ladder rungs probed.
    pub fn finish(self, rep: &mut Report) -> Vec<usize> {
        let Phase { handle, addr, mix, before, all, windows, fixed, ladder, .. } = self;
        let after = metrics_page(addr);
        handle.shutdown();

        // Tallies and gates.
        let mut sent = [0u64; 2];
        let (mut ok, mut shed, mut transport) = (0u64, 0u64, 0u64);
        for s in &all {
            let item = &mix.items[s.item];
            sent[item.kind.endpoint() as usize] += 1;
            match s.outcome {
                Outcome::Ok => ok += 1,
                Outcome::Shed => shed += 1,
                Outcome::Transport => transport += 1,
                Outcome::Wrong(status) => rep.gate(false, || {
                    format!(
                    "serve: {} response (status {status}) differs from the in-process reference",
                    item.kind.label()
                )
                }),
            }
        }
        rep.attempted += all.len() as u64;
        rep.failed += all.len() as u64 - ok;

        let delta = |sel: &str| counter(&after, sel) - counter(&before, sel);
        let requests: Vec<u64> = [Endpoint::Schedule, Endpoint::Analyze]
            .iter()
            .map(|ep| delta(&format!("l15_requests_total{{endpoint=\"{}\"}}", ep.name())))
            .collect();
        let rejected = delta("l15_rejected_total");
        let expired = delta("l15_expired_total");
        if transport == 0 {
            rep.gate(sent[0] + sent[1] == requests[0] + requests[1] + rejected, || {
                format!(
                "serve: sent {sent:?} but /metrics admitted {requests:?} and rejected {rejected}"
            )
            });
            rep.gate(delta("l15_responses_total{status=\"200\"}") == ok + 1, || {
                format!("serve: {ok} client 200s do not reconcile with /metrics")
            });
            rep.gate(delta("l15_responses_total{status=\"503\"}") == shed, || {
                format!("serve: {shed} client 503s do not reconcile with /metrics")
            });
            rep.gate(rejected + expired == shed, || {
                format!(
                    "serve: {shed} client 503s but /metrics shed {rejected} and expired {expired}"
                )
            });
        }

        // End-to-end metrics.
        // The least disturbed window's median: a shared host only ever
        // slows a window down, and a slow stretch can cover half of them.
        let p50 = windows.iter().map(|w| w.p50).fold(f64::INFINITY, f64::min);
        rep.e2e("serve.p50_ms", "ms", Better::Lower, p50);

        // Per-layer metrics. The tail and the ladder are reported here
        // rather than end to end: stalls of a shared host spoil the tail
        // of whole windows, and the p99 of even the least disturbed
        // window varied by 35-50% between runs, more than any bound.
        // The p99 pools every fixed-rate window (at least 2,000 samples,
        // 20 beyond it).
        let all_fixed = sorted(fixed.iter().map(Sample::latency_ms).collect());
        rep.layer("serve.p99_ms", "ms", Better::Lower, quantile(&all_fixed, 0.99));
        let best = ladder.best.map_or(0.0, |(_, throughput)| throughput);
        rep.layer("serve.max_rps", "req/s", Better::Higher, best);

        for kind in Kind::ALL {
            let lat = sorted(
                fixed
                    .iter()
                    .filter(|s| mix.items[s.item].kind == kind)
                    .map(Sample::latency_ms)
                    .collect(),
            );
            let label = kind.label();
            rep.layer(
                &format!("serve.rtt_p50_ms.{label}"),
                "ms",
                Better::Lower,
                quantile(&lat, 0.5),
            );
            rep.layer(
                &format!("serve.rtt_p99_ms.{label}"),
                "ms",
                Better::Lower,
                quantile(&lat, 0.99),
            );
        }
        for ep in [Endpoint::Schedule, Endpoint::Analyze] {
            for phase in ["queue", "handle"] {
                let sel = |what: &str| {
                    format!("l15_latency_us_{what}{{endpoint=\"{}\",phase=\"{phase}\"}}", ep.name())
                };
                let mean = delta(&sel("sum")) as f64 / delta(&sel("count")).max(1) as f64;
                rep.layer(&format!("serve.{phase}_us.{}", ep.name()), "us", Better::Lower, mean);
            }
        }
        let batches = delta("l15_batches_total");
        let jobs = delta("l15_batch_jobs_total");
        rep.layer("serve.batch_size", "jobs", Better::Higher, jobs as f64 / batches.max(1) as f64);
        rep.count("serve.shed", Better::Lower, rejected + expired);
        let late = sorted(fixed.iter().map(Sample::late_ms).collect());
        rep.layer("serve.gen_late_ms", "ms", Better::Lower, quantile(&late, 0.99));
        let r = &mix.phases;
        for (name, v) in [
            ("serve.http_parse_us", &r.http_parse),
            ("dag.parse_us", &r.dag_parse),
            ("core.alg1_us", &r.alg1),
            ("core.makespan_sim_us", &r.makespan_sim),
            ("core.rta_us", &r.rta),
            ("core.federated_us", &r.federated),
            ("serve.render_us", &r.render),
        ] {
            rep.layer(name, "us", Better::Lower, median(v));
        }
        rep.gate(mix.items.iter().all(|i| i.expect_status == 200), || {
            "serve: a generated request is not answered 200 in-process".to_owned()
        });
        println!(
        "serve: {} requests, {} distinct; {} at {FIXED_RATE} req/s in {} windows; ladder probes {:?}",
        all.len(),
        mix.items.len(),
        fixed.len(),
        windows.len(),
        ladder.probes
    );
        ladder.probes
    }
}
