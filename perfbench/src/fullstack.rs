//! `fullstack`: cycle-accurate `run_task` over fixed DAG shapes and small
//! seeded Sec. 5.1 generator DAGs on three SoC presets, each L1.5 plan
//! first bounded by `certify_task`.

use std::time::{Duration, Instant};

use l15::check::certify_task;
use l15::core::alg1::schedule_with_l15;
use l15::core::baseline::baseline_priorities;
use l15::core::plan::SchedulePlan;
use l15::dag::gen::{DagGenParams, DagGenerator};
use l15::dag::topology::{fork_join, layered_mesh, UniformPayload};
use l15::dag::{DagTask, ExecutionTimeModel};
use l15::runtime::{
    node_program, run_task, run_task_traced, KernelConfig, RunReport, TaskLayout, WorkScale,
    DEFAULT_CAPTURE_EVENTS,
};
use l15::rvcore::bus::FlatBus;
use l15::rvcore::core::Core;
use l15::soc::{Soc, SocConfig};
use l15::testkit::rng::SmallRng;
use l15::trace::Category;

use l15::cache::stats::CacheStats;

use crate::report::{fnv, Best, Better, Report, Tracer};

/// The presets, in report order: the L1.5 masked path, the L2-only
/// legacy path, and a SoC whose 28 idle cores are scanned every step.
pub const PRESETS: [&str; 3] = ["proposed_8core", "cmp_l2_8core", "proposed_32core"];

/// Bytes of dependent data per edge of the fixed shapes.
const EDGE_BYTES: u64 = 16 * 1024;

/// Seeded generator DAGs per run.
const GEN_DAGS: usize = 2;
/// `certify_task` calls per (DAG, round) on `proposed_8core`: a round
/// certifies in a tenth of the time it simulates, so best-of needs more
/// certify samples than rounds to find a quiet stretch of the host.
const CERTIFY_REPS: usize = 3;
/// Nodes and edges of every generator DAG (the most common size the
/// generator draws with these parameters): the seed varies their
/// structure, costs and payloads but not their size, so the set's host
/// cost hardly depends on the seed.
const GEN_NODES: usize = 10;
const GEN_EDGES: usize = 13;

/// One DAG of the set, with the shape label its certify time is
/// reported under.
pub struct Shape {
    pub label: &'static str,
    pub task: DagTask,
}

/// The workload's DAG set: `layered_mesh(3,4)` and `fork_join(3)` at
/// 16 KB per edge, plus `GEN_DAGS` small generator DAGs of `GEN_NODES`
/// nodes and `GEN_EDGES` edges from `seed` (drawn until one has that
/// size).
pub fn dag_set(seed: u64) -> Vec<Shape> {
    let p = UniformPayload { wcet: 1.0, data_bytes: EDGE_BYTES, edge_cost: 1.0, alpha: 0.6 };
    let task = |dag| DagTask::new(dag, 1e9, 1e9).expect("fixed shapes have valid timing");
    let mut set = vec![
        Shape { label: "mesh", task: task(layered_mesh(3, 4, p).expect("valid mesh")) },
        Shape { label: "fork_join", task: task(fork_join(3, p).expect("valid fork-join")) },
    ];
    let gen = DagGenerator::new(DagGenParams {
        layers: (2, 3),
        max_width: 4,
        data_bytes_range: (8 * 1024, 16 * 1024),
        ..DagGenParams::default()
    });
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6675_6c6c); // "full"
    while set.len() < 2 + GEN_DAGS {
        let task = gen.generate(&mut rng).expect("generator parameters are valid");
        if task.graph().node_count() == GEN_NODES && task.graph().edge_count() == GEN_EDGES {
            set.push(Shape { label: "gen", task });
        }
    }
    set
}

/// A preset with the plan and kernel configuration each DAG runs under
/// (the derivation `/simulate` uses).
struct Prepared {
    name: &'static str,
    cfg: SocConfig,
    kcfg: KernelConfig,
    plans: Vec<SchedulePlan>,
    /// Per-DAG certified per-node bounds (L1.5 presets only).
    bounds: Vec<Option<Vec<u64>>>,
}

fn plan_for(task: &DagTask, cfg: &SocConfig) -> SchedulePlan {
    match cfg.l15 {
        Some(l15) => {
            let etm = ExecutionTimeModel::new(2048).expect("2 KiB is a valid way size");
            schedule_with_l15(task, l15.ways, &etm)
        }
        None => baseline_priorities(task),
    }
}

/// Simulated statistics of one preset over the DAG set (one round).
#[derive(Default, Clone, PartialEq, Debug)]
struct Counts {
    instructions: u64,
    sim_cycles: u64,
    hazard_stalls: u64,
    flush_cycles: u64,
    l1: (u64, u64),
    l15: (u64, u64),
    l2: (u64, u64),
    mem_lines: u64,
    reports: Vec<RunReport>,
}

/// The phase's state across its rounds.
///
/// Host times are best-of-rounds: each (preset, DAG) call keeps its
/// fastest round, since a shared host only ever slows a call down.
pub struct Phase<'a> {
    shapes: &'a [Shape],
    scale: WorkScale,
    /// Plans and bounds are pure: the first round's are kept for the runs.
    prepared: Vec<Prepared>,
    alg1: Best,
    certify: Best,
    runs: Best,
    soc_new: Best,
    flat: Best,
    flat_instructions: u64,
    first: Option<Vec<Counts>>,
    digests: Vec<u64>,
}

impl<'a> Phase<'a> {
    pub fn new(shapes: &'a [Shape]) -> Self {
        let scale = WorkScale::default();
        let prepared = PRESETS
            .iter()
            .map(|&name| {
                let cfg = SocConfig::preset(name).expect("preset exists");
                let kcfg = KernelConfig { use_l15: cfg.l15.is_some(), scale, ..Default::default() };
                Prepared { name, cfg, kcfg, plans: Vec::new(), bounds: Vec::new() }
            })
            .collect();
        let cells = PRESETS.len() * shapes.len();
        Phase {
            shapes,
            scale,
            prepared,
            alg1: Best::new(cells),
            certify: Best::new(cells),
            runs: Best::new(cells),
            soc_new: Best::new(cells),
            flat: Best::new(1),
            flat_instructions: 0,
            first: None,
            digests: Vec::new(),
        }
    }

    /// One round: Alg. 1 and `certify_task` for every (preset, DAG), a
    /// fresh SoC and `run_task` for each, and the flat-bus replay.
    pub fn round(&mut self, tracer: &mut Tracer, rep: &mut Report) {
        let r = self.digests.len() as u64;
        let (shapes, scale, n) = (self.shapes, self.scale, self.shapes.len());
        let cell = |p: usize, i: usize| p * n + i;
        let Phase { prepared, alg1, certify, runs, soc_new, flat, .. } = self;
        tracer.time("fullstack.round", "bench", r, |t| {
            for (p, pre) in prepared.iter_mut().enumerate() {
                let mut plans = Vec::with_capacity(n);
                let mut bounds = Vec::with_capacity(n);
                for (i, s) in shapes.iter().enumerate() {
                    let id = cell(p, i) as u64;
                    let (plan, took) =
                        t.time("core.alg1", "core", id, |_| plan_for(&s.task, &pre.cfg));
                    alg1.observe(cell(p, i), took);
                    // `certify_s` times the first preset `CERTIFY_REPS`
                    // times every round; the other L1.5 preset is
                    // certified once, for its gate.
                    let certify_now = pre.cfg.l15.is_some() && (p == 0 || pre.plans.is_empty());
                    let reps = if p == 0 { CERTIFY_REPS } else { 1 };
                    bounds.push(certify_now.then(|| {
                        let mut cert = None;
                        for _ in 0..reps {
                            let (c, took) = t.time("check.certify_task", "check", id, |_| {
                                certify_task(&s.task, &plan, &pre.cfg, scale)
                            });
                            if p == 0 {
                                certify.observe(cell(p, i), took);
                            }
                            cert = Some(c);
                        }
                        cert.expect("certified at least once").bounds()
                    }));
                    plans.push(plan);
                }
                if pre.plans.is_empty() {
                    pre.plans = plans;
                    pre.bounds = bounds;
                }
            }

            let mut round = Vec::with_capacity(prepared.len());
            for (p, pre) in prepared.iter().enumerate() {
                let mut counts = Counts::default();
                for (i, s) in shapes.iter().enumerate() {
                    let id = cell(p, i) as u64;
                    let (mut soc, took) =
                        t.time("soc.new", "soc", id, |_| Soc::new(pre.cfg.clone(), 0));
                    soc_new.observe(cell(p, i), took);
                    let (result, took) = t.time("runtime.run_task", "runtime", id, |_| {
                        run_task(&mut soc, &s.task, &pre.plans[i], &pre.kcfg)
                    });
                    rep.attempted += 1;
                    let report = match result {
                        Ok(report) => report,
                        Err(e) => {
                            rep.failed += 1;
                            rep.gate(false, || format!("{} on {}: {e}", s.label, pre.name));
                            continue;
                        }
                    };
                    runs.observe(cell(p, i), took);
                    accumulate(&mut counts, &soc, &report);
                    rep.gate(report.dataflow_ok, || {
                        format!("{} on {}: dependent data did not flow", s.label, pre.name)
                    });
                    if let Some(bounds) = &pre.bounds[i] {
                        for (v, &bound) in bounds.iter().enumerate() {
                            let observed = report.node_finish[v] - report.node_start[v];
                            if observed > bound {
                                rep.failed += 1;
                                rep.gate(false, || {
                                    format!(
                                        "{} on {}: node {v} ran {observed} cycles over its \
                                         certified bound {bound}",
                                        s.label, pre.name
                                    )
                                });
                            }
                        }
                    }
                    counts.reports.push(report);
                }
                round.push(counts);
            }

            let ((took, instructions), _) =
                t.time("rvcore.flatbus", "rvcore", r, |_| flatbus_replay(shapes, scale));
            flat.observe(0, took);
            self.flat_instructions = instructions;
            self.digests.push(fnv(format!("{round:?}").as_bytes()));
            self.first.get_or_insert(round);
        });
    }

    /// The flight-recorder pass, the gates across rounds, and the metrics.
    pub fn finish(self, tracer: &mut Tracer, rep: &mut Report) {
        let Phase {
            shapes,
            prepared,
            alg1,
            certify,
            runs,
            soc_new,
            flat,
            flat_instructions,
            first,
            digests,
            ..
        } = self;
        let n = shapes.len();
        let cells = PRESETS.len() * n;
        let cell = |p: usize, i: usize| p * n + i;
        let digest = digests[0];
        rep.gate(digests.iter().all(|&d| d == digest), || {
            format!("fullstack: simulated-statistics digests differ across rounds: {digests:x?}")
        });
        let first = first.expect("at least one round ran");

        // Flight-recorder pass: the traced report must equal the untraced one.
        let p8 = &prepared[0];
        let mut events = [0u64; Category::COUNT];
        let mut traced = Duration::ZERO;
        for (i, s) in shapes.iter().enumerate() {
            let mut soc = Soc::new(p8.cfg.clone(), 0);
            let (result, took) = tracer.time("trace.run_task_traced", "trace", i as u64, |_| {
                run_task_traced(&mut soc, &s.task, &p8.plans[i], &p8.kcfg, DEFAULT_CAPTURE_EVENTS)
            });
            rep.attempted += 1;
            traced += took;
            match result {
                Ok((report, rec)) => {
                    rep.gate(first[0].reports.get(i) == Some(&report), || {
                        format!("{}: traced RunReport differs from the untraced one", s.label)
                    });
                    for e in rec.events() {
                        events[e.kind.category() as usize] += 1;
                    }
                    for (cat, dropped) in rec.dropped().iter() {
                        events[cat as usize] += dropped;
                    }
                }
                Err(e) => {
                    rep.failed += 1;
                    rep.gate(false, || format!("{}: traced run failed: {e}", s.label));
                }
            }
        }

        // End-to-end metrics.
        let over = |b: &Best, p: usize| b.sum((0..n).map(|i| cell(p, i))).as_secs_f64();
        for (p, name) in PRESETS.iter().enumerate() {
            let mips = first[p].instructions as f64 / over(&runs, p) / 1e6;
            rep.e2e(&format!("sim_mips.{name}"), "MIPS", Better::Higher, mips);
        }
        rep.e2e("certify_s", "s", Better::Lower, certify.sum(0..cells).as_secs_f64());

        // Per-layer metrics.
        for (p, name) in PRESETS.iter().enumerate() {
            let c = &first[p];
            let run_s = over(&runs, p);
            rep.layer(&format!("runtime.run_task_s.{name}"), "s", Better::Lower, run_s);
            let ns = run_s * 1e9 / c.instructions as f64;
            rep.layer(&format!("soc.ns_per_instr.{name}"), "ns", Better::Lower, ns);
            let new_ms = over(&soc_new, p) * 1e3 / n as f64;
            rep.layer(&format!("soc.new_ms.{name}"), "ms", Better::Lower, new_ms);
            rep.count(&format!("rvcore.instructions.{name}"), Better::Lower, c.instructions);
            rep.count(&format!("soc.sim_cycles.{name}"), Better::Lower, c.sim_cycles);
            rep.count(&format!("rvcore.hazard_stalls.{name}"), Better::Lower, c.hazard_stalls);
            rep.count(&format!("rvcore.flush_cycles.{name}"), Better::Lower, c.flush_cycles);
            let mut levels = vec![("l1", c.l1)];
            if prepared[p].cfg.l15.is_some() {
                levels.push(("l15", c.l15));
            }
            levels.push(("l2", c.l2));
            for (level, (hits, misses)) in levels {
                rep.count(&format!("cache.{level}_hits.{name}"), Better::Higher, hits);
                rep.count(&format!("cache.{level}_misses.{name}"), Better::Lower, misses);
            }
            rep.count(&format!("cache.mem_lines.{name}"), Better::Lower, c.mem_lines);
        }
        let flat_ns = flat.sum(0..1).as_secs_f64() * 1e9 / flat_instructions.max(1) as f64;
        rep.layer("rvcore.flatbus_ns_per_instr", "ns", Better::Lower, flat_ns);
        for cat in Category::ALL {
            rep.count(&format!("trace.{}_events", cat.name()), Better::Lower, events[cat as usize]);
        }
        let ratio = traced.as_secs_f64() / over(&runs, 0);
        rep.layer("trace.overhead_ratio", "ratio", Better::Lower, ratio);
        for label in ["mesh", "fork_join", "gen"] {
            let of_shape = (0..cells).filter(|&c| shapes[c % n].label == label);
            let ms = certify.sum(of_shape).as_secs_f64() * 1e3;
            rep.layer(&format!("check.certify_ms.{label}"), "ms", Better::Lower, ms);
        }
        let (mut bound_sum, mut observed_sum) = (0u64, 0u64);
        for (i, report) in first[0].reports.iter().enumerate() {
            let bounds = prepared[0].bounds[i].as_ref().expect("the proposed preset is certified");
            for (v, &bound) in bounds.iter().enumerate() {
                bound_sum = bound_sum.saturating_add(bound);
                observed_sum += report.node_finish[v] - report.node_start[v];
            }
        }
        let ratio = bound_sum as f64 / observed_sum.max(1) as f64;
        rep.layer("check.bound_over_observed", "ratio", Better::Lower, ratio);
        let alg1_us = alg1.sum(0..cells).as_secs_f64() * 1e6;
        rep.layer("core.alg1_fullstack_us", "us", Better::Lower, alg1_us);
        rep.digest("fullstack.sim_stats", digest);
    }
}

fn accumulate(c: &mut Counts, soc: &Soc, report: &RunReport) {
    for core in 0..soc.n_cores() {
        let s = soc.core(core).stats();
        c.instructions += s.instructions;
        c.hazard_stalls += s.hazard_stalls;
        c.flush_cycles += s.flush_cycles;
    }
    c.sim_cycles += report.makespan_cycles;
    let h = soc.uncore().stats();
    let add = |acc: &mut (u64, u64), s: &CacheStats| {
        acc.0 += s.hits();
        acc.1 += s.misses();
    };
    add(&mut c.l1, &h.l1);
    add(&mut c.l15, &h.l15);
    add(&mut c.l2, &h.l2);
    c.mem_lines += h.mem_lines;
}

/// Replays every node program of the set through `Core::run` on a flat
/// bus (the core without the memory system); returns the host time of
/// the `run` calls and the instructions they retired.
fn flatbus_replay(shapes: &[Shape], scale: WorkScale) -> (Duration, u64) {
    let max_nodes = shapes.iter().map(|s| s.task.graph().node_count()).max().unwrap_or(1);
    let size = TaskLayout::DATA_BASE as usize + (max_nodes + 1) * 0x1_0000;
    let mut bus = FlatBus::new(size, 1);
    let mut instructions = 0u64;
    let mut took = Duration::ZERO;
    for s in shapes {
        let dag = s.task.graph();
        let layout = TaskLayout::new(dag);
        for v in dag.node_ids() {
            let words = node_program(dag, v, &layout, scale).expect("set programs assemble");
            let entry = layout.code_of(v);
            bus.load_program(entry, &words);
            let mut core = Core::new(0, entry);
            let t0 = Instant::now();
            std::hint::black_box(core.run(&mut bus, 50_000_000));
            took += t0.elapsed();
            instructions += core.stats().instructions;
        }
    }
    (took, instructions)
}
