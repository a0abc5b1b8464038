//! The tracing parity contract: observation must never perturb the run.
//!
//! The SoC monitor's one observation point is the `l15-trace` sink
//! (attached by `run_task_traced`, or directly with `Trace::set_sink`),
//! and attaching a flight recorder there may not change *anything* the
//! simulation computes: aggregate counters, the kernel's run report,
//! hierarchy and cluster statistics, per-core execution statistics,
//! clocks, or the final memory image. Traced-vs-untraced cycle parity is
//! what makes a trace trustworthy: a capture shows the run you would have
//! had anyway.
//!
//! Also a regression for a gap where `gv_set` updates advanced no
//! counter at all, so they were invisible in untraced runs (the default
//! in every experiment binary).

use l15_core::alg1::schedule_with_l15;
use l15_core::baseline::SystemModel;
use l15_core::federated::{federated_partition, ClusterTopology};
use l15_dag::{DagBuilder, DagTask, ExecutionTimeModel, Node};
use l15_runtime::coresidency::{run_cluster_plan, CoResidencyReport};
use l15_runtime::kernel::{run_task, KernelConfig, RunReport};
use l15_runtime::run_task_traced;
use l15_rvcore::CoreStats;
use l15_soc::uncore::HierarchyStats;
use l15_soc::{ClusterStats, Soc, SocConfig, TraceCounters};
use l15_trace::FlightRecorder;

fn diamond() -> DagTask {
    let mut b = DagBuilder::new();
    let s = b.add_node(Node::new(1.0, 2048));
    let a = b.add_node(Node::new(1.0, 2048));
    let c = b.add_node(Node::new(1.0, 2048));
    let t = b.add_node(Node::new(1.0, 0));
    b.add_edge(s, a, 1.0, 0.5).unwrap();
    b.add_edge(s, c, 1.0, 0.5).unwrap();
    b.add_edge(a, t, 1.0, 0.5).unwrap();
    b.add_edge(c, t, 1.0, 0.5).unwrap();
    DagTask::new(b.build().unwrap(), 1e6, 1e6).unwrap()
}

/// Everything observable a run leaves behind.
#[derive(Debug, Clone, PartialEq)]
struct Observables {
    report: RunReport,
    counters: TraceCounters,
    hierarchy: HierarchyStats,
    clusters: Vec<ClusterStats>,
    cores: Vec<CoreStats>,
    clocks: Vec<u64>,
    memory: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Untraced,
    Recorder,
}

fn run_diamond(mode: Mode) -> Observables {
    let task = diamond();
    let etm = ExecutionTimeModel::new(2048).unwrap();
    let plan = schedule_with_l15(&task, 16, &etm);
    let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
    let cfg = KernelConfig::default();
    let report = match mode {
        Mode::Untraced => run_task(&mut soc, &task, &plan, &cfg).unwrap(),
        Mode::Recorder => {
            let (report, rec) = run_task_traced(&mut soc, &task, &plan, &cfg, 1 << 18).unwrap();
            assert!(rec.recorded() > 0, "the recorder must have observed the run");
            report
        }
    };
    Observables {
        report,
        counters: *soc.uncore().trace().counters(),
        hierarchy: soc.uncore().stats(),
        clusters: soc.uncore().per_cluster_stats(),
        cores: (0..soc.n_cores()).map(|i| *soc.core(i).stats()).collect(),
        clocks: (0..soc.n_cores()).map(|i| soc.clock(i)).collect(),
        memory: soc.uncore().memory_fingerprint(),
    }
}

#[test]
fn traced_and_untraced_runs_are_indistinguishable() {
    let untraced = run_diamond(Mode::Untraced);
    let recorder = run_diamond(Mode::Recorder);
    assert_eq!(
        untraced, recorder,
        "attaching a flight recorder must not change any observable state"
    );
}

/// Two-application co-residency observables: the federated runner on a
/// 2-cluster preset, each application under its own TID.
struct CoResObservables {
    report: CoResidencyReport,
    obs: Observables,
}

/// A light-but-chunky application: wide enough that two of them exceed a
/// cluster's first-fit utilisation cap, so the federated tier must place
/// them on distinct clusters of the 2-cluster preset.
fn wide_app() -> DagTask {
    let mut b = DagBuilder::new();
    let s = b.add_node(Node::new(0.1, 2048));
    let t = b.add_node(Node::new(0.1, 0));
    for _ in 0..6 {
        let v = b.add_node(Node::new(1.0, 2048));
        b.add_edge(s, v, 0.2, 0.5).unwrap();
        b.add_edge(v, t, 0.2, 0.5).unwrap();
    }
    DagTask::new(b.build().unwrap(), 4.0, 4.0).unwrap()
}

fn run_coresident(mode: Mode) -> CoResObservables {
    let tasks = vec![wide_app(), wide_app()];
    let plan = federated_partition(
        &tasks,
        ClusterTopology { clusters: 2, cores_per_cluster: 4 },
        &SystemModel::proposed(),
    )
    .unwrap();
    let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
    let cfg = KernelConfig::default();
    let report = match mode {
        Mode::Untraced => run_cluster_plan(&mut soc, &tasks, &plan, &cfg).unwrap(),
        Mode::Recorder => {
            soc.uncore_mut().trace_mut().set_sink(Box::new(FlightRecorder::new(1 << 18)));
            let report = run_cluster_plan(&mut soc, &tasks, &plan, &cfg).unwrap();
            let rec = soc
                .uncore_mut()
                .trace_mut()
                .take_sink()
                .into_any()
                .downcast::<FlightRecorder>()
                .expect("the sink attached above is a FlightRecorder");
            assert!(rec.recorded() > 0, "the recorder must have observed the run");
            report
        }
    };
    // The federated report's app 0 report stands in for Observables.report
    // (the aggregate struct still carries counters, stats, memory, ...).
    let first = report.apps[0].report.clone();
    CoResObservables {
        report,
        obs: Observables {
            report: first,
            counters: *soc.uncore().trace().counters(),
            hierarchy: soc.uncore().stats(),
            clusters: soc.uncore().per_cluster_stats(),
            cores: (0..soc.n_cores()).map(|i| *soc.core(i).stats()).collect(),
            clocks: (0..soc.n_cores()).map(|i| soc.clock(i)).collect(),
            memory: soc.uncore().memory_fingerprint(),
        },
    }
}

#[test]
fn coresident_two_apps_on_two_clusters_have_traced_untraced_parity() {
    let untraced = run_coresident(Mode::Untraced);
    let recorder = run_coresident(Mode::Recorder);
    assert_eq!(untraced.report, recorder.report, "recorder must not perturb co-residency");
    assert_eq!(untraced.obs, recorder.obs);

    // The co-residency contract itself: two applications, two distinct
    // TIDs, distinct clusters, and per-cluster stats showing both L1.5s
    // served their own application's traffic.
    let r = &untraced.report;
    assert!(r.dataflow_ok());
    assert_ne!(r.apps[0].tid, r.apps[1].tid);
    assert_ne!(r.apps[0].cluster, r.apps[1].cluster);
    assert_eq!(r.clusters.len(), 2);
    for app in &r.apps {
        let s = &r.clusters[app.cluster];
        assert!(s.l15.accesses() > 0, "cluster {} L1.5 saw no traffic", app.cluster);
        assert!(s.l1.accesses() > 0, "cluster {} L1s saw no traffic", app.cluster);
    }
}

#[test]
fn kernel_workload_reaches_every_counter_family() {
    // The diamond kernel run exercises the paper's full pipeline:
    // fetches/loads, L1.5-routed stores, control ops, way grants and
    // gv_set updates must all be visible without a sink attached.
    let c = run_diamond(Mode::Untraced).counters;
    assert!(c.fetches.iter().sum::<u64>() > 0, "no fetches counted: {c:?}");
    assert!(c.loads.iter().sum::<u64>() > 0, "no loads counted: {c:?}");
    assert!(c.stores_via_l15 > 0, "no L1.5 stores counted: {c:?}");
    assert!(c.ctrl_ops > 0, "no control ops counted: {c:?}");
    assert!(c.grants > 0, "no way grants counted: {c:?}");
    assert!(c.gv_updates > 0, "gv_set updates must be counted untraced: {c:?}");
}
