//! Benchmarks of the full-stack substrate: RV32 instruction throughput
//! on the flat bus and through the complete SoC hierarchy, and the
//! L1.5 → EX forwarding-channel ablation (Fig. 3 ⓓ) measured on a
//! producer/consumer kernel run.
//!
//! `--quick` runs each routine once (CI smoke).

use l15_core::alg1::schedule_with_l15;
use l15_dag::{DagBuilder, DagTask, ExecutionTimeModel, Node};
use l15_runtime::kernel::{run_task, KernelConfig};
use l15_rvcore::asm::Assembler;
use l15_rvcore::bus::FlatBus;
use l15_rvcore::core::{Core, TimingConfig};
use l15_rvcore::superscalar::{capture_trace, estimate_cycles, SuperscalarConfig};
use l15_soc::{Soc, SocConfig};
use l15_testkit::bench::{self, black_box, Bench};
use l15_testkit::cli;

fn spin_program() -> Vec<u32> {
    let mut a = Assembler::new();
    a.li(1, 1000);
    a.label("spin");
    a.addi(1, 1, -1);
    a.bne(1, 0, "spin");
    a.ebreak();
    a.finish().expect("assembles")
}

fn diamond() -> DagTask {
    let mut b = DagBuilder::new();
    let s = b.add_node(Node::new(1.0, 2048));
    let x = b.add_node(Node::new(1.0, 2048));
    let y = b.add_node(Node::new(1.0, 2048));
    let t = b.add_node(Node::new(1.0, 0));
    b.add_edge(s, x, 1.0, 0.5).expect("valid edge");
    b.add_edge(s, y, 1.0, 0.5).expect("valid edge");
    b.add_edge(x, t, 1.0, 0.5).expect("valid edge");
    b.add_edge(y, t, 1.0, 0.5).expect("valid edge");
    DagTask::new(b.build().expect("valid dag"), 1e6, 1e6).expect("valid timing")
}

fn main() {
    let args = cli::parse_or_exit("bench_rvcore", bench::FLAGS, &[]);
    let bench = Bench::from_cli("rvcore", &args);

    {
        let words = spin_program();
        bench.run("rv32_spin_1000_flatbus", || {
            let mut bus = FlatBus::new(4096, 1);
            bus.load_program(0, &words);
            let mut core = Core::new(0, 0);
            black_box(core.run(&mut bus, 10_000));
        });
    }

    {
        let words = spin_program();
        bench.run("rv32_spin_1000_full_soc", || {
            let mut soc = Soc::new(SocConfig::proposed_8core(), 0x100);
            soc.uncore_mut().load_program(0x100, &words);
            black_box(soc.run_core(0, 10_000));
        });
    }

    // Forwarding-channel ablation: identical diamond run with and without
    // the L1.5 → EX channel; the with-channel run must not be slower.
    let task = diamond();
    let etm = ExecutionTimeModel::new(2048).expect("valid way size");
    let plan = schedule_with_l15(&task, 16, &etm);
    let cycles_with = {
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
        run_task(&mut soc, &task, &plan, &KernelConfig::default())
            .expect("kernel run succeeds")
            .makespan_cycles
    };
    let cycles_without = {
        let timing = TimingConfig { l15_forwarding: false, ..Default::default() };
        let mut soc = Soc::with_timing(SocConfig::proposed_8core(), 0, timing);
        run_task(&mut soc, &task, &plan, &KernelConfig::default())
            .expect("kernel run succeeds")
            .makespan_cycles
    };
    println!(
        "\nForwarding-channel ablation (diamond DAG): with = {cycles_with} cycles, \
         without = {cycles_without} cycles"
    );

    {
        let words = spin_program();
        let mut bus = FlatBus::new(4096, 1);
        bus.load_program(0, &words);
        let mut core = Core::new(0, 0);
        let trace = capture_trace(&mut core, &mut bus, 100_000);
        bench.run("superscalar_estimate", || {
            black_box(estimate_cycles(black_box(&trace), SuperscalarConfig::default()));
        });
    }

    bench.run("kernel_diamond_l15", || {
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
        let rep = run_task(&mut soc, &task, &plan, &KernelConfig::default())
            .expect("kernel run succeeds");
        black_box(rep.makespan_cycles);
    });
}
