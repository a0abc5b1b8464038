//! The cycle-accurate monitor (Sec. 5.3: "We deployed a cycle-accurate
//! monitor to trace the cores and L1.5 Cache").
//!
//! Every instrumentation point of the SoC and the runtime kernel reports
//! an `l15-trace` [`EventKind`] through [`Trace::record`], which does two
//! things: it advances the always-on aggregate [`TraceCounters`] by the
//! single counting rule [`TraceCounters::count`], and it forwards the
//! cycle-stamped event to the attached [`TraceSink`] (default
//! [`NullSink`], so an untraced run pays one branch per event). To keep
//! the events themselves, attach an `l15_trace::FlightRecorder` with
//! [`Trace::set_sink`] and recover it with [`Trace::take_sink`].
//!
//! Sinks only *observe* — attaching one changes no cycle count, no
//! counter and no memory state (the parity contract of
//! `trace_parity.rs`).

use l15_rvcore::isa::L15Op;
use l15_trace::{CtrlKind, EventKind, NullSink, TraceSink};

/// Aggregate counters, maintained whether or not a sink is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCounters {
    /// Loads served by each level: `[L1, L1.5, L2, memory]`.
    pub loads: [u64; 4],
    /// Fetches served by each level.
    pub fetches: [u64; 4],
    /// Stores routed into the L1.5.
    pub stores_via_l15: u64,
    /// Stores on the conventional path.
    pub stores_conventional: u64,
    /// Control-port operations.
    pub ctrl_ops: u64,
    /// Way grants.
    pub grants: u64,
    /// Way revocations.
    pub revokes: u64,
    /// Globally-visible-set updates (`gv_set` taking effect).
    pub gv_updates: u64,
}

impl TraceCounters {
    /// Advances the one counter `kind` belongs to; events outside the
    /// counter vocabulary (pipeline and SDU stalls, GV consumption, node,
    /// section and Walloc-episode marks) advance none. This is the only
    /// place the rule is written: the live monitor and trace replay
    /// (`l15_check::replay::counters_from_events`) both fold over it.
    pub fn count(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::Fetch { level, .. } => self.fetches[level.index()] += 1,
            EventKind::Load { level, .. } => self.loads[level.index()] += 1,
            EventKind::Store { via_l15: true, .. } => self.stores_via_l15 += 1,
            EventKind::Store { via_l15: false, .. } => self.stores_conventional += 1,
            EventKind::Ctrl { .. } => self.ctrl_ops += 1,
            EventKind::WayGrant { .. } => self.grants += 1,
            EventKind::WayRevoke { .. } => self.revokes += 1,
            EventKind::GvPublish { .. } => self.gv_updates += 1,
            EventKind::PipeStall { .. }
            | EventKind::SduStall { .. }
            | EventKind::GvConsume { .. }
            | EventKind::NodeStart { .. }
            | EventKind::NodeFinish { .. }
            | EventKind::WallocStart { .. }
            | EventKind::WallocDone { .. }
            | EventKind::Section { .. } => {}
        }
    }
}

/// The recorder vocabulary's name for an L1.5 control-port operation.
pub(crate) fn ctrl_kind(op: L15Op) -> CtrlKind {
    match op {
        L15Op::Demand => CtrlKind::Demand,
        L15Op::Supply => CtrlKind::Supply,
        L15Op::GvSet => CtrlKind::GvSet,
        L15Op::GvGet => CtrlKind::GvGet,
        L15Op::IpSet => CtrlKind::IpSet,
    }
}

/// The monitor: the current cycle stamp, the always-on counters and the
/// flight-recorder sink.
#[derive(Debug, Clone)]
pub struct Trace {
    now: u64,
    counters: TraceCounters,
    sink: Box<dyn TraceSink>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace { now: 0, counters: TraceCounters::default(), sink: Box::new(NullSink) }
    }
}

impl Trace {
    /// Attaches a flight-recorder sink (e.g. `l15_trace::FlightRecorder`).
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = sink;
    }

    /// Detaches the sink (replacing it with [`NullSink`]), returning it so
    /// the caller can downcast and read the recording.
    pub fn take_sink(&mut self) -> Box<dyn TraceSink> {
        std::mem::replace(&mut self.sink, Box::new(NullSink))
    }

    /// Whether the attached sink wants events. Instrumentation points that
    /// would do non-trivial work to build an event must check this first.
    pub fn sink_enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Current cycle stamp.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Stamps the current global cycle (called by the simulation loop).
    pub fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    /// Aggregate counters.
    pub fn counters(&self) -> &TraceCounters {
        &self.counters
    }

    /// Records one event stamped with the current cycle.
    pub fn record(&mut self, kind: EventKind) {
        self.record_at(self.now, kind);
    }

    /// Records one event with an explicit cycle stamp: the counters always
    /// advance, the sink sees the event only when it is enabled.
    pub fn record_at(&mut self, cycle: u64, kind: EventKind) {
        self.counters.count(&kind);
        if self.sink.enabled() {
            self.sink.emit(l15_trace::TraceEvent { cycle, kind });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_trace::{FlightRecorder, Level, SectionKind};

    /// Each counter field as a flat vector, so a test can see which single
    /// field an event moved.
    fn fields(c: &TraceCounters) -> Vec<u64> {
        let mut v = c.loads.to_vec();
        v.extend(c.fetches);
        v.extend([
            c.stores_via_l15,
            c.stores_conventional,
            c.ctrl_ops,
            c.grants,
            c.revokes,
            c.gv_updates,
        ]);
        v
    }

    #[test]
    fn every_event_kind_bumps_at_most_its_own_counter_and_reaches_the_sink() {
        // Each event with the index in `fields` of the one counter it must
        // bump, or `None` when it is outside the counter vocabulary.
        let mut table = Vec::new();
        for (i, level) in [Level::L1, Level::L15, Level::L2, Level::Mem].into_iter().enumerate() {
            table.push((EventKind::Load { core: 1, level }, Some(i)));
            table.push((EventKind::Fetch { core: 1, level }, Some(4 + i)));
        }
        table.extend([
            (EventKind::Store { core: 0, via_l15: true }, Some(8)),
            (EventKind::Store { core: 0, via_l15: false }, Some(9)),
            (EventKind::Ctrl { core: 0, op: CtrlKind::Demand, arg: 2 }, Some(10)),
            (EventKind::WayGrant { cluster: 0, lane: 1, way: 2 }, Some(11)),
            (EventKind::WayRevoke { cluster: 0, way: 2 }, Some(12)),
            (EventKind::GvPublish { cluster: 0, lane: 1, mask: 0b100 }, Some(13)),
            (
                EventKind::PipeStall {
                    core: 0,
                    if_stall: 1,
                    ma_stall: 2,
                    hazard: 0,
                    flush: 0,
                    ex: 0,
                },
                None,
            ),
            (EventKind::SduStall { cluster: 0, backlog: 3 }, None),
            (EventKind::GvConsume { core: 1, cluster: 0, way: 2 }, None),
            (EventKind::NodeStart { node: 0, core: 0 }, None),
            (EventKind::NodeFinish { node: 0, core: 0 }, None),
            (EventKind::WallocStart { core: 0, want: 2 }, None),
            (EventKind::WallocDone { core: 0, got: 2 }, None),
            (EventKind::Section { core: 0, node: 0, kind: SectionKind::Dispatch }, None),
            (EventKind::Section { core: 0, node: 0, kind: SectionKind::Publish }, None),
            (EventKind::Section { core: 0, node: 0, kind: SectionKind::Reclaim }, None),
        ]);
        // Each event is counted alone, then recorded through a monitor with
        // a recorder attached: its counters must sum the single bumps, and
        // the sink must see every event, counted or not, at its cycle.
        let mut t = Trace::default();
        assert!(!t.sink_enabled(), "NullSink by default");
        t.set_sink(Box::new(FlightRecorder::new(64)));
        let mut total = vec![0; 14];
        for (cycle, &(kind, field)) in table.iter().enumerate() {
            let mut c = TraceCounters::default();
            c.count(&kind);
            let mut want = vec![0; 14];
            if let Some(i) = field {
                want[i] = 1;
                total[i] += 1;
            }
            assert_eq!(fields(&c), want, "{kind:?}");
            t.record_at(cycle as u64, kind);
        }
        assert_eq!(fields(t.counters()), total);
        let rec = t.take_sink().into_any().downcast::<FlightRecorder>().unwrap();
        assert!(!t.sink_enabled(), "detached monitor is back to NullSink");
        let seen: Vec<_> = rec.events().map(|e| (e.cycle as usize, e.kind)).collect();
        let sent: Vec<_> =
            table.iter().enumerate().map(|(cycle, &(kind, _))| (cycle, kind)).collect();
        assert_eq!(seen, sent);
    }
}
