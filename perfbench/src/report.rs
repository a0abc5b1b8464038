//! Metric collection, the span recorder and small statistics helpers.

use std::time::{Duration, Instant};

/// Whether a metric improves upward or downward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
}

/// Everything one pass over the workloads produced.
#[derive(Debug, Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Operations attempted and failed (requests, runs, decisions).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Deterministic digests, printed so two runs can be diffed.
    pub digests: Vec<(String, u64)>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, unit: &'static str, better: Better, value: f64) {
        self.end_to_end.push(Metric { name: name.to_owned(), unit, better, value });
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, better: Better, value: f64) {
        self.per_layer.push(Metric { name: name.to_owned(), unit, better, value });
    }

    /// A count from the simulated model: deterministic, so "higher" or
    /// "lower" only says which way a design change should push it.
    pub fn count(&mut self, name: &str, better: Better, value: u64) {
        self.layer(name, "count", better, value as f64);
    }

    /// Records a gate: `ok == false` is a correctness violation.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn digest(&mut self, name: &str, value: u64) {
        self.digests.push((name.to_owned(), value));
    }
}

/// One recorded span: a layer call timed from the benchmark's side.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    /// Request, job or run id the span belongs to.
    pub id: u64,
    pub thread: u32,
}

/// Times layer calls; when enabled it also keeps a span per call, in
/// memory, with its parent taken from the calls still open.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Self {
        Tracer { enabled, epoch, thread, spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer for another thread sharing this one's clock and switch.
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer::new(self.enabled, self.epoch, thread)
    }

    /// Runs `f` and returns its result with its wall time.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        if !self.enabled {
            let t0 = Instant::now();
            let out = f(self);
            return (out, t0.elapsed());
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.epoch.elapsed();
        self.spans.push(Span { name, layer, start, end: start, parent, id, thread: self.thread });
        self.open.push(idx);
        let t0 = Instant::now();
        let out = f(self);
        let took = t0.elapsed();
        self.open.pop();
        self.spans[idx].end = start + took;
        (out, took)
    }

    /// Records an already-measured interval (a request timed on a client
    /// thread from its due time).
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let at = |t: Instant| t.saturating_duration_since(self.epoch);
            let (start, end) = (at(start), at(end));
            let parent = self.open.last().copied();
            self.spans.push(Span { name, layer, start, end, parent, id, thread: self.thread });
        }
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let root = self.open.last().copied();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => root,
            };
            self.spans.push(s);
        }
    }
}

/// Self time per layer: each span's duration minus the time its direct
/// children cover (children of one span never overlap on one thread;
/// spans absorbed from client threads may, so their cover is clipped to
/// the parent's interval and merged).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, Duration)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut per_layer: Vec<(&'static str, Duration)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let mut cover: Vec<(Duration, Duration)> = children[i]
            .iter()
            .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
            .filter(|(a, b)| b > a)
            .collect();
        cover.sort();
        let mut covered = Duration::ZERO;
        let mut reach = s.start;
        for (a, b) in cover {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = (s.end - s.start).saturating_sub(covered);
        match per_layer.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, d)) => *d += own,
            None => per_layer.push((s.layer, own)),
        }
    }
    per_layer
}

/// Writes the spans as Chrome trace-event JSON (loadable in Perfetto).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}{}\n",
            s.name,
            s.layer,
            s.thread,
            s.start.as_secs_f64() * 1e6,
            (s.end - s.start).as_secs_f64() * 1e6,
            i,
            parent,
            s.id,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

/// Nearest-rank quantile of an ascending slice (0 for an empty one).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Sorts in place and returns the slice, for chained quantiles.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// FNV-1a over bytes: the digest of simulated statistics and bodies.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The fastest observation of each of a fixed set of timed calls.
#[derive(Debug, Clone)]
pub struct Best(Vec<Option<Duration>>);

impl Best {
    pub fn new(cells: usize) -> Self {
        Best(vec![None; cells])
    }

    pub fn observe(&mut self, cell: usize, took: Duration) {
        let b = &mut self.0[cell];
        *b = Some(b.map_or(took, |d| d.min(took)));
    }

    /// The fastest time of one cell (zero if it was never observed).
    pub fn get(&self, cell: usize) -> Duration {
        self.0[cell].unwrap_or_default()
    }

    /// Sum of the cells' fastest times.
    pub fn sum(&self, cells: impl IntoIterator<Item = usize>) -> Duration {
        cells.into_iter().map(|c| self.get(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: layer,
            layer,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
            id: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("core", 10, 30, Some(0)),
            span("core", 20, 40, Some(0)), // overlaps the first child
            span("dag", 50, 60, Some(0)),
            span("dag", 52, 55, Some(3)),
        ];
        let t = self_times(&spans);
        let get = |l: &str| t.iter().find(|(n, _)| *n == l).unwrap().1.as_millis();
        assert_eq!(get("bench"), 100 - 30 - 10);
        assert_eq!(get("core"), 40);
        assert_eq!(get("dag"), 7 + 3);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
