//! The traced run: transparent timing adapters, the per-cell layer
//! split, and the per-layer metrics every workload reports.
//!
//! [`TimedWorkload`] and [`TimedController`] wrap the workload and the
//! frequency controller that `Scenario::build_single_node` returns.
//! Every trait method forwards to the wrapped object unchanged and
//! adds its wall-clock time and call count to an in-memory tally, so a
//! run driven through the adapters executes exactly the calls an
//! untraced run executes. The engine's self time is the `drive` span
//! minus the time spent inside these two children.

use crate::{Metric, Report};
use bench::scenario::{Scenario, ScenarioOutcome};
use cuttlefish::controller::FrequencyController;
use cuttlefish::daemon::NodeReport;
use simproc::engine::Workload;
use simproc::{Chunk, SimProcessor};
use std::cell::Cell;
use std::time::Instant;

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Calls made to one layer and the wall-clock spent inside them.
#[derive(Default)]
struct Tally {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl Tally {
    fn time<R>(&self, call: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = call();
        self.calls.set(self.calls.get() + 1);
        self.ns.set(self.ns.get() + ns_since(t));
        r
    }
}

/// A [`Workload`] that times its inner workload's calls.
struct TimedWorkload {
    inner: Box<dyn Workload>,
    next_chunk: Tally,
    /// `is_done` and `next_wake_ns`.
    polls: Tally,
}

impl Workload for TimedWorkload {
    fn next_chunk(&mut self, core: usize, now_ns: u64) -> Option<Chunk> {
        self.next_chunk.time(|| self.inner.next_chunk(core, now_ns))
    }

    fn is_done(&self) -> bool {
        self.polls.time(|| self.inner.is_done())
    }

    fn next_wake_ns(&self, now_ns: u64) -> Option<u64> {
        self.polls.time(|| self.inner.next_wake_ns(now_ns))
    }
}

/// A [`FrequencyController`] that times its inner controller's calls.
struct TimedController {
    inner: Box<dyn FrequencyController>,
    on_quantum: Tally,
    /// Every other call but `name`.
    others: Tally,
}

impl FrequencyController for TimedController {
    fn on_quantum(&mut self, proc: &mut SimProcessor) {
        self.on_quantum.time(|| self.inner.on_quantum(proc));
    }

    fn report(&self) -> Vec<NodeReport> {
        self.others.time(|| self.inner.report())
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn resolved_fractions(&self) -> (f64, f64) {
        self.others.time(|| self.inner.resolved_fractions())
    }

    fn stop(&mut self, proc: &mut SimProcessor) {
        self.others.time(|| self.inner.stop(proc));
    }

    fn idle_quanta_capacity(&self, proc: &SimProcessor) -> u64 {
        self.others.time(|| self.inner.idle_quanta_capacity(proc))
    }

    fn note_idle_quanta(&mut self, quanta: u64) {
        self.others.time(|| self.inner.note_idle_quanta(quanta));
    }

    fn busy_quanta_capacity(&self, proc: &SimProcessor, horizon_quanta: u64) -> u64 {
        self.others
            .time(|| self.inner.busy_quanta_capacity(proc, horizon_quanta))
    }

    fn note_busy_quanta(&mut self, quanta: u64, proc: &SimProcessor) {
        self.others
            .time(|| self.inner.note_busy_quanta(quanta, proc));
    }
}

/// Layer split of traced cells, summed over cells.
#[derive(Debug, Default, Clone, Copy)]
pub struct Split {
    pub build_ns: u64,
    pub drive_ns: u64,
    pub next_chunk_calls: u64,
    pub next_chunk_ns: u64,
    pub poll_ns: u64,
    pub on_quantum_calls: u64,
    pub on_quantum_ns: u64,
    /// Every controller call, `on_quantum` included.
    pub controller_ns: u64,
    pub cluster_run_ns: u64,
    pub barrier_wait_s: f64,
    pub cluster_idle_quanta: u64,
    pub stepped: u64,
    pub busy: u64,
    pub idle: u64,
}

impl Split {
    pub fn add(&mut self, o: &Split) {
        self.build_ns += o.build_ns;
        self.drive_ns += o.drive_ns;
        self.next_chunk_calls += o.next_chunk_calls;
        self.next_chunk_ns += o.next_chunk_ns;
        self.poll_ns += o.poll_ns;
        self.on_quantum_calls += o.on_quantum_calls;
        self.on_quantum_ns += o.on_quantum_ns;
        self.controller_ns += o.controller_ns;
        self.cluster_run_ns += o.cluster_run_ns;
        self.barrier_wait_s += o.barrier_wait_s;
        self.cluster_idle_quanta += o.cluster_idle_quanta;
        self.stepped += o.stepped;
        self.busy += o.busy;
        self.idle += o.idle;
    }

    /// Host time of the traced cells, ns.
    pub fn total_ns(&self) -> u64 {
        self.build_ns + self.drive_ns + self.cluster_run_ns
    }
}

/// Virtual seconds, joules and instructions of a cell: what the
/// traced run must reproduce bit for bit.
pub type Observed = (f64, f64, f64);

/// Whether `observed` is bit-identical to an untraced result.
pub fn identical(observed: Observed, seconds: f64, joules: f64, instructions: f64) -> bool {
    observed.0.to_bits() == seconds.to_bits()
        && observed.1.to_bits() == joules.to_bits()
        && observed.2.to_bits() == instructions.to_bits()
}

/// Run one cell through the traced path. A single-node cell is built
/// with `Scenario::build_single_node`, wrapped in the adapters and
/// driven by `cuttlefish::controller::drive`, as `Scenario::run` drives
/// it. A cluster cell is timed around `Scenario::run` as a whole.
pub fn traced_cell(scenario: &Scenario) -> (Split, Observed) {
    let mut split = Split::default();
    if scenario.n_nodes() > 1 {
        let t = Instant::now();
        let outcome = scenario.run();
        split.cluster_run_ns = ns_since(t);
        let ScenarioOutcome::Cluster(cluster) = &outcome else {
            unreachable!("multi-node scenarios run on a cluster")
        };
        split.barrier_wait_s = cluster.outcome.barrier_wait_s;
        split.cluster_idle_quanta = outcome.idle_advanced_quanta();
        split.stepped = outcome.stepped_quanta();
        split.busy = outcome.busy_advanced_quanta();
        split.idle = outcome.idle_advanced_quanta();
        let observed = (outcome.seconds(), outcome.joules(), outcome.instructions());
        return (split, observed);
    }
    let t = Instant::now();
    let (mut proc, wl, ctrl) = scenario.build_single_node();
    split.build_ns = ns_since(t);
    let mut wl = TimedWorkload {
        inner: wl,
        next_chunk: Tally::default(),
        polls: Tally::default(),
    };
    let mut ctrl = TimedController {
        inner: ctrl,
        on_quantum: Tally::default(),
        others: Tally::default(),
    };
    let start_e = proc.total_energy_joules();
    let start_t = proc.now_ns();
    let t = Instant::now();
    cuttlefish::controller::drive(&mut proc, &mut wl, &mut ctrl);
    split.drive_ns = ns_since(t);
    split.next_chunk_calls = wl.next_chunk.calls.get();
    split.next_chunk_ns = wl.next_chunk.ns.get();
    split.poll_ns = wl.polls.ns.get();
    split.on_quantum_calls = ctrl.on_quantum.calls.get();
    split.on_quantum_ns = ctrl.on_quantum.ns.get();
    split.controller_ns = ctrl.on_quantum.ns.get() + ctrl.others.ns.get();
    split.stepped = proc.stepped_quanta();
    split.busy = proc.busy_advanced_quanta();
    split.idle = proc.idle_advanced_quanta();
    let observed = (
        (proc.now_ns() - start_t) as f64 * 1e-9,
        proc.total_energy_joules() - start_e,
        proc.total_instructions(),
    );
    (split, observed)
}

/// The per-layer metrics. Layers a workload bypasses stay 0.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub split: Split,
    pub cell_ms_sum: f64,
    pub cell_max_ms: f64,
    pub shard_util: f64,
    pub store_load_calls: u64,
    pub store_load_us_p50: f64,
    pub store_commit_calls: u64,
    pub store_commit_ms_p50: f64,
    pub artifact_bytes: f64,
    pub artifact_encode_us: f64,
    pub artifact_decode_us: f64,
    pub submit_rtt_us_p50: f64,
    pub result_rtt_us_p50: f64,
    pub connections_per_request: f64,
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub hit_p99_us: f64,
    pub req_per_s: f64,
    pub hit_p50_us: f64,
    pub miss_p50_ms: f64,
    /// Traced minus untraced wall-clock of the same work.
    pub overhead_ms: f64,
    /// Peak resident set of a timed grid run or epoch, MiB.
    pub peak_rss_mb: f64,
}

impl Layers {
    /// The metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let s = &self.split;
        let ms = |ns: u64| ns as f64 / 1e6;
        let count = |n: u64| n as f64;
        let m = |name, value, unit| Metric { name, value, unit };
        let engine_self_ns = s
            .drive_ns
            .saturating_sub(s.next_chunk_ns + s.poll_ns + s.controller_ns);
        vec![
            m("simproc.engine_self_ms", ms(engine_self_ns), "ms"),
            m("simproc.stepped_quanta", count(s.stepped), "count"),
            m("simproc.busy_advanced_quanta", count(s.busy), "count"),
            m("simproc.idle_advanced_quanta", count(s.idle), "count"),
            m(
                "tasking.next_chunk_calls",
                count(s.next_chunk_calls),
                "count",
            ),
            m("tasking.next_chunk_ms", ms(s.next_chunk_ns), "ms"),
            m("tasking.poll_ms", ms(s.poll_ns), "ms"),
            m("workloads.build_ms", ms(s.build_ns), "ms"),
            m(
                "cuttlefish.on_quantum_calls",
                count(s.on_quantum_calls),
                "count",
            ),
            m("cuttlefish.on_quantum_ms", ms(s.on_quantum_ns), "ms"),
            m("cuttlefish.controller_ms", ms(s.controller_ns), "ms"),
            m("cluster.run_ms", ms(s.cluster_run_ns), "ms"),
            m("cluster.barrier_wait_s", s.barrier_wait_s, "s"),
            m(
                "cluster.idle_advanced_quanta",
                count(s.cluster_idle_quanta),
                "count",
            ),
            m("grid.cell_ms_sum", self.cell_ms_sum, "ms"),
            m("grid.cell_max_ms", self.cell_max_ms, "ms"),
            m("grid.shard_util", self.shard_util, "ratio"),
            m("store.load_calls", count(self.store_load_calls), "count"),
            m("store.load_us_p50", self.store_load_us_p50, "us"),
            m(
                "store.commit_calls",
                count(self.store_commit_calls),
                "count",
            ),
            m("store.commit_ms_p50", self.store_commit_ms_p50, "ms"),
            m("json.artifact_bytes", self.artifact_bytes, "bytes"),
            m("json.artifact_encode_us", self.artifact_encode_us, "us"),
            m("json.artifact_decode_us", self.artifact_decode_us, "us"),
            m("serve.submit_rtt_us_p50", self.submit_rtt_us_p50, "us"),
            m("serve.result_rtt_us_p50", self.result_rtt_us_p50, "us"),
            m(
                "serve.connections_per_request",
                self.connections_per_request,
                "count",
            ),
            m("serve.hits", count(self.hits), "count"),
            m("serve.misses", count(self.misses), "count"),
            m("serve.coalesced", count(self.coalesced), "count"),
            m("serve.hit_p99_us", self.hit_p99_us, "us"),
            m("serve.req_per_s", self.req_per_s, "1/s"),
            m("serve.hit_p50_us", self.hit_p50_us, "us"),
            m("serve.miss_p50_ms", self.miss_p50_ms, "ms"),
            m("trace.overhead_ms", self.overhead_ms, "ms"),
            m("process.peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// Report the field-wise median of several traced passes.
pub fn report_median(report: &mut Report, passes: &[Layers]) {
    let per_pass: Vec<Vec<Metric>> = passes.iter().map(Layers::metrics).collect();
    for (i, first) in per_pass[0].iter().enumerate() {
        let values: Vec<f64> = per_pass.iter().map(|p| p[i].value).collect();
        report.metric(first.name, crate::median(&values), first.unit);
    }
}
