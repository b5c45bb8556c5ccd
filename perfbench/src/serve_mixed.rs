//! The `serve-mixed` workload: one closed-loop client against a
//! `cuttlefish-serve` daemon with one worker, over a fresh store.
//!
//! Set-up warms a fresh store with the Figure 10 grid at small scale
//! ([`WARM`] cells, through `GridSpec::run_timed_store`) and binds the
//! daemon; it recurs every [`EPOCHS_PER_SETUP`] epochs. The client
//! sends seeded epochs of requests. Each request is a `submit` followed
//! by a `result`. An epoch is [`EPOCH`] requests against a newly bound
//! daemon over the current store:
//!
//! * every warm cell once, first time for this daemon, so a store read;
//! * one fresh cell per benchmark (a repetition index never used
//!   before), so a miss that simulates and commits: 1 request in 20;
//! * the rest repeats of keys already sent in the epoch, which coalesce
//!   in the daemon's memory.
//!
//! After the timed epochs every distinct cell is run once more through
//! the grid path (`run_scenario_timed` with no store), and every
//! artifact the daemon sent must be byte-identical to it. The daemon's
//! hit, miss and coalesced counters must equal the plan.

use crate::grids::cuttlefish_geomeans;
use crate::trace::{identical, traced_cell, Layers, Split};
use crate::{
    median, par_map, peak_rss_mb, process_cpu_s, quantile, reset_peak_rss, secs, Options, Report,
    Rng, SHARDS,
};
use bench::grid::{
    paper_setups, run_scenario_timed, scenario_cell, AxisSet, CacheStats, CellResult, CellTiming,
    GridResult, GridSpec, GridTiming,
};
use bench::json::Json;
use bench::scenario::Scenario;
use bench::store::{fnv1a64, Store};
use bench::Setup;
use cuttlefish::Config;
use serve::protocol::Submission;
use serve::{Client, Server};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workload scale of every served cell. At 0.02 the Cuttlefish
/// controller has too little time to settle and the warm grid's
/// geomeans come out negative (-4.6% energy, -0.5% time); at 0.2 they
/// are 12.3% and 1.1%, and a miss simulates for about 30 ms, so its
/// wall-clock is mostly work rather than thread wake-ups.
const SCALE: f64 = 0.2;
/// Warm cells: the Figure 10 grid, 10 benchmarks x 4 setups.
const WARM: usize = 40;
const BENCHES: usize = 10;
/// Requests per epoch: [`WARM`] store reads, [`BENCHES`] misses, and
/// repeats.
const EPOCH: usize = 200;
/// Epochs each set-up serves. Set-ups recur through the run, so the
/// median set-up time spans it.
const EPOCHS_PER_SETUP: usize = 5;
/// Epochs whose misses the traced run splits by layer.
const TRACED_EPOCHS: usize = 4;

/// What one request of the plan asks for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// First submission of a warm cell to this daemon: a store read.
    Warm,
    /// A cell never computed: simulates and commits.
    Miss,
    /// A key already sent in this epoch: coalesces.
    Repeat,
}

/// One planned request: what it is and which cell it submits.
struct Planned {
    kind: Kind,
    cell: usize,
}

/// The cells a run can submit: the warm cells first, then every fresh
/// cell in the order the plan created them.
struct Cells {
    scenarios: Vec<Scenario>,
    next_rep: u32,
}

impl Cells {
    /// A fresh cell of warm cell `warm`'s benchmark and setup.
    fn fresh(&mut self, warm: usize) -> usize {
        let mut scenario = self.scenarios[warm].clone();
        scenario.seed = bench::HARNESS_SEED ^ (u64::from(self.next_rep) << 32);
        self.next_rep += 1;
        self.scenarios.push(scenario);
        self.scenarios.len() - 1
    }
}

/// Plan epoch `epoch`: the warm cells in seeded order, one fresh cell
/// per benchmark, and repeats of keys already sent, interleaved at
/// random. Benchmark `b`'s fresh cell takes setup `(epoch + b) mod 4`,
/// so every run simulates the same misses epoch by epoch and only the
/// order and the repeats come from the seed: miss cells differ in cost
/// by setup, and seeded setups made the misses' wall-clock follow the
/// seed.
fn plan_epoch(epoch: usize, rng: &mut Rng, cells: &mut Cells) -> Vec<Planned> {
    let mut warm: Vec<usize> = (0..WARM).collect();
    rng.shuffle(&mut warm);
    let setups = WARM / BENCHES;
    let mut misses: Vec<usize> = (0..BENCHES)
        .map(|b| cells.fresh(b * setups + (epoch + b) % setups))
        .collect();
    rng.shuffle(&mut misses);
    let mut repeats = EPOCH - WARM - BENCHES;
    let mut sent: Vec<usize> = Vec::new();
    let mut plan = Vec::with_capacity(EPOCH);
    while plan.len() < EPOCH {
        let fresh = warm.len() + misses.len();
        let pick = rng.below(fresh + if sent.is_empty() { 0 } else { repeats });
        let (kind, cell) = if pick < warm.len() {
            (Kind::Warm, warm.pop().expect("picked a warm cell"))
        } else if pick < fresh {
            (Kind::Miss, misses.pop().expect("picked a miss"))
        } else {
            repeats -= 1;
            (Kind::Repeat, sent[rng.below(sent.len())])
        };
        if kind != Kind::Repeat {
            sent.push(cell);
        }
        plan.push(Planned { kind, cell });
    }
    plan
}

/// The warm grid: the Figure 10 cells at [`SCALE`]. Cuttlefish setups
/// carry their policy in the config, so a cell and the scenario it
/// expands to share one store key.
fn warm_spec() -> GridSpec {
    let mut spec = GridSpec::new("serve-warm", SCALE);
    let setups = paper_setups()
        .into_iter()
        .map(|s| match s.setup {
            Setup::Cuttlefish(policy) => s.with_config(Config::default().with_policy(policy)),
            _ => s,
        })
        .collect();
    let suite = spec.full_suite();
    spec.push(AxisSet::new(suite, setups));
    spec
}

/// What a set-up leaves: the warmed store, the warm grid's result and
/// timing.
type Warmed = (Store, GridResult, GridTiming);

/// Set-up: a fresh store warmed with the warm grid, and a daemon bound
/// over it.
fn setup(dir: &Path) -> Result<(Warmed, Server), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(dir);
    let (result, timing) = warm_spec().run_timed_store(SHARDS, Some(&store));
    let expected = CacheStats {
        hits: 0,
        misses: WARM as u64,
    };
    if timing.cache != Some(expected) {
        return Err(format!("warm-up of a fresh store: {:?}", timing.cache));
    }
    let server = Server::bind("127.0.0.1:0", store.clone(), 1).map_err(|e| format!("bind: {e}"))?;
    Ok(((store, result, timing), server))
}

/// What the client saw of one request.
struct Sent {
    kind: Kind,
    cell: usize,
    submit_s: f64,
    result_s: f64,
    /// Process CPU time over a miss's `submit` and `result`, s; 0 for
    /// the other requests.
    cpu_s: f64,
    /// Digest of the artifact's bytes; `None` when the request failed.
    digest: Option<u64>,
}

/// Serve one epoch on `server` and shut it down. Each artifact is
/// digested as it arrives, outside the timed request, so the client
/// holds no artifacts and the epoch's memory does not hang on which
/// keys the plan repeats. Returns the time spent inside requests and
/// whether the daemon's counters match the plan; `Err` only when the
/// daemon itself fails, as request failures are recorded.
fn serve_epoch(
    server: Server,
    plan: &[Planned],
    cells: &Cells,
    sent: &mut Vec<Sent>,
    layers: &mut Layers,
    trace: bool,
) -> Result<(f64, bool), String> {
    let client = Client::new(server.local_addr().to_string());
    let daemon = std::thread::spawn(move || server.run());
    let mut requests_s = 0.0;
    for p in plan {
        let submission = Submission::Scenario(Box::new(cells.scenarios[p.cell].clone()));
        let cpu = (p.kind == Kind::Miss).then(process_cpu_s);
        let t = Instant::now();
        let ticket = client.submit(submission);
        let submit_s = secs(t);
        let t = Instant::now();
        let artifact = ticket.as_ref().map_err(Clone::clone).and_then(|ticket| {
            if ticket.coalesced != (p.kind == Kind::Repeat) {
                return Err(format!(
                    "ticket coalesced={} for a planned request",
                    ticket.coalesced
                ));
            }
            client.result(&ticket.job)
        });
        let result_s = secs(t);
        let cpu_s = cpu.map_or(0.0, |cpu| process_cpu_s() - cpu);
        requests_s += submit_s + result_s;
        let digest = match artifact {
            Ok(artifact) => Some(digest_artifact(&artifact, trace.then_some(&mut *layers))),
            Err(e) => {
                eprintln!("serve-mixed: request failed: {e}");
                None
            }
        };
        sent.push(Sent {
            kind: p.kind,
            cell: p.cell,
            submit_s,
            result_s,
            cpu_s,
            digest,
        });
    }
    let count = |kind| plan.iter().filter(|p| p.kind == kind).count() as u64;
    let stats = client.stats()?;
    let planned = (count(Kind::Warm), count(Kind::Miss), count(Kind::Repeat));
    let counted = (stats.hits, stats.misses, stats.coalesced);
    let plan_ok = counted == planned && stats.submits == plan.len() as u64 && stats.in_flight == 0;
    if !plan_ok {
        eprintln!("serve-mixed: daemon counted {counted:?}, the plan has {planned:?}");
    }
    layers.hits += stats.hits;
    layers.misses += stats.misses;
    layers.coalesced += stats.coalesced;
    client.shutdown()?;
    daemon
        .join()
        .map_err(|_| "the daemon panicked".to_string())?
        .map_err(|e| format!("daemon: {e}"))?;
    Ok((requests_s, plan_ok))
}

/// Digest an artifact's bytes. When traced, also time the JSON codec
/// on it: encoding to the artifact bytes and decoding them back.
fn digest_artifact(artifact: &Json, traced: Option<&mut Layers>) -> u64 {
    let t = Instant::now();
    let text = artifact.to_pretty();
    let encode_us = secs(t) * 1e6;
    if let Some(layers) = traced {
        let t = Instant::now();
        let decoded = Json::parse(&text);
        let decode_us = secs(t) * 1e6;
        assert!(
            decoded.is_ok(),
            "an artifact the daemon sent does not parse"
        );
        layers.artifact_bytes += text.len() as f64;
        layers.artifact_encode_us += encode_us;
        layers.artifact_decode_us += decode_us;
    }
    fnv1a64(text.as_bytes())
}

/// The grid-path artifact digest of every cell, plus the traced split
/// of the cells `traced` selects, run on [`SHARDS`] threads.
struct Reference {
    digests: Vec<u64>,
    split: Split,
    /// Traced minus untraced host time of the traced cells, ms.
    overhead_ms: f64,
    /// Traced cells whose result differs from the untraced run.
    traced_mismatches: u64,
    /// Grid-path result of every cell, for the store replay.
    results: Vec<(CellResult, CellTiming)>,
}

fn reference(cells: &Cells, traced: &[bool]) -> Reference {
    let indices: Vec<usize> = (0..cells.scenarios.len()).collect();
    let done = par_map(&indices, |&i| {
        let scenario = &cells.scenarios[i];
        let (result, timing) =
            run_scenario_timed(scenario, None).expect("planned scenarios are valid");
        let digest = fnv1a64(result.to_json_string().as_bytes());
        let cell = result.cells.into_iter().next().expect("one cell");
        let timing = timing.cells[0];
        let traced = traced[i].then(|| {
            let (split, observed) = traced_cell(scenario);
            let same = identical(observed, cell.seconds, cell.joules, cell.instructions);
            (split, same, split.total_ns() as f64 / 1e6 - timing.wall_ms)
        });
        (digest, traced, cell, timing)
    });
    let mut r = Reference {
        digests: Vec::with_capacity(done.len()),
        split: Split::default(),
        overhead_ms: 0.0,
        traced_mismatches: 0,
        results: Vec::with_capacity(done.len()),
    };
    for (digest, traced, cell, timing) in done {
        r.digests.push(digest);
        if let Some((split, same, overhead_ms)) = traced {
            r.split.add(&split);
            r.overhead_ms += overhead_ms;
            r.traced_mismatches += u64::from(!same);
        }
        r.results.push((cell, timing));
    }
    r
}

/// Replay the daemon's store traffic with the benchmark's own `Store`
/// calls: one load per key each epoch sent first (warm keys from the
/// served store, fresh keys from an empty one) and one commit per
/// miss into that second store.
fn replay_store(
    served: &Store,
    scratch: &Path,
    sent: &[Sent],
    cells: &Cells,
    reference: &Reference,
    layers: &mut Layers,
) -> Result<(), String> {
    let fresh = Store::open(scratch);
    let mut loads_us = Vec::new();
    let mut commits_ms = Vec::new();
    for s in sent.iter().filter(|s| s.kind != Kind::Repeat) {
        let scenario = &cells.scenarios[s.cell];
        let cell = scenario_cell(scenario)?;
        let identity = cell.store_identity(&scenario.nodes[0].0, SCALE);
        let store = if s.kind == Kind::Warm { served } else { &fresh };
        let key = store.key(&identity);
        let t = Instant::now();
        let loaded = store.load(&key);
        loads_us.push(secs(t) * 1e6);
        if loaded.is_some() != (s.kind == Kind::Warm) {
            return Err("store replay: a warm key missed or a fresh key hit".into());
        }
        if s.kind == Kind::Miss {
            let (result, timing) = &reference.results[s.cell];
            let t = Instant::now();
            fresh
                .commit(&key, result, timing)
                .map_err(|e| format!("store replay commit: {e}"))?;
            commits_ms.push(secs(t) * 1e3);
        }
    }
    layers.store_load_calls = loads_us.len() as u64;
    layers.store_load_us_p50 = median(&loads_us);
    layers.store_commit_calls = commits_ms.len() as u64;
    layers.store_commit_ms_p50 = median(&commits_ms);
    Ok(())
}

/// Run the workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    let tmp = PathBuf::from(".perfbench-tmp").join(format!("serve-{}", std::process::id()));
    let outcome = run_in(opts, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".perfbench-tmp");
    outcome
}

fn run_in(opts: &Options, tmp: &Path) -> Result<Report, String> {
    let warm = warm_spec();
    let mut cells = Cells {
        scenarios: warm
            .cells()
            .iter()
            .map(|c| c.scenario(&warm.machine, SCALE))
            .collect(),
        next_rep: 1,
    };
    assert_eq!(cells.scenarios.len(), WARM);

    let mut rng = Rng::new(opts.seed);
    let mut report = Report::default();
    let mut layers = Layers::default();
    let mut sent: Vec<Sent> = Vec::new();
    let mut epochs: Vec<f64> = Vec::new();
    // Wall-clock of each epoch's misses, one per benchmark: every
    // epoch simulates the same benchmarks, so epochs compare.
    let mut epoch_miss_s: Vec<f64> = Vec::new();
    let mut peaks_mb = Vec::new();
    let mut traced = vec![false; WARM];
    let mut setup_s = Vec::new();
    let mut served: Option<Warmed> = None;
    let start = Instant::now();
    // At least TRACED_EPOCHS epochs, so the traced split always covers
    // the same number of misses.
    while secs(start) < opts.seconds || epochs.len() < TRACED_EPOCHS {
        let plan = plan_epoch(epochs.len(), &mut rng, &mut cells);
        traced.resize(cells.scenarios.len(), epochs.len() < TRACED_EPOCHS);
        // A set-up's store serves its epochs, its daemon the first.
        let daemon = if epochs.len().is_multiple_of(EPOCHS_PER_SETUP) {
            let t = Instant::now();
            let (warmed, server) = setup(&tmp.join(format!("store-{}", setup_s.len())))?;
            setup_s.push(secs(t));
            served = Some(warmed);
            server
        } else {
            let (store, ..) = served.as_ref().expect("the first epoch sets up");
            Server::bind("127.0.0.1:0", store.clone(), 1).map_err(|e| format!("bind: {e}"))?
        };
        reset_peak_rss();
        let first = sent.len();
        let (requests_s, plan_ok) =
            serve_epoch(daemon, &plan, &cells, &mut sent, &mut layers, opts.trace)?;
        peaks_mb.push(peak_rss_mb());
        report.checks_ok &= plan_ok;
        epochs.push(requests_s);
        epoch_miss_s.push(
            sent[first..]
                .iter()
                .filter(|s| s.kind == Kind::Miss)
                .map(|s| s.submit_s + s.result_s)
                .sum(),
        );
    }

    let (store, warm_result, warm_timing) = served.expect("at least one epoch ran");

    // Output check: every artifact byte-identical to the grid path's.
    let reference = reference(&cells, &traced);
    report.attempted = sent.len() as u64;
    report.failed = sent
        .iter()
        .filter(|s| s.digest != Some(reference.digests[s.cell]))
        .count() as u64;
    if reference.traced_mismatches > 0 {
        eprintln!(
            "serve-mixed: {} traced cells differ from their untraced runs",
            reference.traced_mismatches
        );
        report.checks_ok = false;
    }

    let hit_us: Vec<f64> = sent
        .iter()
        .filter(|s| s.kind != Kind::Miss)
        .map(|s| (s.submit_s + s.result_s) * 1e6)
        .collect();
    let miss_ms: Vec<f64> = sent
        .iter()
        .filter(|s| s.kind == Kind::Miss)
        .map(|s| (s.submit_s + s.result_s) * 1e3)
        .collect();
    let requests_s: f64 = epochs.iter().sum();
    let req_per_s = sent.len() as f64 / requests_s;
    println!(
        "serve-mixed: {} epochs, {} requests ({} hits, {} misses), {req_per_s:.0} req/s, \
         hit p50 {:.0} us (n={}), miss p50 {:.2} ms (n={})",
        epochs.len(),
        sent.len(),
        hit_us.len(),
        miss_ms.len(),
        median(&hit_us),
        hit_us.len(),
        median(&miss_ms),
        miss_ms.len()
    );

    if opts.trace {
        let n = sent.len() as f64;
        layers.artifact_bytes /= n;
        layers.artifact_encode_us /= n;
        layers.artifact_decode_us /= n;
        let hits = sent.iter().filter(|s| s.kind != Kind::Miss);
        layers.submit_rtt_us_p50 =
            median(&hits.clone().map(|s| s.submit_s * 1e6).collect::<Vec<_>>());
        layers.result_rtt_us_p50 = median(&hits.map(|s| s.result_s * 1e6).collect::<Vec<_>>());
        // The client opens one connection per call: submit, result.
        layers.connections_per_request = 2.0;
        layers.hit_p99_us = quantile(&hit_us, 0.99);
        layers.req_per_s = req_per_s;
        layers.hit_p50_us = median(&hit_us);
        layers.miss_p50_ms = median(&miss_ms);
        layers.peak_rss_mb = median(&peaks_mb);
        layers.split = reference.split;
        layers.overhead_ms = reference.overhead_ms;
        let cell_ms: Vec<f64> = warm_timing.cells.iter().map(|c| c.wall_ms).collect();
        layers.cell_ms_sum = cell_ms.iter().sum();
        layers.cell_max_ms = cell_ms.iter().copied().fold(0.0, f64::max);
        layers.shard_util = layers.cell_ms_sum / (SHARDS as f64 * warm_timing.wall_ms);
        replay_store(
            &store,
            &tmp.join("replay"),
            &sent,
            &cells,
            &reference,
            &mut layers,
        )?;
        for m in layers.metrics() {
            report.metric(m.name, m.value, m.unit);
        }
    } else {
        // Requests that do not simulate are a few loopback round trips
        // each, and their latency follows the thread wake-ups the host
        // grants: their run-to-run spread exceeded a tenth, so they are
        // traced-run diagnostics, as is the peak resident set. The
        // end-to-end view is the requests that do the work: the median
        // over epochs of the wall-clock of the epoch's misses, which
        // simulate and commit, and the process CPU over the misses per
        // quantum the daemon simulated for them.
        let misses = sent.iter().filter(|s| s.kind == Kind::Miss);
        let miss_cpu_s: f64 = misses.clone().map(|s| s.cpu_s).sum();
        let miss_quanta: u64 = misses
            .map(|s| reference.results[s.cell].1.total_quanta)
            .sum();
        let (energy, slowdown) = cuttlefish_geomeans(&warm_result);
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("wall_s", median(&epoch_miss_s), "s");
        report.metric(
            "ns_per_quantum",
            miss_cpu_s * 1e9 / miss_quanta as f64,
            "ns",
        );
        report.metric("energy_saving_pct", energy, "%");
        report.metric("slowdown_pct", slowdown, "%");
    }
    Ok(report)
}
