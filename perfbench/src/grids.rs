//! The two grid workloads: `paper-fig10` and `cluster-bsp`.
//!
//! Both run cold through `GridSpec::run_timed` on [`SHARDS`] shards,
//! with no result store, and check every run's artifact bytes against
//! a digest recorded here. Their cells are the paper's fixed cells
//! (harness seed `0xC0FFEE`): `--seed` does not change them, because
//! the simulated energy and slowdown must repeat exactly.
//!
//! The traced run splits the same cells by layer. `paper-fig10` cells
//! are built with `Scenario::build_single_node`, wrapped in the
//! [`trace`](crate::trace) adapters and driven by
//! `cuttlefish::controller::drive`; `cluster-bsp` cells are timed
//! around `Scenario::run`, because splitting the engine from the
//! cluster's event heap needs spans inside `Cluster`.

use crate::trace::{identical, report_median, traced_cell, Layers, Observed, Split};
use crate::{
    median, par_map, peak_rss_mb, process_cpu_s, reset_peak_rss, secs, Options, Report, SHARDS,
};
use bench::grid::{
    compare_to_baseline, geomean_by_setup, paper_setups, straggler_spec, AxisSet,
    BaselineComparison, Fleet, GridResult, GridSetup, GridSpec, GridTiming,
};
use bench::scenario::Scenario;
use bench::store::fnv1a64;
use bench::Setup;
use cuttlefish::Policy;
use simproc::HASWELL_2650V3;
use std::time::Instant;

/// The grid workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    PaperFig10,
    ClusterBsp,
}

impl Grid {
    fn name(self) -> &'static str {
        match self {
            Grid::PaperFig10 => "paper-fig10",
            Grid::ClusterBsp => "cluster-bsp",
        }
    }

    /// FNV-1a 64 of the `GridResult` artifact bytes every run must
    /// reproduce.
    fn digest(self) -> u64 {
        match self {
            Grid::PaperFig10 => 0x317f_435d_5bb5_b379,
            Grid::ClusterBsp => 0x9c1e_9ec0_d358_9584,
        }
    }

    /// Workload scale. At paper length (1.0) the eight cluster cells
    /// take about 0.7 s on 2 shards; at scale 4 one grid run does about
    /// as much work as a `paper-fig10` run, and every superstep is four
    /// times longer.
    fn scale(self) -> f64 {
        match self {
            Grid::PaperFig10 => 1.0,
            Grid::ClusterBsp => 4.0,
        }
    }

    /// The grid's cells.
    fn spec(self) -> GridSpec {
        let mut spec = GridSpec::new(self.name(), self.scale());
        match self {
            Grid::PaperFig10 => {
                let full = spec.full_suite();
                spec.push(AxisSet::new(full, paper_setups()));
            }
            Grid::ClusterBsp => {
                let pair = || {
                    vec![
                        GridSetup::new("Default", Setup::Default),
                        GridSetup::new("Cuttlefish", Setup::Cuttlefish(Policy::Both)),
                    ]
                };
                // Longest cells first, so the last cells to finish on
                // the shards are short ones.
                let mut machines = vec![HASWELL_2650V3.clone(); 3];
                machines.push(straggler_spec());
                spec.push(
                    AxisSet::new(vec!["Heat-ws".into()], pair())
                        .with_fleets(vec![Fleet::hetero(machines).with_bsp(96, 1.2e9)]),
                );
                spec.push(
                    AxisSet::new(vec!["Heat-ws".into(), "MiniFE".into()], pair())
                        .with_fleets(vec![Fleet::uniform(4).with_bsp(96, 1.2e9)]),
                );
                spec.push(
                    AxisSet::new(vec!["SOR-ws".into()], pair())
                        .with_fleets(vec![Fleet::uniform(64).with_bsp(8, 1.2e9)]),
                );
            }
        }
        spec
    }
}

/// Set-up: declare the grid, build its suite, enumerate its cells and
/// expand and validate every cell's scenario.
fn setup(grid: Grid) -> Result<(GridSpec, Vec<Scenario>), String> {
    let spec = grid.spec();
    let suite = spec.suite();
    let scenarios: Vec<Scenario> = spec
        .cells()
        .iter()
        .map(|cell| {
            if !suite.iter().any(|b| b.name == cell.bench) {
                return Err(format!("unknown benchmark `{}`", cell.bench));
            }
            let scenario = cell.scenario(&spec.machine, spec.scale);
            scenario.validate()?;
            Ok(scenario)
        })
        .collect::<Result<_, String>>()?;
    Ok((spec, scenarios))
}

/// Cuttlefish-vs-Default geomean energy saving and slowdown, percent.
/// Cells are compared within their cluster shape (node count,
/// machines, BSP decomposition).
pub fn cuttlefish_geomeans(result: &GridResult) -> (f64, f64) {
    let mut groups: Vec<GridResult> = Vec::new();
    for cell in &result.cells {
        let same_shape = |g: &GridResult| {
            let s = &g.cells[0].spec;
            (s.nodes, &s.machines, &s.bsp) == (cell.spec.nodes, &cell.spec.machines, &cell.spec.bsp)
        };
        match groups.iter_mut().find(|g| same_shape(g)) {
            Some(group) => group.cells.push(cell.clone()),
            None => groups.push(GridResult {
                cells: vec![cell.clone()],
                ..result.clone()
            }),
        }
    }
    let comparisons: Vec<BaselineComparison> = groups
        .iter()
        .flat_map(|g| compare_to_baseline(g, "Default"))
        .collect();
    geomean_by_setup(&comparisons)
        .into_iter()
        .find(|(label, ..)| label == "Cuttlefish")
        .map(|(_, energy, slowdown, _)| (energy, slowdown))
        .expect("every grid pairs Cuttlefish with Default")
}

/// Check one untraced grid run: nothing replayed from a store, and the
/// artifact bytes match the recorded digest.
fn artifact_ok(grid: Grid, result: &GridResult, timing: &GridTiming) -> bool {
    if timing.cache.is_some() || timing.cells.iter().any(|c| c.cached) {
        eprintln!("{}: a cell was replayed from a store", grid.name());
        return false;
    }
    let digest = fnv1a64(result.to_json_string().as_bytes());
    if digest != grid.digest() {
        eprintln!(
            "{}: artifact digest {digest:#018x} differs from the recorded {:#018x}",
            grid.name(),
            grid.digest()
        );
        return false;
    }
    true
}

/// Run every cell through the traced path on [`SHARDS`] threads.
/// Returns the split summed over cells, each cell's observed result in
/// cell order, and the pass's wall-clock.
fn traced_pass(scenarios: &[Scenario]) -> (Split, Vec<Observed>, f64) {
    let wall = Instant::now();
    let done = par_map(scenarios, traced_cell);
    let wall_s = secs(wall);
    let mut total = Split::default();
    for (split, _) in &done {
        total.add(split);
    }
    (total, done.into_iter().map(|d| d.1).collect(), wall_s)
}

/// Run one grid workload.
pub fn run(grid: Grid, opts: &Options) -> Result<Report, String> {
    // One set-up is tens of microseconds. It is repeated before every
    // grid run, so its median spans the whole measured window.
    const SETUPS: usize = 20;
    let mut setup_s = Vec::new();
    let mut set_up = || -> Result<(GridSpec, Vec<Scenario>), String> {
        let mut prepared = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            prepared = Some(setup(grid)?);
            setup_s.push(secs(t));
        }
        Ok(prepared.expect("at least one set-up"))
    };
    let (spec, scenarios) = set_up()?;

    let mut report = Report::default();
    let mut walls = Vec::new();
    let mut ns_per_quantum = Vec::new();
    let mut passes: Vec<Layers> = Vec::new();
    let mut geomeans = (0.0, 0.0);
    let mut warm = false;
    let start = Instant::now();
    // The first grid run warms the allocator and page tables: it is
    // checked but not timed. At least three timed runs follow, so the
    // median has a middle.
    while secs(start) < opts.seconds || walls.len() < 3 {
        if warm {
            set_up()?;
        }
        reset_peak_rss();
        let cpu_s = process_cpu_s();
        let (result, timing) = spec.run_timed(SHARDS);
        let cpu_s = process_cpu_s() - cpu_s;
        let peak_mb = peak_rss_mb();
        report.attempted += 1;
        if !artifact_ok(grid, &result, &timing) {
            report.failed += 1;
        }
        geomeans = cuttlefish_geomeans(&result);
        if !std::mem::replace(&mut warm, true) {
            continue;
        }
        let cell_ms: Vec<f64> = timing.cells.iter().map(|c| c.wall_ms).collect();
        let cell_ms_sum: f64 = cell_ms.iter().sum();
        eprintln!(
            "{}: grid run {} wall {:.3} s, cells {:.3} s",
            grid.name(),
            walls.len(),
            timing.wall_ms / 1e3,
            cell_ms_sum / 1e3
        );
        walls.push(timing.wall_ms / 1e3);
        ns_per_quantum.push(cpu_s * 1e9 / timing.total_quanta() as f64);
        if !opts.trace {
            continue;
        }

        let (split, observed, traced_wall_s) = traced_pass(&scenarios);
        report.attempted += observed.len() as u64;
        for (cell, &obs) in result.cells.iter().zip(&observed) {
            if !identical(obs, cell.seconds, cell.joules, cell.instructions) {
                eprintln!(
                    "{}: traced {}/{} differs from its untraced run",
                    grid.name(),
                    cell.spec.bench,
                    cell.spec.label
                );
                report.failed += 1;
            }
        }
        let traced_quanta = (split.stepped, split.idle, split.busy);
        let quanta = (
            timing.stepped_quanta(),
            timing.idle_advanced_quanta(),
            timing.busy_advanced_quanta(),
        );
        if traced_quanta != quanta {
            eprintln!(
                "{}: traced quanta {traced_quanta:?} differ from untraced {quanta:?}",
                grid.name()
            );
            report.checks_ok = false;
        }
        passes.push(Layers {
            split,
            cell_ms_sum,
            cell_max_ms: cell_ms.iter().copied().fold(0.0, f64::max),
            shard_util: cell_ms_sum / (SHARDS as f64 * timing.wall_ms),
            overhead_ms: (traced_wall_s - timing.wall_ms / 1e3) * 1e3,
            peak_rss_mb: peak_mb,
            ..Layers::default()
        });
    }

    let (energy, slowdown) = geomeans;
    match grid {
        Grid::PaperFig10 => println!(
            "{}: Cuttlefish vs Default geomean energy saving {energy:.2}% \
             (paper: 19.4% in the abstract, 19.6% in Fig. 10), \
             slowdown {slowdown:.2}% (paper: 3.6%, Fig. 10: 3.6%)",
            grid.name()
        ),
        Grid::ClusterBsp => println!(
            "{}: Cuttlefish vs Default geomean energy saving {energy:.2}%, \
             slowdown {slowdown:.2}% (unvalidated: the paper has no cluster reference)",
            grid.name()
        ),
    }
    println!(
        "{}: {} timed grid runs of {} cells on {SHARDS} shards, median wall {:.3} s",
        grid.name(),
        walls.len(),
        scenarios.len(),
        median(&walls)
    );

    if opts.trace {
        report_median(&mut report, &passes);
    } else {
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("wall_s", median(&walls), "s");
        report.metric("ns_per_quantum", median(&ns_per_quantum), "ns");
        report.metric("energy_saving_pct", energy, "%");
        report.metric("slowdown_pct", slowdown, "%");
    }
    Ok(report)
}
