//! Trajectory diff: compare two `BENCH_smoke.json` aggregate points —
//! or two `GridResult` artifacts — with per-metric tolerance bands,
//! exiting nonzero on out-of-band drift.
//!
//! Two modes share one comparison core:
//!
//! * default (tolerance) mode — per grid, `cells` and `scale` must
//!   match exactly, `virtual_seconds` and `joules` may drift within
//!   `--rel` percent, and the geomean energy saving within
//!   `--abs-saving` percentage points. The informational CI stage runs
//!   this against the committed baseline so a reviewer sees *how far*
//!   a change moved the trajectory, not just that it moved.
//! * `--exact` — the byte-level drift gate: the `grids` sections must
//!   serialize identically. The run-dependent `meta` section
//!   (wall-clock, stepping counters) is ignored in both modes — that
//!   is what makes it safe to record timing in the committed artifact.
//!
//! When both inputs are `cuttlefish/grid-result/v1` artifacts (a bin's
//! `--json` output, including the one-cell `--scenario` artifacts) the
//! same modes apply at cell granularity: `--exact` gates on the whole
//! canonical serialization — the scenario-file CI stage uses this to
//! pin "a committed cell reproduces bit for bit from JSON alone" —
//! and tolerance mode bands each cell's seconds/joules.
//!
//! A third mode serves the fuzzing workflow's divergence triage:
//! `--governor-gap` takes two `GridResult` artifacts produced by
//! *different governors on the same scenario* (e.g. two one-cell
//! `--scenario` runs, or a fuzz reproducer run twice) and prints the
//! per-metric gap — seconds, joules, EDP, JPI — instead of treating
//! the differing cell identity as drift. Cell identity must match
//! modulo the governor fields (label, setup, config, oracle table);
//! anything else is a usage error, because then the gap would compare
//! different experiments, not different governors.
//!
//! Usage: `bench_diff [--exact | --governor-gap] [--rel PCT]
//!         [--abs-saving PT] <baseline.json> <candidate.json>`
//!
//! Exit codes: 0 in-band, 1 out-of-band drift, 2 usage/IO error
//! (`--governor-gap` is informational: 0 unless the inputs are not
//! the same scenario).

use bench::grid::{CellResult, GridResult};
use bench::json::{FromJson, Json, ToJson};
use bench::Setup;
use cuttlefish::Config;

struct Tolerance {
    exact: bool,
    /// Relative band for virtual_seconds and joules, percent.
    rel_pct: f64,
    /// Absolute band for the geomean saving, percentage points.
    abs_saving_pt: f64,
}

fn main() {
    let mut tol = Tolerance {
        exact: false,
        rel_pct: 1.0,
        abs_saving_pt: 1.0,
    };
    let mut paths = Vec::new();
    let mut governor_gap = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exact" => tol.exact = true,
            "--governor-gap" => governor_gap = true,
            "--rel" => tol.rel_pct = num_arg(&mut args, "--rel"),
            "--abs-saving" => tol.abs_saving_pt = num_arg(&mut args, "--abs-saving"),
            "--help" | "-h" => {
                println!(
                    "bench_diff [--exact | --governor-gap] [--rel PCT] [--abs-saving PT] \
                     <baseline.json> <candidate.json>"
                );
                std::process::exit(0);
            }
            other if other.starts_with("--") => usage_err(&format!("unknown flag `{other}`")),
            _ => paths.push(arg),
        }
    }
    if paths.len() != 2 {
        usage_err("expected exactly two aggregate files");
    }
    let base = load(&paths[0]);
    let cand = load(&paths[1]);

    if schema_of(&base) != schema_of(&cand) {
        eprintln!(
            "error: schema mismatch: {} is `{}`, {} is `{}`",
            paths[0],
            schema_of(&base),
            paths[1],
            schema_of(&cand)
        );
        std::process::exit(2);
    }
    if governor_gap {
        if schema_of(&base) != bench::grid::SCHEMA {
            usage_err("--governor-gap needs two grid-result artifacts");
        }
        let parse = |j: &Json, path: &str| {
            GridResult::from_json(j).unwrap_or_else(|e| {
                eprintln!("error: {path}: invalid grid-result artifact: {e}");
                std::process::exit(2);
            })
        };
        if diff_governor_gap(&parse(&base, &paths[0]), &parse(&cand, &paths[1])) {
            std::process::exit(2);
        }
        return;
    }
    let drifted = if schema_of(&base) == bench::grid::SCHEMA {
        diff_grid_results(&base, &cand, &tol)
    } else {
        let d = diff(&base, &cand, &tol);
        diff_timing_info(&base, &cand);
        diff_cache_info(&base, &cand);
        d
    };
    if drifted {
        eprintln!(
            "bench_diff: trajectory drifted out of band ({} vs {})",
            paths[0], paths[1]
        );
        std::process::exit(1);
    }
    eprintln!("bench_diff: {} and {} are in-band", paths[0], paths[1]);
}

fn num_arg(args: &mut impl Iterator<Item = String>, flag: &str) -> f64 {
    args.next()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v >= 0.0)
        .unwrap_or_else(|| usage_err(&format!("{flag} needs a non-negative number")))
}

fn usage_err(msg: &str) -> ! {
    eprintln!("error: {msg} (see bench_diff --help)");
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let j = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    });
    let schema = j.field("schema").and_then(Json::as_str).unwrap_or_default();
    match schema {
        "cuttlefish/bench-smoke/v1" | bench::grid::SCHEMA => j,
        _ => {
            eprintln!("error: {path}: unsupported schema `{schema}`");
            std::process::exit(2);
        }
    }
}

fn schema_of(j: &Json) -> &str {
    j.field("schema").and_then(Json::as_str).unwrap_or_default()
}

/// Compare two `GridResult` artifacts; returns true on out-of-band
/// drift. Exact mode gates on the canonical re-serialization (parsing
/// through the typed decoder first, so formatting-preserving edits
/// cannot hide behind byte noise); tolerance mode bands each cell.
fn diff_grid_results(base: &Json, cand: &Json, tol: &Tolerance) -> bool {
    let parse = |j: &Json| {
        GridResult::from_json(j).unwrap_or_else(|e| {
            eprintln!("error: invalid grid-result artifact: {e}");
            std::process::exit(2);
        })
    };
    let (base, cand) = (parse(base), parse(cand));
    if tol.exact {
        if base.to_json().to_pretty() == cand.to_json().to_pretty() {
            eprintln!(
                "exact: grid `{}` byte-identical ({} cells)",
                base.grid,
                base.cells.len()
            );
            return false;
        }
        eprintln!("exact: grid-result artifacts differ");
    }
    let mut drifted = tol.exact;
    if base.cells.len() != cand.cells.len() {
        eprintln!(
            "  cell count {} → {} (must match)",
            base.cells.len(),
            cand.cells.len()
        );
        return true;
    }
    for (b, c) in base.cells.iter().zip(&cand.cells) {
        let name = format!("{}/{}", b.spec.bench, b.spec.label);
        if b.spec != c.spec {
            eprintln!("  {name}: cell identity changed");
            drifted = true;
            continue;
        }
        let mut parts = Vec::new();
        for (key, bv, cv) in [
            ("seconds", b.seconds, c.seconds),
            ("joules", b.joules, c.joules),
        ] {
            let rel = if bv == 0.0 {
                if cv == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                ((cv - bv) / bv).abs() * 100.0
            };
            if rel > tol.rel_pct {
                parts.push(format!(
                    "{key} {:+.3}% (band ±{}%)",
                    (cv - bv) / bv * 100.0,
                    tol.rel_pct
                ));
            }
        }
        if parts.is_empty() {
            eprintln!("  {name}: in-band");
        } else {
            eprintln!("  {name}: {}", parts.join(", "));
            drifted = true;
        }
    }
    drifted
}

/// A cell spec with the governor identity neutralized: what must be
/// equal between two artifacts for a governor gap to be meaningful.
fn sans_governor(cell: &CellResult) -> bench::grid::CellSpec {
    let mut spec = cell.spec.clone();
    spec.label = String::new();
    spec.setup = Setup::Default;
    spec.config = Config::default();
    spec.oracle = None;
    spec
}

/// Cross-governor diff of two artifacts over the *same* scenario:
/// pairs cells by index and prints the per-metric gap (candidate
/// relative to baseline). Returns true — a usage error — when the
/// inputs are not the same scenario modulo governor.
fn diff_governor_gap(base: &GridResult, cand: &GridResult) -> bool {
    if base.cells.len() != cand.cells.len() || base.cells.is_empty() {
        eprintln!(
            "error: --governor-gap needs matching non-empty cell lists \
             ({} vs {} cells)",
            base.cells.len(),
            cand.cells.len()
        );
        return true;
    }
    for (b, c) in base.cells.iter().zip(&cand.cells) {
        if sans_governor(b) != sans_governor(c) {
            eprintln!(
                "error: {}/{} and {}/{} are not the same scenario modulo \
                 governor — a gap between them would compare experiments, \
                 not governors",
                b.spec.bench, b.spec.label, c.spec.bench, c.spec.label
            );
            return true;
        }
        let pct = |bv: f64, cv: f64| {
            if bv == 0.0 {
                f64::NAN
            } else {
                (cv - bv) / bv * 100.0
            }
        };
        println!(
            "governor gap: {} vs {} on {} ({} node{}, rep {})",
            b.spec.label,
            c.spec.label,
            b.spec.bench,
            b.spec.nodes,
            if b.spec.nodes == 1 { "" } else { "s" },
            b.spec.rep
        );
        for (key, bv, cv) in [
            ("seconds", b.seconds, c.seconds),
            ("joules", b.joules, c.joules),
            ("edp", b.edp(), c.edp()),
            ("jpi", b.jpi(), c.jpi()),
        ] {
            println!("  {key:>8}: {bv:.6e} -> {cv:.6e} ({:+.2}%)", pct(bv, cv));
        }
    }
    false
}

/// Compare the gated (`grids`) sections; returns true on out-of-band
/// drift. Prints one line per compared grid either way.
fn diff(base: &Json, cand: &Json, tol: &Tolerance) -> bool {
    let (base_grids, cand_grids) = match (grids(base), grids(cand)) {
        (Some(b), Some(c)) => (b, c),
        _ => {
            eprintln!("error: aggregate without a `grids` array");
            std::process::exit(2);
        }
    };
    if tol.exact {
        // Byte-level gate on the canonical serialization of `grids`
        // (insertion order and number formatting are deterministic).
        let b = Json::Arr(base_grids.to_vec()).to_pretty();
        let c = Json::Arr(cand_grids.to_vec()).to_pretty();
        if b == c {
            eprintln!("exact: {} grids byte-identical", base_grids.len());
            return false;
        }
        eprintln!("exact: grids sections differ");
    }

    let mut drifted = tol.exact; // in exact mode only identity passes
    let name = |g: &Json| {
        g.field("grid")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let cand_names: Vec<String> = cand_grids.iter().map(&name).collect();
    for g in base_grids {
        if !cand_names.contains(&name(g)) {
            eprintln!("  {}: removed", name(g));
            drifted = true;
        }
    }
    for g in cand_grids {
        let gname = name(g);
        let Some(b) = base_grids.iter().find(|b| name(b) == gname) else {
            eprintln!("  {gname}: new grid (no baseline)");
            drifted = true;
            continue;
        };
        drifted |= diff_grid(&gname, b, g, tol);
    }
    drifted
}

fn grids(j: &Json) -> Option<&[Json]> {
    j.get("grids").and_then(|g| g.as_arr().ok())
}

/// Informational `meta.timing` comparison — never affects the exit
/// code. Wall-clock and stepping counters are machine- and
/// run-dependent by design (which is why `meta` sits outside both
/// gates), but the *shape* of the counters is worth a glance in CI
/// logs: a stepping-counter regression — the idle/busy advances
/// silently disengaging — changes no artifact bytes, so this
/// side-by-side is the only diff that shows it.
fn diff_timing_info(base: &Json, cand: &Json) {
    fn timing(j: &Json) -> &[Json] {
        j.get("meta")
            .and_then(|m| m.get("timing"))
            .and_then(|t| t.as_arr().ok())
            .unwrap_or(&[])
    }
    let (bt, ct) = (timing(base), timing(cand));
    if bt.is_empty() && ct.is_empty() {
        return;
    }
    eprintln!("timing (informational, not gated):");
    let name = |g: &Json| {
        g.get("grid")
            .and_then(|s| s.as_str().ok())
            .unwrap_or("?")
            .to_string()
    };
    for c in ct {
        let gname = name(c);
        let counters = |g: &Json| {
            (
                num(g, "stepped_quanta").unwrap_or(f64::NAN),
                num(g, "idle_advanced_quanta").unwrap_or(f64::NAN),
                num(g, "busy_advanced_quanta").unwrap_or(f64::NAN),
                num(g, "fast_forward").unwrap_or(f64::NAN),
            )
        };
        let (cs, ci, cb, cf) = counters(c);
        match bt.iter().find(|b| name(b) == gname) {
            Some(b) => {
                let (bs, bi, bb, bf) = counters(b);
                eprintln!(
                    "  {gname}: stepped {bs}→{cs}, idle-adv {bi}→{ci}, \
                     busy-adv {bb}→{cb}, fast-forward {bf:.2}x→{cf:.2}x"
                );
            }
            None => eprintln!(
                "  {gname}: stepped {cs}, idle-adv {ci}, busy-adv {cb}, \
                 fast-forward {cf:.2}x (no baseline timing)"
            ),
        }
    }
}

/// Informational `meta.cache` comparison — never affects the exit
/// code (the `--require-hit-rate` gate in `grid_aggregate` is the
/// enforcing consumer). Result-store traffic is run-dependent like the
/// timing, but the side-by-side shows at a glance whether a trajectory
/// point came from a warm or cold run.
fn diff_cache_info(base: &Json, cand: &Json) {
    fn cache(j: &Json) -> &[Json] {
        j.get("meta")
            .and_then(|m| m.get("cache"))
            .and_then(|t| t.as_arr().ok())
            .unwrap_or(&[])
    }
    let (bc, cc) = (cache(base), cache(cand));
    if bc.is_empty() && cc.is_empty() {
        return;
    }
    eprintln!("result-store cache (informational, not gated):");
    let name = |g: &Json| {
        g.get("grid")
            .and_then(|s| s.as_str().ok())
            .unwrap_or("?")
            .to_string()
    };
    let stats = |g: &Json| {
        (
            num(g, "hits").unwrap_or(f64::NAN),
            num(g, "misses").unwrap_or(f64::NAN),
            num(g, "hit_rate").unwrap_or(f64::NAN) * 100.0,
        )
    };
    for c in cc {
        let gname = name(c);
        let (ch, cm, cr) = stats(c);
        match bc.iter().find(|b| name(b) == gname) {
            Some(b) => {
                let (bh, bm, br) = stats(b);
                eprintln!(
                    "  {gname}: hits {bh}→{ch}, misses {bm}→{cm}, \
                     hit-rate {br:.0}%→{cr:.0}%"
                );
            }
            None => eprintln!(
                "  {gname}: hits {ch}, misses {cm}, hit-rate {cr:.0}% (no baseline cache stats)"
            ),
        }
    }
    for b in bc {
        let gname = name(b);
        if !cc.iter().any(|c| name(c) == gname) {
            eprintln!("  {gname}: candidate ran without a store");
        }
    }
}

fn num(g: &Json, key: &str) -> Option<f64> {
    match g.get(key) {
        Some(Json::Num(v)) => Some(*v),
        _ => None,
    }
}

fn diff_grid(gname: &str, base: &Json, cand: &Json, tol: &Tolerance) -> bool {
    let mut out_of_band = false;
    let mut parts = Vec::new();

    for key in ["cells", "scale"] {
        let (b, c) = (num(base, key), num(cand, key));
        if b != c {
            parts.push(format!(
                "{key} {}→{} (must match)",
                fmt(b.unwrap_or(f64::NAN)),
                fmt(c.unwrap_or(f64::NAN))
            ));
            out_of_band = true;
        }
    }
    for key in ["virtual_seconds", "joules"] {
        if let (Some(b), Some(c)) = (num(base, key), num(cand, key)) {
            let rel = if b == 0.0 {
                if c == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                ((c - b) / b).abs() * 100.0
            };
            if rel > tol.rel_pct {
                parts.push(format!(
                    "{key} {:+.3}% (band ±{}%)",
                    (c - b) / b * 100.0,
                    tol.rel_pct
                ));
                out_of_band = true;
            }
        }
    }
    let (bs, cs) = (
        num(base, "geomean_energy_saving_pct"),
        num(cand, "geomean_energy_saving_pct"),
    );
    match (bs, cs) {
        (Some(b), Some(c)) if (c - b).abs() > tol.abs_saving_pt => {
            parts.push(format!(
                "saving {:+.2}pt (band ±{}pt)",
                c - b,
                tol.abs_saving_pt
            ));
            out_of_band = true;
        }
        (Some(_), None) | (None, Some(_)) => {
            parts.push("saving appeared/disappeared".to_string());
            out_of_band = true;
        }
        _ => {}
    }

    if parts.is_empty() {
        eprintln!("  {gname}: in-band");
    } else {
        eprintln!("  {gname}: {}", parts.join(", "));
    }
    out_of_band
}

fn fmt(v: f64) -> String {
    if v.fract() == 0.0 && v.is_finite() {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(name: &str, cells: f64, secs: f64, joules: f64, saving: Option<f64>) -> Json {
        Json::Obj(vec![
            ("grid".into(), Json::Str(name.into())),
            ("scale".into(), Json::Num(0.05)),
            ("cells".into(), Json::Num(cells)),
            ("virtual_seconds".into(), Json::Num(secs)),
            ("joules".into(), Json::Num(joules)),
            (
                "geomean_energy_saving_pct".into(),
                saving.map_or(Json::Null, Json::Num),
            ),
        ])
    }

    fn aggregate(grids: Vec<Json>) -> Json {
        Json::Obj(vec![
            (
                "schema".into(),
                Json::Str("cuttlefish/bench-smoke/v1".into()),
            ),
            ("grids".into(), Json::Arr(grids)),
        ])
    }

    fn tol() -> Tolerance {
        Tolerance {
            exact: false,
            rel_pct: 1.0,
            abs_saving_pt: 1.0,
        }
    }

    #[test]
    fn identical_points_are_in_band() {
        let a = aggregate(vec![grid("fig10", 12.0, 43.2, 3234.0, Some(-2.8))]);
        assert!(!diff(&a, &a, &tol()));
        assert!(!diff(
            &a,
            &a,
            &Tolerance {
                exact: true,
                ..tol()
            }
        ));
    }

    #[test]
    fn small_drift_is_in_band_large_is_not() {
        let a = aggregate(vec![grid("fig10", 12.0, 100.0, 1000.0, Some(10.0))]);
        let close = aggregate(vec![grid("fig10", 12.0, 100.5, 1004.0, Some(10.5))]);
        assert!(!diff(&a, &close, &tol()));
        let far = aggregate(vec![grid("fig10", 12.0, 103.0, 1000.0, Some(10.0))]);
        assert!(diff(&a, &far, &tol()));
        let saving_jump = aggregate(vec![grid("fig10", 12.0, 100.0, 1000.0, Some(12.0))]);
        assert!(diff(&a, &saving_jump, &tol()));
    }

    #[test]
    fn cell_count_changes_always_drift() {
        let a = aggregate(vec![grid("fig10", 12.0, 100.0, 1000.0, None)]);
        let b = aggregate(vec![grid("fig10", 14.0, 100.0, 1000.0, None)]);
        assert!(diff(&a, &b, &tol()));
    }

    #[test]
    fn added_and_removed_grids_drift() {
        let a = aggregate(vec![grid("fig10", 12.0, 100.0, 1000.0, None)]);
        let b = aggregate(vec![
            grid("fig10", 12.0, 100.0, 1000.0, None),
            grid("fig12", 1.0, 1.0, 1.0, None),
        ]);
        assert!(diff(&a, &b, &tol()));
        assert!(diff(&b, &a, &tol()));
    }

    #[test]
    fn exact_mode_rejects_any_numeric_drift() {
        let a = aggregate(vec![grid("fig10", 12.0, 100.0, 1000.0, None)]);
        let b = aggregate(vec![grid("fig10", 12.0, 100.0000001, 1000.0, None)]);
        assert!(diff(
            &a,
            &b,
            &Tolerance {
                exact: true,
                ..tol()
            }
        ));
        assert!(!diff(&a, &b, &tol()), "but it is inside the 1% band");
    }

    fn gap_cell(label: &str, setup: Setup, seconds: f64, joules: f64) -> CellResult {
        CellResult {
            spec: bench::grid::CellSpec {
                bench: "Heat-ws".into(),
                model: workloads::ProgModel::OpenMp,
                label: label.into(),
                setup,
                config: Config::default(),
                nodes: 1,
                rep: 0,
                trace: false,
                machines: None,
                bsp: None,
                oracle: None,
                stepping: cluster::SteppingMode::default(),
            },
            seconds,
            joules,
            instructions: 1.0e9,
            resolved_cf: 0.0,
            resolved_uf: 0.0,
            report: vec![],
            residency: vec![],
            node_joules: vec![joules],
            barrier_wait_s: 0.0,
            trace: vec![],
        }
    }

    fn gap_grid(cell: CellResult) -> GridResult {
        GridResult {
            grid: "scenario:test".into(),
            scale: 0.05,
            machine: "test".into(),
            cells: vec![cell],
        }
    }

    #[test]
    fn governor_gap_accepts_same_scenario_different_governor() {
        use simproc::freq::Freq;
        let a = gap_grid(gap_cell("Default", Setup::Default, 10.0, 1000.0));
        let b = gap_grid(gap_cell(
            "Pinned",
            Setup::Pinned(Freq(14), Freq(24)),
            11.0,
            900.0,
        ));
        assert!(!diff_governor_gap(&a, &b), "gap mode must accept this pair");
    }

    #[test]
    fn governor_gap_rejects_different_scenarios() {
        let a = gap_grid(gap_cell("Default", Setup::Default, 10.0, 1000.0));
        let mut other = gap_cell("Default", Setup::Default, 10.0, 1000.0);
        other.spec.bench = "UTS".into();
        assert!(diff_governor_gap(&a, &gap_grid(other)), "different bench");
        let mut reps = gap_cell("Default", Setup::Default, 10.0, 1000.0);
        reps.spec.rep = 1;
        assert!(diff_governor_gap(&a, &gap_grid(reps)), "different rep");
        let empty = GridResult {
            grid: "scenario:test".into(),
            scale: 0.05,
            machine: "test".into(),
            cells: vec![],
        };
        assert!(diff_governor_gap(&empty, &empty), "empty cell lists");
    }

    #[test]
    fn meta_section_is_ignored() {
        let g = vec![grid("fig10", 12.0, 100.0, 1000.0, None)];
        let a = aggregate(g.clone());
        let mut with_meta = aggregate(g);
        if let Json::Obj(fields) = &mut with_meta {
            fields.push((
                "meta".into(),
                Json::Obj(vec![("timing".into(), Json::Arr(vec![]))]),
            ));
        }
        assert!(!diff(
            &a,
            &with_meta,
            &Tolerance {
                exact: true,
                ..tol()
            }
        ));
    }
}
