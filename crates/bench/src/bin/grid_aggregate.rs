//! CI tool: validate grid artifacts and emit the aggregate
//! `BENCH_smoke.json` trajectory point.
//!
//! Reads the per-bin `GridResult` JSON files the "bench smoke" CI
//! stage produced, re-parses each through the typed decoder (so a bin
//! emitting a malformed or schema-drifted artifact fails CI), and
//! writes one aggregate summary: per grid, the cell count plus the
//! headline deterministic metrics worth tracking over time (virtual
//! seconds, joules, and — where the grid carries a Default baseline
//! and a Cuttlefish setup — the geomean energy saving).
//!
//! When a `<artifact>.timing` sidecar (written by the bins'
//! `--json` path) sits next to an input, its per-bin wall-clock and
//! stepping counters are folded into a top-level `meta.timing`
//! section. `meta` is machine- and run-dependent by nature, so the
//! trajectory drift gate (`bench_diff --exact`) ignores it; only the
//! `grids` section carries gated content.
//!
//! `--require-fast-forward GRID=MIN` (repeatable) additionally gates
//! on the virtual-clock layer itself: the named grid's timing sidecar
//! must be present and report a stepped-vs-total fast-forward ratio of
//! at least MIN. CI uses this to keep the idle/busy advances engaged —
//! a regression that silently falls back to per-quantum stepping still
//! produces bit-identical artifacts, so only the counters can catch it.
//!
//! Sidecars produced by a store-backed run additionally carry a
//! `cache` section (result-store hits/misses); it is folded into a
//! top-level `meta.cache` and echoed as a per-grid cache-hit line.
//! `--require-hit-rate GRID=MIN` (repeatable, MIN a fraction in
//! `[0, 1]`) gates on it — the warm-cache CI stage demands
//! `GRID=1` from every grid of a warm re-run. Like all of `meta`,
//! cache stats never enter the drift-gated `grids` section.
//!
//! Usage: `grid_aggregate --out BENCH_smoke.json
//!         [--require-fast-forward GRID=MIN]...
//!         [--require-hit-rate GRID=MIN]... <artifact.json>...`
//!
//! This is a pipeline tool, not one of the figure/table bins; it runs
//! no simulations.

use bench::geomean_saving;
use bench::grid::GridResult;
use bench::json::Json;
use bench::saving_pct;

fn main() {
    let mut out_path = None;
    let mut inputs = Vec::new();
    let mut required_ff: Vec<(String, f64)> = Vec::new();
    let mut required_hits: Vec<(String, f64)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                }))
            }
            "--require-fast-forward" | "--require-hit-rate" => {
                let spec = args.next().unwrap_or_default();
                let parsed = spec
                    .split_once('=')
                    .and_then(|(g, m)| m.parse::<f64>().ok().map(|m| (g.to_string(), m)));
                match parsed {
                    Some(req) if arg == "--require-fast-forward" => required_ff.push(req),
                    Some(req) => required_hits.push(req),
                    None => {
                        eprintln!("error: {arg} needs GRID=MIN, got `{spec}`");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "grid_aggregate --out <aggregate.json> \
                     [--require-fast-forward GRID=MIN]... \
                     [--require-hit-rate GRID=MIN]... <artifact.json>..."
                );
                std::process::exit(0);
            }
            _ => inputs.push(arg),
        }
    }
    let out_path = out_path.unwrap_or_else(|| {
        eprintln!("error: --out is required");
        std::process::exit(2);
    });
    if inputs.is_empty() {
        eprintln!("error: no artifacts given");
        std::process::exit(2);
    }
    inputs.sort();

    let mut grids = Vec::new();
    let mut timings = Vec::new();
    let mut caches = Vec::new();
    for path in &inputs {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        });
        let result = GridResult::from_json_str(&text).unwrap_or_else(|e| {
            eprintln!("error: {path} is not a valid GridResult artifact: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "validated {path}: grid `{}`, {} cells",
            result.grid,
            result.cells.len()
        );
        grids.push(summarize(&result));
        if let Some((t, cache)) = read_timing_sidecar(path) {
            if let Some(cache) = cache {
                print_cache_line(&cache);
                caches.push(cache);
            }
            timings.push(t);
        }
    }

    let mut fields = vec![
        (
            "schema".to_string(),
            Json::Str("cuttlefish/bench-smoke/v1".into()),
        ),
        ("grids".to_string(), Json::Arr(grids)),
    ];
    if !timings.is_empty() {
        // Run-dependent metadata: excluded from the drift gate.
        let mut meta = vec![("timing".to_string(), Json::Arr(timings.clone()))];
        if !caches.is_empty() {
            meta.push(("cache".to_string(), Json::Arr(caches.clone())));
        }
        fields.push(("meta".to_string(), Json::Obj(meta)));
    }
    let aggregate = Json::Obj(fields);
    if let Err(e) = std::fs::write(&out_path, aggregate.to_pretty()) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote aggregate of {} grids to {out_path}", inputs.len());

    check_fast_forward(&required_ff, &timings);
    check_hit_rate(&required_hits, &caches);
}

/// The per-grid cache-hit line: how much of the grid the result store
/// replayed instead of recomputing.
fn print_cache_line(cache: &Json) {
    let num = |k: &str| cache.get(k).and_then(|v| v.as_f64().ok()).unwrap_or(0.0);
    let grid = cache
        .get("grid")
        .and_then(|g| g.as_str().ok())
        .unwrap_or("?");
    eprintln!(
        "cache: {grid} {}/{} hits ({:.0}%)",
        num("hits"),
        num("hits") + num("misses"),
        num("hit_rate") * 100.0
    );
}

/// Enforce `--require-hit-rate` against the folded `meta.cache`
/// entries; exits nonzero when a named grid ran without a store or
/// below its floor. The warm-cache CI stage is the caller that pins
/// every grid at 1.
fn check_hit_rate(required: &[(String, f64)], caches: &[Json]) {
    let mut failed = false;
    for (grid, min) in required {
        let rate = caches
            .iter()
            .find(|c| {
                c.get("grid")
                    .and_then(|g| g.as_str().ok())
                    .is_some_and(|g| g == grid)
            })
            .and_then(|c| c.get("hit_rate"))
            .and_then(|v| v.as_f64().ok());
        match rate {
            Some(v) if v >= *min => {
                eprintln!(
                    "hit-rate gate: {grid} {:.0}% >= {:.0}%",
                    v * 100.0,
                    min * 100.0
                );
            }
            Some(v) => {
                eprintln!(
                    "error: hit-rate gate: {grid} hit only {:.0}% of its cells \
                     (floor {:.0}%) — the result store missed where it must not",
                    v * 100.0,
                    min * 100.0
                );
                failed = true;
            }
            None => {
                eprintln!("error: hit-rate gate: no cache stats for grid `{grid}`");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Enforce `--require-fast-forward` against the folded timing entries;
/// exits nonzero on a missing sidecar or a ratio below the floor. Runs
/// after the aggregate is written so the artifact is still available
/// for inspection when the gate trips.
fn check_fast_forward(required: &[(String, f64)], timings: &[Json]) {
    let mut failed = false;
    for (grid, min) in required {
        let entry = timings.iter().find(|t| {
            t.get("grid")
                .and_then(|g| g.as_str().ok())
                .is_some_and(|g| g == grid)
        });
        let ff = entry.and_then(|t| match t.get("fast_forward") {
            Some(Json::Num(v)) => Some(*v),
            _ => None,
        });
        match ff {
            Some(v) if v >= *min => {
                eprintln!("fast-forward gate: {grid} {v:.2}x >= {min}x");
            }
            Some(v) => {
                eprintln!(
                    "error: fast-forward gate: {grid} reached only {v:.2}x \
                     (floor {min}x) — the virtual-clock advances disengaged"
                );
                failed = true;
            }
            None => {
                eprintln!("error: fast-forward gate: no timing sidecar for grid `{grid}`");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Pick up `<artifact>.timing` if the bin wrote one: re-emit the
/// per-bin wall-clock and stepping counters (and the fast-forward
/// ratio the virtual-clock engine achieved) for `meta.timing`, plus —
/// when the run went through the result store — its cache stats for
/// `meta.cache`, tagged with the grid name.
fn read_timing_sidecar(artifact_path: &str) -> Option<(Json, Option<Json>)> {
    let text = std::fs::read_to_string(format!("{artifact_path}.timing")).ok()?;
    let j = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {artifact_path}.timing is unreadable: {e}");
            std::process::exit(1);
        }
    };
    let schema = j.field("schema").and_then(Json::as_str).unwrap_or_default();
    if schema != bench::grid::TIMING_SCHEMA {
        eprintln!(
            "error: {artifact_path}.timing: unsupported timing schema `{schema}` \
             (expected `{}`)",
            bench::grid::TIMING_SCHEMA
        );
        std::process::exit(1);
    }
    let field = |k: &str| {
        j.field(k).cloned().unwrap_or_else(|e| {
            eprintln!("error: {artifact_path}.timing: {e}");
            std::process::exit(1);
        })
    };
    let cache = j.get("cache").map(|c| {
        Json::Obj(vec![
            ("grid".into(), field("grid")),
            (
                "hits".into(),
                c.get("hits").cloned().unwrap_or(Json::Num(0.0)),
            ),
            (
                "misses".into(),
                c.get("misses").cloned().unwrap_or(Json::Num(0.0)),
            ),
            (
                "hit_rate".into(),
                c.get("hit_rate").cloned().unwrap_or(Json::Num(0.0)),
            ),
        ])
    });
    Some((
        Json::Obj(vec![
            ("grid".into(), field("grid")),
            ("wall_ms".into(), field("wall_ms")),
            ("stepped_quanta".into(), field("stepped_quanta")),
            ("idle_advanced_quanta".into(), field("idle_advanced_quanta")),
            ("busy_advanced_quanta".into(), field("busy_advanced_quanta")),
            ("total_quanta".into(), field("total_quanta")),
            ("fast_forward".into(), field("fast_forward")),
        ]),
        cache,
    ))
}

/// One trajectory line per grid: deterministic paper metrics only (no
/// wall-clock — the artifact must be diffable across machines).
fn summarize(result: &GridResult) -> Json {
    let seconds: f64 = result.cells.iter().map(|c| c.seconds).sum();
    let joules: f64 = result.cells.iter().map(|c| c.joules).sum();

    // Geomean Cuttlefish-vs-Default energy saving, where both exist.
    let mut savings = Vec::new();
    for bench in result.benches() {
        if let (Some(base), Some(tuned)) = (
            result.cell(bench, "Default"),
            result.cell(bench, "Cuttlefish"),
        ) {
            savings.push(saving_pct(base.joules, tuned.joules));
        }
    }
    let saving = if savings.is_empty() {
        Json::Null
    } else {
        Json::Num(geomean_saving(&savings))
    };

    Json::Obj(vec![
        ("grid".into(), Json::Str(result.grid.clone())),
        ("scale".into(), Json::Num(result.scale)),
        ("cells".into(), Json::Num(result.cells.len() as f64)),
        ("virtual_seconds".into(), Json::Num(seconds)),
        ("joules".into(), Json::Num(joules)),
        ("geomean_energy_saving_pct".into(), saving),
    ])
}
