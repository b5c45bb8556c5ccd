//! Criterion microbenchmarks: the runtime costs that matter for a
//! tuning daemon that wakes every 20 ms and must not perturb the
//! application it tunes.
//!
//! * `daemon_tick` — one Algorithm 1 wake-up (the paper's overhead
//!   claim rests on this being microseconds);
//! * `exploration_advance` — one Algorithm 2 step;
//! * `tipi_list` — node insertion with neighbour inheritance and
//!   §4.5 propagation at AMG-like list sizes;
//! * `engine_quantum_20core` — one 20-core simulator quantum (the
//!   reproduction's experiment throughput); `_mixed` runs the same
//!   quantum in a regime where chunks finish mid-quantum, one core is
//!   duty-cycled and one is never fed (the kernel's general path);
//! * `scheduler_pull` — work-stealing chunk acquisition;
//! * `dag_build_heat_irt_full` / `central_queue_drain_heat_irt` —
//!   generating and building the full-scale Heat-irt task DAG (~500k
//!   tasks), and supplying every one of its chunks through the OpenMP
//!   central queue: the task layer's build and supply cost per cell;
//! * `grid_cell` — one end-to-end scenario-grid cell at tiny scale
//!   (what each `--shards` worker executes per steal; the setup path
//!   is shared with every figure/table bin);
//! * `serve_submit_hit` — a warm submission's full round trip against
//!   a live `cuttlefish-serve` daemon (vs `grid_cell_warm`'s raw
//!   store load: the difference is the protocol tax);
//! * `bsp_superstep_{lockstep,event}` — one imbalanced 4-node
//!   superstep under the cycle-box reference vs the event heap.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use cuttlefish::daemon::Daemon;
use cuttlefish::explore::Exploration;
use cuttlefish::list::TipiList;
use cuttlefish::{Config, TipiSlab};
use simproc::engine::{Chunk, SimProcessor, Workload};
use simproc::freq::{Freq, FreqDomain, HASWELL_2650V3};
use simproc::perf::CostProfile;
use simproc::profile::Sample;
use std::hint::black_box;

fn sample(tipi: f64, jpi: f64) -> Sample {
    Sample {
        tipi,
        jpi,
        instructions: 1_000_000,
        joules: jpi * 1e6,
        dt_ns: 20_000_000,
    }
}

fn bench_daemon_tick(c: &mut Criterion) {
    let core = FreqDomain::new(Freq(12), Freq(23));
    let uncore = FreqDomain::new(Freq(12), Freq(30));
    c.bench_function("daemon_tick_steady", |b| {
        let mut d = Daemon::new(Config::default(), core.clone(), uncore.clone());
        // Warm the daemon into the Done state for one slab.
        for _ in 0..4000 {
            d.tick(sample(0.065, 4.0));
        }
        b.iter(|| black_box(d.tick(sample(0.065, 4.0))));
    });
    c.bench_function("daemon_tick_exploring", |b| {
        b.iter_batched(
            || Daemon::new(Config::default(), core.clone(), uncore.clone()),
            |mut d| {
                for i in 0..64 {
                    black_box(d.tick(sample(0.065, 4.0 + (i % 7) as f64 * 0.01)));
                }
                d
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_exploration(c: &mut Criterion) {
    c.bench_function("exploration_advance", |b| {
        b.iter_batched(
            || Exploration::new(0, 11, 12, 10),
            |mut e| {
                for _ in 0..100 {
                    let adv = e.advance();
                    if e.opt().is_some() {
                        break;
                    }
                    e.record(adv.next, 5.0 + adv.next as f64 * 0.1);
                }
                e
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_tipi_list(c: &mut Criterion) {
    c.bench_function("tipi_list_insert_60_ranges", |b| {
        b.iter(|| {
            let mut list = TipiList::new();
            // AMG-like: 60 distinct ranges arriving in scattered order.
            for i in 0..60u32 {
                let slab = TipiSlab((i * 37) % 83);
                if list.get(slab).is_none() {
                    list.insert(slab, 12, 10);
                    list.propagate_cf(slab, true, true);
                }
            }
            black_box(list.len())
        });
    });
}

fn bench_engine(c: &mut Criterion) {
    struct Steady(Chunk);
    impl Workload for Steady {
        fn next_chunk(&mut self, _c: usize, _t: u64) -> Option<Chunk> {
            Some(self.0.clone())
        }
        fn is_done(&self) -> bool {
            false
        }
    }
    c.bench_function("engine_quantum_20core", |b| {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        let mut wl =
            Steady(Chunk::new(1_000_000, 56_000, 8_000).with_profile(CostProfile::new(0.55, 12.0)));
        b.iter(|| {
            p.step(&mut wl);
            black_box(p.now_ns())
        });
    });

    /// The engine's general path: UF 1.2 GHz (bandwidth overload), one
    /// core at DDCM duty 4/16, one core never fed, and a seeded mix of
    /// short chunks that finish mid-quantum, long ones that carry over,
    /// zero-miss chunks, and empty pulls.
    struct Mixed(u64);
    impl Workload for Mixed {
        fn next_chunk(&mut self, core: usize, _t: u64) -> Option<Chunk> {
            if core == 19 {
                return None;
            }
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = self.0 >> 16;
            let streaming = CostProfile::new(0.55, 12.0);
            let size = (r >> 3) % 1000;
            match r % 8 {
                0 => None,
                1 | 2 => {
                    let instr = 20_000 + size * 180;
                    Some(Chunk::new(instr, instr / 18, instr / 120).with_profile(streaming))
                }
                3 => Some(Chunk::new(50_000 + size * 450, 0, 0)),
                4 => Some(Chunk::new(5_000_000 + size * 35_000, 0, 0)),
                _ => {
                    let instr = 2_000_000 + size * 18_000;
                    Some(Chunk::new(instr, instr / 18, instr / 125).with_profile(streaming))
                }
            }
        }
        fn is_done(&self) -> bool {
            false
        }
    }
    c.bench_function("engine_quantum_20core_mixed", |b| {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        p.set_core_freq(Freq(19));
        p.set_uncore_freq(Freq(12));
        p.msr_write_core(
            3,
            simproc::msr::IA32_CLOCK_MODULATION,
            simproc::msr::MsrFile::encode_clock_modulation(4),
        )
        .unwrap();
        let mut wl = Mixed(0x5EED);
        b.iter(|| {
            p.step(&mut wl);
            black_box(p.now_ns())
        });
    });
}

fn bench_scheduler(c: &mut Criterion) {
    use tasking::{TaskDag, WorkStealingScheduler};
    fn wide_dag(n: usize) -> TaskDag {
        let mut b = TaskDag::builder();
        for _ in 0..n {
            b.add_task(Chunk::new(100_000, 1000, 0));
        }
        b.build()
    }
    c.bench_function("worksteal_pull_10k_tasks", |b| {
        b.iter_batched(
            || WorkStealingScheduler::new(wide_dag(10_000), 20, 7),
            |mut s| {
                let mut handed = 0u64;
                for core in (0..20).cycle() {
                    if s.next_chunk(core, 0).is_none() {
                        if s.is_done() {
                            break;
                        }
                    } else {
                        handed += 1;
                    }
                }
                black_box(handed)
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_task_dag(c: &mut Criterion) {
    use tasking::steal::CentralQueueScheduler;
    use workloads::{heat, BuiltWorkload, Scale, Style};
    fn heat_irt_full() -> tasking::TaskDag {
        match heat::build(Style::IrregularTasks, Scale(1.0), 20) {
            BuiltWorkload::Dag(dag) => dag,
            BuiltWorkload::Regions(_) => unreachable!("Heat-irt is task-parallel"),
        }
    }
    c.bench_function("dag_build_heat_irt_full", |b| {
        b.iter(|| black_box(heat_irt_full().len()));
    });
    c.bench_function("central_queue_drain_heat_irt", |b| {
        b.iter_batched(
            || CentralQueueScheduler::new(heat_irt_full(), 20),
            |mut s| {
                let mut handed = 0u64;
                for core in (0..20).cycle() {
                    if s.next_chunk(core, 0).is_none() {
                        if s.is_done() {
                            break;
                        }
                    } else {
                        handed += 1;
                    }
                }
                black_box(handed)
            },
            BatchSize::LargeInput,
        );
    });
}

fn bench_grid_cell(c: &mut Criterion) {
    use bench::grid::{run_cell, CellSpec};
    use bench::Setup;
    use workloads::ProgModel;

    let scale = 0.01;
    let cell = CellSpec {
        bench: "UTS".into(),
        model: ProgModel::OpenMp,
        label: "Default".into(),
        setup: Setup::Default,
        config: Config::default(),
        nodes: 1,
        rep: 0,
        trace: false,
        machines: None,
        bsp: None,
        oracle: None,
        stepping: cluster::SteppingMode::default(),
    };
    c.bench_function("grid_cell_uts_tiny", |b| {
        b.iter(|| black_box(run_cell(&HASWELL_2650V3, scale, &cell)))
    });

    // The same cell through the result store's two paths: a miss
    // (simulate + commit) vs a hit (key + load + verify). The gap is
    // what the warm CI stage banks per cached cell.
    use bench::grid::run_cell_timed;
    use bench::store::Store;
    let root = std::env::temp_dir().join(format!("cuttlefish-micro-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Store::with_code_version(root, "micro-bench");
    let key = store.key(&cell.store_identity(&HASWELL_2650V3, scale));
    c.bench_function("grid_cell_cold", |b| {
        b.iter(|| {
            let (result, timing) = run_cell_timed(&HASWELL_2650V3, scale, &cell);
            store.commit(&key, &result, &timing).expect("commit");
            black_box(result)
        })
    });
    c.bench_function("grid_cell_warm", |b| {
        b.iter(|| {
            let key = store.key(&cell.store_identity(&HASWELL_2650V3, scale));
            black_box(store.load(&key).expect("warm bench must hit"))
        })
    });

    // The same warm cell through the serving path: one full
    // submit + result round trip against a live in-process daemon
    // (connect, coalesced key lookup, artifact transfer). The gap to
    // `grid_cell_warm` is the protocol tax a memoized submission pays
    // over a raw store load.
    let serve_root =
        std::env::temp_dir().join(format!("cuttlefish-micro-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&serve_root);
    let serve_store = Store::with_code_version(serve_root, "micro-bench");
    {
        let key = serve_store.key(&cell.store_identity(&HASWELL_2650V3, scale));
        let (result, timing) = run_cell_timed(&HASWELL_2650V3, scale, &cell);
        serve_store.commit(&key, &result, &timing).expect("commit");
    }
    let server = serve::Server::bind("127.0.0.1:0", serve_store, 1).expect("bind");
    let client = serve::Client::new(server.local_addr().to_string());
    let daemon = std::thread::spawn(move || server.run().expect("server runs"));
    let submission = || {
        serve::Submission::Cell(Box::new(serve::protocol::CellSubmission {
            machine: HASWELL_2650V3.clone(),
            scale,
            cell: cell.clone(),
        }))
    };
    c.bench_function("serve_submit_hit", |b| {
        b.iter(|| {
            black_box(
                client
                    .submit_and_fetch(submission())
                    .expect("warm round trip"),
            )
        })
    });
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon exits cleanly");
}

fn bench_bsp_superstep(c: &mut Criterion) {
    use cluster::{BspApp, Cluster, CommModel, NodePolicy, SteppingMode};

    // One 4-node superstep under both driving planes: the lockstep
    // "cycle-box" reference vs the event heap. Same numbers by the
    // equivalence suites; this pair tracks the wall-clock gap the
    // discrete-event scheduler buys on barrier-heavy fleets.
    let chunks = || {
        (0..12)
            .map(|_| {
                Chunk::new(3_000_000, 139_000, 59_000).with_profile(CostProfile::new(0.55, 12.0))
            })
            .collect::<Vec<_>>()
    };
    let app = BspApp::imbalanced(4, 1, 0, 3, chunks);
    for (name, mode) in [
        ("bsp_superstep_lockstep", SteppingMode::Lockstep),
        ("bsp_superstep_event", SteppingMode::EventDriven),
    ] {
        let app = app.clone();
        c.bench_function(name, move |b| {
            b.iter_batched(
                || {
                    let mut cl = Cluster::new(4, NodePolicy::Default, CommModel::default());
                    cl.set_stepping(mode);
                    cl
                },
                |mut cl| black_box(cl.run_program(&mut &app)),
                BatchSize::SmallInput,
            );
        });
    }
}

fn bench_advance_idle(c: &mut Criterion) {
    struct Never;
    impl Workload for Never {
        fn next_chunk(&mut self, _: usize, _: u64) -> Option<Chunk> {
            None
        }
        fn is_done(&self) -> bool {
            true
        }
        fn next_wake_ns(&self, _: u64) -> Option<u64> {
            None
        }
    }
    // The cluster-barrier hot path before and after the virtual-clock
    // layer: 1000 idle quanta stepped one by one vs one analytic
    // advance (numerically identical by construction).
    c.bench_function("idle_1k_quanta_stepped", |b| {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        b.iter(|| {
            for _ in 0..1000 {
                p.step(&mut Never);
            }
            black_box(p.now_ns())
        });
    });
    c.bench_function("idle_1k_quanta_advanced", |b| {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        b.iter(|| {
            p.advance_idle_quanta(1000);
            black_box(p.now_ns())
        });
    });
}

fn bench_advance_busy(c: &mut Criterion) {
    struct Steady(Chunk);
    impl Workload for Steady {
        fn next_chunk(&mut self, _c: usize, _t: u64) -> Option<Chunk> {
            Some(self.0.clone())
        }
        fn is_done(&self) -> bool {
            false
        }
    }
    let chunk =
        || Steady(Chunk::new(1_000_000, 56_000, 8_000).with_profile(CostProfile::new(0.55, 12.0)));
    // The busy steady-state hot path before and after the busy
    // fast-forward: 1000 saturated quanta stepped one by one vs one
    // `advance_busy_quanta` call (bit-identical by construction — the
    // advance replays the same per-quantum arithmetic, so the win is
    // scheduling/bookkeeping, not skipped work; expect a smaller ratio
    // than the idle pair's).
    c.bench_function("busy_1k_quanta_stepped", |b| {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        let mut wl = chunk();
        b.iter(|| {
            for _ in 0..1000 {
                p.step(&mut wl);
            }
            black_box(p.now_ns())
        });
    });
    c.bench_function("busy_1k_quanta_advanced", |b| {
        let mut p = SimProcessor::new(HASWELL_2650V3.clone());
        let mut wl = chunk();
        // Enter the saturated steady state once so the advance starts
        // from the same machine regime the stepped loop settles into.
        p.step(&mut wl);
        b.iter(|| {
            black_box(p.advance_busy_quanta(&mut wl, 1000));
            black_box(p.now_ns())
        });
    });
}

/// Fuzz-campaign throughput: scenario generation alone, and one full
/// differential case (pin sweep + all six governors + rotating
/// stepping/replay twins) — the per-case cost that sizes how many
/// cases a CI budget buys.
fn bench_fuzz(c: &mut Criterion) {
    use bench::fuzz::{all_governors, generate, run_case, Tolerances};

    c.bench_function("fuzz_case_generate", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(generate(bench::HARNESS_SEED, i % 1024))
        });
    });

    c.bench_function("fuzz_case_differential", |b| {
        // A fixed bounded single-node synthetic case, so the number
        // tracks executor overhead rather than generator luck.
        let scenario = generate(bench::HARNESS_SEED, 0);
        let governors = all_governors();
        let tol = Tolerances::default();
        b.iter(|| black_box(run_case(0, &scenario, &governors, &tol)));
    });
}

criterion_group!(
    benches,
    bench_daemon_tick,
    bench_exploration,
    bench_tipi_list,
    bench_engine,
    bench_scheduler,
    bench_task_dag,
    bench_grid_cell,
    bench_bsp_superstep,
    bench_advance_idle,
    bench_advance_busy,
    bench_fuzz
);
criterion_main!(benches);
