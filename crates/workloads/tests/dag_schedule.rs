//! Golden chunk hand-out tapes for both DAG schedulers on a small
//! irregular spawn-tree DAG (paper Figure 1, left).
//!
//! The tapes pin the exact order in which tasks reach cores, so any
//! change to the DAG representation or to the schedulers' completion
//! paths that reorders successors, ready queues or victim draws shows
//! up here as a diff — long before it shows up as a drifted artifact.

use simproc::engine::{Chunk, Workload};
use tasking::steal::{CentralQueueScheduler, StealStats};
use tasking::{TaskDag, WorkStealingScheduler};
use workloads::dag::{iterative_tree_dag, spawn_node_chunk, TreeShape};

const N_CORES: usize = 4;
const LEAF_BASE: u64 = 1_000_000;

/// Three timesteps of ten leaves each; leaf `i` carries
/// `LEAF_BASE + i` instructions so every hand-out names its task.
fn small_irregular_dag() -> TaskDag {
    let mut next_leaf = 0u64;
    iterative_tree_dag(3, TreeShape::Irregular, 0x5eed, |_, b| {
        (0..10)
            .map(|_| {
                next_leaf += 1;
                b.add_task(Chunk::new(LEAF_BASE + next_leaf - 1, 100, 0))
            })
            .collect()
    })
}

/// Pull from cores in a fixed pseudo-random order (each pull completes
/// the core's previous chunk) until the workload drains; returns the
/// tape of `core:task` hand-outs (`S` = spawn node, `L<i>` = leaf `i`)
/// and the number of pulls it took.
fn tape(wl: &mut dyn Workload) -> (String, usize) {
    let spawn = spawn_node_chunk().instructions;
    let mut x = 0x9e37_79b9_u32;
    let mut out = Vec::new();
    let mut pulls = 0;
    while !wl.is_done() {
        assert!(pulls < 10_000, "schedule did not drain");
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let core = (x % N_CORES as u32) as usize;
        pulls += 1;
        if let Some(c) = wl.next_chunk(core, 0) {
            let task = if c.instructions == spawn {
                "S".to_string()
            } else {
                format!("L{}", c.instructions - LEAF_BASE)
            };
            out.push(format!("{core}:{task}"));
        }
    }
    (out.join(" "), pulls)
}

#[test]
fn central_queue_golden_hand_out() {
    let mut s = CentralQueueScheduler::new(small_irregular_dag(), N_CORES);
    let (tape, pulls) = tape(&mut s);
    assert_eq!(tape, "1:S 1:S 3:S 3:S 0:L4 3:L5 1:L6 0:L7 2:L8 0:L9 3:S 0:S 0:S 3:L2 2:L0 2:L1 0:L3 0:S 0:S 2:S 2:S 3:L15 1:L16 3:L17 2:L18 2:L19 0:S 2:S 1:S 1:L14 2:L12 3:L13 0:L10 2:L11 2:S 2:S 0:S 0:S 3:L26 0:L27 1:L28 3:L29 2:S 1:S 1:S 3:S 3:S 0:L22 0:L24 2:L20 0:L21 3:L25 1:L23");
    assert_eq!(pulls, 101);
}

#[test]
fn work_stealing_golden_hand_out() {
    let mut s = WorkStealingScheduler::new(small_irregular_dag(), N_CORES, 0xC0FFEE);
    let (tape, pulls) = tape(&mut s);
    assert_eq!(tape, "1:S 1:S 3:S 3:S 0:S 3:L3 1:L9 0:L6 2:S 0:L5 3:S 0:L4 0:L7 3:L2 2:L1 2:L0 1:L8 1:S 1:S 0:S 2:S 2:L17 3:L15 1:L19 3:L16 2:L18 0:S 2:S 1:S 1:L13 2:L11 3:L12 0:L14 2:L10 2:S 2:S 0:S 0:S 3:S 0:L25 1:S 3:L21 3:L20 3:S 0:S 3:L22 3:S 2:L29 1:L27 1:L26 3:L23 3:L28 0:L24");
    assert_eq!(pulls, 91);
    assert_eq!(
        s.stats(),
        StealStats {
            local_pops: 34,
            steals: 19,
            failed_sweeps: 38
        }
    );
}
