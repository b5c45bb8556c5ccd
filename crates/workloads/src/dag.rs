//! Regular and irregular execution-DAG construction (paper Figure 1).
//!
//! The paper converts the loop-level parallelism of Heat and SOR into
//! task parallelism after Chen et al. [ICS'14]: a spawn tree whose
//! leaves are the loop blocks. The *regular* variant uses a uniform
//! interior degree; the *irregular* variant mixes degrees three and
//! five (the grey/black nodes of Figure 1), producing an unbalanced
//! spawn structure that exercises dynamic load balancing.
//!
//! Interior nodes are real (small) tasks — the spawning code itself —
//! so a parent is scheduled before any of its children, exactly like an
//! OpenMP `task` or HClib `async` that spawns further tasks.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simproc::engine::Chunk;
use simproc::perf::CostProfile;
use tasking::{DagBuilder, TaskId};

/// Cost of an interior spawn node: a few tens of microseconds of
/// runtime bookkeeping, negligible misses.
pub fn spawn_node_chunk() -> Chunk {
    Chunk::new(40_000, 30, 10).with_profile(CostProfile::new(1.2, 2.0))
}

/// Degree sequence policy for the spawn tree.
#[derive(Debug, Clone, Copy)]
pub enum TreeShape {
    /// Uniform interior degree (regular DAG, Fig. 1 right).
    Regular(usize),
    /// Random degrees in {3, 5} (irregular DAG, Fig. 1 left).
    Irregular,
}

/// Build a spawn tree over `leaves` (already added to `b`), returning
/// the root task. Parents precede children; leaves hang off the last
/// interior level.
pub fn spawn_tree(
    b: &mut DagBuilder,
    leaves: &[TaskId],
    shape: TreeShape,
    rng: &mut SmallRng,
) -> TaskId {
    assert!(!leaves.is_empty(), "spawn tree needs at least one leaf");
    build_subtree(b, leaves, shape, rng)
}

fn pick_degree(shape: TreeShape, rng: &mut SmallRng) -> usize {
    match shape {
        TreeShape::Regular(d) => d.max(2),
        TreeShape::Irregular => {
            if rng.gen_bool(0.5) {
                3
            } else {
                5
            }
        }
    }
}

fn build_subtree(
    b: &mut DagBuilder,
    leaves: &[TaskId],
    shape: TreeShape,
    rng: &mut SmallRng,
) -> TaskId {
    let node = b.add_task(spawn_node_chunk());
    let d = pick_degree(shape, rng);
    if leaves.len() <= d {
        for &leaf in leaves {
            b.add_dep(node, leaf);
        }
        return node;
    }
    // Split the leaf span into `d` parts. The irregular shape skews the
    // split (first child gets a larger share) so subtree sizes — and
    // hence task availability over time — are uneven.
    let n = leaves.len();
    match shape {
        TreeShape::Regular(_) => {
            spawn_children(b, node, leaves, even_split(n, d), shape, rng);
        }
        TreeShape::Irregular => {
            spawn_children(b, node, leaves, skewed_split(n, d, rng), shape, rng);
        }
    }
    node
}

/// Build one subtree per non-empty part of `leaves` (consecutive spans
/// of the given sizes) and make each a child of `node`.
fn spawn_children(
    b: &mut DagBuilder,
    node: TaskId,
    leaves: &[TaskId],
    parts: impl Iterator<Item = usize>,
    shape: TreeShape,
    rng: &mut SmallRng,
) {
    let mut at = 0usize;
    for part in parts {
        if part == 0 {
            continue;
        }
        let child = build_subtree(b, &leaves[at..at + part], shape, rng);
        b.add_dep(node, child);
        at += part;
    }
}

fn even_split(n: usize, d: usize) -> impl Iterator<Item = usize> {
    let base = n / d;
    let extra = n % d;
    (0..d).map(move |i| base + usize::from(i < extra))
}

fn skewed_split(n: usize, d: usize, rng: &mut SmallRng) -> impl Iterator<Item = usize> {
    // First part takes 35-65% of the span, the rest split evenly. The
    // draw happens here, before any child subtree draws its own.
    let first = ((n as f64) * rng.gen_range(0.35..0.65)).round() as usize;
    let first = first.clamp(1, n.saturating_sub(d - 1).max(1));
    std::iter::once(first).chain(even_split(n - first, d - 1))
}

/// Build a complete iterative task workload: `iters` repetitions of a
/// leaf set produced by `make_leaves`, each iteration spawned from a
/// tree of the given shape, with a barrier between iterations (the
/// `finish` around each timestep).
pub fn iterative_tree_dag(
    iters: usize,
    shape: TreeShape,
    seed: u64,
    mut make_leaves: impl FnMut(usize, &mut DagBuilder) -> Vec<TaskId>,
) -> tasking::TaskDag {
    let mut b = DagBuilder::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut prev_leaves: Vec<TaskId> = Vec::new();
    for iter in 0..iters {
        let leaves = make_leaves(iter, &mut b);
        let root = spawn_tree(&mut b, &leaves, shape, &mut rng);
        b.barrier(&prev_leaves, &[root]);
        prev_leaves = leaves;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(b: &mut DagBuilder, n: usize) -> Vec<TaskId> {
        (0..n)
            .map(|_| b.add_task(Chunk::new(1_000_000, 1000, 0)))
            .collect()
    }

    fn interior_degrees(dag: &tasking::TaskDag, n_leaves: usize) -> Vec<usize> {
        // Interior nodes are those added after the leaves.
        (n_leaves..dag.len())
            .map(|i| dag.successors(TaskId(i as u32)).len())
            .filter(|&d| d > 0)
            .collect()
    }

    #[test]
    fn regular_tree_has_uniform_degree() {
        let mut b = DagBuilder::default();
        let ls = leaves(&mut b, 81);
        let mut rng = SmallRng::seed_from_u64(1);
        spawn_tree(&mut b, &ls, TreeShape::Regular(3), &mut rng);
        let dag = b.build();
        for d in interior_degrees(&dag, 81) {
            assert!(
                d <= 3,
                "regular degree-3 tree must not exceed 3 children, got {d}"
            );
        }
        // Exactly one root.
        assert_eq!(dag.roots().count(), 1);
    }

    #[test]
    fn irregular_tree_mixes_degrees() {
        let mut b = DagBuilder::default();
        let ls = leaves(&mut b, 200);
        let mut rng = SmallRng::seed_from_u64(7);
        spawn_tree(&mut b, &ls, TreeShape::Irregular, &mut rng);
        let dag = b.build();
        let degrees = interior_degrees(&dag, 200);
        assert!(degrees.contains(&3), "expected some degree-3 nodes");
        assert!(degrees.contains(&5), "expected some degree-5 nodes");
    }

    #[test]
    fn all_leaves_reachable() {
        for shape in [TreeShape::Regular(3), TreeShape::Irregular] {
            let mut b = DagBuilder::default();
            let ls = leaves(&mut b, 57);
            let mut rng = SmallRng::seed_from_u64(3);
            spawn_tree(&mut b, &ls, shape, &mut rng);
            let dag = b.build();
            // Every leaf has in-degree exactly 1 (its spawner).
            let indeg = dag.indegrees();
            for leaf in &ls {
                assert_eq!(indeg[leaf.0 as usize], 1);
            }
        }
    }

    #[test]
    fn single_leaf_tree() {
        let mut b = DagBuilder::default();
        let ls = leaves(&mut b, 1);
        let mut rng = SmallRng::seed_from_u64(3);
        let root = spawn_tree(&mut b, &ls, TreeShape::Irregular, &mut rng);
        let dag = b.build();
        assert_eq!(dag.successors(root), &[ls[0].0]);
    }

    #[test]
    fn iterative_dag_orders_iterations() {
        let dag = iterative_tree_dag(3, TreeShape::Regular(3), 5, |_, b| {
            (0..9)
                .map(|_| b.add_task(Chunk::new(100_000, 100, 0)))
                .collect()
        });
        // One root overall: iteration 0's spawn root.
        assert_eq!(dag.roots().count(), 1);
        // Executing with the work-stealing scheduler completes everything.
        use simproc::engine::SimProcessor;
        use simproc::freq::HYPOTHETICAL7;
        let total = dag.len();
        let mut p = SimProcessor::new(HYPOTHETICAL7.clone());
        let mut s = tasking::WorkStealingScheduler::new(dag, p.n_cores(), 2);
        p.run(&mut s, |_| {});
        assert_eq!(s.completed(), total);
    }

    #[test]
    fn deterministic_construction() {
        let d1 = iterative_tree_dag(2, TreeShape::Irregular, 11, |_, b| {
            (0..20)
                .map(|_| b.add_task(Chunk::new(100_000, 100, 0)))
                .collect()
        });
        let d2 = iterative_tree_dag(2, TreeShape::Irregular, 11, |_, b| {
            (0..20)
                .map(|_| b.add_task(Chunk::new(100_000, 100, 0)))
                .collect()
        });
        assert_eq!(d1.len(), d2.len());
        for i in 0..d1.len() {
            assert_eq!(
                d1.successors(TaskId(i as u32)),
                d2.successors(TaskId(i as u32))
            );
        }
    }
}
