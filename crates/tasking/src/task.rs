//! Task DAG representation.
//!
//! A [`TaskDag`] is a static directed acyclic graph whose nodes carry
//! [`Chunk`]s (instruction/miss cost descriptors) and whose edges are
//! happens-before dependencies. Workload generators build DAGs through
//! [`DagBuilder`]; schedulers consume them.
//!
//! The paper's Figure 1 derives two DAG shapes from the same loop nest
//! (after Chen et al. [ICS'14]): a *regular* DAG whose interior nodes
//! have uniform degree, and an *irregular* one with mixed degrees. Both
//! are just shapes of this one type.
//!
//! # Layout
//!
//! Full-scale Heat and SOR DAGs hold 350k–510k tasks, so the edge list
//! is stored flat, in compressed sparse row (CSR) form, rather than as
//! one `Vec` per task:
//!
//! * `offsets` — `n + 1` `u32`s; task `i`'s successors are
//!   `targets[offsets[i]..offsets[i + 1]]`;
//! * `targets` — one `u32` per edge, grouped by source task, each
//!   group in `add_dep` call order.
//!
//! A task therefore costs its [`Chunk`], 4 bytes of offset, 4 bytes of
//! in-degree and 4 bytes per outgoing edge, with no heap allocation of
//! its own; the whole DAG is four allocations however many tasks it
//! has. [`DagBuilder`] logs `(before, after)` edges in call order and
//! counting-sorts them into this layout in [`DagBuilder::build`].

use simproc::engine::Chunk;

/// Index of a task within its DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

/// An immutable task DAG ready for scheduling.
#[derive(Debug, Clone)]
pub struct TaskDag {
    chunks: Vec<Chunk>,
    /// CSR row starts: task `i`'s successors are
    /// `targets[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    indeg: Vec<u32>,
}

impl TaskDag {
    /// Start building a DAG.
    pub fn builder() -> DagBuilder {
        DagBuilder::default()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The cost chunk of a task.
    pub fn chunk(&self, id: TaskId) -> &Chunk {
        &self.chunks[id.0 as usize]
    }

    /// Successor task ids of `id`.
    pub fn successors(&self, id: TaskId) -> &[u32] {
        let i = id.0 as usize;
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// In-degree of each task (cloned; schedulers mutate their copy).
    pub fn indegrees(&self) -> Vec<u32> {
        self.indeg.clone()
    }

    /// Ids of tasks with no predecessors.
    pub fn roots(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| TaskId(i as u32))
    }

    /// Total instructions across all tasks.
    pub fn total_instructions(&self) -> u64 {
        self.chunks.iter().map(|c| c.instructions).sum()
    }

    /// Aggregate TIPI of the whole DAG.
    pub fn aggregate_tipi(&self) -> f64 {
        let instr: u64 = self.total_instructions();
        if instr == 0 {
            return 0.0;
        }
        let misses: u64 = self
            .chunks
            .iter()
            .map(|c| c.misses_local + c.misses_remote)
            .sum();
        misses as f64 / instr as f64
    }
}

/// Incremental DAG constructor.
#[derive(Debug, Default)]
pub struct DagBuilder {
    chunks: Vec<Chunk>,
    /// `(before, after)` edges in `add_dep` call order.
    edges: Vec<(u32, u32)>,
    indeg: Vec<u32>,
}

impl DagBuilder {
    /// Add a task carrying `chunk`; returns its id.
    pub fn add_task(&mut self, chunk: Chunk) -> TaskId {
        let id = TaskId(self.chunks.len() as u32);
        self.chunks.push(chunk);
        self.indeg.push(0);
        id
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether no tasks have been added.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Declare that `before` must complete before `after` starts.
    ///
    /// # Panics
    /// Panics if either id is unknown or `before == after`.
    pub fn add_dep(&mut self, before: TaskId, after: TaskId) {
        assert!(before != after, "a task cannot depend on itself");
        assert!(
            (before.0 as usize) < self.chunks.len(),
            "unknown task {before:?}"
        );
        assert!(
            (after.0 as usize) < self.chunks.len(),
            "unknown task {after:?}"
        );
        self.edges.push((before.0, after.0));
        self.indeg[after.0 as usize] += 1;
    }

    /// Convenience barrier: every task in `before` precedes every task
    /// in `after`. For wide barriers this inserts a zero-cost join node
    /// to keep the edge count linear.
    pub fn barrier(&mut self, before: &[TaskId], after: &[TaskId]) {
        if before.is_empty() || after.is_empty() {
            return;
        }
        if before.len() * after.len() <= 64 {
            for &b in before {
                for &a in after {
                    self.add_dep(b, a);
                }
            }
        } else {
            let join = self.add_task(Chunk::new(0, 0, 0));
            for &b in before {
                self.add_dep(b, join);
            }
            for &a in after {
                self.add_dep(join, a);
            }
        }
    }

    /// Finish construction, verifying acyclicity.
    ///
    /// # Panics
    /// Panics if the dependency graph contains a cycle.
    pub fn build(self) -> TaskDag {
        // Counting sort into CSR: count out-degrees, prefix-sum them
        // into row ends, then place the edges back to front,
        // decrementing each source's cursor — which leaves every row
        // holding its edges in call order and every offset at its
        // row's start.
        assert!(
            u32::try_from(self.edges.len()).is_ok(),
            "task DAG has more than u32::MAX edges"
        );
        let mut offsets = vec![0u32; self.chunks.len() + 1];
        for &(before, _) in &self.edges {
            offsets[before as usize] += 1;
        }
        let mut end = 0u32;
        for o in &mut offsets {
            end += *o;
            *o = end;
        }
        let mut targets = vec![0u32; self.edges.len()];
        for &(before, after) in self.edges.iter().rev() {
            let at = &mut offsets[before as usize];
            *at -= 1;
            targets[*at as usize] = after;
        }
        let dag = TaskDag {
            chunks: self.chunks,
            offsets,
            targets,
            indeg: self.indeg,
        };
        // Kahn's algorithm: all tasks must be reachable at in-degree 0.
        let mut indeg = dag.indegrees();
        let mut queue: Vec<u32> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i as u32)
            .collect();
        let mut seen = 0usize;
        while let Some(t) = queue.pop() {
            seen += 1;
            for &s in dag.successors(TaskId(t)) {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        assert_eq!(seen, dag.len(), "task DAG contains a cycle");
        dag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: u64) -> Chunk {
        Chunk::new(n, n / 100, 0)
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = TaskDag::builder();
        let a = b.add_task(c(1000));
        let x = b.add_task(c(2000));
        let y = b.add_task(c(3000));
        b.add_dep(a, x);
        b.add_dep(a, y);
        let dag = b.build();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.roots().collect::<Vec<_>>(), vec![a]);
        assert_eq!(dag.successors(a), &[x.0, y.0]);
        assert_eq!(dag.total_instructions(), 6000);
    }

    #[test]
    fn successors_keep_add_dep_order() {
        // Edges added in an interleaved, non-sorted order across
        // sources, plus a wide barrier that inserts a join node: each
        // task's successors must be exactly its `add_dep` targets in
        // call order.
        let mut b = TaskDag::builder();
        let ids: Vec<TaskId> = (0..8).map(|_| b.add_task(c(10))).collect();
        let mut expected: Vec<Vec<u32>> = vec![Vec::new(); 8];
        let edges = [
            (3, 7),
            (0, 5),
            (3, 4),
            (0, 2),
            (1, 7),
            (3, 5),
            (0, 1),
            (2, 6),
        ];
        for (x, y) in edges {
            b.add_dep(ids[x], ids[y]);
            expected[x].push(ids[y].0);
        }
        let before: Vec<TaskId> = (0..9).map(|_| b.add_task(c(10))).collect();
        let after: Vec<TaskId> = (0..9).map(|_| b.add_task(c(10))).collect();
        expected.extend((0..18).map(|_| Vec::new()));
        b.barrier(&before, &after);
        let join = TaskId(26);
        for t in &before {
            expected[t.0 as usize].push(join.0);
        }
        expected.push(after.iter().map(|t| t.0).collect());
        b.add_dep(ids[7], before[4]);
        expected[7].push(before[4].0);
        let dag = b.build();
        assert_eq!(dag.len(), expected.len());
        assert_eq!(*dag.chunk(join), Chunk::new(0, 0, 0));
        for (i, succ) in expected.iter().enumerate() {
            assert_eq!(dag.successors(TaskId(i as u32)), &succ[..], "task {i}");
        }
    }

    #[test]
    fn aggregate_tipi() {
        let mut b = TaskDag::builder();
        b.add_task(Chunk::new(1000, 50, 14));
        b.add_task(Chunk::new(1000, 0, 0));
        let dag = b.build();
        assert!((dag.aggregate_tipi() - 64.0 / 2000.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detected() {
        let mut b = TaskDag::builder();
        let a = b.add_task(c(1));
        let x = b.add_task(c(1));
        b.add_dep(a, x);
        b.add_dep(x, a);
        b.build();
    }

    #[test]
    #[should_panic(expected = "depend on itself")]
    fn self_dep_rejected() {
        let mut b = TaskDag::builder();
        let a = b.add_task(c(1));
        b.add_dep(a, a);
    }

    #[test]
    fn wide_barrier_uses_join_node() {
        let mut b = TaskDag::builder();
        let before: Vec<TaskId> = (0..20).map(|_| b.add_task(c(1))).collect();
        let after: Vec<TaskId> = (0..20).map(|_| b.add_task(c(1))).collect();
        b.barrier(&before, &after);
        let dag = b.build();
        // 40 real tasks + 1 join node.
        assert_eq!(dag.len(), 41);
        let join = TaskId(40);
        assert_eq!(dag.successors(before[0]), &[join.0]);
    }

    #[test]
    fn narrow_barrier_uses_direct_edges() {
        let mut b = TaskDag::builder();
        let x = b.add_task(c(1));
        let y = b.add_task(c(1));
        b.barrier(&[x], &[y]);
        let dag = b.build();
        assert_eq!(dag.len(), 2);
        assert_eq!(dag.successors(x), &[y.0]);
    }

    #[test]
    fn empty_barrier_is_noop() {
        let mut b = TaskDag::builder();
        let x = b.add_task(c(1));
        b.barrier(&[], &[x]);
        b.barrier(&[x], &[]);
        let dag = b.build();
        assert_eq!(dag.roots().count(), 1);
    }
}
