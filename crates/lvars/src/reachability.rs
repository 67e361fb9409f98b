//! Parallel graph reachability with a set LVar — the flagship LVars
//! example (Kuper & Newton 2013), and the LVar counterpart of the paper's
//! `reaches` (§2.3).
//!
//! Worker threads share a grow-only "seen" set; each takes nodes from a
//! work queue, puts their neighbours into the LVar, and enqueues the ones
//! that were new. Determinism of the final set follows from monotonicity;
//! we test it across thread counts and schedules.

use std::collections::BTreeSet;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::lvar::LVar;

/// A directed graph on integer nodes, as adjacency lists.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adj: Vec<(i64, Vec<i64>)>,
}

impl Graph {
    /// Builds a graph from edge pairs.
    pub fn from_edges(edges: &[(i64, i64)]) -> Self {
        let mut adj: Vec<(i64, Vec<i64>)> = Vec::new();
        for (s, t) in edges {
            match adj.iter_mut().find(|(n, _)| n == s) {
                Some((_, ts)) => ts.push(*t),
                None => adj.push((*s, vec![*t])),
            }
        }
        Graph { adj }
    }

    /// The neighbours of `n`.
    pub fn neighbours(&self, n: i64) -> &[i64] {
        self.adj
            .iter()
            .find(|(s, _)| *s == n)
            .map(|(_, ts)| ts.as_slice())
            .unwrap_or(&[])
    }

    /// Sequential reachability (ground truth).
    pub fn reachable_seq(&self, start: i64) -> BTreeSet<i64> {
        let mut seen: BTreeSet<i64> = [start].into_iter().collect();
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            for &t in self.neighbours(n) {
                if seen.insert(t) {
                    stack.push(t);
                }
            }
        }
        seen
    }
}

/// Parallel reachability: `workers` threads grow a shared set LVar until
/// the frontier is exhausted, then the LVar is frozen and returned.
///
/// The result is deterministic (equal to [`Graph::reachable_seq`]) for any
/// number of workers — the LVars guarantee.
pub fn reachable_par(graph: &Graph, start: i64, workers: usize) -> BTreeSet<i64> {
    let seen: LVar<BTreeSet<i64>> = LVar::new([start].into_iter().collect());
    let queue: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(vec![start]));
    let active = Arc::new(Mutex::new(0usize));
    std::thread::scope(|sc| {
        for _ in 0..workers.max(1) {
            let seen = seen.clone();
            let queue = queue.clone();
            let active = active.clone();
            sc.spawn(move || loop {
                let node = {
                    let mut q = queue.lock();
                    match q.pop() {
                        Some(n) => {
                            *active.lock() += 1;
                            Some(n)
                        }
                        None => None,
                    }
                };
                match node {
                    Some(n) => {
                        for &t in graph.neighbours(n) {
                            let before = seen.peek();
                            seen.put(&[t].into_iter().collect()).expect("not frozen");
                            if !before.contains(&t) {
                                queue.lock().push(t);
                            }
                        }
                        *active.lock() -= 1;
                    }
                    None => {
                        // Terminate when the queue is empty and no worker
                        // is mid-node.
                        if *active.lock() == 0 && queue.lock().is_empty() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    seen.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond_chain(layers: i64) -> Graph {
        let mut edges = Vec::new();
        for l in 0..layers {
            edges.push((2 * l, 2 * (l + 1)));
            edges.push((2 * l, 2 * (l + 1) + 1));
            edges.push((2 * l + 1, 2 * (l + 1)));
            edges.push((2 * l + 1, 2 * (l + 1) + 1));
        }
        Graph::from_edges(&edges)
    }

    #[test]
    fn parallel_matches_sequential_across_worker_counts() {
        let g = diamond_chain(5);
        let truth = g.reachable_seq(0);
        for workers in [1, 2, 4, 8] {
            let got = reachable_par(&g, 0, workers);
            assert_eq!(got, truth, "{workers} workers diverged");
        }
    }

    #[test]
    fn cycle_terminates() {
        let g = Graph::from_edges(&[(0, 1), (1, 2), (2, 0)]);
        let got = reachable_par(&g, 0, 4);
        assert_eq!(got, [0, 1, 2].into_iter().collect());
    }

    #[test]
    fn unreachable_nodes_excluded() {
        let g = Graph::from_edges(&[(0, 1), (5, 6)]);
        let got = reachable_par(&g, 0, 2);
        assert_eq!(got, [0, 1].into_iter().collect());
    }

    #[test]
    fn repeated_runs_are_identical() {
        let g = diamond_chain(4);
        let first = reachable_par(&g, 0, 4);
        for _ in 0..10 {
            assert_eq!(reachable_par(&g, 0, 4), first);
        }
    }
}
