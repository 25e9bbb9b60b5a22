//! [`ShardPlanner`]: which worker analyzes which query.
//!
//! Two strategies, both deterministic:
//!
//! - [`PlanMode::ByCanonicalKey`] (the default) parses each program and
//!   hashes the renaming-invariant [`cq_hypergraph::CanonicalKey`] of
//!   its `(hypergraph, head-set)` pair to a worker. Structurally
//!   isomorphic queries — the queries that *share* LP solutions — land
//!   on the **same** worker, so each isomorphism class is solved once
//!   cluster-wide and every worker's cache stays disjoint from its
//!   peers'. This is the distribution-level analogue of the cache-key
//!   soundness argument: assignment is a pure function of structure.
//! - [`PlanMode::RoundRobin`] deals queries out cyclically. Better when
//!   the workload is isomorphism-poor (every query its own class) and
//!   per-query cost is skewed; worse on template workloads because
//!   each class warms every worker's cache separately.
//!
//! Inputs that fail to parse are dealt round-robin (they error on the
//! worker in-place, preserving index alignment, exactly as a parse
//! error occupies its line in `cq-analyze --json`).

use crate::PlanMode;
use cq_hypergraph::canonical_key;

/// Assigns workload indices to workers.
#[derive(Clone, Copy, Debug)]
pub struct ShardPlanner {
    mode: PlanMode,
    workers: usize,
}

impl ShardPlanner {
    /// A planner for `workers` workers (at least 1 is enforced).
    pub fn new(mode: PlanMode, workers: usize) -> ShardPlanner {
        ShardPlanner {
            mode,
            workers: workers.max(1),
        }
    }

    /// Plans `(name, program_text)` inputs: returns one index list per
    /// worker; every input index appears in exactly one list, and each
    /// list is ascending (workers see their shard in input order).
    pub fn plan(&self, inputs: &[(String, String)]) -> Vec<Vec<usize>> {
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); self.workers];
        for (i, (_, text)) in inputs.iter().enumerate() {
            shards[self.worker_for(i, text)].push(i);
        }
        shards
    }

    /// The worker index for input `i` with program text `text`.
    fn worker_for(&self, i: usize, text: &str) -> usize {
        match self.mode {
            PlanMode::RoundRobin => i % self.workers,
            PlanMode::ByCanonicalKey => match cq_core::parse_program(text) {
                Ok((query, _fds)) => {
                    let key = canonical_key(&query.hypergraph(), &query.head_var_set());
                    // The full refined digest, folded to usize. The low
                    // bits also pick the LpCache shard; using the high
                    // half keeps worker choice independent of shard
                    // choice within each worker's cache.
                    ((key.hash >> 64) as u64 as usize) % self.workers
                }
                Err(_) => i % self.workers,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(texts: &[&str]) -> Vec<(String, String)> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("q{i}"), t.to_string()))
            .collect()
    }

    #[test]
    fn every_index_is_assigned_exactly_once() {
        let inputs = inputs(&[
            "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)",
            "Q(X,Y) :- R(X,Y)",
            "not a query",
            "P(A,B,C) :- E(A,B), E(B,C)",
        ]);
        for mode in [PlanMode::ByCanonicalKey, PlanMode::RoundRobin] {
            let shards = ShardPlanner::new(mode, 3).plan(&inputs);
            assert_eq!(shards.len(), 3);
            let mut seen: Vec<usize> = shards.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3], "{mode:?}");
            for shard in &shards {
                assert!(shard.windows(2).all(|w| w[0] < w[1]), "ascending");
            }
        }
    }

    #[test]
    fn canonical_mode_coalesces_isomorphism_classes() {
        // 3 relabelings of the triangle + 3 of a path: exactly 2
        // distinct canonical keys, so at most 2 workers receive work
        // and each class sits on one worker.
        let inputs = inputs(&[
            "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)",
            "T(C,A,B) :- E(B,C), E(A,B), E(A,C)",
            "U(P,Q,W) :- F(Q,W), F(P,W), F(P,Q)",
            "Q(X,Y,Z) :- S(X,Y), T(Y,Z)",
            "Q(A,B,C) :- G(A,B), H(B,C)",
            "Q(N,M,O) :- I(N,M), J(M,O)",
        ]);
        let planner = ShardPlanner::new(PlanMode::ByCanonicalKey, 8);
        let tri: Vec<usize> = (0..3)
            .map(|i| planner.worker_for(i, &inputs[i].1))
            .collect();
        let path: Vec<usize> = (3..6)
            .map(|i| planner.worker_for(i, &inputs[i].1))
            .collect();
        assert!(tri.windows(2).all(|w| w[0] == w[1]), "{tri:?}");
        assert!(path.windows(2).all(|w| w[0] == w[1]), "{path:?}");
    }

    #[test]
    fn round_robin_balances_counts() {
        let texts: Vec<String> = (0..10).map(|_| "Q(X,Y) :- R(X,Y)".to_owned()).collect();
        let inputs: Vec<(String, String)> = texts
            .into_iter()
            .enumerate()
            .map(|(i, t)| (format!("q{i}"), t))
            .collect();
        let shards = ShardPlanner::new(PlanMode::RoundRobin, 4).plan(&inputs);
        let sizes: Vec<usize> = shards.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }
}
