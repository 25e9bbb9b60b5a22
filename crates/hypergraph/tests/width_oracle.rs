//! Exactness of the elimination search against an independent oracle.
//!
//! The oracle is a dynamic program over sets of eliminated vertices
//! (`best[S]` = the least possible largest bag cost when `S` is
//! eliminated first) with brute-force edge covers, so it shares neither
//! the branch-and-bound, the memo, the bounds nor the set-cover routine
//! with the search it checks. It is exponential in both the vertex and
//! the edge count, hence the small random hypergraphs: at most 9
//! vertices and 10 edges.
//!
//! Default proptest config on purpose: the scheduled deep CI job runs
//! this layer at `PROPTEST_CASES=4096`.

use cq_hypergraph::{hypertree_exact, hypertree_width_exact, treewidth_exact, Hypergraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_VERTICES: usize = 9;
const MAX_EDGES: usize = 10;

fn bits(mask: u32) -> impl Iterator<Item = usize> {
    (0..32).filter(move |&v| mask >> v & 1 != 0)
}

/// The bag of `v` once `eliminated` is gone: `v` plus every other
/// vertex outside `eliminated` reachable from it through `eliminated`.
fn bag(adj: &[u32], v: usize, eliminated: u32) -> u32 {
    let mut seen = 1u32 << v;
    let mut stack = vec![v];
    let mut bag = 1u32 << v;
    while let Some(u) = stack.pop() {
        for w in bits(adj[u] & !seen) {
            seen |= 1 << w;
            if eliminated >> w & 1 != 0 {
                stack.push(w);
            } else {
                bag |= 1 << w;
            }
        }
    }
    bag
}

/// The minimum over elimination orderings of the largest `cost(bag)`.
fn oracle_width(adj: &[u32], cost: impl Fn(u32) -> usize) -> usize {
    let n = adj.len();
    let mut best = vec![usize::MAX; 1 << n];
    best[0] = 0;
    for s in 1..1u32 << n {
        best[s as usize] = bits(s)
            .map(|v| {
                let before = s & !(1 << v);
                best[before as usize].max(cost(bag(adj, v, before)))
            })
            .min()
            .unwrap();
    }
    best[(1 << n) - 1]
}

/// For every vertex set, the fewest edges whose union contains it (or
/// `usize::MAX`): the smallest subset of edges with each exact union,
/// minimized over supersets.
fn brute_force_covers(n: usize, edges: &[u32]) -> Vec<usize> {
    let mut best = vec![usize::MAX; 1 << n];
    for pick in 0..1u32 << edges.len() {
        let union = bits(pick).fold(0, |u, i| u | edges[i]) as usize;
        best[union] = best[union].min(pick.count_ones() as usize);
    }
    for v in 0..n {
        for set in 0..1 << n {
            if set >> v & 1 == 0 {
                best[set] = best[set].min(best[set | 1 << v]);
            }
        }
    }
    best
}

fn random_hypergraph(seed: u64) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(6..=MAX_VERTICES);
    let mut h = Hypergraph::new(n);
    for _ in 0..rng.gen_range(4..=MAX_EDGES) {
        let arity = rng.gen_range(2..=4);
        h.add_edge_from((0..arity).map(|_| rng.gen_range(0..n)));
    }
    h
}

proptest! {
    /// Exact treewidth and ghw equal the oracle's, and the exact
    /// decomposition validates with exactly that width.
    #[test]
    fn exact_widths_match_the_oracle(seed in any::<u64>()) {
        let h = random_hypergraph(seed);
        let g = h.primal_graph();
        let adj: Vec<u32> = (0..g.num_vertices())
            .map(|v| g.neighbors(v).iter().fold(0, |m, u| m | 1 << u))
            .collect();
        let edges: Vec<u32> = h.edges().iter().map(|e| e.iter().fold(0, |m, v| m | 1 << v)).collect();
        let covered = edges.iter().fold(0, |u, e| u | e);

        let tw = oracle_width(&adj, |b| b.count_ones() as usize - 1);
        let got = treewidth_exact(&g);
        prop_assert!(got == tw, "treewidth {got}, oracle {tw}: {:?}", h.edges());

        let cover = brute_force_covers(adj.len(), &edges);
        let ghw = oracle_width(&adj, |b| cover[(b & covered) as usize]);
        let got = hypertree_width_exact(&h);
        prop_assert!(got == ghw, "ghw {got}, oracle {ghw}: {:?}", h.edges());
        let htd = hypertree_exact(&h);
        prop_assert!(htd.validate(&h).is_ok(), "{:?}: {:?}", htd.validate(&h), h.edges());
        prop_assert_eq!(htd.width(), ghw);
    }
}
