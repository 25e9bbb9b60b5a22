//! Property and fixture tests for the canonical hypergraph form behind
//! the cross-query LP cache (`cq_hypergraph::canonical`).
//!
//! The cache's soundness rests on two facts, each exercised here from
//! the outside:
//!
//! 1. **Invariance** — isomorphic `(hypergraph, marked-set)` pairs get
//!    equal [`CanonicalKey`]s, for *every* vertex/edge permutation
//!    (property-tested over random hypergraphs);
//! 2. **Discrimination** — structurally distinct fixtures (grids,
//!    cycles, stars, cliques, paths, …) get distinct keys, including
//!    the degree-regular pairs plain WL refinement cannot split.
//!
//! A third, end-to-end property ties the form to its consumer: an
//! [`LpCache`] fed a random query and a permuted copy must *hit*, and
//! the translated certificate must be valid and optimal for the copy's
//! labeling.

mod common;

use common::{permuted_query, random_query};
use cqbounds::engine::LpCache;
use cqbounds::hypergraph::{canonical_key, CanonicalKey, Hypergraph};
use cqbounds::util::BitSet;
use proptest::prelude::*;

/// Builds a hypergraph on `n` vertices from vertex-index lists.
fn build(n: usize, edges: &[Vec<usize>]) -> Hypergraph {
    let mut h = Hypergraph::new(n);
    for e in edges {
        h.add_edge_from(e.iter().copied());
    }
    h
}

fn key_of(n: usize, edges: &[Vec<usize>], marked: &[usize]) -> CanonicalKey {
    canonical_key(&build(n, edges), &BitSet::from_iter(marked.iter().copied()))
}

/// A deterministic permutation of `0..n` drawn from `seed` (argsort of
/// LCG keys, seed-stable and independent of the proptest RNG state).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed | 1;
    let mut keyed: Vec<(u64, usize)> = (0..n)
        .map(|v| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state, v)
        })
        .collect();
    keyed.sort_unstable();
    // position i holds the old vertex keyed[i].1: old -> new mapping
    let mut perm = vec![0usize; n];
    for (new_idx, (_, old)) in keyed.iter().enumerate() {
        perm[*old] = new_idx;
    }
    perm
}

proptest! {
    // Deliberately the *default* config (256 cases): it is the one
    // config that honors the PROPTEST_CASES environment override, which
    // CI's scheduled deep job relies on to run this layer at 4096
    // cases. Do not pin a count here.

    /// Invariance: any vertex permutation + edge reordering of any
    /// random hypergraph (with a random marked set) keeps the key.
    #[test]
    fn canonical_key_is_permutation_invariant(
        (n, edges, marked_bits, seed) in (2usize..8).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec(proptest::collection::vec(0..n, 1..4), 1..7),
            proptest::collection::vec(any::<bool>(), n..n + 1),
            any::<u64>(),
        ))
    ) {
        let marked: Vec<usize> = (0..n).filter(|&v| marked_bits[v]).collect();
        let base = key_of(n, &edges, &marked);

        let perm = permutation(n, seed);
        let mut mapped: Vec<Vec<usize>> = edges
            .iter()
            .map(|e| e.iter().map(|&v| perm[v]).collect())
            .collect();
        // reorder edges with a second permutation
        let eperm = permutation(mapped.len(), seed.rotate_left(17) ^ 0xabcd);
        let mut shuffled = vec![Vec::new(); mapped.len()];
        for (i, e) in mapped.drain(..).enumerate() {
            shuffled[eperm[i]] = e;
        }
        let marked_mapped: Vec<usize> = marked.iter().map(|&v| perm[v]).collect();

        prop_assert_eq!(base, key_of(n, &shuffled, &marked_mapped));
    }

    /// Discrimination (probabilistic direction): flipping one vertex of
    /// one edge of a random hypergraph either leaves the edge multiset
    /// isomorphic or changes the key. We check the cheap contrapositive
    /// on sorted-edge normal forms: different normal forms that are
    /// *not* related by the identity permutation may or may not be
    /// isomorphic, so here we only assert key equality implies equal
    /// vertex/edge counts and degree digests — the invariant prefix is
    /// honest.
    #[test]
    fn key_prefix_is_consistent(
        (n, edges) in (2usize..8).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec(proptest::collection::vec(0..n, 1..4), 1..7),
        ))
    ) {
        let k = key_of(n, &edges, &[]);
        prop_assert_eq!(k.num_vertices as usize, n);
        prop_assert_eq!(k.num_edges as usize, edges.len());
        // recomputation is deterministic
        prop_assert_eq!(k, key_of(n, &edges, &[]));
    }

    /// End-to-end: a random query and a permuted copy share one LP
    /// solve; the translated certificate is valid and optimal for the
    /// copy's own labeling.
    #[test]
    fn lp_cache_serves_permuted_copies(seed in any::<u64>()) {
        let q = random_query(seed % (1 << 20), 5, 4);
        let p = permuted_query(seed.rotate_left(13), &q);
        let cache = LpCache::new();
        let (original, hit0) = cache.color_number(&q);
        prop_assert!(!hit0);
        let (translated, hit1) = cache.color_number(&p);
        prop_assert!(hit1, "permuted copy must hit: {q} vs {p}");
        prop_assert_eq!(&original.value, &translated.value);
        translated.coloring.validate(&[]).map_err(
            proptest::test_runner::TestCaseError::fail
        )?;
        prop_assert_eq!(
            translated.coloring.color_number(&p),
            Some(translated.value)
        );
    }
}

/// Structurally distinct families must receive pairwise distinct keys.
#[test]
fn grids_cycles_stars_and_friends_are_distinguished() {
    // all on 6 vertices so coarse counts alone cannot separate them
    let grid_2x3 = {
        // vertices r*3+c; edges between horizontal/vertical neighbors
        let mut edges = Vec::new();
        for r in 0..2 {
            for c in 0..3 {
                if c + 1 < 3 {
                    edges.push(vec![r * 3 + c, r * 3 + c + 1]);
                }
                if r + 1 < 2 {
                    edges.push(vec![r * 3 + c, (r + 1) * 3 + c]);
                }
            }
        }
        edges
    };
    let cycle6: Vec<Vec<usize>> = (0..6).map(|i| vec![i, (i + 1) % 6]).collect();
    let star5: Vec<Vec<usize>> = (1..6).map(|leaf| vec![0, leaf]).collect();
    let path5: Vec<Vec<usize>> = (0..5).map(|i| vec![i, i + 1]).collect();
    let two_triangles = vec![
        vec![0, 1],
        vec![1, 2],
        vec![2, 0],
        vec![3, 4],
        vec![4, 5],
        vec![5, 3],
    ];
    let one_wide_edge = vec![(0..6).collect::<Vec<usize>>()];

    let fixtures: Vec<(&str, Vec<Vec<usize>>)> = vec![
        ("grid2x3", grid_2x3),
        ("cycle6", cycle6),
        ("star5", star5),
        ("path5", path5),
        ("two_triangles", two_triangles),
        ("wide_edge", one_wide_edge),
    ];
    for (i, (name_a, a)) in fixtures.iter().enumerate() {
        for (name_b, b) in fixtures.iter().skip(i + 1) {
            assert_ne!(
                key_of(6, a, &[]),
                key_of(6, b, &[]),
                "{name_a} vs {name_b} must differ"
            );
        }
        // and each is invariant under a nontrivial relabeling
        let perm = permutation(6, 0x1234 + i as u64);
        let mapped: Vec<Vec<usize>> = a
            .iter()
            .map(|e| e.iter().map(|&v| perm[v]).collect())
            .collect();
        assert_eq!(key_of(6, a, &[]), key_of(6, &mapped, &[]), "{name_a}");
    }
}

/// The degree-regular nemesis pair of WL-1: C6 vs 2×C3 — both
/// 2-regular on 6 vertices with 6 edges — must be split by the
/// individualization-refinement backtracking.
#[test]
fn regular_pairs_need_backtracking_and_get_it() {
    let c6: Vec<Vec<usize>> = (0..6).map(|i| vec![i, (i + 1) % 6]).collect();
    let tt = vec![
        vec![0, 1],
        vec![1, 2],
        vec![2, 0],
        vec![3, 4],
        vec![4, 5],
        vec![5, 3],
    ];
    let ka = key_of(6, &c6, &[]);
    let kb = key_of(6, &tt, &[]);
    // identical invariant prefixes ...
    assert_eq!(ka.num_vertices, kb.num_vertices);
    assert_eq!(ka.num_edges, kb.num_edges);
    assert_eq!(ka.degree_hash, kb.degree_hash);
    // ... but distinct refined hashes
    assert_ne!(ka.hash, kb.hash);
}

/// Marked sets (the LP's head variables) are part of the structure: the
/// same hypergraph with differently-*shaped* marked sets gets different
/// keys, while symmetric marked choices agree.
#[test]
fn marked_sets_are_canonicalized_too() {
    let path3: Vec<Vec<usize>> = vec![vec![0, 1], vec![1, 2]];
    // endpoints are symmetric, the middle is not
    assert_eq!(key_of(3, &path3, &[0]), key_of(3, &path3, &[2]));
    assert_ne!(key_of(3, &path3, &[0]), key_of(3, &path3, &[1]));
    assert_ne!(key_of(3, &path3, &[0]), key_of(3, &path3, &[0, 1]));
    assert_ne!(key_of(3, &path3, &[]), key_of(3, &path3, &[0]));
}

/// A seeded generator for the known-answer corpus (independent of the
/// proptest RNG, so the corpus never changes).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n.max(1) as u64) as usize
    }
}

fn cycle(k: usize) -> Vec<Vec<usize>> {
    (0..k).map(|i| vec![i, (i + 1) % k]).collect()
}

fn clique(k: usize) -> Vec<Vec<usize>> {
    (0..k)
        .flat_map(|i| (i + 1..k).map(move |j| vec![i, j]))
        .collect()
}

/// The 2 × k grid on vertices `r * k + c`.
fn grid(k: usize) -> Vec<Vec<usize>> {
    let v = |r: usize, c: usize| r * k + c;
    let mut edges: Vec<Vec<usize>> = (0..2)
        .flat_map(|r| (0..k - 1).map(move |c| vec![v(r, c), v(r, c + 1)]))
        .collect();
    edges.extend((0..k).map(|c| vec![v(0, c), v(1, c)]));
    edges
}

/// A random hypergraph on up to 10 vertices: random edges of size 0–4,
/// planted cycles and cliques, duplicated edges, vertices left isolated
/// and a random marked subset (sometimes empty, sometimes everything).
fn random_case(rng: &mut Lcg) -> (usize, Vec<Vec<usize>>, Vec<usize>) {
    let n = 1 + rng.below(10);
    let mut edges: Vec<Vec<usize>> = Vec::new();
    for _ in 0..rng.below(12) {
        match rng.below(8) {
            0 if !edges.is_empty() => {
                let dup = edges[rng.below(edges.len())].clone();
                edges.push(dup);
            }
            1 => {
                let k = (2 + rng.below(5)).min(n);
                let off = rng.below(n - k + 1);
                edges.extend(
                    cycle(k)
                        .into_iter()
                        .map(|e| e.iter().map(|v| v + off).collect()),
                );
            }
            2 => {
                let k = (2 + rng.below(4)).min(n);
                let off = rng.below(n - k + 1);
                edges.extend(
                    clique(k)
                        .into_iter()
                        .map(|e| e.iter().map(|v| v + off).collect()),
                );
            }
            3 if rng.below(4) == 0 => edges.push(Vec::new()),
            _ => {
                let size = 1 + rng.below(4);
                edges.push((0..size).map(|_| rng.below(n)).collect());
            }
        }
    }
    let marked = match rng.below(4) {
        0 => Vec::new(),
        1 => (0..n).collect(),
        _ => (0..n).filter(|_| rng.below(2) == 0).collect(),
    };
    (n, edges, marked)
}

/// Known answer: one digest over the compact key and both renamings of
/// every fixture query, the serve-warm templates (cycles 4–8, cliques
/// 4–6, keyed stars 3–6, 2×3…2×8 grids), cliques K2–K8, a few highly
/// symmetric graphs (two of which exhaust the leaf budget) and 2,400
/// seeded random hypergraphs. A change to
/// the search that moves any key or renaming (and with them every LP
/// cache snapshot and cluster key route) changes the digest.
#[test]
fn canonical_forms_match_the_pinned_digest() {
    use cqbounds::hypergraph::canonical_form;
    use cqbounds::parse_program;
    use cqbounds::util::Hasher128;

    let mut cases: Vec<(usize, Vec<Vec<usize>>, Vec<usize>)> = Vec::new();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("cq"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 9,
        "fixture corpus shrank? saw {}",
        paths.len()
    );
    for path in &paths {
        let (q, _) = parse_program(&std::fs::read_to_string(path).unwrap()).unwrap();
        let edges = q.body().iter().map(|a| a.vars.clone()).collect();
        cases.push((q.num_vars(), edges, q.head().to_vec()));
    }
    let all = |n: usize| (0..n).collect::<Vec<_>>();
    for k in 4..=8 {
        cases.push((k, cycle(k), all(k)));
    }
    for k in 2..=8 {
        cases.push((k, clique(k), all(k)));
        cases.push((k, clique(k), Vec::new()));
    }
    for k in 3..=6 {
        let star = (1..=k).map(|leaf| vec![0, leaf]).collect();
        cases.push((k + 1, star, all(k + 1)));
    }
    for k in 3..=8 {
        cases.push((2 * k, grid(k), all(2 * k)));
    }
    // Symmetric enough to branch deep: three disjoint 5-cycles, the
    // Petersen graph, and a 12-cycle with one marked vertex.
    let c5x3 = (0..15).map(|i| vec![i, i / 5 * 5 + (i + 1) % 5]).collect();
    cases.push((15, c5x3, Vec::new()));
    let mut petersen: Vec<Vec<usize>> = (0..5).map(|i| vec![i, (i + 1) % 5]).collect();
    petersen.extend((0..5).map(|i| vec![5 + i, 5 + (i + 2) % 5]));
    petersen.extend((0..5).map(|i| vec![i, 5 + i]));
    cases.push((10, petersen, Vec::new()));
    cases.push((12, cycle(12), vec![3]));
    // K24 exhausts the leaf budget, and so does K26 with a marked
    // pendant edge, whose truncated search depends on exploration order.
    cases.push((24, clique(24), Vec::new()));
    let mut k26_tail = clique(26);
    k26_tail.push(vec![0, 26]);
    cases.push((27, k26_tail, vec![26]));
    let mut rng = Lcg(0x6361_6e6f_6e69_6361);
    cases.extend((0..2400).map(|_| random_case(&mut rng)));

    let mut digest = Hasher128::new();
    let mut truncated = 0;
    for (n, edges, marked) in &cases {
        let form = canonical_form(
            &build(*n, edges),
            &BitSet::from_iter(marked.iter().copied()),
        );
        truncated += usize::from(form.budget_hit);
        for b in form.key.to_compact_string().bytes() {
            digest.write_u64(u64::from(b));
        }
        for renaming in [&form.vertex_to_canonical, &form.edge_to_canonical] {
            digest.write_usize(renaming.len());
            for &c in renaming.iter() {
                digest.write_usize(c);
            }
        }
    }
    assert_eq!(
        format!("{:032x}", digest.finish128()),
        "ed64cb3531efbb68ddb643bdd388794e",
        "over {} cases",
        cases.len()
    );
    assert_eq!(truncated, 2, "only K24 and K26 exhaust the budget");
}
