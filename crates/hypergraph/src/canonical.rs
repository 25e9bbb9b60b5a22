//! Canonical forms for hypergraphs: renaming-invariant keys.
//!
//! The paper's size-bound LPs (the Proposition 3.6 coloring LP and the
//! Definition 3.5 fractional edge cover) depend only on the query's
//! hypergraph *structure* plus the set of head variables — not on how
//! variables or atoms happen to be named or ordered. Two structurally
//! isomorphic queries therefore solve literally the same LP, and a
//! cross-query cache can key on a canonical form of the (hypergraph,
//! marked-vertex-set) pair.
//!
//! [`canonical_form`] computes such a form by iterative WL-style color
//! refinement (vertices and hyperedges refine each other) with
//! backtracking individualization on tie-breaks, exactly the
//! individualization-refinement scheme of practical graph-canonization
//! tools, specialized to the multiset-of-hyperedges setting:
//!
//! 1. vertices start colored by `(marked?, degree)`, edges by size;
//! 2. each round recolors vertices by the multiset of their incident
//!    edge colors and edges by the multiset of their member vertex
//!    colors, until the partition stabilizes;
//! 3. if some vertex color class has ≥ 2 members, each member is
//!    individualized in turn and the branch producing the
//!    lexicographically least canonical code wins.
//!
//! The resulting [`CanonicalKey`] is a degree-sequence-prefixed 128-bit
//! digest (via [`cq_util::hash128`]); the full [`CanonicalForm`] also
//! carries the vertex and edge renamings so cached LP solutions can be
//! translated back into the namespace of the query at hand.
//!
//! Worst-case cost is exponential (graph canonization has no known
//! polynomial algorithm) but refinement discretizes almost every
//! query-sized instance after one or two individualizations; highly
//! symmetric inputs (cycles, cliques, grids) branch once per symmetry
//! class, which is cheap at query scale.
//!
//! What a warm cache lookup pays for is therefore the cost per search
//! node, so the search runs in one workspace per thread that each call
//! resets rather than reallocates: the hypergraph as CSR incidence and
//! member arrays, one pair of color buffers per search depth (a child
//! writes its individualized coloring one level down instead of cloning
//! its parent's), refinement scratch reused by every round, a counting
//! pass for the branch cell, per-node orbit union-finds that absorb only
//! the automorphisms found since the node last looked, and leaves that
//! build their code in a reused buffer. The signature hashes, ranking,
//! branch-cell rule, target order, orbit pruning and leaf budget define
//! the codes, so every key and renaming is what the straightforward
//! search computes; `canonical_forms_match_the_pinned_digest` in
//! `tests/canonical_properties.rs` pins them on 2,443 hypergraphs.

use crate::hypergraph::Hypergraph;
use cq_util::{hash128, BitSet, Hasher128};
use std::cell::RefCell;
use std::cmp::Ordering;

/// A renaming-invariant key for a `(hypergraph, marked vertices)` pair.
///
/// Two pairs receive equal keys **iff** they are isomorphic (equal
/// canonical codes), up to 128-bit hash collisions. The coarse counts
/// and the degree-sequence digest are stored alongside the full digest
/// so that almost all unequal pairs are rejected without comparing the
/// refined hash, and a collision would have to align all four fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalKey {
    /// Number of vertices.
    pub num_vertices: u32,
    /// Number of hyperedges (multiset).
    pub num_edges: u32,
    /// Digest of the sorted degree sequence, sorted edge-size sequence,
    /// and marked-vertex count — the cheap invariant prefix.
    pub degree_hash: u64,
    /// Digest of the full canonical code.
    pub hash: u128,
}

impl CanonicalKey {
    /// Renders the key as a compact, stable, self-delimiting token —
    /// `v{n}e{m}d{degree_hash:016x}h{hash:032x}` — the on-disk form the
    /// engine's LP-cache snapshots use. [`CanonicalKey::parse_compact`]
    /// inverts it exactly.
    pub fn to_compact_string(&self) -> String {
        format!(
            "v{}e{}d{:016x}h{:032x}",
            self.num_vertices, self.num_edges, self.degree_hash, self.hash
        )
    }

    /// Parses the [`CanonicalKey::to_compact_string`] form. Returns
    /// `None` on any deviation (wrong markers, truncated digests,
    /// non-hex digits, trailing bytes) — snapshot loaders turn that
    /// into a structured corruption error.
    pub fn parse_compact(s: &str) -> Option<CanonicalKey> {
        let rest = s.strip_prefix('v')?;
        let e_at = rest.find('e')?;
        let num_vertices: u32 = rest[..e_at].parse().ok()?;
        let rest = &rest[e_at + 1..];
        let d_at = rest.find('d')?;
        let num_edges: u32 = rest[..d_at].parse().ok()?;
        let rest = &rest[d_at + 1..];
        let (deg, rest) = (rest.get(..16)?, rest.get(16..)?);
        let degree_hash = u64::from_str_radix(deg, 16).ok()?;
        let rest = rest.strip_prefix('h')?;
        if rest.len() != 32 {
            return None;
        }
        let hash = u128::from_str_radix(rest, 16).ok()?;
        // Digits must have been lowercase so render∘parse is identity.
        let key = CanonicalKey {
            num_vertices,
            num_edges,
            degree_hash,
            hash,
        };
        (key.to_compact_string() == s).then_some(key)
    }
}

/// A canonical form: the key plus the renamings that produced it.
#[derive(Clone, Debug)]
pub struct CanonicalForm {
    /// The renaming-invariant key.
    pub key: CanonicalKey,
    /// `vertex_to_canonical[v]` = canonical index of original vertex `v`.
    pub vertex_to_canonical: Vec<usize>,
    /// `edge_to_canonical[e]` = canonical position of original edge `e`.
    pub edge_to_canonical: Vec<usize>,
    /// Leaves (discrete colorings) the search reached.
    pub leaves: usize,
    /// Whether the leaf budget (256) cut the search short. Keys stay
    /// sound either way; a truncated search may give isomorphic copies
    /// different keys, so their lookups can miss.
    pub budget_hit: bool,
}

impl CanonicalForm {
    /// Permutes per-vertex data into canonical order:
    /// `out[vertex_to_canonical[v]] = data[v]`.
    pub fn vertex_data_to_canonical<T: Clone>(&self, data: &[T]) -> Vec<T> {
        permute(data, &self.vertex_to_canonical)
    }

    /// Translates per-vertex data stored in canonical order back to the
    /// original vertex numbering: `out[v] = canonical[vertex_to_canonical[v]]`.
    pub fn vertex_data_from_canonical<T: Clone>(&self, canonical: &[T]) -> Vec<T> {
        unpermute(canonical, &self.vertex_to_canonical)
    }

    /// Permutes per-edge data into canonical order.
    pub fn edge_data_to_canonical<T: Clone>(&self, data: &[T]) -> Vec<T> {
        permute(data, &self.edge_to_canonical)
    }

    /// Translates per-edge data from canonical order back to the
    /// original edge numbering.
    pub fn edge_data_from_canonical<T: Clone>(&self, canonical: &[T]) -> Vec<T> {
        unpermute(canonical, &self.edge_to_canonical)
    }
}

fn permute<T: Clone>(data: &[T], to_canonical: &[usize]) -> Vec<T> {
    assert_eq!(data.len(), to_canonical.len());
    let mut out: Vec<Option<T>> = vec![None; data.len()];
    for (i, &c) in to_canonical.iter().enumerate() {
        out[c] = Some(data[i].clone());
    }
    out.into_iter().map(|x| x.expect("permutation")).collect()
}

fn unpermute<T: Clone>(canonical: &[T], to_canonical: &[usize]) -> Vec<T> {
    assert_eq!(canonical.len(), to_canonical.len());
    to_canonical.iter().map(|&c| canonical[c].clone()).collect()
}

/// The canonical key alone (see [`canonical_form`]).
pub fn canonical_key(h: &Hypergraph, marked: &BitSet) -> CanonicalKey {
    canonical_form(h, marked).key
}

/// Computes the canonical form of `(h, marked)`.
///
/// `marked` distinguishes a vertex subset (for query LPs: the head
/// variables); isomorphisms must map marked vertices to marked vertices.
/// Marked indices beyond the vertex count are ignored.
pub fn canonical_form(h: &Hypergraph, marked: &BitSet) -> CanonicalForm {
    thread_local! {
        static SEARCH: RefCell<Search> = RefCell::new(Search::default());
    }
    SEARCH.with(|search| search.borrow_mut().run(h, marked))
}

/// `true` iff the `new` coloring refines `old`: every `new` class lies
/// inside one `old` class. Signatures embed the old color, so this
/// holds automatically *unless* a hash collision merged classes —
/// exactly the case the refinement loop must refuse to adopt (a
/// coarsened partition could unwind an individualization split and
/// make the branch search non-terminating). `owner` is scratch space.
fn refines(old: &[u64], new: &[u64], owner: &mut Vec<u64>) -> bool {
    let classes = new.iter().max().map_or(0, |&c| c + 1) as usize;
    owner.clear();
    owner.resize(classes, u64::MAX);
    old.iter().zip(new).all(|(&o, &c)| {
        let slot = &mut owner[c as usize];
        if *slot == u64::MAX {
            *slot = o;
            true
        } else {
            *slot == o
        }
    })
}

/// Assigns dense, label-invariant color ids: distinct values are sorted
/// and each gets its rank, written to `ranks` (one per input position).
/// Returns the number of distinct values. `sorted` is scratch space.
fn rank_into(values: &[u64], sorted: &mut Vec<(u64, u32)>, ranks: &mut [u64]) -> u64 {
    sorted.clear();
    sorted.extend(values.iter().enumerate().map(|(i, &v)| (v, i as u32)));
    sorted.sort_unstable();
    let mut classes = 0u64;
    for (k, &(v, i)) in sorted.iter().enumerate() {
        if k == 0 || sorted[k - 1].0 != v {
            classes += 1;
        }
        ranks[i as usize] = classes - 1;
    }
    classes
}

/// Cap on emitted leaf candidates. Refinement discretizes realistic
/// query hypergraphs after a couple of individualizations; inputs
/// symmetric enough to exhaust this budget (large cliques, say) get a
/// *truncated* search instead of a factorial one. Truncation stays
/// sound for caching — every emitted code faithfully encodes the
/// structure, so equal keys still imply isomorphism; only key equality
/// *between* isomorphic copies (i.e. the hit rate) can degrade (for
/// fully symmetric inputs like cliques it does not: every leaf carries
/// the same code, so exploration order is irrelevant).
const LEAF_BUDGET: usize = 256;

/// The colorings and branch state of one search-tree depth. A node
/// owns its depth's level while its children run one level deeper, so
/// the levels are allocated once per depth and reused by every node.
#[derive(Default)]
struct Level {
    vertex: Vec<u64>,
    edge: Vec<u64>,
    /// The branch cell's members, in vertex order.
    cell: Vec<u32>,
    /// Branch targets explored so far.
    tried: Vec<u32>,
    /// Union-find parents over the vertices (empty until first needed):
    /// the orbits of the automorphisms that fix the path to this node.
    orbits: Vec<u32>,
    /// Words of `Search::automorphisms` already merged into `orbits`.
    absorbed: usize,
}

/// The search workspace: the hypergraph as CSR arrays, the per-depth
/// levels and all refinement and leaf scratch. One lives per thread and
/// is reset, not reallocated, by each [`canonical_form`] call.
#[derive(Default)]
struct Search {
    n: usize,
    m: usize,
    /// `inc[inc_at[v]..inc_at[v + 1]]`: the edges containing vertex `v`.
    inc_at: Vec<u32>,
    inc: Vec<u32>,
    /// `members[members_at[e]..members_at[e + 1]]`: edge `e`'s vertices.
    members_at: Vec<u32>,
    members: Vec<u32>,
    /// The marked vertices below `n`, ascending.
    marked: Vec<u32>,
    levels: Vec<Level>,
    // Refinement scratch.
    vsig: Vec<u64>,
    esig: Vec<u64>,
    new_vertex: Vec<u64>,
    new_edge: Vec<u64>,
    sorted: Vec<(u64, u32)>,
    owner: Vec<u64>,
    buf: Vec<u64>,
    // Leaf scratch: the code under construction, the edges' canonical
    // member lists (laid out like `members`) and their sorted order.
    code: Vec<u64>,
    canonical_members: Vec<u32>,
    edge_order: Vec<u32>,
    inverse: Vec<u32>,
    /// Lexicographically least canonical code found so far, with its
    /// vertex and edge renamings (meaningful once `leaves > 0`).
    best_code: Vec<u64>,
    best_vertex: Vec<usize>,
    best_edge: Vec<usize>,
    /// Automorphisms discovered when two leaves carry identical codes,
    /// `n` words each (`π[v]` = image of vertex `v`). Used for orbit
    /// pruning.
    automorphisms: Vec<u32>,
    /// Individualized vertices on the current search path.
    path: Vec<u32>,
    leaves: usize,
    budget_hit: bool,
}

impl Search {
    /// Loads `(h, marked)` into the workspace, searches, and returns the
    /// least code's form.
    fn run(&mut self, h: &Hypergraph, marked: &BitSet) -> CanonicalForm {
        self.load(h, marked);

        let degree_hash = {
            let mut hasher = Hasher128::new();
            for at in [&self.inc_at, &self.members_at] {
                self.buf.clear();
                self.buf.extend(lengths(at));
                self.buf.sort_unstable();
                for &d in &self.buf {
                    hasher.write_u64(d);
                }
            }
            hasher.write_u64(self.marked.len() as u64);
            hasher.finish128() as u64
        };

        // Initial colors: vertices by (marked?, degree), edges by size —
        // ranked over the sorted distinct values so the ids themselves
        // are label-invariant.
        self.vsig.clear();
        self.vsig.extend(lengths(&self.inc_at));
        for &v in &self.marked {
            self.vsig[v as usize] |= 1 << 48;
        }
        self.esig.clear();
        self.esig.extend(lengths(&self.members_at));
        let root = &mut self.levels[0];
        rank_into(&self.vsig, &mut self.sorted, &mut root.vertex);
        rank_into(&self.esig, &mut self.sorted, &mut root.edge);
        self.search(0);

        CanonicalForm {
            key: CanonicalKey {
                num_vertices: self.n as u32,
                num_edges: self.m as u32,
                degree_hash,
                hash: hash128(self.best_code.iter().copied()),
            },
            vertex_to_canonical: std::mem::take(&mut self.best_vertex),
            edge_to_canonical: std::mem::take(&mut self.best_edge),
            leaves: self.leaves,
            budget_hit: self.budget_hit,
        }
    }

    /// Resets the workspace for `(h, marked)`: CSR incidence and edge
    /// members, the marked list, a root level, and empty search state.
    fn load(&mut self, h: &Hypergraph, marked: &BitSet) {
        let (n, m) = (h.num_vertices(), h.num_edges());
        (self.n, self.m) = (n, m);
        self.members.clear();
        self.members_at.clear();
        self.members_at.push(0);
        self.inc_at.clear();
        self.inc_at.resize(n + 1, 0);
        for verts in h.edges() {
            for v in verts.iter() {
                self.members.push(v as u32);
                self.inc_at[v + 1] += 1;
            }
            self.members_at.push(self.members.len() as u32);
        }
        for v in 0..n {
            self.inc_at[v + 1] += self.inc_at[v];
        }
        // Fill each vertex's incidence list in edge order; `buf[v]` is
        // the next free slot in `v`'s list.
        self.inc.resize(self.members.len(), 0);
        self.buf.clear();
        self.buf
            .extend(self.inc_at[..n].iter().map(|&at| u64::from(at)));
        for e in 0..m {
            for &v in &self.members[self.members_at[e] as usize..self.members_at[e + 1] as usize] {
                self.inc[self.buf[v as usize] as usize] = e as u32;
                self.buf[v as usize] += 1;
            }
        }
        self.canonical_members.resize(self.members.len(), 0);
        self.new_vertex.resize(n, 0);
        self.new_edge.resize(m, 0);
        self.marked.clear();
        self.marked
            .extend(marked.iter().take_while(|&v| v < n).map(|v| v as u32));
        self.automorphisms.clear();
        self.path.clear();
        self.leaves = 0;
        self.budget_hit = false;
        self.level(0);
    }

    /// Sizes depth `d`'s level for the loaded hypergraph and clears its
    /// branch state.
    fn level(&mut self, d: usize) {
        if self.levels.len() <= d {
            self.levels.push(Level::default());
        }
        let (n, m) = (self.n, self.m);
        let level = &mut self.levels[d];
        level.vertex.resize(n, 0);
        level.edge.resize(m, 0);
        level.cell.clear();
        level.tried.clear();
        level.orbits.clear();
        level.absorbed = 0;
    }

    /// Refines depth `d`'s coloring to a fixpoint, then either emits a
    /// candidate code (discrete partition) or branches on the first
    /// smallest non-singleton vertex class.
    ///
    /// Branch targets are pruned by discovered automorphisms: if some
    /// recorded `π` fixes every vertex individualized so far and maps an
    /// already-explored target to this one, the subtree is a mirror
    /// image of an explored subtree (same leaf codes), so it is skipped.
    /// This is the standard orbit pruning of canonical-labeling search —
    /// exact, not heuristic — and it is what keeps vertex-transitive
    /// inputs (cycles, cliques) near-linear instead of factorial.
    fn search(&mut self, d: usize) {
        if self.leaves >= LEAF_BUDGET {
            self.budget_hit = true;
            return;
        }
        self.refine(d);
        if !self.branch_cell(d) {
            self.emit_candidate(d);
            return;
        }
        for i in 0..self.levels[d].cell.len() {
            if self.leaves >= LEAF_BUDGET {
                self.budget_hit = true;
                break;
            }
            let target = self.levels[d].cell[i];
            if self.orbit_covered(d, target) {
                continue;
            }
            self.levels[d].tried.push(target);
            self.individualize(d, target as usize);
            self.path.push(target);
            self.search(d + 1);
            self.path.pop();
        }
    }

    /// Writes depth `d + 1`'s coloring: depth `d`'s with `target` split
    /// off below the rest of its class. Colors are dense ranks, so this
    /// is the ranking of `2c + 1` for every vertex but `2c` for `target`.
    fn individualize(&mut self, d: usize, target: usize) {
        self.level(d + 1);
        let (upper, lower) = self.levels.split_at_mut(d + 1);
        let (from, to) = (&upper[d], &mut lower[0]);
        let split = from.vertex[target];
        for (v, (out, &c)) in to.vertex.iter_mut().zip(&from.vertex).enumerate() {
            *out = if c < split || v == target { c } else { c + 1 };
        }
        to.edge.copy_from_slice(&from.edge);
    }

    /// `true` when an automorphism that fixes the current path pointwise
    /// puts `target` in the same orbit as an already-tried sibling. The
    /// node's orbits grow by the automorphisms found since its last
    /// check; earlier ones are already merged.
    fn orbit_covered(&mut self, d: usize, target: u32) -> bool {
        let level = &mut self.levels[d];
        if level.tried.is_empty() || self.automorphisms.is_empty() {
            return false;
        }
        let n = self.n;
        if level.orbits.is_empty() {
            level.orbits.extend(0..n as u32);
        }
        for aut in self.automorphisms[level.absorbed..].chunks_exact(n) {
            if self.path.iter().any(|&p| aut[p as usize] != p) {
                continue; // does not stabilize the current path
            }
            for (v, &w) in aut.iter().enumerate() {
                let (a, b) = (
                    find(&mut level.orbits, v as u32),
                    find(&mut level.orbits, w),
                );
                level.orbits[a.max(b) as usize] = a.min(b);
            }
        }
        level.absorbed = self.automorphisms.len();
        let root = find(&mut level.orbits, target);
        let Level { orbits, tried, .. } = level;
        tried.iter().any(|&t| find(orbits, t) == root)
    }

    /// WL refinement of depth `d`'s coloring to a fixpoint. Signatures
    /// are 64-bit hashes of `(length, own color, sorted multiset of
    /// neighbor colors)` rather than materialized vectors — hashes of
    /// invariant inputs are themselves invariant, so ranking by hash
    /// value stays label-independent.
    ///
    /// Two collision defenses, both load-bearing:
    /// - the stream is length-prefixed with a nonzero salt, because
    ///   `FxHasher` starts at state 0 and absorbs leading zero words, so
    ///   unprefixed streams like `[0,0,1,2]` and `[0,1,2]` would collide
    ///   *by construction*, not cosmically rarely;
    /// - a round that fails to strictly grow the class count is never
    ///   adopted, so a residual collision can stall refinement early
    ///   (hurting only the individualization depth) but can never
    ///   *coarsen* the partition — which would unwind individualization
    ///   splits and make the search tree infinite.
    fn refine(&mut self, d: usize) {
        let (n, m) = (self.n, self.m);
        let Level { vertex, edge, .. } = &mut self.levels[d];
        let mut vertex_classes = vertex.iter().max().map_or(0, |&c| c + 1);
        let mut edge_classes = edge.iter().max().map_or(0, |&c| c + 1);
        // Each adopted round splits at least one class, so n + m rounds
        // bound the loop.
        for _ in 0..=n + m {
            let cells = self.vsig.iter_mut().zip(vertex.iter());
            for ((sig, &own), at) in cells.zip(self.inc_at.windows(2)) {
                let incident = &self.inc[at[0] as usize..at[1] as usize];
                let prefix = [0x9e37_79b9_7f4a_7c15 ^ incident.len() as u64, own];
                let colors = incident.iter().map(|&e| edge[e as usize]);
                *sig = signature(&prefix, colors, &mut self.buf);
            }
            let vc_now = rank_into(&self.vsig, &mut self.sorted, &mut self.new_vertex);
            let cells = self.esig.iter_mut().zip(edge.iter());
            for ((sig, &own), at) in cells.zip(self.members_at.windows(2)) {
                let verts = &self.members[at[0] as usize..at[1] as usize];
                let colors = verts.iter().map(|&v| self.new_vertex[v as usize]);
                *sig = signature(&[0x517c_c1b7_2722_0a95 ^ own], colors, &mut self.buf);
            }
            let ec_now = rank_into(&self.esig, &mut self.sorted, &mut self.new_edge);
            // Adopt only a round that strictly split something AND
            // whose new colorings genuinely refine the old ones. The
            // refinement check is what makes a collision merge
            // impossible to adopt even when masked by a simultaneous
            // split (counts alone can't tell merge+split from split).
            if vc_now + ec_now <= vertex_classes + edge_classes
                || !refines(vertex, &self.new_vertex, &mut self.owner)
                || !refines(edge, &self.new_edge, &mut self.owner)
            {
                break; // fixpoint (or a collision stall)
            }
            vertex.copy_from_slice(&self.new_vertex);
            edge.copy_from_slice(&self.new_edge);
            vertex_classes = vc_now;
            edge_classes = ec_now;
        }
    }

    /// Fills depth `d`'s branch cell: the smallest vertex class with ≥ 2
    /// members, ties broken by color id, members in vertex order. Both
    /// criteria are label-invariant (color ids are ranks of sorted
    /// signatures), which canonicity requires — isomorphic inputs must
    /// individualize the same cell. Returns `false` when the coloring is
    /// discrete.
    fn branch_cell(&mut self, d: usize) -> bool {
        let level = &mut self.levels[d];
        let counts = &mut self.buf;
        counts.clear();
        counts.resize(self.n, 0);
        for &c in &level.vertex {
            counts[c as usize] += 1;
        }
        let Some(color) = (0..counts.len())
            .filter(|&c| counts[c] >= 2)
            .min_by_key(|&c| (counts[c], c))
        else {
            return false;
        };
        level.cell.clear();
        level
            .cell
            .extend((0..self.n as u32).filter(|&v| level.vertex[v as usize] == color as u64));
        true
    }

    /// Discrete partition at depth `d`: build the canonical code and
    /// keep it if it is the least seen so far.
    fn emit_candidate(&mut self, d: usize) {
        self.leaves += 1;
        let (n, m) = (self.n, self.m);
        // vertex_to_canonical[v] = rank of v's (distinct) color
        let canonical = &self.levels[d].vertex;
        debug_assert!({
            let mut seen = vec![false; n];
            canonical.iter().all(|&c| {
                let fresh = (c as usize) < n && !seen[c as usize];
                if (c as usize) < n {
                    seen[c as usize] = true;
                }
                fresh
            })
        });

        // Edges encoded as sorted canonical member lists, sorted
        // lexicographically (ties between duplicate edges are harmless:
        // the code is identical either way).
        for (out, &v) in self.canonical_members.iter_mut().zip(&self.members) {
            *out = canonical[v as usize] as u32;
        }
        let at = &self.members_at;
        for e in 0..m {
            self.canonical_members[at[e] as usize..at[e + 1] as usize].sort_unstable();
        }
        let list =
            |e: u32| &self.canonical_members[at[e as usize] as usize..at[e as usize + 1] as usize];
        self.edge_order.clear();
        self.edge_order.extend(0..m as u32);
        self.edge_order
            .sort_unstable_by(|&a, &b| list(a).cmp(list(b)).then(a.cmp(&b)));

        let code = &mut self.code;
        code.clear();
        code.push(n as u64);
        code.push(m as u64);
        self.buf.clear();
        self.buf
            .extend(self.marked.iter().map(|&v| canonical[v as usize]));
        self.buf.sort_unstable();
        code.push(self.buf.len() as u64);
        code.extend(&self.buf);
        for &e in &self.edge_order {
            let members = list(e);
            code.push(members.len() as u64);
            code.extend(members.iter().map(|&v| u64::from(v)));
        }

        let order = if self.leaves == 1 {
            Ordering::Less
        } else {
            code.as_slice().cmp(&self.best_code)
        };
        match order {
            Ordering::Equal => {
                // Two distinct labelings reaching the same code compose
                // into an automorphism: π = current⁻¹ ∘ best maps the
                // structure onto itself. Feed it to the orbit pruner.
                self.inverse.resize(n, 0);
                for (v, &c) in canonical.iter().enumerate() {
                    self.inverse[c as usize] = v as u32;
                }
                let start = self.automorphisms.len();
                self.automorphisms
                    .extend(self.best_vertex.iter().map(|&c| self.inverse[c]));
                let aut = &self.automorphisms[start..];
                if aut.iter().enumerate().all(|(v, &w)| v as u32 == w) {
                    self.automorphisms.truncate(start);
                }
            }
            Ordering::Greater => {}
            Ordering::Less => {
                std::mem::swap(&mut self.code, &mut self.best_code);
                self.best_vertex.clear();
                self.best_vertex
                    .extend(canonical.iter().map(|&c| c as usize));
                self.best_edge.resize(m, 0);
                for (pos, &e) in self.edge_order.iter().enumerate() {
                    self.best_edge[e as usize] = pos;
                }
            }
        }
    }
}

/// The hash of a cell's signature: the `prefix` words, then its
/// neighbors' `colors` as a sorted multiset (sorted in `buf`).
fn signature(prefix: &[u64], colors: impl Iterator<Item = u64>, buf: &mut Vec<u64>) -> u64 {
    use std::hash::Hasher as _;
    let mut h = cq_util::FxHasher::default();
    for &w in prefix {
        h.write_u64(w);
    }
    buf.clear();
    buf.extend(colors);
    buf.sort_unstable();
    for &c in buf.iter() {
        h.write_u64(c);
    }
    h.finish()
}

/// The list lengths of a CSR offset array.
fn lengths(at: &[u32]) -> impl Iterator<Item = u64> + '_ {
    at.windows(2).map(|w| u64::from(w[1] - w[0]))
}

/// The root of `x` in the union-find forest `parent`, halving the path.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: usize, edges: &[&[usize]]) -> Hypergraph {
        let mut hg = Hypergraph::new(n);
        for e in edges {
            hg.add_edge_from(e.iter().copied());
        }
        hg
    }

    fn key(hg: &Hypergraph, marked: &[usize]) -> CanonicalKey {
        canonical_key(hg, &BitSet::from_iter(marked.iter().copied()))
    }

    #[test]
    fn renaming_invariance_triangle() {
        let a = h(3, &[&[0, 1], &[0, 2], &[1, 2]]);
        // vertex renaming 0->2, 1->0, 2->1 and shuffled edge order
        let b = h(3, &[&[1, 2], &[0, 1], &[0, 2]]);
        assert_eq!(key(&a, &[0, 1, 2]), key(&b, &[0, 1, 2]));
        assert_eq!(key(&a, &[]), key(&b, &[]));
    }

    #[test]
    fn structure_is_distinguished() {
        let triangle = h(3, &[&[0, 1], &[0, 2], &[1, 2]]);
        let path = h(3, &[&[0, 1], &[1, 2], &[0, 1]]);
        let star = h(4, &[&[0, 1], &[0, 2], &[0, 3]]);
        let all = [&triangle, &path, &star];
        for (i, x) in all.iter().enumerate() {
            for (j, y) in all.iter().enumerate() {
                assert_eq!(i == j, key(x, &[]) == key(y, &[]), "{i} vs {j}");
            }
        }
    }

    #[test]
    fn compact_string_roundtrips() {
        let triangle = h(3, &[&[0, 1], &[0, 2], &[1, 2]]);
        let k = key(&triangle, &[0, 1]);
        let s = k.to_compact_string();
        assert_eq!(CanonicalKey::parse_compact(&s), Some(k));
        // also a key with small digest values: leading zeros must render
        let tiny = CanonicalKey {
            num_vertices: 1,
            num_edges: 0,
            degree_hash: 7,
            hash: 1,
        };
        let s = tiny.to_compact_string();
        assert_eq!(s.len(), "v1e0d".len() + 16 + 1 + 32);
        assert_eq!(CanonicalKey::parse_compact(&s), Some(tiny));
    }

    #[test]
    fn compact_string_rejects_corruption() {
        let k = key(&h(3, &[&[0, 1], &[1, 2]]), &[]).to_compact_string();
        for bad in [
            "".to_owned(),
            "v3e2".to_owned(),
            k[..k.len() - 1].to_owned(),  // truncated
            format!("{k}0"),              // trailing bytes
            k.replacen('d', "x", 1),      // wrong marker
            k.replacen('v', "V", 1),      // case matters
            k.to_uppercase(),             // hex must be lowercase
            k.replacen(&k[6..7], "g", 1), // non-hex digit
        ] {
            assert_eq!(CanonicalKey::parse_compact(&bad), None, "{bad:?}");
        }
    }

    #[test]
    fn marked_set_participates() {
        let hg = h(2, &[&[0], &[1]]);
        // 2 symmetric vertices: marking one vs the other is isomorphic,
        // marking none or both is a different structure.
        assert_eq!(key(&hg, &[0]), key(&hg, &[1]));
        assert_ne!(key(&hg, &[0]), key(&hg, &[]));
        assert_ne!(key(&hg, &[0]), key(&hg, &[0, 1]));
    }

    #[test]
    fn cycles_of_different_length_differ() {
        let c4 = h(4, &[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]);
        let c5 = h(5, &[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[4, 0]]);
        assert_ne!(key(&c4, &[]), key(&c5, &[]));
    }

    #[test]
    fn cycle_vs_disjoint_edges() {
        // Both 4 vertices, 4 edges... no: C4 vs two doubled edges — a
        // degree-regular pair refinement alone cannot split.
        let c4 = h(4, &[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]);
        let pairs = h(4, &[&[0, 1], &[0, 1], &[2, 3], &[2, 3]]);
        assert_ne!(key(&c4, &[]), key(&pairs, &[]));
    }

    #[test]
    fn c6_vs_two_triangles() {
        // The classic WL-1 indistinguishable pair: 2-regular, 6 vertices.
        // Individualization-refinement must separate them.
        let c6 = h(6, &[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 0]]);
        let tt = h(6, &[&[0, 1], &[1, 2], &[2, 0], &[3, 4], &[4, 5], &[5, 3]]);
        assert_ne!(key(&c6, &[]), key(&tt, &[]));
    }

    #[test]
    fn duplicate_edge_multiplicity_counts() {
        let single = h(2, &[&[0, 1]]);
        let double = h(2, &[&[0, 1], &[0, 1]]);
        assert_ne!(key(&single, &[]), key(&double, &[]));
    }

    #[test]
    fn renaming_invariance_under_random_permutations() {
        // A mixed-arity hypergraph, permuted a few ways by hand-rolled
        // LCG shuffles.
        let base_edges: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![2, 3],
            vec![3, 4, 5],
            vec![5, 0],
            vec![1, 4],
            vec![2, 3],
        ];
        let n = 6;
        let base = {
            let mut hg = Hypergraph::new(n);
            for e in &base_edges {
                hg.add_edge_from(e.iter().copied());
            }
            hg
        };
        let marked = [0usize, 3];
        let base_key = key(&base, &marked);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20 {
            // random permutation of 0..n via sort-by-random-key
            let mut perm: Vec<usize> = (0..n).collect();
            perm.sort_by_key(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state
            });
            let mut edges: Vec<Vec<usize>> = base_edges
                .iter()
                .map(|e| e.iter().map(|&v| perm[v]).collect())
                .collect();
            edges.sort_by_key(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state
            });
            let mut hg = Hypergraph::new(n);
            for e in &edges {
                hg.add_edge_from(e.iter().copied());
            }
            let marked_p: Vec<usize> = marked.iter().map(|&v| perm[v]).collect();
            assert_eq!(base_key, key(&hg, &marked_p));
        }
    }

    #[test]
    fn form_translates_vertex_data_roundtrip() {
        let hg = h(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        let form = canonical_form(&hg, &BitSet::new());
        let data = vec!["a", "b", "c", "d"];
        let canonical = form.vertex_data_to_canonical(&data);
        assert_eq!(form.vertex_data_from_canonical(&canonical), data);
        let edata = vec![10, 20, 30];
        let ecanon = form.edge_data_to_canonical(&edata);
        assert_eq!(form.edge_data_from_canonical(&ecanon), edata);
    }

    #[test]
    fn isomorphic_forms_translate_consistently() {
        // Path 0-1-2 vs relabeled path 2-0-1: the canonical index of the
        // *middle* vertex must agree.
        let a = h(3, &[&[0, 1], &[1, 2]]);
        let b = h(3, &[&[2, 0], &[0, 1]]);
        let fa = canonical_form(&a, &BitSet::new());
        let fb = canonical_form(&b, &BitSet::new());
        assert_eq!(fa.key, fb.key);
        // middle vertex: 1 in a, 0 in b
        assert_eq!(fa.vertex_to_canonical[1], fb.vertex_to_canonical[0]);
    }

    #[test]
    fn isolated_vertices_count() {
        let a = h(2, &[&[0, 1]]);
        let b = h(3, &[&[0, 1]]); // one isolated vertex extra
        assert_ne!(key(&a, &[]), key(&b, &[]));
    }

    #[test]
    fn refines_detects_collision_merges() {
        let refines = |old: &[u64], new: &[u64]| refines(old, new, &mut Vec::new());
        assert!(refines(&[0, 1, 1], &[0, 1, 2])); // genuine split
        assert!(refines(&[0, 1, 1], &[0, 1, 1])); // unchanged
        assert!(!refines(&[0, 1, 1], &[0, 0, 1])); // plain merge

        // A merge of old classes 1,2 masked by a split of old class 0:
        // class counts stay equal; only the refinement check sees it.
        assert!(!refines(&[0, 0, 1, 2], &[0, 1, 2, 2]));
    }

    #[test]
    fn empty_hypergraph_is_stable() {
        let a = Hypergraph::new(0);
        let b = Hypergraph::new(0);
        assert_eq!(key(&a, &[]), key(&b, &[]));
        let c = Hypergraph::new(2);
        assert_ne!(key(&a, &[]), key(&c, &[]));
    }
}
