//! Counting `|Q(D)|` by sum-product variable elimination, the one way
//! [`crate::eval::count_answers`] counts.
//!
//! Each body atom becomes a *factor*: its rows consistent with repeated
//! variables, projected onto its distinct variables, each with weight 1.
//! Variables are then summed out one at a time along a min-fill order of
//! the primal graph in which every existential variable comes before
//! every head variable:
//!
//! - an existential variable is summed out in the Boolean semiring
//!   (`∃`), so the factors over the head that remain say which head
//!   tuples have a witness;
//! - a head variable is summed out in ℕ (`+` and `×` saturating at
//!   `u64::MAX`), so the last scalar is the number of distinct head
//!   tuples, or `u64::MAX` when there are at least that many (see
//!   [`crate::eval::count_answers`] for why saturation is exact below).
//!
//! Summing out `v` combines the factors that mention it, `F_v`, into one
//! over `S`, the other variables of those factors. A step does one of
//! three things with that sum:
//!
//! - **collapse** — no other factor mentions a variable of `S`, so the
//!   factors of `F_v` form a component on their own: the step counts
//!   their join (its distinct head tuples in the Boolean phase, the sum
//!   of its weights in ℕ) and multiplies the count into the answer;
//! - **absorb** — another factor `g` has a scope covering `S` (the
//!   indicator projection of InsideOut): the sum is needed only on `g`'s
//!   rows, so it is computed row by row of `g` and multiplied into `g`'s
//!   weights. The triangle is `Σ_{E(x,y)} |out(x) ∩ out(y)|` this way,
//!   and no 2-path factor is ever built. When `F_v` has two or more
//!   weight-1 factors and `v`'s value ids are dense enough, each of them
//!   is held as bitset rows over `v`'s ids and a row of `g` costs one
//!   AND and popcount per word;
//! - **materialise** — otherwise the sum becomes a new factor over `S`,
//!   built one group of a lead factor's rows at a time.
//!
//! Steps over two-variable factors whose value ids are dense skip the
//! generic hashed join: their factors are read as sparse matrices
//! (compressed rows over ids), so a materialised or collapsed step is a
//! matrix product (bitset rows ORed together in the Boolean phase) and an
//! absorbed one is a dot product or a row sum per row of `g`.
//!
//! The plan ([`Elimination::new`]) is symbolic: it fixes the order and
//! each step's factors and action from the query and the relation sizes
//! alone. When several factors cover `S`, the step absorbs into the one
//! with the fewest rows, bounded for a materialised factor by the cover
//! product of its scope over the atoms beneath it (the product of
//! relation sizes over an integral edge cover, the paper's §3.1
//! quantity).
//!
//! The generic join under every step ([`probes`] orders the factors and
//! indexes each on the variables bound before it, [`descend`] walks them
//! depth-first) is also how `Q(D)` is listed: [`crate::eval::evaluate`]
//! runs it once over the factors of all the atoms.

use crate::eval::atom_columns;
use crate::query::{Atom, ConjunctiveQuery, VarIdx};
use cq_hypergraph::{min_fill_ordering_first, Graph};
use cq_relation::{Relation, TupleMap, Value};
use cq_util::BitSet;
use std::ops::ControlFlow;

/// What a step does with the sum over its variable (see the module
/// docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    Collapse,
    /// Multiplied into the rows of the factor with this id.
    Absorb(usize),
    Materialize,
}

/// One step of the plan: sum out `var` from the factors `inputs`.
#[derive(Clone, Debug)]
struct PlanStep {
    var: VarIdx,
    /// `var` is existential: the step runs in the Boolean semiring.
    boolean: bool,
    /// Ids of the live factors mentioning `var`. Atom `i`'s factor has id
    /// `i`; materialised factors take the next ids in step order.
    inputs: Vec<usize>,
    /// The other variables of `inputs`, ascending.
    scope: Vec<VarIdx>,
    action: Action,
}

/// A symbolic factor: its variables and the atoms it was built from.
struct Shape {
    scope: Vec<VarIdx>,
    atoms: Vec<usize>,
    /// Upper bound on its rows.
    bound: u64,
}

/// The elimination plan for one query over given relation sizes.
pub(crate) struct Elimination {
    steps: Vec<PlanStep>,
}

impl Elimination {
    /// Plans the count of `q` over relations of `sizes` rows (one entry
    /// per body atom).
    pub(crate) fn new(q: &ConjunctiveQuery, sizes: &[usize]) -> Elimination {
        let body = q.body();
        let head = q.head_var_set();
        let mut graph = Graph::new(q.num_vars());
        let mut existential = BitSet::new();
        for atom in body {
            for (i, &a) in atom.vars.iter().enumerate() {
                if !head.contains(a) {
                    existential.insert(a);
                }
                for &b in &atom.vars[i + 1..] {
                    graph.add_edge(a, b);
                }
            }
        }
        let order = min_fill_ordering_first(&graph, &existential);

        let mut shapes: Vec<Option<Shape>> = body
            .iter()
            .enumerate()
            .map(|(i, atom)| {
                Some(Shape {
                    scope: atom_columns(atom).0,
                    atoms: vec![i],
                    bound: sizes[i] as u64,
                })
            })
            .collect();
        let mut steps = Vec::new();
        for v in order {
            let inputs: Vec<usize> = live(&shapes)
                .filter(|(_, s)| s.scope.contains(&v))
                .map(|(id, _)| id)
                .collect();
            if inputs.is_empty() {
                continue; // a declared variable no atom uses
            }
            let mut scope: Vec<VarIdx> = Vec::new();
            let mut atoms: Vec<usize> = Vec::new();
            for &id in &inputs {
                let s = shapes[id].as_ref().expect("live factor");
                scope.extend(s.scope.iter().copied().filter(|&u| u != v));
                atoms.extend_from_slice(&s.atoms);
            }
            scope.sort_unstable();
            scope.dedup();
            atoms.sort_unstable();
            atoms.dedup();
            let others = || live(&shapes).filter(|(id, _)| !inputs.contains(id));
            let isolated = others().all(|(_, s)| s.scope.iter().all(|u| !scope.contains(u)));
            let cover = others()
                .filter(|(_, s)| scope.iter().all(|u| s.scope.contains(u)))
                .min_by_key(|&(id, s)| (s.bound, id))
                .map(|(id, _)| id);
            let action = match cover {
                Some(g) if !isolated => Action::Absorb(g),
                _ if isolated => Action::Collapse,
                _ => Action::Materialize,
            };
            for &id in &inputs {
                shapes[id] = None;
            }
            match action {
                Action::Absorb(g) => {
                    let g = shapes[g].as_mut().expect("live factor");
                    g.atoms.extend(atoms);
                    g.atoms.sort_unstable();
                    g.atoms.dedup();
                }
                Action::Materialize => {
                    let bound = cover_product(&scope, &atoms, body, sizes).unwrap_or(u64::MAX);
                    shapes.push(Some(Shape {
                        scope: scope.clone(),
                        atoms,
                        bound,
                    }));
                }
                Action::Collapse => {}
            }
            steps.push(PlanStep {
                var: v,
                boolean: existential.contains(v),
                inputs,
                scope,
                action,
            });
        }
        Elimination { steps }
    }

    /// Runs the plan on `rels` (atom `i` over `rels[i]`, every arity
    /// checked): `|Q(D)|`, saturated at `u64::MAX`.
    pub(crate) fn run(&self, q: &ConjunctiveQuery, rels: &[&Relation]) -> u64 {
        let mut factors: Vec<Option<Factor>> = q
            .body()
            .iter()
            .zip(rels)
            .map(|(atom, rel)| Some(Factor::of_atom(atom, rel)))
            .collect();
        let domain = factors
            .iter()
            .flatten()
            .flat_map(|f| f.rows.iter())
            .map(|v| v.id() as usize + 1)
            .max()
            .unwrap_or(0);
        let mut head = vec![false; q.num_vars()];
        for &v in q.head() {
            head[v] = true;
        }
        let mut answer: u64 = 1;
        for step in &self.steps {
            if factors.iter().flatten().any(|f| f.is_empty()) {
                return 0;
            }
            let inputs: Vec<Factor> = step
                .inputs
                .iter()
                .map(|&id| factors[id].take().expect("live factor"))
                .collect();
            let inputs: Vec<&Factor> = inputs.iter().collect();
            let ctx = StepCtx {
                var: step.var,
                boolean: step.boolean,
                domain,
            };
            match step.action {
                Action::Absorb(g) => {
                    let g = factors[g].as_mut().expect("live factor");
                    ctx.absorb(&inputs, g);
                }
                Action::Materialize => {
                    let Summed::Factor(f) = ctx.join(&inputs, &step.scope, Sink::Factor) else {
                        unreachable!("a factor sink yields a factor");
                    };
                    factors.push(Some(f));
                }
                Action::Collapse => {
                    // The Boolean phase counts the distinct values of the
                    // scope's head variables; ℕ sums every weight.
                    let out: Vec<VarIdx> = if step.boolean {
                        step.scope.iter().copied().filter(|&u| head[u]).collect()
                    } else {
                        Vec::new()
                    };
                    let count = match (&inputs[..], &out[..]) {
                        // One factor and nothing to keep distinct: whether
                        // it has a row, or the sum of its weights.
                        ([f], []) if step.boolean => u64::from(!f.is_empty()),
                        ([f], []) => f.weights.iter().fold(0u64, |s, &w| s.saturating_add(w)),
                        _ => match ctx.join(&inputs, &out, Sink::Count) {
                            Summed::Count(count) => count,
                            Summed::Factor(_) => unreachable!("a count sink yields a count"),
                        },
                    };
                    answer = answer.saturating_mul(count);
                }
            }
        }
        // Every variable is summed out; what is left are the factors of
        // nullary atoms, and an empty one means no answers.
        if factors.iter().flatten().any(|f| f.is_empty()) {
            return 0;
        }
        answer
    }
}

fn live(shapes: &[Option<Shape>]) -> impl Iterator<Item = (usize, &Shape)> + '_ {
    shapes
        .iter()
        .enumerate()
        .filter_map(|(id, s)| s.as_ref().map(|s| (id, s)))
}

/// The product of relation sizes over a greedy integral edge cover of
/// `vars` by `atoms` (at each turn the atom covering the most uncovered
/// variables, then the smaller relation, then the lower index): an upper
/// bound on the rows of the join of `atoms` projected onto `vars`.
/// `None` on overflow.
fn cover_product(vars: &[VarIdx], atoms: &[usize], body: &[Atom], sizes: &[usize]) -> Option<u64> {
    let mut uncovered: Vec<VarIdx> = vars.to_vec();
    let mut product: u64 = 1;
    while !uncovered.is_empty() {
        let (gain, best) = atoms
            .iter()
            .map(|&a| {
                let gain = uncovered
                    .iter()
                    .filter(|u| body[a].vars.contains(u))
                    .count();
                (gain, a)
            })
            .max_by_key(|&(gain, a)| (gain, std::cmp::Reverse((sizes[a], a))))?;
        if gain == 0 {
            return None; // a variable no atom mentions
        }
        product = product.checked_mul(sizes[best] as u64)?;
        uncovered.retain(|u| !body[best].vars.contains(u));
    }
    Some(product)
}

/// A factor: distinct rows over `scope`, each with a positive weight.
pub(crate) struct Factor {
    scope: Vec<VarIdx>,
    /// `scope.len()` values per row.
    rows: Vec<Value>,
    weights: Vec<u64>,
}

impl Factor {
    /// Atom `atom` over `rel`: the rows whose repeated variables agree,
    /// projected onto its distinct variables, with weight 1.
    pub(crate) fn of_atom(atom: &Atom, rel: &Relation) -> Factor {
        let (scope, pos, equal) = atom_columns(atom);
        let mut rows = Vec::with_capacity(rel.len() * scope.len());
        for row in rel.iter() {
            if equal.iter().all(|&(p, first)| row[p] == row[first]) {
                rows.extend(pos.iter().map(|&p| row[p]));
            }
        }
        // A nullary atom's factor has the empty row when its relation does.
        let n = match scope.len() {
            0 => rel.len().min(1),
            w => rows.len() / w,
        };
        Factor {
            scope,
            rows,
            weights: vec![1; n],
        }
    }

    fn len(&self) -> usize {
        self.weights.len()
    }

    fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    fn row(&self, i: usize) -> &[Value] {
        let w = self.scope.len();
        &self.rows[i * w..(i + 1) * w]
    }

    /// `true` when every weight is 1 (a set of rows).
    fn is_boolean(&self) -> bool {
        self.weights.iter().all(|&w| w == 1)
    }

    fn position(&self, v: VarIdx) -> usize {
        self.scope
            .iter()
            .position(|&u| u == v)
            .expect("variable in scope")
    }

    /// Indexes the rows on the variables `key`.
    fn index(&self, key: &[VarIdx]) -> RowIndex {
        let key_pos: Vec<usize> = key.iter().map(|&v| self.position(v)).collect();
        let width = self.scope.len().max(1);
        RowIndex::new(self.rows.chunks_exact(width), self.len(), &key_pos)
    }

    /// The variable of a two-variable factor other than `v`.
    fn other(&self, v: VarIdx) -> VarIdx {
        self.scope[1 - self.position(v)]
    }
}

/// Row numbers grouped by their values at some key positions, in one
/// buffer: each key maps to a group `g`, whose rows are
/// `rows[starts[g]..starts[g + 1]]`, in row order within a group.
struct RowIndex {
    groups: TupleMap<u32>,
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl RowIndex {
    /// Indexes the `len` rows of `rows` on the positions `key_pos`.
    fn new<'r>(rows: impl Iterator<Item = &'r [Value]>, len: usize, key_pos: &[usize]) -> RowIndex {
        assert!(len < u32::MAX as usize, "relation too large to index");
        let mut groups: TupleMap<u32> = TupleMap::new(key_pos.len());
        // Each row's group; then `sizes` becomes the fill cursor.
        let mut group_of: Vec<u32> = Vec::with_capacity(len);
        let mut sizes: Vec<u32> = Vec::new();
        let mut key = Vec::with_capacity(key_pos.len());
        for row in rows {
            key.clear();
            key.extend(key_pos.iter().map(|&p| row[p]));
            let g = *groups.get_or_insert_with(&key, || {
                sizes.push(0);
                (sizes.len() - 1) as u32
            });
            sizes[g as usize] += 1;
            group_of.push(g);
        }
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        let mut total = 0;
        for size in &mut sizes {
            let start = total;
            total += *size;
            starts.push(start);
            *size = start;
        }
        starts.push(total);
        let mut rows = vec![0; total as usize];
        for (i, &g) in group_of.iter().enumerate() {
            let at = &mut sizes[g as usize];
            rows[*at as usize] = i as u32;
            *at += 1;
        }
        RowIndex {
            groups,
            starts,
            rows,
        }
    }

    /// Number of groups.
    fn num_groups(&self) -> usize {
        self.starts.len() - 1
    }

    /// Numbers of the rows in group `g`.
    fn group(&self, g: usize) -> &[u32] {
        &self.rows[self.starts[g] as usize..self.starts[g + 1] as usize]
    }

    /// Numbers of the rows whose key is `key` (none when it is absent).
    fn get(&self, key: &[Value]) -> &[u32] {
        self.groups
            .get(key)
            .map_or(&[], |&g| self.group(g as usize))
    }
}

/// A two-variable factor's rows grouped by the value id of one of its
/// variables (compressed sparse rows): for each id, the other
/// variable's values and the weights.
struct Csr {
    /// The distinct values of the grouping variable, by id.
    keys: Vec<Value>,
    starts: Vec<u32>,
    other: Vec<Value>,
    weights: Vec<u64>,
}

impl Csr {
    /// `f`'s rows by the ids of its variable `by` (ids below `domain`).
    fn new(f: &Factor, by: VarIdx, domain: usize) -> Csr {
        let (at, to) = (f.position(by), 1 - f.position(by));
        let (starts, order) = counting_sort(f, at, domain);
        let keys = (0..domain)
            .filter(|&id| starts[id] < starts[id + 1])
            .map(|id| f.row(order[starts[id] as usize] as usize)[at])
            .collect();
        Csr {
            keys,
            starts,
            other: order.iter().map(|&i| f.row(i as usize)[to]).collect(),
            weights: order.iter().map(|&i| f.weights[i as usize]).collect(),
        }
    }

    /// Rows per key, rounded down.
    fn run(&self) -> usize {
        self.other.len() / self.keys.len().max(1)
    }

    /// The other values and weights under the id of `v`.
    fn get(&self, v: Value) -> (&[Value], &[u64]) {
        let id = v.id() as usize;
        let range = self.starts[id] as usize..self.starts[id + 1] as usize;
        (&self.other[range.clone()], &self.weights[range])
    }
}

/// `f`'s row numbers sorted by the value id at position `at` (ids below
/// `domain`), and where each id's run starts (one past the last too).
fn counting_sort(f: &Factor, at: usize, domain: usize) -> (Vec<u32>, Vec<u32>) {
    let mut starts = vec![0u32; domain + 1];
    for i in 0..f.len() {
        starts[f.row(i)[at].id() as usize + 1] += 1;
    }
    for id in 0..domain {
        starts[id + 1] += starts[id];
    }
    let mut fill = starts.clone();
    let mut order = vec![0u32; f.len()];
    for i in 0..f.len() {
        let slot = &mut fill[f.row(i)[at].id() as usize];
        order[*slot as usize] = i as u32;
        *slot += 1;
    }
    (starts, order)
}

/// The two-variable inputs of a step over `var` whose ids are
/// [`dense`]: the fast kernels' precondition.
fn binary_inputs(inputs: &[&Factor], var: VarIdx, domain: usize) -> bool {
    let rows: usize = inputs.iter().map(|f| f.len()).sum();
    dense(domain, rows)
        && inputs
            .iter()
            .all(|f| f.scope.len() == 2 && f.scope.contains(&var))
}

/// Whether arrays over value ids `0..domain` are cheap next to `rows`
/// rows: at most four ids per row, plus a page's worth.
fn dense(domain: usize, rows: usize) -> bool {
    domain <= rows.saturating_mul(4) + 1024
}

/// A factor in a join: indexed on the variables bound before it.
pub(crate) struct Probe<'f> {
    factor: &'f Factor,
    key_vars: Vec<VarIdx>,
    index: RowIndex,
    /// Positions whose variables it binds.
    binds: Vec<(usize, VarIdx)>,
}

/// Orders `factors` for a join after the variables marked in `bound`:
/// at each turn the factor with the most bound variables, then the fewer
/// rows; each is indexed on its bound variables. Marks what they bind.
pub(crate) fn probes<'f>(factors: &[&'f Factor], bound: &mut [bool]) -> Vec<Probe<'f>> {
    let mut left: Vec<&Factor> = factors.to_vec();
    let mut out = Vec::with_capacity(left.len());
    while !left.is_empty() {
        let (i, _) = left
            .iter()
            .enumerate()
            .max_by_key(|(i, f)| {
                let shared = f.scope.iter().filter(|&&v| bound[v]).count();
                (shared, std::cmp::Reverse((f.len(), *i)))
            })
            .expect("factors left");
        let factor = left.remove(i);
        let key_vars: Vec<VarIdx> = factor.scope.iter().copied().filter(|&v| bound[v]).collect();
        let binds: Vec<(usize, VarIdx)> = factor
            .scope
            .iter()
            .enumerate()
            .filter(|&(_, &v)| !bound[v])
            .map(|(p, &v)| (p, v))
            .collect();
        for &(_, v) in &binds {
            bound[v] = true;
        }
        out.push(Probe {
            index: factor.index(&key_vars),
            factor,
            key_vars,
            binds,
        });
    }
    out
}

/// Depth-first join over `probes`: calls `visit` with each full
/// assignment and the product of its rows' weights times `weight`
/// (saturating), until `visit` breaks.
pub(crate) fn descend(
    probes: &[Probe],
    assignment: &mut [Option<Value>],
    key: &mut Vec<Value>,
    weight: u64,
    visit: &mut impl FnMut(&[Option<Value>], u64) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Some((p, rest)) = probes.split_first() else {
        return visit(assignment, weight);
    };
    key.clear();
    key.extend(p.key_vars.iter().map(|&v| assignment[v].expect("bound")));
    for &row in p.index.get(key) {
        let values = p.factor.row(row as usize);
        for &(pos, v) in &p.binds {
            assignment[v] = Some(values[pos]);
        }
        let w = weight.saturating_mul(p.factor.weights[row as usize]);
        descend(rest, assignment, key, w, visit)?;
    }
    ControlFlow::Continue(())
}

/// What [`StepCtx::join`] makes of what it sums.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sink {
    /// A new factor over the output variables.
    Factor,
    /// The number of output tuples (Boolean) or the sum of the weights
    /// (ℕ).
    Count,
}

/// What [`StepCtx::join`] made, as its [`Sink`] asked.
enum Summed {
    Factor(Factor),
    Count(u64),
}

impl Summed {
    fn of(sink: Sink, made: Factor, count: u64) -> Summed {
        match sink {
            Sink::Factor => Summed::Factor(made),
            Sink::Count => Summed::Count(count),
        }
    }
}

/// One step's variable, semiring and the value-id bound.
struct StepCtx {
    var: VarIdx,
    boolean: bool,
    /// One past the largest value id in the database's factors.
    domain: usize,
}

impl StepCtx {
    /// Sums `var` out of the join of `inputs` onto the variables `out`
    /// (every other variable is summed out with it, in the step's
    /// semiring). The join is led by the input sharing the most
    /// variables with `out`, one group of its rows (by their values on
    /// `out`) at a time; the rest of `out` is accumulated per group, in a
    /// dense array over value ids when it is one variable with few ids.
    fn join(&self, inputs: &[&Factor], out: &[VarIdx], sink: Sink) -> Summed {
        if let [f, h] = inputs {
            if binary_inputs(inputs, self.var, self.domain) {
                let (u, w) = (f.other(self.var), h.other(self.var));
                let counts_all = out.is_empty() && !self.boolean;
                if u != w && (counts_all || out == [u.min(w), u.max(w)]) {
                    return self.product(f, h, sink);
                }
            }
        }
        let (li, lead) = inputs
            .iter()
            .enumerate()
            .max_by_key(|(i, f)| {
                let shared = f.scope.iter().filter(|v| out.contains(v)).count();
                (shared, std::cmp::Reverse((f.len(), *i)))
            })
            .expect("a step has inputs");
        let group_vars: Vec<VarIdx> = out
            .iter()
            .copied()
            .filter(|v| lead.scope.contains(v))
            .collect();
        let rest_vars: Vec<VarIdx> = out
            .iter()
            .copied()
            .filter(|v| !lead.scope.contains(v))
            .collect();
        let num_vars = inputs
            .iter()
            .flat_map(|f| f.scope.iter())
            .max()
            .map_or(0, |&v| v + 1);
        let mut bound = vec![false; num_vars];
        for &v in &lead.scope {
            bound[v] = true;
        }
        let others: Vec<&Factor> = inputs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != li)
            .map(|(_, &f)| f)
            .collect();
        let rest = probes(&others, &mut bound);
        let groups = lead.index(&group_vars);
        let rows_in: usize = inputs.iter().map(|f| f.len()).sum();
        let mut acc = Acc::new(rest_vars.len(), self.domain, rows_in);

        let mut scope: Vec<VarIdx> = group_vars.clone();
        scope.extend_from_slice(&rest_vars);
        let mut made = Factor {
            scope,
            rows: Vec::new(),
            weights: Vec::new(),
        };
        let mut total: u64 = 0;
        let mut assignment: Vec<Option<Value>> = vec![None; num_vars];
        let mut key = Vec::new();
        let mut tuple = Vec::with_capacity(rest_vars.len());
        let group_pos: Vec<usize> = group_vars.iter().map(|&v| lead.position(v)).collect();
        for g in 0..groups.num_groups() {
            let rows = groups.group(g);
            for &row in rows {
                let values = lead.row(row as usize);
                for (p, &v) in lead.scope.iter().enumerate() {
                    assignment[v] = Some(values[p]);
                }
                let flow = descend(
                    &rest,
                    &mut assignment,
                    &mut key,
                    lead.weights[row as usize],
                    &mut |a, w| {
                        tuple.clear();
                        tuple.extend(rest_vars.iter().map(|&v| a[v].expect("bound")));
                        acc.add(&tuple, w, self.boolean);
                        if self.boolean && rest_vars.is_empty() {
                            ControlFlow::Break(()) // the group has its witness
                        } else {
                            ControlFlow::Continue(())
                        }
                    },
                );
                if flow.is_break() {
                    break;
                }
            }
            let first = lead.row(rows[0] as usize);
            acc.drain(|r, w| match sink {
                Sink::Count => total = total.saturating_add(if self.boolean { 1 } else { w }),
                Sink::Factor => {
                    made.rows.extend(group_pos.iter().map(|&p| first[p]));
                    made.rows.extend_from_slice(r);
                    made.weights.push(w);
                }
            });
        }
        Summed::of(sink, made, total)
    }

    /// Multiplies into each row of `g` the sum over `var` of the product
    /// of `inputs` (all of whose other variables `g` binds), dropping
    /// the rows where it is 0.
    fn absorb(&self, inputs: &[&Factor], g: &mut Factor) {
        let sums = match BitRows::for_step(inputs, self.var, self.domain) {
            Some(bits) => bits.sums(g, self.boolean),
            None if binary_inputs(inputs, self.var, self.domain) => match inputs {
                [f] => self.row_sums(f, g),
                [f, h] => self.dot_sums(f, h, g),
                _ => self.probe_sums(inputs, g),
            },
            None => self.probe_sums(inputs, g),
        };
        let width = g.scope.len();
        let mut kept = 0;
        for (i, &sum) in sums.iter().enumerate() {
            if sum == 0 {
                continue;
            }
            g.rows.copy_within(i * width..(i + 1) * width, kept * width);
            g.weights[kept] = g.weights[i].saturating_mul(sum);
            kept += 1;
        }
        g.rows.truncate(kept * width);
        g.weights.truncate(kept);
    }

    /// `Σ_v f(u, v) · h(v, w)` over two-variable factors with `u ≠ w`,
    /// one `u` at a time into a dense accumulator over `w`'s ids: the
    /// matrix product (Boolean or ℕ), kept as a factor over `(u, w)` or
    /// counted (its rows in the Boolean phase, its weights in ℕ).
    fn product(&self, f: &Factor, h: &Factor, sink: Sink) -> Summed {
        let u = f.other(self.var);
        let by_u = Csr::new(f, u, self.domain);
        let words = self.domain.div_ceil(64);
        if self.boolean {
            if let Some(bits) = BitPart::new(h, h.other(self.var), self.domain, words) {
                return self.bit_product(f, &by_u, h, &bits, words, sink);
            }
        }
        let by_v = Csr::new(h, self.var, self.domain);
        let mut acc = Acc::Dense {
            sums: vec![0; self.domain],
            touched: Vec::new(),
        };
        let mut made = Factor {
            scope: vec![u, h.other(self.var)],
            rows: Vec::new(),
            weights: Vec::new(),
        };
        let mut total: u64 = 0;
        for &x in &by_u.keys {
            let (vs, a) = by_u.get(x);
            for (&v, &a) in vs.iter().zip(a) {
                let (ws, b) = by_v.get(v);
                for (w, &b) in ws.iter().zip(b) {
                    acc.add(std::slice::from_ref(w), a.saturating_mul(b), self.boolean);
                }
            }
            acc.drain(|r, w| match sink {
                Sink::Count => total = total.saturating_add(if self.boolean { 1 } else { w }),
                Sink::Factor => {
                    made.rows.push(x);
                    made.rows.push(r[0]);
                    made.weights.push(w);
                }
            });
        }
        Summed::of(sink, made, total)
    }

    /// [`Self::product`] in the Boolean semiring on `h`'s bitset rows:
    /// each `u`'s row is the OR of `h`'s rows under its `v`s.
    fn bit_product(
        &self,
        f: &Factor,
        by_u: &Csr,
        h: &Factor,
        bits: &BitPart,
        words: usize,
        sink: Sink,
    ) -> Summed {
        let w = h.other(self.var);
        let mut value_of: Vec<Option<Value>> = Vec::new();
        if sink == Sink::Factor {
            value_of = vec![None; self.domain];
            for i in 0..h.len() {
                let v = h.row(i)[h.position(w)];
                value_of[v.id() as usize] = Some(v);
            }
        }
        let mut made = Factor {
            scope: vec![f.other(self.var), w],
            rows: Vec::new(),
            weights: Vec::new(),
        };
        let mut total: u64 = 0;
        let mut acc = vec![0u64; words];
        for &x in &by_u.keys {
            acc.fill(0);
            for &v in by_u.get(x).0 {
                if let Some(row) = bits.get(Some(v), words) {
                    for (a, b) in acc.iter_mut().zip(row) {
                        *a |= b;
                    }
                }
            }
            if value_of.is_empty() {
                total += acc.iter().map(|a| u64::from(a.count_ones())).sum::<u64>();
                continue;
            }
            for (k, &word) in acc.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let id = k * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    made.rows.push(x);
                    made.rows.push(value_of[id].expect("a value of h"));
                    made.weights.push(1);
                }
            }
        }
        Summed::of(sink, made, total)
    }

    /// The per-row sums of [`Self::absorb`] for one two-variable input
    /// `f(x, v)`: `Σ_v f(x, v)` at each row's `x`, from one pass over
    /// `f` into an array over `x`'s ids.
    fn row_sums(&self, f: &Factor, g: &Factor) -> Vec<u64> {
        let x = f.other(self.var);
        let (fx, gx) = (f.position(x), g.position(x));
        let mut by_x = vec![0u64; self.domain];
        for i in 0..f.len() {
            let slot = &mut by_x[f.row(i)[fx].id() as usize];
            *slot = if self.boolean {
                1
            } else {
                slot.saturating_add(f.weights[i])
            };
        }
        (0..g.len())
            .map(|i| by_x[g.row(i)[gx].id() as usize])
            .collect()
    }

    /// The per-row sums of [`Self::absorb`] for two two-variable inputs
    /// `f(x, v)` and `h(y, v)`: `Σ_v f(x, v) · h(y, v)` at each row's
    /// `(x, y)`. The input with the larger runs is scattered into an
    /// array over `v`'s ids once per value of its variable (`g`'s rows
    /// are visited grouped on it), and the other's run under each row is
    /// summed against it.
    fn dot_sums(&self, f: &Factor, h: &Factor, g: &Factor) -> Vec<u64> {
        let by_f = Csr::new(f, f.other(self.var), self.domain);
        let by_h = Csr::new(h, h.other(self.var), self.domain);
        // Scatter the input with more rows per value of its variable.
        let (x, by_x, y, by_y) = if by_f.run() >= by_h.run() {
            (f.other(self.var), by_f, h.other(self.var), by_h)
        } else {
            (h.other(self.var), by_h, f.other(self.var), by_f)
        };
        let (gx, gy) = (g.position(x), g.position(y));
        let (starts, order) = counting_sort(g, gx, self.domain);
        let mut scatter = vec![0u64; self.domain];
        let mut sums = vec![0u64; g.len()];
        for id in 0..self.domain {
            let group = &order[starts[id] as usize..starts[id + 1] as usize];
            let Some(&first) = group.first() else {
                continue;
            };
            let (vs, ws) = by_x.get(g.row(first as usize)[gx]);
            for (v, &w) in vs.iter().zip(ws) {
                scatter[v.id() as usize] = w;
            }
            for &i in group {
                let (vs, ws) = by_y.get(g.row(i as usize)[gy]);
                let mut sum: u64 = 0;
                for (v, &w) in vs.iter().zip(ws) {
                    let s = scatter[v.id() as usize];
                    if s != 0 {
                        sum = sum.saturating_add(s.saturating_mul(w));
                        if self.boolean {
                            break;
                        }
                    }
                }
                sums[i as usize] = sum;
            }
            for v in vs {
                scatter[v.id() as usize] = 0;
            }
        }
        sums
    }

    /// The per-row sums of [`Self::absorb`] by a join of `inputs` under
    /// each row of `g`.
    fn probe_sums(&self, inputs: &[&Factor], g: &Factor) -> Vec<u64> {
        let num_vars = inputs
            .iter()
            .chain([&g])
            .flat_map(|f| f.scope.iter())
            .max()
            .map_or(0, |&v| v + 1);
        let mut bound = vec![false; num_vars];
        for &v in &g.scope {
            bound[v] = true;
        }
        let probes = probes(inputs, &mut bound);
        let mut assignment: Vec<Option<Value>> = vec![None; num_vars];
        let mut key = Vec::new();
        let mut sums = Vec::with_capacity(g.len());
        for i in 0..g.len() {
            let row = g.row(i);
            for (p, &v) in g.scope.iter().enumerate() {
                assignment[v] = Some(row[p]);
            }
            let mut sum: u64 = 0;
            let _ = descend(&probes, &mut assignment, &mut key, 1, &mut |_, w| {
                sum = sum.saturating_add(w);
                if self.boolean {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            sums.push(sum);
        }
        sums
    }
}

/// Weight-1 factors over `var` and at most one key variable, held as
/// one bitset over `var`'s value ids per key value.
struct BitRows {
    parts: Vec<BitPart>,
    words: usize,
}

/// A weight-1 factor of at most two variables as bitset rows: for each
/// value id of its key variable (if any), a bitset over the value ids of
/// its other variable.
struct BitPart {
    /// The key variable, if any.
    key_var: Option<VarIdx>,
    /// Bitset row of each key value id (`u32::MAX`: none).
    slot: Vec<u32>,
    bits: Vec<u64>,
}

impl BitPart {
    /// `f`'s rows as bitsets over `bit_var`'s ids (`words` words each),
    /// one per value of its other variable. `None` unless every weight is
    /// 1 and the bitsets take at most four words per row of `f`.
    fn new(f: &Factor, bit_var: VarIdx, domain: usize, words: usize) -> Option<BitPart> {
        if f.scope.len() > 2 || !f.is_boolean() {
            return None;
        }
        let bit_pos = f.position(bit_var);
        let key_var = f.scope.iter().copied().find(|&v| v != bit_var);
        let key_pos = key_var.map(|v| f.position(v));
        let mut slot = vec![u32::MAX; if key_var.is_some() { domain } else { 1 }];
        let mut bits: Vec<u64> = Vec::new();
        for i in 0..f.len() {
            let row = f.row(i);
            let s = &mut slot[key_pos.map_or(0, |p| row[p].id() as usize)];
            if *s == u32::MAX {
                *s = (bits.len() / words) as u32;
                bits.resize(bits.len() + words, 0);
                if bits.len() > 4 * f.len() {
                    return None; // sparser than it is wide
                }
            }
            let id = row[bit_pos].id() as usize;
            bits[*s as usize * words + id / 64] |= 1 << (id % 64);
        }
        Some(BitPart {
            key_var,
            slot,
            bits,
        })
    }

    /// The bitset row under key value `v` (the one row without a key).
    fn get(&self, v: Option<Value>, words: usize) -> Option<&[u64]> {
        let at = self.slot[v.map_or(0, |v| v.id() as usize)];
        (at != u32::MAX).then(|| &self.bits[at as usize * words..(at as usize + 1) * words])
    }
}

impl BitRows {
    /// Bitset rows for the inputs of a step over `var`, when there are
    /// at least two, value ids are [`dense`], and each input is a
    /// [`BitPart`]; otherwise `None`.
    fn for_step(inputs: &[&Factor], var: VarIdx, domain: usize) -> Option<BitRows> {
        let rows: usize = inputs.iter().map(|f| f.len()).sum();
        if inputs.len() < 2 || !dense(domain, rows) {
            return None;
        }
        let words = domain.div_ceil(64);
        let parts = inputs
            .iter()
            .map(|f| BitPart::new(f, var, domain, words))
            .collect::<Option<_>>()?;
        Some(BitRows { parts, words })
    }

    /// For each row of `g`: the size of the intersection of the parts'
    /// bitsets under it (in ℕ), or whether it is nonempty (Boolean).
    fn sums(&self, g: &Factor, boolean: bool) -> Vec<u64> {
        let key_pos: Vec<Option<usize>> = self
            .parts
            .iter()
            .map(|p| p.key_var.map(|v| g.position(v)))
            .collect();
        let mut rows: Vec<&[u64]> = Vec::with_capacity(self.parts.len());
        let mut sums = Vec::with_capacity(g.len());
        'rows: for i in 0..g.len() {
            let row = g.row(i);
            rows.clear();
            for (part, pos) in self.parts.iter().zip(&key_pos) {
                let Some(bits) = part.get(pos.map(|p| row[p]), self.words) else {
                    sums.push(0);
                    continue 'rows;
                };
                rows.push(bits);
            }
            let mut count = 0u64;
            for w in 0..self.words {
                let word = rows.iter().fold(!0u64, |acc, r| acc & r[w]);
                count += u64::from(word.count_ones());
                if boolean && count > 0 {
                    break;
                }
            }
            sums.push(if boolean { count.min(1) } else { count });
        }
        sums
    }
}

/// A per-group accumulator over the output variables a lead factor
/// does not bind.
enum Acc {
    /// No such variable: one sum.
    Unit(Option<u64>),
    /// One variable: a sum per value id, and the ids touched.
    Dense { sums: Vec<u64>, touched: Vec<Value> },
    /// Several variables, or too many ids for an array.
    Sparse {
        index: TupleMap<u32>,
        rows: Vec<Value>,
        sums: Vec<u64>,
        width: usize,
    },
}

impl Acc {
    /// A dense array is used for one variable when the value ids are
    /// [`dense`] next to the rows of the step's inputs.
    fn new(width: usize, domain: usize, rows_in: usize) -> Acc {
        match width {
            0 => Acc::Unit(None),
            1 if dense(domain, rows_in) => Acc::Dense {
                sums: vec![0; domain],
                touched: Vec::new(),
            },
            _ => Acc::Sparse {
                index: TupleMap::new(width),
                rows: Vec::new(),
                sums: Vec::new(),
                width,
            },
        }
    }

    /// Adds `w` under `tuple` (ℕ, saturating), or marks `tuple`
    /// (Boolean).
    fn add(&mut self, tuple: &[Value], w: u64, boolean: bool) {
        let slot = match self {
            Acc::Unit(sum) => sum.get_or_insert(0),
            Acc::Dense { sums, touched } => {
                let id = tuple[0].id() as usize;
                if sums[id] == 0 {
                    touched.push(tuple[0]);
                }
                &mut sums[id]
            }
            Acc::Sparse {
                index, rows, sums, ..
            } => {
                let at = *index.get_or_insert_with(tuple, || {
                    rows.extend_from_slice(tuple);
                    sums.push(0);
                    (sums.len() - 1) as u32
                });
                &mut sums[at as usize]
            }
        };
        *slot = if boolean { 1 } else { slot.saturating_add(w) };
    }

    /// Calls `emit` with each accumulated tuple and its sum, and empties
    /// the accumulator.
    fn drain(&mut self, mut emit: impl FnMut(&[Value], u64)) {
        match self {
            Acc::Unit(sum) => {
                if let Some(s) = sum.take() {
                    emit(&[], s);
                }
            }
            Acc::Dense { sums, touched } => {
                for v in touched.drain(..) {
                    emit(&[v], std::mem::take(&mut sums[v.id() as usize]));
                }
            }
            Acc::Sparse {
                index,
                rows,
                sums,
                width,
            } => {
                for (i, &s) in sums.iter().enumerate() {
                    emit(&rows[i * *width..(i + 1) * *width], s);
                }
                index.clear();
                rows.clear();
                sums.clear();
            }
        }
    }
}
