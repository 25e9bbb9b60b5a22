//! Query generators and reporting for the `cqbounds` experiments.
//!
//! The experiment harness (`cargo run --release -p cq-bench --bin
//! experiments`) regenerates every figure, example, and theorem-check of
//! the paper. This library holds its random query/database generators
//! and parameterized query families.

use cq_core::{Atom, ConjunctiveQuery};
use cq_relation::{Database, FdSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random conjunctive query with `max_vars` variables and `max_atoms`
/// atoms of arity 1..=3; relation names are reused (with consistent
/// arity) with probability 1/3, and the head is a random nonempty subset
/// of the used variables.
pub fn random_query(seed: u64, max_vars: usize, max_atoms: usize) -> ConjunctiveQuery {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_vars = rng.gen_range(2..=max_vars.max(2));
    let n_atoms = rng.gen_range(1..=max_atoms.max(1));
    let var_names: Vec<String> = (0..n_vars).map(|i| format!("V{i}")).collect();
    let mut body: Vec<Atom> = Vec::new();
    for a in 0..n_atoms {
        let (rel, arity) = if a > 0 && rng.gen_bool(0.33) {
            let prev = rng.gen_range(0..a);
            (body[prev].relation.clone(), body[prev].vars.len())
        } else {
            (format!("R{a}"), rng.gen_range(1..=3usize))
        };
        let vars: Vec<usize> = (0..arity).map(|_| rng.gen_range(0..n_vars)).collect();
        body.push(Atom::new(rel, vars));
    }
    let mut used: Vec<usize> = {
        let mut s: Vec<usize> = body.iter().flat_map(|a| a.vars.clone()).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    let head_size = rng.gen_range(1..=used.len());
    for i in 0..head_size {
        let j = rng.gen_range(i..used.len());
        used.swap(i, j);
    }
    used.truncate(head_size);
    ConjunctiveQuery::new(var_names, used, body)
}

/// A random database for `q` over `domain` values with about `rows`
/// tuples per relation, repaired to satisfy `fds` (first tuple per LHS
/// value wins).
pub fn random_database(
    seed: u64,
    q: &ConjunctiveQuery,
    fds: &FdSet,
    domain: usize,
    rows: usize,
) -> Database {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
    let mut db = Database::new();
    for atom in q.body() {
        if db.relation(&atom.relation).is_some() {
            continue;
        }
        for _ in 0..rows {
            let tuple: Vec<String> = (0..atom.vars.len())
                .map(|_| format!("d{}", rng.gen_range(0..domain)))
                .collect();
            let refs: Vec<&str> = tuple.iter().map(String::as_str).collect();
            db.insert_named(&atom.relation, &refs);
        }
    }
    let names: Vec<String> = q.relation_names().iter().map(|s| s.to_string()).collect();
    for name in names {
        let Some(rel) = db.relation(&name) else {
            continue;
        };
        let mut keep = rel.clone();
        for fd in fds.for_relation(&name) {
            let mut seen: std::collections::HashMap<Vec<cq_relation::Value>, cq_relation::Value> =
                Default::default();
            keep = keep.select(|row| {
                let key: Vec<_> = fd.lhs.iter().map(|&i| row[i]).collect();
                match seen.get(&key) {
                    Some(&v) => v == row[fd.rhs],
                    None => {
                        seen.insert(key, row[fd.rhs]);
                        true
                    }
                }
            });
        }
        db.add_relation(keep);
    }
    db
}

/// The `n`-cycle join query `Q(X1..Xn) :- R1(X1,X2), ..., Rn(Xn,X1)`
/// (`C(Q) = n/2`): the standard AGM family.
pub fn cycle_query(n: usize) -> ConjunctiveQuery {
    assert!(n >= 2);
    let var_names: Vec<String> = (0..n).map(|i| format!("X{i}")).collect();
    let body: Vec<Atom> = (0..n)
        .map(|i| Atom::new(format!("R{i}"), vec![i, (i + 1) % n]))
        .collect();
    ConjunctiveQuery::new(var_names, (0..n).collect(), body)
}

/// The `n`-clique join query over binary edge relations
/// (`C(Q) = n/2` by fractional cover): `K_n` generalizing the triangle.
pub fn clique_query(n: usize) -> ConjunctiveQuery {
    assert!(n >= 2);
    let var_names: Vec<String> = (0..n).map(|i| format!("X{i}")).collect();
    let mut body = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            body.push(Atom::new(format!("E{i}_{j}"), vec![i, j]));
        }
    }
    ConjunctiveQuery::new(var_names, (0..n).collect(), body)
}

/// A star query: `Q(X, Y1..Yn) :- R1(X,Y1), ..., Rn(X,Yn)`, optionally
/// with every `Ri[1]` a key (which collapses C from n to 1).
pub fn star_query(n: usize, keyed: bool) -> (ConjunctiveQuery, FdSet) {
    let mut var_names = vec!["X".to_owned()];
    var_names.extend((0..n).map(|i| format!("Y{i}")));
    let body: Vec<Atom> = (0..n)
        .map(|i| Atom::new(format!("R{i}"), vec![0, i + 1]))
        .collect();
    let head: Vec<usize> = (0..=n).collect();
    let q = ConjunctiveQuery::new(var_names, head, body);
    let mut fds = FdSet::new();
    if keyed {
        for i in 0..n {
            fds.add_key(&format!("R{i}"), &[0], 2);
        }
    }
    (q, fds)
}

/// Simple aligned table printer for the experiment reports.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_arith::Rational;
    use cq_core::size_bound_no_fds;

    #[test]
    fn families_have_known_color_numbers() {
        assert_eq!(
            size_bound_no_fds(&cycle_query(4)).exponent,
            Rational::int(2)
        );
        assert_eq!(
            size_bound_no_fds(&cycle_query(5)).exponent,
            Rational::ratio(5, 2)
        );
        assert_eq!(
            size_bound_no_fds(&clique_query(3)).exponent,
            Rational::ratio(3, 2)
        );
        assert_eq!(
            size_bound_no_fds(&clique_query(4)).exponent,
            Rational::int(2)
        );
        let (star, _) = star_query(3, false);
        assert_eq!(size_bound_no_fds(&star).exponent, Rational::int(3));
        let (star_k, fds) = star_query(3, true);
        let (bound, _, _) = cq_core::size_bound_simple_fds(&star_k, &fds);
        assert_eq!(bound.exponent, Rational::one());
    }

    #[test]
    fn random_query_is_well_formed() {
        for seed in 0..50 {
            let q = random_query(seed, 5, 4);
            assert!(q.num_atoms() >= 1);
            assert!(!q.head().is_empty());
        }
    }

    #[test]
    fn random_database_respects_fds() {
        for seed in 0..20 {
            let (q, fds) = star_query(3, true);
            let db = random_database(seed, &q, &fds, 4, 10);
            assert!(db.satisfies(&fds), "seed {seed}");
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "value"]);
        t.row(&["1".into(), "long-cell".into()]);
        t.row(&["22".into(), "x".into()]);
        let text = t.render();
        assert!(text.contains("value"));
        assert!(text.lines().count() == 4);
    }
}
