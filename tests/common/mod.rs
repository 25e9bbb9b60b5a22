#![allow(dead_code)] // each integration test uses a subset of these helpers

//! Shared helpers for the integration tests: a random conjunctive-query
//! generator and a random key-respecting database generator.

use cqbounds::core::{Atom, ConjunctiveQuery};
use cqbounds::relation::{Database, FdSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random conjunctive query: up to `max_vars` variables, up to
/// `max_atoms` atoms of arity 1..=3, head a random nonempty subset of
/// the used variables.
pub fn random_query(seed: u64, max_vars: usize, max_atoms: usize) -> ConjunctiveQuery {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_vars = rng.gen_range(2..=max_vars);
    let n_atoms = rng.gen_range(1..=max_atoms);
    let var_names: Vec<String> = (0..n_vars).map(|i| format!("V{i}")).collect();
    let mut body: Vec<Atom> = Vec::new();
    for a in 0..n_atoms {
        // relation name reuse with probability 1/3 to exercise rep(Q) > 1;
        // reuse keeps the earlier occurrence's arity (a relation has one
        // arity)
        let (rel, arity) = if a > 0 && rng.gen_bool(0.33) {
            let prev = rng.gen_range(0..a);
            (body[prev].relation.clone(), body[prev].vars.len())
        } else {
            (format!("R{a}"), rng.gen_range(1..=3usize))
        };
        let vars: Vec<usize> = (0..arity).map(|_| rng.gen_range(0..n_vars)).collect();
        body.push(Atom::new(rel, vars));
    }
    // head: nonempty subset of used variables
    let mut used: Vec<usize> = {
        let mut s: Vec<usize> = body.iter().flat_map(|a| a.vars.clone()).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    let head_size = rng.gen_range(1..=used.len());
    // partial shuffle
    for i in 0..head_size {
        let j = rng.gen_range(i..used.len());
        used.swap(i, j);
    }
    used.truncate(head_size);
    ConjunctiveQuery::new(var_names, used, body)
}

/// A structurally isomorphic copy of `q`: variables renamed through a
/// random bijection (fresh names `W0..`) and atoms shuffled; relation
/// names are kept so any `FdSet` applies verbatim.
pub fn permuted_query(seed: u64, q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let n = q.num_vars();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    // Names simply follow the new index (`W0..`): the permutation
    // reindexes head/body below; fresh names just make the renaming
    // visible in the Display form.
    let var_names: Vec<String> = (0..n).map(|i| format!("W{i}")).collect();
    let head: Vec<usize> = q.head().iter().map(|&v| perm[v]).collect();
    let mut body: Vec<Atom> = q
        .body()
        .iter()
        .map(|a| {
            Atom::new(
                a.relation.clone(),
                a.vars.iter().map(|&v| perm[v]).collect::<Vec<_>>(),
            )
        })
        .collect();
    for i in (1..body.len()).rev() {
        let j = rng.gen_range(0..=i);
        body.swap(i, j);
    }
    ConjunctiveQuery::new(var_names, head, body)
}

/// A random database for `q` over a domain of `domain` values with about
/// `rows` tuples per relation, repaired to satisfy `fds` (offending
/// tuples dropped, first-come-first-kept).
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
    // repair FDs: keep the first tuple per LHS value
    let names: Vec<String> = q.relation_names().iter().map(|s| s.to_string()).collect();
    for name in names {
        let Some(rel) = db.relation(&name) else {
            continue;
        };
        let mut keep = rel.clone();
        for fd in fds.for_relation(&name) {
            let mut seen: std::collections::HashMap<
                Vec<cqbounds::relation::Value>,
                cqbounds::relation::Value,
            > = Default::default();
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

/// Removes the `"solver_stats":{…},` object from a rendered report
/// line. The cache differentials compare report JSON bit-for-bit, and
/// `solver_stats` is the one object that legitimately differs between a
/// cached and an uncached run (a cache hit performs no LP solve, so its
/// counters stay zero); it is asserted separately where it matters.
/// Shared here so the string surgery lives in exactly one place.
pub fn strip_solver_stats(line: &str) -> String {
    let start = line
        .find("\"solver_stats\":")
        .expect("solver_stats present");
    let end = start + line[start..].find('}').expect("object closes") + 1;
    // `solver_stats` holds only scalar counters (first '}' closes it)
    // and is never the last key, so also drop the trailing comma.
    assert_eq!(line.as_bytes()[end], b',', "solver_stats must not be last");
    format!("{}{}", &line[..start], &line[end + 1..])
}
