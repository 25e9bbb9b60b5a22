//! The FD-removal procedure of Theorem 4.4.
//!
//! Transforms `chase(Q)` with *simple* variable-level dependencies into a
//! query `Q'` with none, preserving the color number (Lemma 4.7) and the
//! worst-case size increase. The procedure runs in `|var(Q)|` rounds; in
//! round `i`, each dependency `X_i → X_j` is removed by
//!
//! 1. appending `X_j` to every atom (head included — see Example 4.6)
//!    that contains `X_i` but not `X_j`;
//! 2. adding `X_k → X_j` for every current dependency `X_k → X_i`;
//! 3. deleting `X_i → X_j`.
//!
//! Every added dependency has a left side with index `> i`, so the rounds
//! terminate. The full trace (intermediate queries and dependency sets)
//! is retained because two downstream consumers need to replay it:
//!
//! - [`pull_back_coloring`] — Lemma 4.7's direction `C(Q1) ≥ C(Q2)`:
//!   a valid coloring of `Q'` becomes one of `chase(Q)` with the same
//!   color number by setting `L1(X) := L2(X) ∪ L2(Y)` for each removed
//!   `X → Y`, replayed in reverse;
//! - [`transform_database`] — the proof's database construction: each
//!   extension of an atom by `X → Y` appends a column to its relation
//!   populated with the (FD-determined) value `y(x)`, preserving both
//!   relation sizes and `|Q(D)|`.
//!
//! The procedure requires each atom to refer to a unique relation
//! (Theorem 4.4 passes through `Q*`); we apply
//! [`ConjunctiveQuery::with_distinct_relations`] internally.
//!
//! ```
//! use cq_core::{chase, color_number_lp, parse_program, pull_back_coloring,
//!               remove_simple_fds};
//!
//! let (q, fds) = parse_program("R2(X,Y,Z) :- R(X,Y), R(X,Z)\nkey R[1]").unwrap();
//! let chased = chase(&q, &fds);
//! let vfds = chased.query.variable_fds(&fds);
//! let trace = remove_simple_fds(&chased.query, &vfds);
//! // The removed query is FD-free, so Proposition 3.6 applies to it ...
//! let cn = color_number_lp(trace.result());
//! // ... and Lemma 4.7 pulls its optimal coloring back through the trace
//! // into a valid coloring of chase(Q) with the same color number.
//! let pulled = pull_back_coloring(&trace, &cn.coloring);
//! pulled.validate(&vfds).unwrap();
//! assert_eq!(pulled.color_number(&chased.query), Some(cn.value.clone()));
//! assert_eq!(cn.value.to_string(), "1"); // the key collapses the join
//! ```

use crate::coloring::Coloring;
use crate::query::{Atom, ConjunctiveQuery, VarFd, VarIdx};
use cq_relation::{Database, Relation, Schema, Value};
use cq_util::FxHashMap;

/// One removal step: the dependency removed and which atoms were
/// extended (`usize::MAX` marks the head).
#[derive(Clone, Debug)]
pub struct RemovalStep {
    /// Left side of the removed dependency.
    pub from: VarIdx,
    /// Right side of the removed dependency.
    pub to: VarIdx,
    /// Indices of body atoms extended with `to`; `usize::MAX` = head.
    pub extended: Vec<usize>,
}

/// Full trace of the removal procedure.
#[derive(Clone, Debug)]
pub struct RemovalTrace {
    /// `queries[0]` is the distinct-relation input; `queries[t+1]` is the
    /// result of `steps[t]`; the last entry is the FD-free `Q'`.
    pub queries: Vec<ConjunctiveQuery>,
    /// The removal steps, in execution order.
    pub steps: Vec<RemovalStep>,
}

impl RemovalTrace {
    /// The final FD-free query `Q'`.
    pub fn result(&self) -> &ConjunctiveQuery {
        self.queries
            .last()
            .expect("trace has at least the input query")
    }
}

/// Runs the Theorem 4.4 procedure.
///
/// # Panics
/// Panics if any dependency has a compound left side (the theorem covers
/// simple dependencies; use the §6 entropy machinery otherwise).
pub fn remove_simple_fds(q: &ConjunctiveQuery, var_fds: &[VarFd]) -> RemovalTrace {
    assert!(
        var_fds.iter().all(VarFd::is_simple),
        "Theorem 4.4's procedure requires simple dependencies"
    );
    let mut cur = q.with_distinct_relations();
    let mut fds: Vec<(VarIdx, VarIdx)> = var_fds
        .iter()
        .filter(|fd| !fd.is_trivial())
        .map(|fd| (fd.lhs[0], fd.rhs))
        .collect();
    fds.sort_unstable();
    fds.dedup();

    let mut queries = vec![cur.clone()];
    let mut steps = Vec::new();

    for i in 0..q.num_vars() {
        while let Some(pos) = fds.iter().position(|&(l, _)| l == i) {
            let (x, y) = fds.remove(pos);
            // 1. extend atoms (and head) containing x but not y
            let mut extended = Vec::new();
            let mut body: Vec<Atom> = cur.body().to_vec();
            for (ai, atom) in body.iter_mut().enumerate() {
                if atom.vars.contains(&x) && !atom.vars.contains(&y) {
                    atom.vars.push(y);
                    extended.push(ai);
                }
            }
            let mut head = cur.head().to_vec();
            if head.contains(&x) && !head.contains(&y) {
                head.push(y);
                extended.push(usize::MAX);
            }
            cur = ConjunctiveQuery::new(cur.var_names().to_vec(), head, body);
            // 2. for each k -> x, add k -> y
            let mut additions = Vec::new();
            for &(k, r) in &fds {
                if r == x && k != y {
                    additions.push((k, y));
                }
            }
            for add in additions {
                if !fds.contains(&add) && add.0 != add.1 {
                    fds.push(add);
                }
            }
            steps.push(RemovalStep {
                from: x,
                to: y,
                extended,
            });
            queries.push(cur.clone());
        }
    }
    assert!(
        fds.is_empty(),
        "removal procedure must eliminate all simple dependencies"
    );
    RemovalTrace { queries, steps }
}

/// Lemma 4.7 (`C(Q1) ≥ C(Q2)` direction): pulls a valid coloring of the
/// final query `Q'` back to one of the input query with the same color
/// number, replaying the removal steps in reverse with
/// `L(from) := L(from) ∪ L(to)`.
pub fn pull_back_coloring(trace: &RemovalTrace, coloring: &Coloring) -> Coloring {
    let mut labels: Vec<_> = (0..coloring.num_vars())
        .map(|v| coloring.label(v).clone())
        .collect();
    for step in trace.steps.iter().rev() {
        let to_label = labels[step.to].clone();
        labels[step.from].union_with(&to_label);
    }
    Coloring::from_labels(labels)
}

/// Replays the removal trace on a database: for each step `X → Y` and
/// each extended atom, appends a column to that atom's relation holding
/// the FD-determined value `y(x)`.
///
/// The input database must be keyed by the *distinct* relation names of
/// `trace.queries[0]` (see [`per_occurrence_database`] for building one
/// from a database over the original relation names). The value map
/// `y(·)` is derived from atoms in which `X` and `Y` co-occur; values of
/// `X` that appear nowhere with `Y` get a fresh placeholder (they cannot
/// contribute to the output).
///
/// Returns the transformed database, which satisfies
/// `|R'_j(D')| = |R_j(D)|` for every relation and `|Q'(D')| = |Q(D)|`
/// (both checked by the unit test
/// `transform_database_preserves_sizes_and_output`).
pub fn transform_database(trace: &RemovalTrace, db: &Database) -> Result<Database, String> {
    let mut db = db.clone();
    for (t, step) in trace.steps.iter().enumerate() {
        let q_before = &trace.queries[t];
        // Build y(x) from every atom where X and Y co-occur.
        let mut map: FxHashMap<Value, Value> = FxHashMap::default();
        for atom in q_before.body() {
            let (Some(px), Some(py)) = (
                atom.vars.iter().position(|&v| v == step.from),
                atom.vars.iter().position(|&v| v == step.to),
            ) else {
                continue;
            };
            let Some(rel) = db.relation(&atom.relation) else {
                continue;
            };
            let pairs: Vec<(Value, Value)> = rel.iter().map(|row| (row[px], row[py])).collect();
            for (x, y) in pairs {
                match map.get(&x) {
                    Some(&prev) if prev != y => {
                        return Err(format!(
                            "dependency {} -> {} does not hold in the database: \
                             value has two images",
                            q_before.var_name(step.from),
                            q_before.var_name(step.to)
                        ));
                    }
                    _ => {
                        map.insert(x, y);
                    }
                }
            }
        }
        // Extend each marked atom's relation with the new column.
        for &ai in &step.extended {
            if ai == usize::MAX {
                continue; // head extension has no stored relation
            }
            let atom = &q_before.body()[ai];
            let px = atom
                .vars
                .iter()
                .position(|&v| v == step.from)
                .expect("extended atom contains the FD's left variable");
            let Some(rel) = db.relation(&atom.relation) else {
                continue;
            };
            let old_rows: Vec<Vec<Value>> = rel.iter().map(|r| r.to_vec()).collect();
            let mut schema_attrs: Vec<String> = rel.schema().attrs().to_vec();
            schema_attrs.push(format!("A{}", schema_attrs.len() + 1));
            let mut new_rel =
                Relation::new(Schema::with_attrs(atom.relation.clone(), schema_attrs));
            for mut row in old_rows {
                let y = match map.get(&row[px]) {
                    Some(&y) => y,
                    None => db.fresh_value("⊥"),
                };
                row.push(y);
                new_rel.insert(row);
            }
            db.add_relation(new_rel);
        }
    }
    Ok(db)
}

/// Builds a database over the distinct relation names of
/// `q.with_distinct_relations()` by copying each original relation once
/// per occurrence (the `D'` of Proposition 4.1's proof).
pub fn per_occurrence_database(q: &ConjunctiveQuery, db: &Database) -> Database {
    let distinct = q.with_distinct_relations();
    let mut out = db.clone();
    for (orig, renamed) in q.body().iter().zip(distinct.body()) {
        if orig.relation != renamed.relation {
            if let Some(rel) = db.relation(&orig.relation) {
                out.add_relation(rel.renamed(renamed.relation.clone()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::chase;
    use crate::coloring::color_number_lp;
    use crate::eval::evaluate;
    use crate::parser::parse_program;
    use cq_arith::Rational;

    /// Example 4.6 end-to-end.
    #[test]
    fn example_4_6() {
        let (q, fds) = parse_program(
            "R0(X1) :- R1(X1,X2,X3), R2(X1,X4), R3(X5,X1)\nkey R1[1]\nkey R2[1]\nkey R3[1]",
        )
        .unwrap();
        let chased = chase(&q, &fds);
        // no unification happens here, so chase(Q) = Q
        assert_eq!(chased.query.to_string(), q.to_string());
        let vfds = q.variable_fds(&fds);
        let trace = remove_simple_fds(&q, &vfds);
        let result = trace.result();
        // Final query has no FDs and extended atoms; the head now contains
        // X1 and everything X1 determines (X2, X3, X4).
        let head = result.head_var_set();
        for name in ["X1", "X2", "X3", "X4"] {
            let v = result.var_names().iter().position(|n| n == name).unwrap();
            assert!(head.contains(v), "{name} should be in the extended head");
        }
        // X5 determines X1 and transitively everything, so the R3 atom
        // ends up containing X1..X4 as well.
        let r3 = result
            .body()
            .iter()
            .find(|a| a.relation.starts_with("R3"))
            .unwrap();
        assert_eq!(r3.var_set().len(), 5);
    }

    #[test]
    fn lemma_4_7_color_number_preserved() {
        // Example 3.4 / 2.2: C(chase(Q)) computed two ways.
        let (q, fds) =
            parse_program("R0(W,X,Y,Z) :- R1(W,X,Y), R1(W,W,W), R2(Y,Z)\nkey R1[1]").unwrap();
        let chased = chase(&q, &fds);
        // chase(Q) = R0(W,W,W,Z) <- R1(W,W,W), R2(W,Z): no remaining
        // nontrivial variable FDs, C = 1.
        let vfds = chased.query.variable_fds(&fds);
        let trace = remove_simple_fds(&chased.query, &vfds);
        let cn = color_number_lp(trace.result());
        assert_eq!(cn.value, Rational::one());
        // Pull the certificate back and validate on chase(Q).
        let pulled = pull_back_coloring(&trace, &cn.coloring);
        pulled.validate(&vfds).unwrap();
        assert_eq!(pulled.color_number(&chased.query), Some(Rational::one()));
    }

    #[test]
    fn removal_handles_transitive_chains() {
        // X->Y, Y->Z: round for X removes X->Y; later Y's round removes
        // Y->Z; extensions cascade.
        let (q, fds) = parse_program("Q(X) :- R(X,Y), S(Y,Z)\nR[1] -> R[2]\nS[1] -> S[2]").unwrap();
        let vfds = q.variable_fds(&fds);
        let trace = remove_simple_fds(&q, &vfds);
        assert_eq!(trace.steps.len(), 2);
        let result = trace.result();
        // head picks up Y then Z
        assert_eq!(result.head_var_set().len(), 3);
        // the R atom picks up Z (via Y -> Z after being extended by Y? no:
        // R already contains Y; Y->Z extends both atoms and the head)
        let r_atom = &result.body()[0];
        assert_eq!(r_atom.var_set().len(), 3);
        // color number of the result: head {X,Y,Z} covered by R(X,Y,Z)
        // extended atom => C = 1
        assert_eq!(color_number_lp(result).value, Rational::one());
    }

    #[test]
    fn removal_adds_renamed_dependencies() {
        // X5 -> X1, X1 -> X2: removing X1->X2 must add X5->X2.
        let (q, fds) =
            parse_program("Q(X1,X2,X5) :- R(X1,X2), S(X5,X1)\nR[1] -> R[2]\nS[1] -> S[2]").unwrap();
        let vfds = q.variable_fds(&fds);
        let trace = remove_simple_fds(&q, &vfds);
        // steps: X1->X2 (round of X1), then X5->X1, then X5->X2 (added)
        let pairs: Vec<(usize, usize)> = trace.steps.iter().map(|s| (s.from, s.to)).collect();
        assert!(pairs.contains(&(0, 1)));
        // S atom (contains X5, X1) must end up containing X2 as well
        let s_atom = trace
            .result()
            .body()
            .iter()
            .find(|a| a.relation == "S")
            .unwrap();
        assert_eq!(s_atom.var_set().len(), 3);
    }

    #[test]
    #[should_panic]
    fn compound_fds_rejected() {
        let (q, fds) = parse_program("Q(X,Y,Z) :- R(X,Y,Z)\nR[1,2] -> R[3]").unwrap();
        let vfds = q.variable_fds(&fds);
        let _ = remove_simple_fds(&q, &vfds);
    }

    #[test]
    fn transform_database_preserves_sizes_and_output() {
        // Q(X,Y) :- R(X,Y), S(X,Z) with R[1]->R[2]:
        // removing X->Y extends S and the head.
        let (q, fds) = parse_program("Q(X,Y) :- R(X,Y), S(X,Z)\nR[1] -> R[2]").unwrap();
        let vfds = q.variable_fds(&fds);
        let trace = remove_simple_fds(&q, &vfds);
        let mut db = Database::new();
        db.insert_named("R", &["a", "1"]);
        db.insert_named("R", &["b", "2"]);
        db.insert_named("S", &["a", "p"]);
        db.insert_named("S", &["a", "q"]);
        db.insert_named("S", &["c", "r"]);
        let before = evaluate(&q, &db);
        let db1 = per_occurrence_database(&q, &db);
        let db2 = transform_database(&trace, &db1).unwrap();
        // sizes preserved
        assert_eq!(db2.relation("S").unwrap().len(), 3);
        assert_eq!(db2.relation("S").unwrap().arity(), 3);
        // output preserved
        let after = evaluate(trace.result(), &db2);
        assert_eq!(before.len(), after.len());
    }

    #[test]
    fn transform_database_detects_fd_violation() {
        let (q, fds) = parse_program("Q(X,Y) :- R(X,Y), S(X,Z)\nR[1] -> R[2]").unwrap();
        let vfds = q.variable_fds(&fds);
        let trace = remove_simple_fds(&q, &vfds);
        let mut db = Database::new();
        db.insert_named("R", &["a", "1"]);
        db.insert_named("R", &["a", "2"]); // violates R[1] -> R[2]
        db.insert_named("S", &["a", "p"]);
        let db1 = per_occurrence_database(&q, &db);
        assert!(transform_database(&trace, &db1).is_err());
    }

    #[test]
    fn per_occurrence_database_copies() {
        let (q, _) = parse_program("Q(X,Y,Z) :- R(X,Y), R(X,Z)").unwrap();
        let mut db = Database::new();
        db.insert_named("R", &["a", "b"]);
        let db2 = per_occurrence_database(&q, &db);
        assert!(db2.relation("R·1").is_some());
        assert!(db2.relation("R·2").is_some());
        assert_eq!(db2.relation("R·1").unwrap().len(), 1);
    }
}
