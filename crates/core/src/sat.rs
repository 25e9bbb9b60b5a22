//! SAT solving substrate for §7 of the paper.
//!
//! - [`horn_sat`] — the linear-time Horn satisfiability algorithm of
//!   Dowling & Gallier (counter-based unit propagation), used by Theorem
//!   7.2's polynomial decision procedure (the paper's `SAT_i` formulas
//!   are dual-Horn; negating all variables makes them Horn).
//! - [`dpll`] — a small complete DPLL solver for general CNF, used to
//!   cross-check the Proposition 7.3 NP-hardness reduction on small
//!   instances.

/// A CNF clause in split representation: positive literals and negative
/// literals, as variable indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clause {
    /// Variables appearing positively.
    pub pos: Vec<usize>,
    /// Variables appearing negatively.
    pub neg: Vec<usize>,
}

impl Clause {
    /// Builds a clause.
    pub fn new(pos: Vec<usize>, neg: Vec<usize>) -> Self {
        Clause { pos, neg }
    }

    /// `true` when the clause is Horn (at most one positive literal).
    fn is_horn(&self) -> bool {
        self.pos.len() <= 1
    }
}

/// Dowling–Gallier Horn satisfiability. Returns a minimal satisfying
/// assignment (fewest variables true) or `None` if unsatisfiable.
///
/// # Panics
/// Panics if some clause is not Horn.
pub fn horn_sat(clauses: &[Clause], num_vars: usize) -> Option<Vec<bool>> {
    assert!(
        clauses.iter().all(Clause::is_horn),
        "horn_sat requires Horn clauses"
    );
    let mut assignment = vec![false; num_vars];
    // counter of unsatisfied negative literals per clause
    let mut remaining: Vec<usize> = clauses.iter().map(|c| c.neg.len()).collect();
    // clauses watching each variable's negative occurrence
    let mut watch: Vec<Vec<usize>> = vec![Vec::new(); num_vars];
    for (ci, c) in clauses.iter().enumerate() {
        for &v in &c.neg {
            watch[v].push(ci);
        }
    }
    let mut queue: Vec<usize> = Vec::new(); // newly-true variables
                                            // unit facts: clauses with no negative literals
    for (ci, c) in clauses.iter().enumerate() {
        if c.neg.is_empty() {
            match c.pos.first() {
                None => return None, // empty clause
                Some(&v) => {
                    if !assignment[v] {
                        assignment[v] = true;
                        queue.push(v);
                    }
                    let _ = ci;
                }
            }
        }
    }
    while let Some(v) = queue.pop() {
        for &ci in &watch[v] {
            remaining[ci] -= 1;
            if remaining[ci] == 0 {
                // all negatives satisfied-as-true: clause forces its head
                match clauses[ci].pos.first() {
                    None => return None, // goal clause violated
                    Some(&head) => {
                        if !assignment[head] {
                            assignment[head] = true;
                            queue.push(head);
                        }
                    }
                }
            }
        }
    }
    // Note: `remaining[ci] == 0` handling above triggers exactly once per
    // clause when its last negative literal becomes true; clauses with
    // untriggered counters are satisfied by a false negative literal.
    Some(assignment)
}

/// Complete DPLL for general CNF. Exponential; for cross-checking small
/// instances only.
pub fn dpll(clauses: &[Clause], num_vars: usize) -> Option<Vec<bool>> {
    #[derive(Clone, Copy, PartialEq)]
    enum V {
        Unset,
        True,
        False,
    }
    fn solve(clauses: &[Clause], assignment: &mut Vec<V>) -> bool {
        // find a unit clause or an unresolved clause
        let mut branch_var = None;
        for c in clauses {
            let mut satisfied = false;
            let mut unassigned: Option<(usize, bool)> = None;
            let mut count_unassigned = 0;
            for &v in &c.pos {
                match assignment[v] {
                    V::True => satisfied = true,
                    V::Unset => {
                        unassigned = Some((v, true));
                        count_unassigned += 1;
                    }
                    V::False => {}
                }
            }
            for &v in &c.neg {
                match assignment[v] {
                    V::False => satisfied = true,
                    V::Unset => {
                        unassigned = Some((v, false));
                        count_unassigned += 1;
                    }
                    V::True => {}
                }
            }
            if satisfied {
                continue;
            }
            match count_unassigned {
                0 => return false, // conflict
                1 => {
                    // unit propagation
                    let (v, val) = unassigned.unwrap();
                    assignment[v] = if val { V::True } else { V::False };
                    let ok = solve(clauses, assignment);
                    if !ok {
                        assignment[v] = V::Unset;
                    }
                    return ok;
                }
                _ => {
                    if branch_var.is_none() {
                        branch_var = unassigned;
                    }
                }
            }
        }
        let Some((v, first)) = branch_var else {
            return true; // all clauses satisfied
        };
        for val in [first, !first] {
            assignment[v] = if val { V::True } else { V::False };
            if solve(clauses, assignment) {
                return true;
            }
        }
        assignment[v] = V::Unset;
        false
    }
    let mut assignment = vec![V::Unset; num_vars];
    if solve(clauses, &mut assignment) {
        Some(
            assignment
                .into_iter()
                .map(|v| matches!(v, V::True))
                .collect(),
        )
    } else {
        None
    }
}

/// Checks an assignment against a CNF.
pub fn satisfies(clauses: &[Clause], assignment: &[bool]) -> bool {
    clauses
        .iter()
        .all(|c| c.pos.iter().any(|&v| assignment[v]) || c.neg.iter().any(|&v| !assignment[v]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cl(pos: &[usize], neg: &[usize]) -> Clause {
        Clause::new(pos.to_vec(), neg.to_vec())
    }

    #[test]
    fn horn_basic() {
        // (a) & (!a | b) & (!b | c): minimal model {a,b,c}
        let clauses = vec![cl(&[0], &[]), cl(&[1], &[0]), cl(&[2], &[1])];
        let a = horn_sat(&clauses, 3).unwrap();
        assert_eq!(a, vec![true, true, true]);
        assert!(satisfies(&clauses, &a));
    }

    #[test]
    fn horn_minimality() {
        // (!a | b): satisfiable with everything false
        let clauses = vec![cl(&[1], &[0])];
        let a = horn_sat(&clauses, 2).unwrap();
        assert_eq!(a, vec![false, false]);
    }

    #[test]
    fn horn_unsat() {
        // (a) & (!a)
        let clauses = vec![cl(&[0], &[]), cl(&[], &[0])];
        assert!(horn_sat(&clauses, 1).is_none());
    }

    #[test]
    fn horn_goal_clause() {
        // (a) & (b) & (!a | !b)
        let clauses = vec![cl(&[0], &[]), cl(&[1], &[]), cl(&[], &[0, 1])];
        assert!(horn_sat(&clauses, 2).is_none());
        // but (a) & (!a | !b) is fine (b stays false)
        let clauses2 = vec![cl(&[0], &[]), cl(&[], &[0, 1])];
        let a = horn_sat(&clauses2, 2).unwrap();
        assert_eq!(a, vec![true, false]);
    }

    #[test]
    fn empty_clause_unsat() {
        assert!(horn_sat(&[cl(&[], &[])], 1).is_none());
        assert!(dpll(&[cl(&[], &[])], 1).is_none());
    }

    #[test]
    #[should_panic]
    fn horn_rejects_non_horn() {
        let _ = horn_sat(&[cl(&[0, 1], &[])], 2);
    }

    #[test]
    fn dpll_basic() {
        // (a | b) & (!a | b) & (!b | c)
        let clauses = vec![cl(&[0, 1], &[]), cl(&[1], &[0]), cl(&[2], &[1])];
        let a = dpll(&clauses, 3).unwrap();
        assert!(satisfies(&clauses, &a));
    }

    #[test]
    fn dpll_unsat_pigeonhole_2_1() {
        // two pigeons, one hole: p1 & p2 & (!p1 | !p2)
        let clauses = vec![cl(&[0], &[]), cl(&[1], &[]), cl(&[], &[0, 1])];
        assert!(dpll(&clauses, 2).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// On random Horn instances, horn_sat and dpll agree on
        /// satisfiability, and returned models satisfy the formula.
        #[test]
        fn horn_agrees_with_dpll(
            clauses in proptest::collection::vec(
                (proptest::collection::vec(0usize..5, 0..3),
                 proptest::option::of(0usize..5)),
                1..8,
            )
        ) {
            let cnf: Vec<Clause> = clauses
                .iter()
                .map(|(neg, pos)| Clause::new(pos.iter().copied().collect(), neg.clone()))
                .collect();
            let h = horn_sat(&cnf, 5);
            let d = dpll(&cnf, 5);
            prop_assert_eq!(h.is_some(), d.is_some());
            if let Some(a) = h {
                prop_assert!(satisfies(&cnf, &a));
            }
            if let Some(a) = d {
                prop_assert!(satisfies(&cnf, &a));
            }
        }
    }
}
