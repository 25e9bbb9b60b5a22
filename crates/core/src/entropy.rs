//! Empirical entropy machinery (§6.2–6.3 of the paper, Definition 8.1).
//!
//! An [`EntropyVector`] holds the joint entropies `H(X_S)` (in bits) of
//! every subset `S` of up to 31 attributes, measured from the uniform
//! distribution over a relation's tuples — the distribution the paper
//! uses in Equation (2) to connect worst-case size increase to entropy.
//!
//! From the joint entropies we derive every quantity of §6.3:
//! conditional entropies (Definition 6.2 / Fact 6.3), mutual information
//! (Definition 6.4 / Fact 6.5), multivariate interaction information
//! (Definition 6.6), and the I-measure **atoms** `I(S | [k]−S)` of
//! Fact 6.7 via the closed form
//!
//! ```text
//! I(S | [k]\S) = Σ_{T ⊆ S} (−1)^{|T|+1} H(X_{T ∪ ([k]\S)})
//! ```
//!
//! (specializing to `H(X_i | rest)` for `|S| = 1` and `I(X_i; X_j | rest)`
//! for `|S| = 2`). [`EntropyVector::information_diagram`] regenerates the
//! paper's Figures 2 and 3, and [`EntropyVector::knitted_complexity`]
//! implements Definition 8.1.

use cq_relation::Relation;
use cq_util::{mask_elems, popcount, subsets_of, FxHashMap};
use std::fmt::Write as _;

/// Joint entropies of all subsets of `k ≤ 31` attributes, in bits.
#[derive(Clone, Debug)]
pub struct EntropyVector {
    k: usize,
    /// `h[mask]` = H(X_mask); `h[0] = 0`.
    h: Vec<f64>,
}

impl EntropyVector {
    /// Measures the entropy vector of the uniform distribution over the
    /// (distinct) tuples of `rel`, one attribute per column.
    ///
    /// # Panics
    /// Panics if the arity exceeds 31 or the relation is empty.
    pub fn from_relation(rel: &Relation) -> Self {
        let k = rel.arity();
        assert!(k <= 31, "entropy machinery supports at most 31 attributes");
        assert!(!rel.is_empty(), "entropy of an empty relation is undefined");
        let n = rel.len() as f64;
        let mut h = vec![0.0; 1 << k];
        for mask in 1u32..(1 << k) {
            let cols: Vec<usize> = mask_elems(mask).collect();
            let mut counts: FxHashMap<Box<[cq_relation::Value]>, usize> = FxHashMap::default();
            for row in rel.iter() {
                let key: Box<[cq_relation::Value]> = cols.iter().map(|&c| row[c]).collect();
                *counts.entry(key).or_insert(0) += 1;
            }
            let mut entropy = 0.0;
            for &c in counts.values() {
                let p = c as f64 / n;
                entropy -= p * p.log2();
            }
            h[mask as usize] = entropy;
        }
        EntropyVector { k, h }
    }

    /// The full mask `{0..k}`.
    pub fn full_mask(&self) -> u32 {
        ((1u64 << self.k) - 1) as u32
    }

    /// Joint entropy `H(X_S)` in bits.
    pub fn h(&self, mask: u32) -> f64 {
        self.h[mask as usize]
    }

    /// Conditional entropy `H(X_A | X_B) = H(A∪B) − H(B)` (Fact 6.3).
    pub fn cond(&self, a: u32, given: u32) -> f64 {
        self.h(a | given) - self.h(given)
    }

    /// Conditional mutual information
    /// `I(X_A; X_B | X_C) = H(A∪C) + H(B∪C) − H(C) − H(A∪B∪C)`.
    pub fn mutual(&self, a: u32, b: u32, given: u32) -> f64 {
        self.h(a | given) + self.h(b | given) - self.h(given) - self.h(a | b | given)
    }

    /// Multivariate interaction information `I(X_{i1}; ...; X_{is})`
    /// (Definition 6.6), unconditional:
    /// `Σ_{∅≠T⊆S} (−1)^{|T|+1} H(X_T)`.
    pub fn interaction(&self, s: u32) -> f64 {
        let mut total = 0.0;
        for t in subsets_of(s) {
            if t == 0 {
                continue;
            }
            let sign = if popcount(t) % 2 == 1 { 1.0 } else { -1.0 };
            total += sign * self.h(t);
        }
        total
    }

    /// The I-measure atom `I(S | [k]\S)` — the value of the information
    /// diagram's cell for exactly the set `S` (Fact 6.7):
    /// `Σ_{T⊆S} (−1)^{|T|+1} H(X_{T ∪ ([k]\S)})`.
    pub fn atom(&self, s: u32) -> f64 {
        assert!(s != 0, "atoms are indexed by nonempty subsets");
        let complement = self.full_mask() & !s;
        let mut total = 0.0;
        for t in subsets_of(s) {
            let sign = if popcount(t) % 2 == 1 { 1.0 } else { -1.0 };
            total += sign * self.h(t | complement);
        }
        total
    }

    /// All atoms, indexed by nonempty subset mask.
    pub fn information_diagram(&self) -> Vec<(u32, f64)> {
        (1..(1u32 << self.k)).map(|s| (s, self.atom(s))).collect()
    }

    /// Definition 8.1: knitted complexity — the ratio of the sum of
    /// absolute atom values to the (signed) sum. The signed sum equals
    /// `H(X_{[k]})`; returns `None` when that is zero.
    pub fn knitted_complexity(&self) -> Option<f64> {
        let mut abs_sum = 0.0;
        let mut signed_sum = 0.0;
        for (_, a) in self.information_diagram() {
            abs_sum += a.abs();
            signed_sum += a;
        }
        if signed_sum.abs() < 1e-12 {
            None
        } else {
            Some(abs_sum / signed_sum)
        }
    }

    /// Renders the information diagram as a text table with attribute
    /// names (regenerates Figures 2 and 3 of the paper).
    pub fn render_diagram(&self, names: &[&str]) -> String {
        assert_eq!(names.len(), self.k);
        let mut out = String::new();
        let _ = writeln!(out, "information diagram ({} attributes, bits):", self.k);
        for (s, a) in self.information_diagram() {
            let members: Vec<&str> = mask_elems(s).map(|i| names[i]).collect();
            let kind = match popcount(s) {
                1 => "H(·|rest)",
                2 => "I(·;·|rest)",
                _ => "I(...|rest)",
            };
            let _ = writeln!(out, "  {{{}}} {kind} = {a:+.4}", members.join(","));
        }
        out
    }

    /// Verifies the I-measure identity `H(X_A) = Σ_{S∩A≠∅} I(S|[k]−S)`
    /// for every `A`, returning the maximum absolute deviation.
    pub fn atom_identity_error(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for a in 1..(1u32 << self.k) {
            let mut sum = 0.0;
            for s in 1..(1u32 << self.k) {
                if s & a != 0 {
                    sum += self.atom(s);
                }
            }
            worst = worst.max((sum - self.h(a)).abs());
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_relation::{Relation, Schema, SymbolTable};

    fn relation_of(rows: &[&[&str]]) -> Relation {
        let mut t = SymbolTable::new();
        let mut r = Relation::new(Schema::new("R", rows[0].len()));
        for row in rows {
            let vals: Vec<_> = row.iter().map(|n| t.intern(n)).collect();
            r.insert(vals);
        }
        r
    }

    const EPS: f64 = 1e-9;

    #[test]
    fn uniform_product_entropies() {
        // X,Y independent uniform on {0,1}: H(X)=H(Y)=1, H(XY)=2.
        let r = relation_of(&[&["0", "0"], &["0", "1"], &["1", "0"], &["1", "1"]]);
        let e = EntropyVector::from_relation(&r);
        assert!((e.h(0b01) - 1.0).abs() < EPS);
        assert!((e.h(0b10) - 1.0).abs() < EPS);
        assert!((e.h(0b11) - 2.0).abs() < EPS);
        assert!((e.mutual(0b01, 0b10, 0) - 0.0).abs() < EPS);
    }

    #[test]
    fn perfectly_correlated() {
        // Y = X: H(X)=H(Y)=H(XY)=1, I(X;Y)=1, H(Y|X)=0.
        let r = relation_of(&[&["0", "0"], &["1", "1"]]);
        let e = EntropyVector::from_relation(&r);
        assert!((e.h(0b11) - 1.0).abs() < EPS);
        assert!((e.mutual(0b01, 0b10, 0) - 1.0).abs() < EPS);
        assert!(e.cond(0b10, 0b01).abs() < EPS);
    }

    #[test]
    fn fact_6_3_chain_rule() {
        let r = relation_of(&[&["a", "x"], &["a", "y"], &["b", "x"]]);
        let e = EntropyVector::from_relation(&r);
        // H(X,Y) = H(X) + H(Y|X)
        assert!((e.h(0b11) - (e.h(0b01) + e.cond(0b10, 0b01))).abs() < EPS);
        // symmetry of mutual information (Fact 6.5)
        assert!((e.mutual(0b01, 0b10, 0) - e.mutual(0b10, 0b01, 0)).abs() < EPS);
    }

    #[test]
    fn xor_has_negative_interaction() {
        // Z = X xor Y: the classic I(X;Y;Z) = -1 example.
        let r = relation_of(&[
            &["0", "0", "0"],
            &["0", "1", "1"],
            &["1", "0", "1"],
            &["1", "1", "0"],
        ]);
        let e = EntropyVector::from_relation(&r);
        assert!((e.interaction(0b111) + 1.0).abs() < EPS);
        // atom form agrees (complement of the full set is empty)
        assert!((e.atom(0b111) + 1.0).abs() < EPS);
        // knitted complexity: atoms are I(X;Y;Z)=-1, three pairwise
        // I(·;·|·)=+1, three H(·|rest)=0 -> abs sum 4, signed sum 2.
        assert!((e.knitted_complexity().unwrap() - 2.0).abs() < EPS);
    }

    #[test]
    fn atoms_reconstruct_entropies() {
        let r = relation_of(&[
            &["a", "x", "1"],
            &["a", "y", "2"],
            &["b", "x", "1"],
            &["b", "y", "3"],
            &["b", "y", "1"],
        ]);
        let e = EntropyVector::from_relation(&r);
        assert!(e.atom_identity_error() < 1e-9);
    }

    #[test]
    fn atom_specializations() {
        let r = relation_of(&[&["a", "x", "1"], &["a", "y", "1"], &["b", "x", "2"]]);
        let e = EntropyVector::from_relation(&r);
        // |S| = 1: atom = H(Xi | rest)
        assert!((e.atom(0b001) - e.cond(0b001, 0b110)).abs() < EPS);
        // |S| = 2: atom = I(Xi; Xj | rest)
        assert!((e.atom(0b011) - e.mutual(0b001, 0b010, 0b100)).abs() < EPS);
    }

    #[test]
    fn diagram_rendering() {
        let r = relation_of(&[&["0", "0"], &["1", "1"]]);
        let e = EntropyVector::from_relation(&r);
        let text = e.render_diagram(&["X", "Y"]);
        assert!(text.contains("{X}"));
        assert!(text.contains("{X,Y}"));
        assert!(text.contains("+1.0000"));
    }

    #[test]
    fn deterministic_relation_zero_entropy() {
        let r = relation_of(&[&["a", "b"]]);
        let e = EntropyVector::from_relation(&r);
        assert!(e.h(0b11).abs() < EPS);
        assert!(e.knitted_complexity().is_none());
    }

    #[test]
    #[should_panic]
    fn empty_relation_rejected() {
        let r = Relation::new(Schema::new("R", 2));
        let _ = EntropyVector::from_relation(&r);
    }
}
