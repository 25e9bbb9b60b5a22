//! Exact arbitrary-precision arithmetic for `cqbounds`.
//!
//! The paper's bounds are exact rational exponents (the triangle query of
//! Example 3.3 has color number exactly `3/2`; Theorem 6.1 gives `m/(m−1)`).
//! Solving the associated linear programs in floating point would turn those
//! identities into approximations, so the LP solver in `cq-lp` runs entirely
//! over [`Rational`]s.
//!
//! Nearly every number those LPs touch is small (`1/2`, `-1`, `3/2`), so a
//! [`Rational`] has two representations: `Small`, a reduced `i64`
//! numerator and positive `i64` denominator stored inline, and `Big`, a
//! boxed pair of sign-magnitude [`BigInt`]s (`u64` limbs) used only when a
//! reduced part does not fit. A value is `Small` *iff* it fits with a
//! numerator other than `i64::MIN`, so every value has exactly one
//! representation and equality, hashing and negation need no special
//! cases. `Small` arithmetic works in `i128` intermediates with a binary
//! GCD and allocates nothing; a result that leaves the `i64` range is
//! promoted to `Big`, and a `Big` result that fits again is demoted.
//! [`BigInt`] itself keeps to schoolbook multiplication and Knuth's
//! Algorithm D for division, ample for the rare big values.

pub mod bigint;
pub mod rational;

pub use bigint::BigInt;
pub use rational::Rational;
