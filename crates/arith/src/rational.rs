//! Exact rational numbers `p/q`, inline in machine words when they fit.
//!
//! A value is stored as `Small { num, den }` (two `i64`s, no allocation)
//! whenever its reduced form fits, and as a boxed pair of [`BigInt`]s
//! otherwise. Invariants, for both forms: the denominator is strictly
//! positive, the fraction is in lowest terms, and zero is `0/1`. A value
//! is `Small` *iff* it fits with `num != i64::MIN`, so negating a `Small`
//! never overflows; results of the `Big` path are demoted whenever they
//! fit. Every value therefore has exactly one representation, which keeps
//! the derived `PartialEq`/`Eq`/`Hash` sound.
//!
//! `Small` arithmetic runs in `i128` intermediates (any product of two
//! `i64`s fits) and reduces with a binary GCD on `u64`, using Knuth's
//! gcd-splitting forms (TAOCP §4.5.1) so that results come out reduced
//! without a GCD of the full-width numerator and denominator.

use crate::bigint::BigInt;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number.
///
/// ```
/// use cq_arith::Rational;
/// let c: Rational = "3/2".parse().unwrap();
/// assert_eq!(&c + &Rational::ratio(1, 2), Rational::int(2));
/// assert_eq!(c.pow(2).to_string(), "9/4");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `den > 0`, lowest terms, `num != i64::MIN`.
    Small { num: i64, den: i64 },
    /// `(num, den)` under the same invariants, for values that do not fit.
    Big(Box<(BigInt, BigInt)>),
}

use Repr::{Big, Small};

/// Binary GCD; `gcd(0, b) = b`.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `|t| mod m` for `m > 0`.
fn rem_abs(t: i128, m: u64) -> u64 {
    let t = t.unsigned_abs();
    match u64::try_from(t) {
        Ok(t) => t % m,
        Err(_) => (t % u128::from(m)) as u64,
    }
}

/// `a/b + c/d` for `Small` operands (Knuth's form: the cross products use
/// `b/g` and `d/g`, and only `g = gcd(b, d)` is left to cancel).
fn add_small(a: i64, b: i64, c: i64, d: i64) -> Rational {
    if b == d {
        let t = i128::from(a) + i128::from(c);
        let g = gcd_u64(rem_abs(t, b as u64), b as u64);
        return Rational::reduced(t / i128::from(g), u128::from(b as u64 / g));
    }
    let g = gcd_u64(b as u64, d as u64);
    if g == 1 {
        return Rational::reduced(
            i128::from(a) * i128::from(d) + i128::from(c) * i128::from(b),
            b as u128 * d as u128,
        );
    }
    let g = g as i64;
    let (bg, dg) = (b / g, d / g);
    let t = i128::from(a) * i128::from(dg) + i128::from(c) * i128::from(bg);
    let g2 = gcd_u64(rem_abs(t, g as u64), g as u64) as i64;
    Rational::reduced(t / i128::from(g2), bg as u128 * (d / g2) as u128)
}

/// `a/b · c/d` for reduced fractions with `b, d > 0`: cancelling across
/// (`a` with `d`, `c` with `b`) leaves a reduced product.
fn mul_small(a: i64, b: i64, c: i64, d: i64) -> Rational {
    if a == 0 || c == 0 {
        return Rational::zero();
    }
    let g1 = gcd_u64(a.unsigned_abs(), d as u64) as i64;
    let g2 = gcd_u64(c.unsigned_abs(), b as u64) as i64;
    Rational::reduced(
        i128::from(a / g1) * i128::from(c / g2),
        (b / g2) as u128 * (d / g1) as u128,
    )
}

/// [`Rational::to_f64`] of a `Big` value, by `BigInt` scaling.
fn big_to_f64(num: &BigInt, den: &BigInt) -> f64 {
    // Scale numerator and denominator independently down to <= 64
    // significant bits, then reapply the dropped powers of two as an
    // f64 exponent. Scaling both sides by a shared power would truncate
    // the smaller one to 0 and turn representable values into inf (or
    // their reciprocals into 0).
    let ns = num.bits().saturating_sub(64);
    let ds = den.bits().saturating_sub(64);
    let two = BigInt::from(2u64);
    let n = if ns == 0 {
        num.to_f64()
    } else {
        (num / &two.pow(ns as u32)).to_f64()
    };
    let d = if ds == 0 {
        den.to_f64()
    } else {
        (den / &two.pow(ds as u32)).to_f64()
    };
    // |n/d| is within 2^±64 of the true magnitude, so any exponent beyond
    // ±2200 is already past f64 range and the clamp only changes *how
    // far* past; powi then saturates to inf / 0.
    let e = (ns as i64 - ds as i64).clamp(-2200, 2200) as i32;
    (n / d) * 2f64.powi(e)
}

impl Rational {
    /// `num/den`, already in lowest terms with `den > 0`; `Small` when it
    /// fits.
    fn reduced(num: i128, den: u128) -> Rational {
        debug_assert!(den > 0 && (num != 0 || den == 1));
        match (i64::try_from(num), i64::try_from(den)) {
            (Ok(num), Ok(den)) if num != i64::MIN => Rational(Small { num, den }),
            _ => Rational(Big(Box::new((BigInt::from(num), BigInt::from(den))))),
        }
    }

    /// [`Rational::reduced`] for `BigInt` parts: demotes to `Small` when
    /// the value fits.
    fn reduced_big(num: BigInt, den: BigInt) -> Rational {
        match (num.to_i64(), den.to_i64()) {
            (Some(num), Some(den)) if num != i64::MIN => Rational(Small { num, den }),
            _ => Rational(Big(Box::new((num, den)))),
        }
    }

    /// Numerator and denominator as `BigInt`s, borrowed when `Big`.
    fn big_parts(&self) -> (Cow<'_, BigInt>, Cow<'_, BigInt>) {
        match &self.0 {
            &Small { num, den } => (Cow::Owned(num.into()), Cow::Owned(den.into())),
            Big(b) => (Cow::Borrowed(&b.0), Cow::Borrowed(&b.1)),
        }
    }

    /// Constructs `num/den`, normalizing sign and reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        if let (Some(n), Some(d)) = (num.to_i64(), den.to_i64()) {
            return Rational::ratio(n, d);
        }
        if num.is_zero() {
            return Rational::zero();
        }
        let (num, den) = if den.is_negative() {
            (-num, -den)
        } else {
            (num, den)
        };
        let g = num.gcd(&den);
        Rational::reduced_big(&num / &g, &den / &g)
    }

    /// The rational 0.
    pub fn zero() -> Self {
        Rational(Small { num: 0, den: 1 })
    }

    /// The rational 1.
    pub fn one() -> Self {
        Rational(Small { num: 1, den: 1 })
    }

    /// `p/q` from machine integers.
    ///
    /// # Panics
    /// Panics if `q` is zero.
    pub fn ratio(p: i64, q: i64) -> Self {
        assert!(q != 0, "rational with zero denominator");
        let g = i128::from(gcd_u64(p.unsigned_abs(), q.unsigned_abs()));
        let (num, den) = (i128::from(p) / g, i128::from(q) / g);
        if den < 0 {
            Rational::reduced(-num, den.unsigned_abs())
        } else {
            Rational::reduced(num, den as u128)
        }
    }

    /// Integer `n` as a rational.
    pub fn int(n: i64) -> Self {
        Rational::reduced(n.into(), 1)
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> BigInt {
        match &self.0 {
            Small { num, .. } => BigInt::from(*num),
            Big(b) => b.0.clone(),
        }
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> BigInt {
        match &self.0 {
            Small { den, .. } => BigInt::from(*den),
            Big(b) => b.1.clone(),
        }
    }

    /// `true` iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.signum() == 0
    }

    /// `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.signum() < 0
    }

    /// `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.signum() > 0
    }

    /// Sign as -1, 0 or 1.
    pub fn signum(&self) -> i32 {
        match &self.0 {
            Small { num, .. } => num.signum() as i32,
            Big(b) => b.0.signum(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        match &self.0 {
            &Small { num, den } => Rational(Small {
                num: num.abs(),
                den,
            }),
            Big(b) => Rational::reduced_big(b.0.abs(), b.1.clone()),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.0 {
            &Small { num, den } => Rational(Small {
                num: den * num.signum(),
                den: num.abs(),
            }),
            Big(b) => Rational::new(b.1.clone(), b.0.clone()),
        }
    }

    /// Integer power (negative exponents via reciprocal).
    pub fn pow(&self, exp: i32) -> Rational {
        if exp < 0 {
            return self.recip().pow(-exp);
        }
        let exp = exp as u32;
        if let Small { num, den } = self.0 {
            if let (Some(n), Some(d)) = (num.checked_pow(exp), den.checked_pow(exp)) {
                return Rational::reduced(n.into(), d as u128);
            }
        }
        let (num, den) = self.big_parts();
        Rational::reduced_big(num.pow(exp), den.pow(exp))
    }

    /// Approximate `f64` value.
    ///
    /// Values outside `f64` range saturate to `±inf` (or underflow to 0);
    /// values *inside* the range convert faithfully no matter how large the
    /// numerator and denominator are individually — e.g. `2^600 / 1` and
    /// `1 / 2^600` both come back finite and nonzero.
    pub fn to_f64(&self) -> f64 {
        match &self.0 {
            // Both parts have at most 64 bits, so the scaled formula reduces
            // to exactly this quotient (times 2^0).
            &Small { num, den } => num as f64 / den as f64,
            Big(b) => big_to_f64(&b.0, &b.1),
        }
    }

    /// The minimum of two rationals (by value).
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The maximum of two rationals (by value).
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<BigInt> for Rational {
    fn from(n: BigInt) -> Self {
        Rational::reduced_big(n, BigInt::one())
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::int(n)
    }
}

impl From<usize> for Rational {
    fn from(n: usize) -> Self {
        Rational::reduced(n as i128, 1)
    }
}

/// Error parsing a [`Rational`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError;

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal (expected `p` or `p/q`)")
    }
}

impl std::error::Error for ParseRationalError {}

impl FromStr for Rational {
    type Err = ParseRationalError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('/') {
            None => {
                let n: BigInt = s.parse().map_err(|_| ParseRationalError)?;
                Ok(Rational::from(n))
            }
            Some((p, q)) => {
                let p: BigInt = p.parse().map_err(|_| ParseRationalError)?;
                let q: BigInt = q.parse().map_err(|_| ParseRationalError)?;
                if q.is_zero() {
                    return Err(ParseRationalError);
                }
                Ok(Rational::new(p, q))
            }
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Small { num, den: 1 } => write!(f, "{num}"),
            Small { num, den } => write!(f, "{num}/{den}"),
            Big(b) if b.1.is_one() => write!(f, "{}", b.0),
            Big(b) => write!(f, "{}/{}", b.0, b.1),
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves order.
        match (&self.0, &other.0) {
            (&Small { num: a, den: b }, &Small { num: c, den: d }) => {
                if b == d {
                    a.cmp(&c)
                } else {
                    (i128::from(a) * i128::from(d)).cmp(&(i128::from(c) * i128::from(b)))
                }
            }
            _ => {
                let ((a, b), (c, d)) = (self.big_parts(), other.big_parts());
                (&*a * &*d).cmp(&(&*c * &*b))
            }
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match &self.0 {
            &Small { num, den } => Rational(Small { num: -num, den }),
            Big(b) => Rational::reduced_big(-&b.0, b.1.clone()),
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        -&self
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        if let (&Small { num: a, den: b }, &Small { num: c, den: d }) = (&self.0, &rhs.0) {
            return add_small(a, b, c, d);
        }
        let ((a, b), (c, d)) = (self.big_parts(), rhs.big_parts());
        Rational::new(&(&*a * &*d) + &(&*c * &*b), &*b * &*d)
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        if let (&Small { num: a, den: b }, &Small { num: c, den: d }) = (&self.0, &rhs.0) {
            return add_small(a, b, -c, d);
        }
        let ((a, b), (c, d)) = (self.big_parts(), rhs.big_parts());
        Rational::new(&(&*a * &*d) - &(&*c * &*b), &*b * &*d)
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        if let (&Small { num: a, den: b }, &Small { num: c, den: d }) = (&self.0, &rhs.0) {
            return mul_small(a, b, c, d);
        }
        let ((a, b), (c, d)) = (self.big_parts(), rhs.big_parts());
        Rational::new(&*a * &*c, &*b * &*d)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "rational division by zero");
        if let (&Small { num: a, den: b }, &Small { num: c, den: d }) = (&self.0, &rhs.0) {
            // a/b ÷ c/d = a/b · d/c, with the sign moved onto the numerator.
            return mul_small(a, b, d * c.signum(), c.abs());
        }
        let ((a, b), (c, d)) = (self.big_parts(), rhs.big_parts());
        Rational::new(&*a * &*d, &*b * &*c)
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                (&self).$method(rhs)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl DivAssign<&Rational> for Rational {
    fn div_assign(&mut self, rhs: &Rational) {
        *self = &*self / rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::sample::select;
    use std::hash::{DefaultHasher, Hash, Hasher};

    fn rat(s: &str) -> Rational {
        s.parse().unwrap()
    }

    #[test]
    fn normalization() {
        assert_eq!(rat("2/4"), rat("1/2"));
        assert_eq!(rat("-2/4"), rat("-1/2"));
        assert_eq!(
            Rational::new(BigInt::from(3), BigInt::from(-6)),
            rat("-1/2")
        );
        assert_eq!(rat("0/5"), Rational::zero());
        assert_eq!(rat("0/5").denom(), BigInt::one());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(rat("1/2") + rat("1/3"), rat("5/6"));
        assert_eq!(rat("1/2") - rat("1/3"), rat("1/6"));
        assert_eq!(rat("2/3") * rat("3/4"), rat("1/2"));
        assert_eq!(rat("1/2") / rat("1/4"), rat("2"));
        assert_eq!(-rat("1/2"), rat("-1/2"));
    }

    #[test]
    fn comparisons() {
        assert!(rat("1/3") < rat("1/2"));
        assert!(rat("-1/2") < rat("-1/3"));
        assert!(rat("3/2") > rat("1"));
        assert_eq!(rat("6/4").cmp(&rat("3/2")), Ordering::Equal);
        assert_eq!(rat("1/2").max(rat("2/3")), rat("2/3"));
        assert_eq!(rat("1/2").min(rat("2/3")), rat("1/2"));
    }

    #[test]
    fn pow_and_recip() {
        assert_eq!(rat("2/3").pow(2), rat("4/9"));
        assert_eq!(rat("2/3").pow(-2), rat("9/4"));
        assert_eq!(rat("2/3").pow(0), Rational::one());
        assert_eq!(rat("-3/5").recip(), rat("-5/3"));
    }

    #[test]
    fn display_and_parse() {
        assert_eq!(rat("3/2").to_string(), "3/2");
        assert_eq!(rat("4/2").to_string(), "2");
        assert_eq!(rat("-1/3").to_string(), "-1/3");
        assert!("1/0".parse::<Rational>().is_err());
        assert!("x".parse::<Rational>().is_err());
    }

    #[test]
    fn to_f64_accuracy() {
        assert!((rat("1/3").to_f64() - 1.0 / 3.0).abs() < 1e-15);
        assert!((rat("-22/7").to_f64() + 22.0 / 7.0).abs() < 1e-15);
        // huge values scale correctly
        let big = Rational::new(BigInt::from(2).pow(600), BigInt::from(2).pow(599));
        assert!((big.to_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn to_f64_extreme_magnitudes() {
        // A huge but representable value must not overflow to inf...
        let huge = Rational::from(BigInt::from(2).pow(600));
        assert_eq!(huge.to_f64(), 2f64.powi(600));
        // ...and its reciprocal must not truncate to 0.
        let tiny = Rational::new(BigInt::one(), BigInt::from(2).pow(600));
        assert_eq!(tiny.to_f64(), 2f64.powi(-600));
        // Both sides huge, quotient ~1 (odd numerator, so it stays huge
        // after reduction and exercises the two-sided scaling path).
        let near_one = Rational::new(
            &BigInt::from(2).pow(600) + &BigInt::one(),
            BigInt::from(2).pow(600),
        );
        assert!((near_one.to_f64() - 1.0).abs() < 1e-12);
        // Sign survives the scaled path.
        let neg = Rational::new(-BigInt::from(2).pow(700), BigInt::from(2).pow(699));
        assert_eq!(neg.to_f64(), -2.0);
        // Truly out-of-range magnitudes saturate instead of panicking.
        assert_eq!(
            Rational::from(BigInt::from(2).pow(40_000)).to_f64(),
            f64::INFINITY
        );
        assert_eq!(
            Rational::new(BigInt::one(), BigInt::from(2).pow(40_000)).to_f64(),
            0.0
        );
    }

    fn arb_rational() -> impl Strategy<Value = Rational> {
        (any::<i32>(), 1..10_000i64).prop_map(|(p, q)| Rational::ratio(p as i64, q))
    }

    proptest! {
        #[test]
        fn field_axioms(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
            prop_assert_eq!(&a + &b, &b + &a);
            prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
            prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
            prop_assert_eq!(&a + &Rational::zero(), a.clone());
            prop_assert_eq!(&a * &Rational::one(), a.clone());
        }

        #[test]
        fn sub_div_inverses(a in arb_rational(), b in arb_rational()) {
            prop_assert_eq!(&(&a - &b) + &b, a.clone());
            if !b.is_zero() {
                prop_assert_eq!(&(&a / &b) * &b, a.clone());
            }
        }

        #[test]
        fn always_reduced(a in arb_rational(), b in arb_rational()) {
            let c = &a * &b;
            let g = c.numer().gcd(&c.denom());
            prop_assert!(g.is_one() || c.is_zero());
            prop_assert!(c.denom().is_positive());
        }

        #[test]
        fn parse_roundtrip(a in arb_rational()) {
            prop_assert_eq!(a.to_string().parse::<Rational>().unwrap(), a);
        }

        #[test]
        fn ordering_total(a in arb_rational(), b in arb_rational()) {
            let byf = a.to_f64().partial_cmp(&b.to_f64()).unwrap();
            if byf != Ordering::Equal {
                prop_assert_eq!(a.cmp(&b), byf);
            }
        }
    }

    // --- the i64 boundary, against a BigInt cross-multiplication oracle ---

    impl Rational {
        fn is_small(&self) -> bool {
            matches!(self.0, Small { .. })
        }
    }

    fn hash_of(r: &Rational) -> u64 {
        let mut h = DefaultHasher::new();
        r.hash(&mut h);
        h.finish()
    }

    /// The all-`BigInt` `to_f64` formula, restated independently.
    fn oracle_to_f64(num: &BigInt, den: &BigInt) -> f64 {
        let ns = num.bits().saturating_sub(64);
        let ds = den.bits().saturating_sub(64);
        let two = BigInt::from(2u64);
        let n = (num / &two.pow(ns as u32)).to_f64();
        let d = (den / &two.pow(ds as u32)).to_f64();
        let e = (ns as i64 - ds as i64).clamp(-2200, 2200) as i32;
        (n / d) * 2f64.powi(e)
    }

    /// Numerator/denominator parts straddling the `i64` edge.
    fn edge_parts() -> Vec<BigInt> {
        let two63 = BigInt::from(1u64 << 63);
        let mut parts: Vec<BigInt> = [
            i64::MIN,
            i64::MIN + 1,
            i64::MIN + 2,
            -(1 << 32),
            -6,
            -2,
            -1,
            0,
            1,
            2,
            3,
            6,
            3_037_000_499, // ⌊√i64::MAX⌋
            1 << 32,
            i64::MAX - 1,
            i64::MAX,
        ]
        .into_iter()
        .map(BigInt::from)
        .collect();
        parts.push(two63.clone());
        parts.push(&two63 + &BigInt::one());
        parts.push(-(&two63 + &BigInt::one()));
        parts.push(BigInt::from(u64::MAX));
        parts.push(&BigInt::from(u64::MAX) * &BigInt::from(6));
        parts
    }

    /// Edge parts, random full-width `i64` parts, or small parts.
    fn arb_edge_rational() -> impl Strategy<Value = Rational> {
        (
            0..3u8,
            (select(edge_parts()), select(edge_parts())),
            (any::<i64>(), any::<i64>()),
            (-12..13i64, 1..13i64),
        )
            .prop_map(|(pick, (en, ed), (rn, rd), (sn, sd))| {
                let (n, d) = match pick {
                    0 => (en, ed),
                    1 => (BigInt::from(rn), BigInt::from(rd)),
                    _ => (BigInt::from(sn), BigInt::from(sd)),
                };
                if d.is_zero() {
                    Rational::from(n)
                } else {
                    Rational::new(n, d)
                }
            })
    }

    /// `r` is canonical, `Small` exactly when it fits, and agrees with
    /// the old all-`BigInt` formulas for `to_f64`, `Display` and parsing.
    fn check_canonical(r: &Rational) -> Result<(), TestCaseError> {
        let (n, d) = (r.numer(), r.denom());
        prop_assert!(d.is_positive());
        prop_assert!(n.gcd(&d).is_one() || (n.is_zero() && d.is_one()));
        let fits = n.to_i64().is_some_and(|n| n != i64::MIN) && d.to_i64().is_some();
        prop_assert_eq!(r.is_small(), fits);
        // The same value reached through the Big path is == and hashes alike.
        let huge = Rational::from(BigInt::from(2).pow(100));
        let detour = &(r + &huge) - &huge;
        prop_assert_eq!(&detour, r);
        prop_assert_eq!(hash_of(&detour), hash_of(r));
        prop_assert_eq!(r.to_f64().to_bits(), oracle_to_f64(&n, &d).to_bits());
        let shown = if d.is_one() {
            n.to_string()
        } else {
            format!("{n}/{d}")
        };
        prop_assert_eq!(r.to_string(), shown.clone());
        prop_assert_eq!(&shown.parse::<Rational>().unwrap(), r);
        Ok(())
    }

    /// `r == en/ed` by cross-multiplication (`ed` may be negative).
    fn equals_oracle(r: &Rational, en: &BigInt, ed: &BigInt) -> bool {
        &r.numer() * ed == en * &r.denom()
    }

    proptest! {
        #[test]
        fn boundary_ops_match_bigint_oracle(a in arb_edge_rational(), b in arb_edge_rational()) {
            check_canonical(&a)?;
            let ((an, ad), (bn, bd)) = ((a.numer(), a.denom()), (b.numer(), b.denom()));
            let sum = &a + &b;
            check_canonical(&sum)?;
            prop_assert!(equals_oracle(&sum, &(&(&an * &bd) + &(&bn * &ad)), &(&ad * &bd)));
            let diff = &a - &b;
            check_canonical(&diff)?;
            prop_assert!(equals_oracle(&diff, &(&(&an * &bd) - &(&bn * &ad)), &(&ad * &bd)));
            let prod = &a * &b;
            check_canonical(&prod)?;
            prop_assert!(equals_oracle(&prod, &(&an * &bn), &(&ad * &bd)));
            if !b.is_zero() {
                let quot = &a / &b;
                check_canonical(&quot)?;
                prop_assert!(equals_oracle(&quot, &(&an * &bd), &(&ad * &bn)));
            }
            prop_assert_eq!(a.cmp(&b), (&an * &bd).cmp(&(&bn * &ad)));
            let neg = -&a;
            check_canonical(&neg)?;
            prop_assert_eq!(&neg + &a, Rational::zero());
            let cube = a.pow(3);
            check_canonical(&cube)?;
            prop_assert!(equals_oracle(&cube, &an.pow(3), &ad.pow(3)));
            if !a.is_zero() {
                check_canonical(&a.recip())?;
                prop_assert_eq!(a.pow(-1), a.recip());
            }
        }
    }

    #[test]
    fn overflowing_intermediates_reduce_back_to_small() {
        let max = Rational::int(i64::MAX);
        let inv_max = Rational::ratio(1, i64::MAX);
        let one = &max * &inv_max;
        assert!(one.is_small());
        assert_eq!(one, Rational::one());
        // Cross products near 2^126, sum reduces to a small fraction.
        let a = Rational::ratio(i64::MAX, i64::MAX - 1);
        let b = Rational::ratio(-1, i64::MAX - 1);
        assert_eq!(&a + &b, Rational::one());
        // Big ⊗ Big → Small.
        let two63 = Rational::from(BigInt::from(1u64 << 63));
        assert!(!two63.is_small());
        assert!((&two63 * &two63.recip()).is_small());
        let minus = Rational::from(-BigInt::from(1u64 << 63));
        assert!(
            !minus.is_small(),
            "i64::MIN stays Big so negation cannot overflow"
        );
        assert_eq!(&minus + &Rational::one(), Rational::int(i64::MIN + 1));
        assert!((&minus + &Rational::one()).is_small());
        assert_eq!(-&minus, two63);
        assert_eq!(Rational::ratio(i64::MIN, 2), Rational::int(-(1 << 62)));
        assert!(!Rational::ratio(i64::MIN, -1).is_small());
        assert_eq!(Rational::ratio(i64::MIN, -1), two63);
        assert_eq!(std::mem::size_of::<Rational>(), 24);
    }
}
