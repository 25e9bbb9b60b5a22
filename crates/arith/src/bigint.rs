//! Sign-magnitude arbitrary-precision integers on `u64` limbs.
//!
//! Invariants: the magnitude is little-endian with no trailing zero limbs,
//! and zero is represented by an empty magnitude with `negative == false`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// An arbitrary-precision signed integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigInt {
    negative: bool,
    /// Little-endian limbs; no trailing zeros; empty means zero.
    mag: Vec<u64>,
}

impl BigInt {
    /// The integer 0.
    pub fn zero() -> Self {
        BigInt::default()
    }

    /// The integer 1.
    pub fn one() -> Self {
        BigInt::from(1u64)
    }

    /// `true` iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.mag.is_empty()
    }

    /// `true` iff the value is 1.
    pub fn is_one(&self) -> bool {
        !self.negative && self.mag == [1]
    }

    /// `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.negative
    }

    /// `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        !self.negative && !self.is_zero()
    }

    /// Sign as -1, 0 or 1.
    pub fn signum(&self) -> i32 {
        if self.is_zero() {
            0
        } else if self.negative {
            -1
        } else {
            1
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt {
            negative: false,
            mag: self.mag.clone(),
        }
    }

    fn from_mag(negative: bool, mut mag: Vec<u64>) -> Self {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        let negative = negative && !mag.is_empty();
        BigInt { negative, mag }
    }

    /// Number of bits in the magnitude (0 for zero).
    pub fn bits(&self) -> usize {
        match self.mag.last() {
            None => 0,
            Some(&top) => self.mag.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Euclidean-style quotient and remainder: `self = q * other + r` with
    /// `|r| < |other|` and `r` taking the sign of `self` (truncated
    /// division, matching Rust's `/` and `%` on primitives).
    ///
    /// # Panics
    /// Panics if `other` is zero.
    fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "division by zero BigInt");
        if mag_cmp(&self.mag, &other.mag) == Ordering::Less {
            return (BigInt::zero(), self.clone());
        }
        let (q, r) = mag_divrem(&self.mag, &other.mag);
        (
            BigInt::from_mag(self.negative ^ other.negative, q),
            BigInt::from_mag(self.negative, r),
        )
    }

    /// Greatest common divisor (always nonnegative; `gcd(0,0) = 0`).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let r = a.div_rem(&b).1;
            a = b;
            b = r;
        }
        a
    }

    /// Nonnegative integer power.
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Converts to `f64`, saturating on overflow. Exact for values with at
    /// most 53 significant bits.
    pub fn to_f64(&self) -> f64 {
        let mut x = 0.0f64;
        for &limb in self.mag.iter().rev() {
            x = x * 18446744073709551616.0 + limb as f64;
        }
        if self.negative {
            -x
        } else {
            x
        }
    }

    /// Converts to `i64` if it fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.mag.len() {
            0 => Some(0),
            1 => {
                let m = self.mag[0];
                if self.negative {
                    if m <= 1u64 << 63 {
                        Some((m as i128).wrapping_neg() as i64)
                    } else {
                        None
                    }
                } else if m <= i64::MAX as u64 {
                    Some(m as i64)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Converts to `u64` if nonnegative and small enough.
    pub fn to_u64(&self) -> Option<u64> {
        if self.negative {
            return None;
        }
        match self.mag.len() {
            0 => Some(0),
            1 => Some(self.mag[0]),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// magnitude (unsigned little-endian) primitives
// ---------------------------------------------------------------------------

fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

fn mag_add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &l) in long.iter().enumerate() {
        let (s1, c1) = l.overflowing_add(*short.get(i).unwrap_or(&0));
        let (s2, c2) = s1.overflowing_add(carry);
        out.push(s2);
        carry = (c1 as u64) + (c2 as u64);
    }
    if carry > 0 {
        out.push(carry);
    }
    out
}

/// Requires `a >= b`.
fn mag_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for (i, &ai) in a.iter().enumerate() {
        let (d1, b1) = ai.overflowing_sub(*b.get(i).unwrap_or(&0));
        let (d2, b2) = d1.overflowing_sub(borrow);
        out.push(d2);
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0);
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

fn mag_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry > 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// Divides by a single limb; returns (quotient, remainder).
fn mag_divrem_limb(u: &[u64], v: u64) -> (Vec<u64>, u64) {
    let mut q = vec![0u64; u.len()];
    let mut rem = 0u128;
    for i in (0..u.len()).rev() {
        let cur = (rem << 64) | u[i] as u128;
        q[i] = (cur / v as u128) as u64;
        rem = cur % v as u128;
    }
    while q.last() == Some(&0) {
        q.pop();
    }
    (q, rem as u64)
}

fn shl_limbs(a: &[u64], s: u32) -> Vec<u64> {
    if s == 0 {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry = 0u64;
    for &x in a {
        out.push((x << s) | carry);
        carry = x >> (64 - s);
    }
    out.push(carry);
    out
}

/// Knuth's Algorithm D. Requires `u >= v`, `v.len() >= 1`, normalized inputs.
fn mag_divrem(u: &[u64], v: &[u64]) -> (Vec<u64>, Vec<u64>) {
    if v.len() == 1 {
        let (q, r) = mag_divrem_limb(u, v[0]);
        return (q, if r == 0 { Vec::new() } else { vec![r] });
    }
    let n = v.len();
    let m = u.len() - n;
    // D1: normalize so the top limb of v has its high bit set.
    let s = v[n - 1].leading_zeros();
    let vn = {
        let mut t = shl_limbs(v, s);
        while t.last() == Some(&0) {
            t.pop();
        }
        t
    };
    debug_assert_eq!(vn.len(), n);
    let mut un = shl_limbs(u, s);
    un.resize(u.len() + 1, 0);

    let mut q = vec![0u64; m + 1];
    let b = 1u128 << 64;
    // D2..D7: main loop.
    for j in (0..=m).rev() {
        // D3: estimate q̂.
        let top = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
        let mut qhat = top / vn[n - 1] as u128;
        let mut rhat = top % vn[n - 1] as u128;
        while qhat >= b || qhat * vn[n - 2] as u128 > ((rhat << 64) | un[j + n - 2] as u128) {
            qhat -= 1;
            rhat += vn[n - 1] as u128;
            if rhat >= b {
                break;
            }
        }
        // D4: multiply and subtract.
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = qhat * vn[i] as u128 + carry;
            carry = p >> 64;
            let sub = un[j + i] as i128 - (p as u64) as i128 - borrow;
            un[j + i] = sub as u64;
            borrow = if sub < 0 { 1 } else { 0 };
        }
        let sub = un[j + n] as i128 - carry as i128 - borrow;
        un[j + n] = sub as u64;
        // D5/D6: if we subtracted too much, add back.
        if sub < 0 {
            qhat -= 1;
            let mut carry = 0u64;
            for i in 0..n {
                let (s1, c1) = un[j + i].overflowing_add(vn[i]);
                let (s2, c2) = s1.overflowing_add(carry);
                un[j + i] = s2;
                carry = (c1 as u64) + (c2 as u64);
            }
            un[j + n] = un[j + n].wrapping_add(carry);
        }
        q[j] = qhat as u64;
    }
    while q.last() == Some(&0) {
        q.pop();
    }
    // D8: denormalize remainder.
    let mut r = un[..n].to_vec();
    if s > 0 {
        let mut carry = 0u64;
        for x in r.iter_mut().rev() {
            let new = (*x >> s) | carry;
            carry = *x << (64 - s);
            *x = new;
        }
    }
    while r.last() == Some(&0) {
        r.pop();
    }
    (q, r)
}

// ---------------------------------------------------------------------------
// conversions
// ---------------------------------------------------------------------------

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        BigInt::from_mag(false, vec![v])
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        BigInt::from_mag(v < 0, vec![v.unsigned_abs()])
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> Self {
        BigInt::from(v as i64)
    }
}

impl From<u32> for BigInt {
    fn from(v: u32) -> Self {
        BigInt::from(v as u64)
    }
}

impl From<usize> for BigInt {
    fn from(v: usize) -> Self {
        BigInt::from(v as u64)
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        let m = v.unsigned_abs();
        BigInt::from_mag(v < 0, vec![m as u64, (m >> 64) as u64])
    }
}

impl From<u128> for BigInt {
    fn from(v: u128) -> Self {
        BigInt::from_mag(false, vec![v as u64, (v >> 64) as u64])
    }
}

/// Error parsing a [`BigInt`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError;

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid integer literal")
    }
}

impl std::error::Error for ParseBigIntError {}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseBigIntError);
        }
        let mut acc = BigInt::zero();
        let ten_19 = BigInt::from(10u64.pow(19));
        for chunk in digits.as_bytes().chunks(19).collect::<Vec<_>>() {
            let val: u64 = std::str::from_utf8(chunk)
                .unwrap()
                .parse()
                .map_err(|_| ParseBigIntError)?;
            let scale = if chunk.len() == 19 {
                ten_19.clone()
            } else {
                BigInt::from(10u64.pow(chunk.len() as u32))
            };
            acc = &acc * &scale + &BigInt::from(val);
        }
        acc.negative = neg && !acc.is_zero();
        Ok(acc)
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits: Vec<String> = Vec::new();
        let mut mag = self.mag.clone();
        let chunk = 10u64.pow(19);
        while !mag.is_empty() {
            let (q, r) = mag_divrem_limb(&mag, chunk);
            mag = q;
            if mag.is_empty() {
                digits.push(format!("{r}"));
            } else {
                digits.push(format!("{r:019}"));
            }
        }
        let body: String = digits.iter().rev().flat_map(|s| s.chars()).collect();
        write!(f, "{}{}", if self.negative { "-" } else { "" }, body)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

// ---------------------------------------------------------------------------
// comparison and arithmetic operators
// ---------------------------------------------------------------------------

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.negative, other.negative) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => mag_cmp(&self.mag, &other.mag),
            (true, true) => mag_cmp(&other.mag, &self.mag),
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt::from_mag(!self.negative, self.mag.clone())
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        if !self.is_zero() {
            self.negative = !self.negative;
        }
        self
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        if self.negative == rhs.negative {
            BigInt::from_mag(self.negative, mag_add(&self.mag, &rhs.mag))
        } else {
            match mag_cmp(&self.mag, &rhs.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt::from_mag(self.negative, mag_sub(&self.mag, &rhs.mag)),
                Ordering::Less => BigInt::from_mag(rhs.negative, mag_sub(&rhs.mag, &self.mag)),
            }
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    #[allow(clippy::suspicious_arithmetic_impl)] // sign xor is the sign rule
    fn mul(self, rhs: &BigInt) -> BigInt {
        BigInt::from_mag(self.negative != rhs.negative, mag_mul(&self.mag, &rhs.mag))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                (&self).$method(rhs)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);
forward_owned_binop!(Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn big(s: &str) -> BigInt {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in [
            "0",
            "1",
            "-1",
            "18446744073709551616",
            "-340282366920938463463374607431768211456",
            "99999999999999999999999999999999999999999999",
        ] {
            assert_eq!(big(s).to_string(), s);
        }
        assert_eq!(big("+7").to_string(), "7");
        assert_eq!(big("-0").to_string(), "0");
        assert!("".parse::<BigInt>().is_err());
        assert!("12a".parse::<BigInt>().is_err());
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(big("2") + big("3"), big("5"));
        assert_eq!(big("2") - big("3"), big("-1"));
        assert_eq!(big("-2") * big("3"), big("-6"));
        assert_eq!(big("7") / big("2"), big("3"));
        assert_eq!(big("7") % big("2"), big("1"));
        assert_eq!(big("-7") / big("2"), big("-3"));
        assert_eq!(big("-7") % big("2"), big("-1"));
    }

    #[test]
    fn carry_chains() {
        let max = BigInt::from(u64::MAX);
        assert_eq!((&max + &BigInt::one()).to_string(), "18446744073709551616");
        let big2 = &max * &max;
        assert_eq!(big2.to_string(), "340282366920938463426481119284349108225");
    }

    #[test]
    fn multi_limb_division() {
        let a = big("123456789012345678901234567890123456789");
        let b = big("987654321098765432109");
        let (q, r) = a.div_rem(&b);
        assert_eq!(&q * &b + &r, a);
        assert!(r.abs() < b.abs());
        assert_eq!(q.to_string(), "124999998860937500");
    }

    #[test]
    fn division_needing_add_back() {
        // Exercise Knuth D5/D6 correction path: divisor with high limb
        // pattern that makes q̂ overestimate.
        let u = BigInt::from_mag(false, vec![0, 0, 0x8000_0000_0000_0000]);
        let v = BigInt::from_mag(false, vec![1, 0x8000_0000_0000_0000]);
        let (q, r) = u.div_rem(&v);
        assert_eq!(&q * &v + &r, u);
        assert!(r < v);
    }

    #[test]
    fn gcd_and_pow() {
        assert_eq!(big("48").gcd(&big("-36")), big("12"));
        assert_eq!(big("0").gcd(&big("0")), big("0"));
        assert_eq!(big("0").gcd(&big("5")), big("5"));
        assert_eq!(big("3").pow(5), big("243"));
        assert_eq!(
            big("2").pow(100).to_string(),
            "1267650600228229401496703205376"
        );
        assert_eq!(big("-2").pow(3), big("-8"));
        assert_eq!(big("17").pow(0), big("1"));
    }

    #[test]
    fn comparisons() {
        assert!(big("-5") < big("3"));
        assert!(big("5") > big("3"));
        assert!(big("-5") < big("-3"));
        assert_eq!(big("12").cmp(&big("12")), Ordering::Equal);
        assert!(big("18446744073709551616") > big("18446744073709551615"));
    }

    #[test]
    fn conversions() {
        assert_eq!(BigInt::from(-42i64).to_i64(), Some(-42));
        assert_eq!(BigInt::from(i64::MIN).to_i64(), Some(i64::MIN));
        assert_eq!(big("9223372036854775808").to_i64(), None);
        assert_eq!(big("-9223372036854775809").to_i64(), None);
        assert_eq!(big("42").to_u64(), Some(42));
        assert_eq!(big("-1").to_u64(), None);
        assert_eq!(
            BigInt::from(1u128 << 80).to_string(),
            "1208925819614629174706176"
        );
        assert!((big("1000000").to_f64() - 1e6).abs() < 1e-9);
    }

    #[test]
    fn bit_lengths() {
        assert_eq!(BigInt::zero().bits(), 0);
        assert_eq!(big("1").bits(), 1);
        assert_eq!(big("255").bits(), 8);
        assert_eq!(big("256").bits(), 9);
    }

    fn arb_bigint() -> impl Strategy<Value = BigInt> {
        (any::<bool>(), proptest::collection::vec(any::<u64>(), 0..5))
            .prop_map(|(neg, mag)| BigInt::from_mag(neg, mag))
    }

    proptest! {
        #[test]
        fn add_commutative(a in arb_bigint(), b in arb_bigint()) {
            prop_assert_eq!(&a + &b, &b + &a);
        }

        #[test]
        fn add_associative(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
            prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        }

        #[test]
        fn mul_commutative(a in arb_bigint(), b in arb_bigint()) {
            prop_assert_eq!(&a * &b, &b * &a);
        }

        #[test]
        fn distributive(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
            prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        }

        #[test]
        fn sub_inverse(a in arb_bigint(), b in arb_bigint()) {
            prop_assert_eq!(&(&a - &b) + &b, a);
        }

        #[test]
        fn divrem_invariant(a in arb_bigint(), b in arb_bigint()) {
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert_eq!(&(&q * &b) + &r, a.clone());
            prop_assert!(r.abs() < b.abs());
            // remainder sign convention: sign of dividend (or zero)
            prop_assert!(r.is_zero() || r.is_negative() == a.is_negative());
        }

        #[test]
        fn parse_roundtrip(a in arb_bigint()) {
            let s = a.to_string();
            prop_assert_eq!(s.parse::<BigInt>().unwrap(), a);
        }

        #[test]
        fn gcd_divides(a in arb_bigint(), b in arb_bigint()) {
            let g = a.gcd(&b);
            if !g.is_zero() {
                prop_assert!(a.div_rem(&g).1.is_zero());
                prop_assert!(b.div_rem(&g).1.is_zero());
            } else {
                prop_assert!(a.is_zero() && b.is_zero());
            }
        }

        #[test]
        fn cmp_consistent_with_sub(a in arb_bigint(), b in arb_bigint()) {
            let d = &a - &b;
            prop_assert_eq!(a.cmp(&b), d.cmp(&BigInt::zero()));
        }
    }
}
