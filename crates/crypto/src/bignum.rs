//! Arbitrary-precision unsigned integers with Montgomery modular
//! arithmetic.
//!
//! Just enough bignum for the trust-establishment protocols: comparison,
//! add/sub/mul, binary division, and odd-modulus Montgomery exponentiation
//! by fixed 4-bit windows, plus Miller–Rabin primality testing used to
//! derive deterministic simulation groups.
//!
//! Limbs are 64-bit, little-endian, and always normalized (no high zero
//! limbs except for the canonical zero, which has no limbs).
//!
//! # Constant-time shape
//!
//! A Montgomery product runs in caller buffers and stack scratch sized
//! for [`MAX_LIMBS`], so it never allocates, and its final subtraction of
//! the modulus is chosen by mask. [`Montgomery::pow`] does the same
//! products for every exponent no wider than the modulus: its window
//! count depends on the two bit lengths only, each window is four
//! squarings and one product, and the table entry is read by a full
//! masked scan ([`crate::ct::ct_lookup`]). `BaseTable::pow` is the same
//! for a fixed base, with one product per window. [`BigUint::div_rem`]
//! subtracts under a mask too, so its work depends on the two lengths.
//!
//! Not yet constant-time: a `BigUint` is normalized, so its limb count
//! (and any encoding of it) shows its leading zero limbs; comparison
//! returns at the first differing limb, which is how an out-of-range
//! input is detected and reduced before a product; and the
//! variable-length byte encodings of DH values and signatures carry the
//! same leak onto the wire.

use crate::ct;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl BigUint {
    /// The value 0 (no limbs).
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Parses a big-endian hex string (whitespace ignored).
    ///
    /// # Panics
    ///
    /// Panics on non-hex characters.
    pub fn from_hex(s: &str) -> Self {
        let clean: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        let mut bytes = Vec::with_capacity(clean.len() / 2 + 1);
        let padded = if clean.len() % 2 == 1 {
            format!("0{clean}")
        } else {
            clean
        };
        for i in (0..padded.len()).step_by(2) {
            bytes.push(
                u8::from_str_radix(&padded[i..i + 2], 16).expect("invalid hex digit"),
            );
        }
        Self::from_bytes_be(&bytes)
    }

    /// Big-endian hex encoding without leading zeros ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Constructs from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        BigUint::from_limbs(limbs)
    }

    /// Big-endian byte encoding without leading zero bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            let bytes = limb.to_be_bytes();
            if i == 0 {
                let skip = bytes.iter().take_while(|&&b| b == 0).count();
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// The value of little-endian `limbs`, high zero limbs dropped.
    fn from_limbs(mut limbs: Vec<u64>) -> BigUint {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Addition.
    #[allow(clippy::needless_range_loop)] // limb index pairs two arrays
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// Subtraction.
    ///
    /// # Panics
    ///
    /// Panics on underflow (`other > self`).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        BigUint::from_limbs(out)
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Right shift by one bit.
    pub fn shr1(&self) -> BigUint {
        let mut out = vec![0u64; self.limbs.len()];
        let mut carry = 0u64;
        for (i, &l) in self.limbs.iter().enumerate().rev() {
            out[i] = (l >> 1) | (carry << 63);
            carry = l & 1;
        }
        BigUint::from_limbs(out)
    }

    /// Binary long division: returns `(self / divisor, self % divisor)`.
    ///
    /// The remainder, as wide as the divisor, is shifted a bit at a time
    /// and the divisor subtracted from it under a mask, in two buffers
    /// allocated once, so the work depends on the two lengths only.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        let mut quotient = vec![0u64; self.limbs.len()];
        let mut rem = vec![0u64; divisor.limbs.len()];
        let mut shifted = rem.clone();
        for i in (0..self.bit_len()).rev() {
            let top = shl1_in_place(&mut rem, (self.limbs[i / 64] >> (i % 64)) & 1);
            std::mem::swap(&mut rem, &mut shifted);
            quotient[i / 64] |= sub_if_ge(&shifted, top, &divisor.limbs, &mut rem) << (i % 64);
        }
        (BigUint::from_limbs(quotient), BigUint::from_limbs(rem))
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }
}

/// Widest modulus a [`Montgomery`] context takes, in 64-bit limbs: the
/// 2048 bits of RFC 3526 group 14. It sizes the stack scratch of every
/// Montgomery product, so no product allocates.
pub const MAX_LIMBS: usize = 32;

/// Exponent bits per window of [`Montgomery::pow`] and `BaseTable::pow`.
const WINDOW: usize = 4;

/// Entries of a window's table, one per window value.
const ENTRIES: usize = 1 << WINDOW;

#[cfg(test)]
thread_local! {
    /// Montgomery products this thread has computed.
    static MONT_MULS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Writes to `out` the value `top · 2^(64·x.len()) + x` less `n` if it
/// is at least `n`, else `x`, and returns 1 if it subtracted, else 0.
/// The value must be below `2n`, and `x`, `n` and `out` equally long.
/// The difference is always computed and the result chosen by mask, so
/// the choice takes no branch.
fn sub_if_ge(x: &[u64], top: u64, n: &[u64], out: &mut [u64]) -> u64 {
    let mut borrow = 0u64;
    for ((o, &xi), &ni) in out.iter_mut().zip(x).zip(n) {
        let (d, b1) = xi.overflowing_sub(ni);
        let (d, b2) = d.overflowing_sub(borrow);
        *o = d;
        borrow = (b1 | b2) as u64;
    }
    let take = top | (borrow ^ 1);
    let keep_x = take.wrapping_sub(1);
    for (o, &xi) in out.iter_mut().zip(x) {
        *o ^= (*o ^ xi) & keep_x;
    }
    take
}

/// Shifts `x` left by one bit in place, shifting `bit` in at the bottom,
/// and returns the bit shifted out at the top.
fn shl1_in_place(x: &mut [u64], bit: u64) -> u64 {
    let mut carry = bit;
    for limb in x.iter_mut() {
        let out = *limb >> 63;
        *limb = (*limb << 1) | carry;
        carry = out;
    }
    carry
}

/// `exp`'s limbs, zero-padded to cover `windows` windows.
fn padded(exp: &BigUint, windows: usize) -> Vec<u64> {
    let mut limbs = exp.limbs.clone();
    limbs.resize(windows.div_ceil(64 / WINDOW), 0);
    limbs
}

/// Window `w` of padded exponent limbs: bits `4w .. 4w + 4`. `WINDOW`
/// divides 64, so a window never straddles two limbs.
fn window(exp: &[u64], w: usize) -> usize {
    (exp[w * WINDOW / 64] >> (w * WINDOW % 64)) as usize & (ENTRIES - 1)
}

/// Montgomery arithmetic context for an odd modulus of at most
/// [`MAX_LIMBS`] limbs.
#[derive(Clone)]
pub struct Montgomery {
    n: BigUint,
    n0_inv: u64,  // -n^{-1} mod 2^64
    r1: Vec<u64>, // R mod n (one in Montgomery form), k limbs
    r2: Vec<u64>, // R^2 mod n, k limbs
    k: usize,
}

impl fmt::Debug for Montgomery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Montgomery")
            .field("modulus_bits", &self.n.bit_len())
            .finish()
    }
}

impl Montgomery {
    /// Creates a context for `modulus`.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is even, less than 3, or wider than
    /// [`MAX_LIMBS`] limbs.
    pub fn new(modulus: BigUint) -> Self {
        assert!(modulus.is_odd(), "Montgomery modulus must be odd");
        assert!(modulus > BigUint::from(2u64), "Montgomery modulus must be >= 3");
        let k = modulus.limbs.len();
        assert!(k <= MAX_LIMBS, "Montgomery modulus wider than {MAX_LIMBS} limbs");
        // n0_inv = -n^{-1} mod 2^64, via Newton iteration.
        let n0 = modulus.limbs[0];
        let mut inv = n0; // correct mod 2^3 for odd n0? start with n0 works: n0*n0 ≡ 1 mod 8
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();

        // R mod n and R^2 mod n: 1 doubled 64·k and 2·64·k times, each
        // doubling reduced once.
        let double = |x: &mut Vec<u64>, times: usize| {
            let mut doubled = vec![0u64; k];
            for _ in 0..times {
                let top = shl1_in_place(x, 0);
                sub_if_ge(x, top, &modulus.limbs, &mut doubled);
                std::mem::swap(x, &mut doubled);
            }
        };
        let mut r1 = vec![0u64; k];
        r1[0] = 1;
        double(&mut r1, 64 * k);
        let mut r2 = r1.clone();
        double(&mut r2, 64 * k);

        Montgomery { n: modulus, n0_inv, r1, r2, k }
    }

    /// `R² mod n` for `R = 2^(64k)`, the factor that carries a value into
    /// Montgomery form.
    #[doc(hidden)]
    pub fn r_squared(&self) -> BigUint {
        BigUint::from_limbs(self.r2.clone())
    }

    /// `out = a·b·R⁻¹ mod n` over the first `k` limbs of each slice, for
    /// `a, b < n`: CIOS with the multiply and reduce passes fused, and the
    /// final subtraction of `n` chosen by mask.
    fn mont_mul(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        #[cfg(test)]
        MONT_MULS.with(|c| c.set(c.get() + 1));
        let k = self.k;
        let (b, n) = (&b[..k], &self.n.limbs[..k]);
        let mut t = [0u64; MAX_LIMBS + 1];
        let t = &mut t[..=k];
        for &ai in &a[..k] {
            // t = (t + ai·b + m·n) / 2^64, with m chosen to clear the low limb.
            let s = t[0] as u128 + ai as u128 * b[0] as u128;
            let m = (s as u64).wrapping_mul(self.n0_inv);
            let r = (s as u64) as u128 + m as u128 * n[0] as u128;
            let (mut carry_ab, mut carry_mn) = ((s >> 64) as u64, (r >> 64) as u64);
            for j in 1..k {
                let s = t[j] as u128 + ai as u128 * b[j] as u128 + carry_ab as u128;
                let r = (s as u64) as u128 + m as u128 * n[j] as u128 + carry_mn as u128;
                t[j - 1] = r as u64;
                carry_ab = (s >> 64) as u64;
                carry_mn = (r >> 64) as u64;
            }
            let s = t[k] as u128 + carry_ab as u128 + carry_mn as u128;
            t[k - 1] = s as u64;
            t[k] = (s >> 64) as u64;
        }
        // t < 2n, so one masked subtraction brings it below n.
        sub_if_ge(&t[..k], t[k], n, &mut out[..k]);
    }

    /// `a mod n` as `k` limbs (zero-padded past them).
    fn load(&self, a: &BigUint) -> [u64; MAX_LIMBS] {
        let reduced;
        let a = if a >= &self.n {
            reduced = a.rem(&self.n);
            &reduced
        } else {
            a
        };
        let mut limbs = [0u64; MAX_LIMBS];
        limbs[..a.limbs.len()].copy_from_slice(&a.limbs);
        limbs
    }

    /// The plain value of Montgomery-form `a`.
    fn unload(&self, a: &[u64]) -> BigUint {
        let mut one = [0u64; MAX_LIMBS];
        one[0] = 1;
        let mut out = [0u64; MAX_LIMBS];
        self.mont_mul(a, &one, &mut out);
        BigUint::from_limbs(out[..self.k].to_vec())
    }

    /// Fills `row` (`ENTRIES` entries of `k` limbs) with `unit^d` in
    /// Montgomery form, `d = 0..ENTRIES`, for Montgomery-form `unit`.
    fn fill_row(&self, row: &mut [u64], unit: &[u64]) {
        let k = self.k;
        row[..k].copy_from_slice(&self.r1);
        row[k..2 * k].copy_from_slice(&unit[..k]);
        for d in 2..ENTRIES {
            let (done, rest) = row.split_at_mut(d * k);
            self.mont_mul(&done[(d - 1) * k..], &done[k..2 * k], rest);
        }
    }

    /// Modular multiplication `a * b mod n` (handles conversion in/out of
    /// Montgomery form).
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let mut ab = [0u64; MAX_LIMBS];
        self.mont_mul(&self.load(a), &self.load(b), &mut ab); // a·b·R⁻¹
        let mut out = [0u64; MAX_LIMBS];
        self.mont_mul(&ab, &self.r2, &mut out);
        BigUint::from_limbs(out[..self.k].to_vec())
    }

    /// Modular exponentiation `base^exp mod n` by fixed 4-bit windows.
    ///
    /// The window count is the larger of the modulus and exponent bit
    /// lengths over 4, rounded up, so every exponent no wider than the
    /// modulus costs the same: 15 products to carry `base` into Montgomery
    /// form and tabulate `base^0..base^15`, then per window four squarings and one product with a table entry
    /// read by a full masked scan ([`ct::ct_lookup`]).
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let k = self.k;
        let mut base_m = [0u64; MAX_LIMBS];
        self.mont_mul(&self.load(base), &self.r2, &mut base_m);
        let mut table = [0u64; ENTRIES * MAX_LIMBS];
        let table = &mut table[..ENTRIES * k];
        self.fill_row(table, &base_m);

        let windows = self.n.bit_len().max(exp.bit_len()).div_ceil(WINDOW);
        let exp = padded(exp, windows);
        let (mut acc, mut tmp, mut entry) =
            ([0u64; MAX_LIMBS], [0u64; MAX_LIMBS], [0u64; MAX_LIMBS]);
        let (mut acc, mut tmp) = (&mut acc, &mut tmp);
        ct::ct_lookup(table, window(&exp, windows - 1), &mut acc[..k]);
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW {
                self.mont_mul(&acc[..], &acc[..], &mut tmp[..]);
                std::mem::swap(&mut acc, &mut tmp);
            }
            ct::ct_lookup(table, window(&exp, w), &mut entry[..k]);
            self.mont_mul(&acc[..], &entry, &mut tmp[..]);
            std::mem::swap(&mut acc, &mut tmp);
        }
        self.unload(&acc[..])
    }

    /// Modular addition `a + b mod n`.
    pub fn add_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let a = if a >= &self.n { a.rem(&self.n) } else { a.clone() };
        let b = if b >= &self.n { b.rem(&self.n) } else { b.clone() };
        let mut s = a.add(&b);
        if s >= self.n {
            s = s.sub(&self.n);
        }
        s
    }
}

/// Precomputed powers of one fixed base: entry `[w][d]` is
/// `base^(d·16^w)` in Montgomery form, for every window `w` of an
/// exponent as wide as the modulus. A power then costs one product per
/// window, with the entry read by a full masked scan, and no squaring.
/// Entries are stored at the modulus' own width: `⌈bits/4⌉ × 16 × k`
/// limbs (≈148 KB for the 513-bit simulation group).
pub(crate) struct BaseTable {
    ctx: Arc<Montgomery>,
    base: BigUint,
    windows: usize,
    entries: Vec<u64>,
}

impl BaseTable {
    /// Tabulates the powers of `base` modulo `ctx`'s modulus.
    pub(crate) fn new(ctx: Arc<Montgomery>, base: &BigUint) -> BaseTable {
        let k = ctx.k;
        let windows = ctx.n.bit_len().div_ceil(WINDOW);
        let row_len = ENTRIES * k;
        let mut entries = vec![0u64; windows * row_len];
        // unit = base^(16^w), and base^(16^(w+1)) = base^(15·16^w) · unit.
        let mut unit = [0u64; MAX_LIMBS];
        ctx.mont_mul(&ctx.load(base), &ctx.r2, &mut unit);
        for w in 0..windows {
            let row = &mut entries[w * row_len..(w + 1) * row_len];
            ctx.fill_row(row, &unit);
            let mut next = [0u64; MAX_LIMBS];
            ctx.mont_mul(&row[(ENTRIES - 1) * k..], &unit, &mut next);
            unit = next;
        }
        BaseTable { ctx, base: base.clone(), windows, entries }
    }

    /// `base^exp mod n`. An exponent wider than the table (a public
    /// length) goes through [`Montgomery::pow`].
    pub(crate) fn pow(&self, exp: &BigUint) -> BigUint {
        let ctx = &self.ctx;
        if exp.bit_len() > self.windows * WINDOW {
            return ctx.pow(&self.base, exp);
        }
        let exp = padded(exp, self.windows);
        let k = ctx.k;
        let mut rows = self.entries.chunks_exact(ENTRIES * k);
        let (mut acc, mut tmp, mut entry) =
            ([0u64; MAX_LIMBS], [0u64; MAX_LIMBS], [0u64; MAX_LIMBS]);
        let (mut acc, mut tmp) = (&mut acc, &mut tmp);
        let first = rows.next().expect("a modulus has at least one window");
        ct::ct_lookup(first, window(&exp, 0), &mut acc[..k]);
        for (w, row) in rows.enumerate() {
            ct::ct_lookup(row, window(&exp, w + 1), &mut entry[..k]);
            ctx.mont_mul(&acc[..], &entry, &mut tmp[..]);
            std::mem::swap(&mut acc, &mut tmp);
        }
        ctx.unload(&acc[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test hooks: known-answer modexp over a fresh context, Miller–Rabin
    /// for the group constants, and the shift that rebuilds `p = 2q + 1`.
    impl BigUint {
        /// Left shift by one bit.
        pub(crate) fn shl1(&self) -> BigUint {
            let mut out = Vec::with_capacity(self.limbs.len() + 1);
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << 1) | carry);
                carry = l >> 63;
            }
            if carry != 0 {
                out.push(carry);
            }
            BigUint::from_limbs(out)
        }

        /// Modular exponentiation `self^exp mod modulus` via Montgomery
        /// multiplication.
        ///
        /// # Panics
        ///
        /// Panics if `modulus` is even or < 3 (Montgomery requires odd moduli).
        pub(crate) fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
            let ctx = Montgomery::new(modulus.clone());
            ctx.pow(self, exp)
        }

        /// Deterministic Miller–Rabin primality test.
        ///
        /// Uses the first 16 prime bases — deterministic for all 64-bit inputs
        /// and overwhelmingly accurate for larger ones (error < 4^-16).
        pub(crate) fn is_probable_prime(&self) -> bool {
            const SMALL_PRIMES: [u64; 16] =
                [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53];
            if self.bit_len() <= 6 {
                let v = self.limbs.first().copied().unwrap_or(0);
                return SMALL_PRIMES.contains(&v) || (v > 53 && {
                    // tiny fallback for values 54..63
                    (2..v).all(|d| v % d != 0)
                });
            }
            // Quick small-factor sieve.
            for &p in &SMALL_PRIMES {
                let (_, r) = self.div_rem(&BigUint::from(p));
                if r.is_zero() {
                    return false;
                }
            }
            if !self.is_odd() {
                return false;
            }
            // self - 1 = d * 2^s
            let n_minus_1 = self.sub(&BigUint::one());
            let mut d = n_minus_1.clone();
            let mut s = 0u32;
            while !d.is_odd() {
                d = d.shr1();
                s += 1;
            }
            let ctx = Montgomery::new(self.clone());
            'witness: for &a in &SMALL_PRIMES {
                let a = BigUint::from(a);
                if &a >= self {
                    continue;
                }
                let mut x = ctx.pow(&a, &d);
                if x == BigUint::one() || x == n_minus_1 {
                    continue;
                }
                for _ in 0..s.saturating_sub(1) {
                    x = ctx.mul_mod(&x, &x);
                    if x == n_minus_1 {
                        continue 'witness;
                    }
                }
                return false;
            }
            true
        }
    }

    #[test]
    fn hex_round_trip() {
        for s in ["0", "1", "ff", "deadbeef", "123456789abcdef0123456789abcdef"] {
            let n = BigUint::from_hex(s);
            assert_eq!(n.to_hex(), s.trim_start_matches('0').to_lowercase().to_string().pipe_if_empty("0"));
        }
    }

    trait PipeIfEmpty {
        fn pipe_if_empty(self, default: &str) -> String;
    }
    impl PipeIfEmpty for String {
        fn pipe_if_empty(self, default: &str) -> String {
            if self.is_empty() {
                default.to_string()
            } else {
                self
            }
        }
    }

    #[test]
    fn bytes_round_trip() {
        let n = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(n.to_bytes_be(), vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 5]).to_bytes_be(), vec![5]);
        assert!(BigUint::from_bytes_be(&[]).is_zero());
    }

    #[test]
    fn comparison() {
        let a = BigUint::from_hex("ffffffffffffffff"); // 2^64-1
        let b = BigUint::from_hex("10000000000000000"); // 2^64
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn add_sub_inverse() {
        let a = BigUint::from_hex("ffffffffffffffffffffffffffffffff");
        let b = BigUint::from_hex("123456789abcdef");
        let s = a.add(&b);
        assert_eq!(s.sub(&b), a);
        assert_eq!(s.sub(&a), b);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = BigUint::from_hex("ffffffffffffffff");
        let one = BigUint::one();
        assert_eq!(a.add(&one).to_hex(), "10000000000000000");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = BigUint::one().sub(&BigUint::from(2u64));
    }

    #[test]
    fn mul_known_values() {
        let a = BigUint::from_hex("ffffffffffffffff");
        let sq = a.mul(&a);
        assert_eq!(sq.to_hex(), "fffffffffffffffe0000000000000001");
        assert!(BigUint::zero().mul(&a).is_zero());
        assert_eq!(BigUint::one().mul(&a), a);
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_hex("8000000000000000");
        assert_eq!(a.shl1().to_hex(), "10000000000000000");
        assert_eq!(a.shl1().shr1(), a);
        assert_eq!(BigUint::one().shr1(), BigUint::zero());
    }

    #[test]
    fn div_rem_basics() {
        let a = BigUint::from_hex("deadbeefcafebabe0123456789abcdef");
        let d = BigUint::from_hex("fedcba987654321");
        let (q, r) = a.div_rem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r < d);
        // divide by larger
        let (q2, r2) = d.div_rem(&a);
        assert!(q2.is_zero());
        assert_eq!(r2, d);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = BigUint::one().div_rem(&BigUint::zero());
    }

    #[test]
    fn modpow_small_values() {
        // 3^4 mod 7 = 81 mod 7 = 4
        let r = BigUint::from(3u64).modpow(&BigUint::from(4u64), &BigUint::from(7u64));
        assert_eq!(r, BigUint::from(4u64));
        // Fermat: 2^(p-1) mod p = 1 for p = 101
        let p = BigUint::from(101u64);
        let r = BigUint::from(2u64).modpow(&BigUint::from(100u64), &p);
        assert_eq!(r, BigUint::one());
        // x^0 = 1
        let r = BigUint::from(5u64).modpow(&BigUint::zero(), &p);
        assert_eq!(r, BigUint::one());
    }

    #[test]
    fn modpow_multi_limb() {
        // Fermat test with a known 128-bit prime: 2^127 - 1 (Mersenne).
        let p = BigUint::from_hex("7fffffffffffffffffffffffffffffff");
        let e = p.sub(&BigUint::one());
        let r = BigUint::from(3u64).modpow(&e, &p);
        assert_eq!(r, BigUint::one());
    }

    #[test]
    fn mul_mod_matches_div_rem() {
        let n = BigUint::from_hex("c000000000000000000000000000000000000000000000000000000000000045");
        let ctx = Montgomery::new(n.clone());
        let a = BigUint::from_hex("123456789abcdef0fedcba9876543210aaaaaaaaaaaaaaaa5555555555555555");
        let b = BigUint::from_hex("99999999999999991111111111111111eeeeeeeeeeeeeeee7777777777777777");
        let expected = a.mul(&b).rem(&n);
        assert_eq!(ctx.mul_mod(&a, &b), expected);
    }

    #[test]
    fn add_mod_wraps() {
        let n = BigUint::from(13u64);
        let ctx = Montgomery::new(n);
        assert_eq!(ctx.add_mod(&BigUint::from(7u64), &BigUint::from(9u64)), BigUint::from(3u64));
        assert_eq!(ctx.add_mod(&BigUint::from(20u64), &BigUint::from(20u64)), BigUint::from(1u64));
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn montgomery_rejects_even_modulus() {
        let _ = Montgomery::new(BigUint::from(100u64));
    }

    /// Montgomery products `f` computes on this thread.
    fn products(f: impl FnOnce()) -> u64 {
        let before = MONT_MULS.with(|c| c.get());
        f();
        MONT_MULS.with(|c| c.get()) - before
    }

    /// Exponent 0, every power of two below `q` (1, 2, 4, …), `q - 1` and
    /// 32 pseudo-random values below `q`.
    fn exponents(q: &BigUint) -> Vec<BigUint> {
        let mut exps = vec![BigUint::zero()];
        let mut power = BigUint::one();
        while power < *q {
            exps.push(power.clone());
            power = power.shl1();
        }
        exps.push(q.sub(&BigUint::one()));
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..32 {
            let bytes: Vec<u8> = (0..q.limbs.len() * 8)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect();
            exps.push(BigUint::from_bytes_be(&bytes).rem(q));
        }
        exps
    }

    /// `pow` and `pow_g` each do the same number of products for every
    /// exponent below `q`.
    fn assert_work_is_constant(
        name: &str,
        q: &BigUint,
        pow: impl Fn(&BigUint) -> BigUint,
        pow_g: impl Fn(&BigUint) -> BigUint,
    ) {
        let exps = exponents(q);
        for (label, f) in [("pow", &pow as &dyn Fn(&BigUint) -> BigUint), ("pow_g", &pow_g)] {
            let counts: Vec<u64> = exps.iter().map(|e| products(|| drop(f(e)))).collect();
            assert!(
                counts.iter().all(|&c| c == counts[0]),
                "{name} {label}: products per exponent differ: {counts:?}"
            );
        }
    }

    #[test]
    fn pow_work_does_not_depend_on_the_exponent() {
        let group = crate::dh::DhGroup::sim512();
        group.pow_g(&BigUint::one()); // builds the table outside the count
        let base = group.prime().sub(&BigUint::from(3u64));
        assert_work_is_constant(
            "sim512",
            group.order(),
            |e| group.pow(&base, e),
            |e| group.pow_g(e),
        );

        let n = BigUint::from_hex("e3c1a0f9b2d47e6581f3aa2c4b5d6e77");
        let ctx = Arc::new(Montgomery::new(n.clone()));
        let table = BaseTable::new(ctx.clone(), &BigUint::from(5u64));
        assert_work_is_constant(
            "2-limb",
            &n,
            |e| ctx.pow(&BigUint::from(7u64), e),
            |e| table.pow(e),
        );
    }

    #[test]
    fn miller_rabin_known_values() {
        for p in [2u64, 3, 5, 53, 101, 65537, 4294967311] {
            assert!(BigUint::from(p).is_probable_prime(), "{p} should be prime");
        }
        for c in [1u64, 4, 100, 65536, 4294967297 /* F5 = 641*6700417 */] {
            assert!(!BigUint::from(c).is_probable_prime(), "{c} should be composite");
        }
        // Carmichael number 561 = 3·11·17 must be rejected.
        assert!(!BigUint::from(561u64).is_probable_prime());
        // Mersenne prime 2^127-1.
        assert!(BigUint::from_hex("7fffffffffffffffffffffffffffffff").is_probable_prime());
        // 2^128+1 is composite.
        assert!(!BigUint::from_hex("100000000000000000000000000000001").is_probable_prime());
    }
}
