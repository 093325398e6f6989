//! The edwards25519 group behind [`crate::dh`] and [`crate::schnorr`]:
//! the twisted Edwards curve −x² + y² = 1 + d·x²·y² over GF(p),
//! p = 2²⁵⁵ − 19 (RFC 7748 §4.1, RFC 8032 §5.1), whose base point B has
//! prime order ℓ = 2²⁵² + 27742317777372353535851937790883648493.
//!
//! * Field elements are five 51-bit limbs, multiplied through `u128`.
//! * Points are extended coordinates (X : Y : Z : T) with x = X/Z,
//!   y = Y/Z and xy = T/Z. The addition and doubling formulas of Hisil,
//!   Wong, Carter and Dawson (2008) are complete on this curve, since −1
//!   is a square mod p and d is not: one addition serves every pair of
//!   points, the identity and equal points included.
//! * [`Point::mul`] is the one scalar multiplication. It walks all 64
//!   four-bit windows of a 256-bit scalar, doubling four times and adding
//!   one entry of a 16-point table per window, and reads that entry with
//!   [`ct_lookup`]. So neither its work nor its memory accesses depend on
//!   the scalar.
//! * [`Scalar`]s are integers mod ℓ, reduced bit by bit with a masked
//!   subtraction of ℓ, which takes the same steps for every value.
//!
//! Decoding handles public values only (peer keys, signatures) and may
//! branch on them.

use crate::ct::ct_lookup;
use crate::hmac::hkdf;
use std::sync::OnceLock;

/// The low 51 bits of a limb.
const MASK: u64 = (1 << 51) - 1;

/// d = −121665/121666 mod p.
const D: Fe =
    Fe::from_bytes(&hex32("a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352"));

/// 2d, the constant of the addition formula.
const D2: Fe =
    Fe::from_bytes(&hex32("59f1b226949bd6eb56b183829a14e00030d1f3eef2808e19e7fcdf56dcd90624"));

/// A square root of −1 mod p (2^((p−1)/4)).
const SQRT_M1: Fe =
    Fe::from_bytes(&hex32("b0a00e4a271beec478e42fad0618432fa7d7fb3d99004d2b0bdfc14f8024832b"));

/// The affine coordinates of B: y = 4/5, and x is the even root.
const BASE_X: Fe =
    Fe::from_bytes(&hex32("1ad5258f602d56c9b2a7259560c72c695cdcd6fd31e2a4c0fe536ecdd3366921"));
const BASE_Y: Fe =
    Fe::from_bytes(&hex32("5866666666666666666666666666666666666666666666666666666666666666"));

/// ℓ, the prime order of B, little-endian.
pub(crate) const ORDER: [u8; 32] =
    hex32("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");

/// 32 bytes from 64 hex digits, in the order written (constants are
/// written little-endian).
const fn hex32(hex: &str) -> [u8; 32] {
    let digits = hex.as_bytes();
    assert!(digits.len() == 64, "64 hex digits");
    let mut out = [0u8; 32];
    let mut i = 0;
    while i < 64 {
        out[i / 2] = nibble(digits[i]) << 4 | nibble(digits[i + 1]);
        i += 2;
    }
    out
}

const fn nibble(c: u8) -> u8 {
    match c {
        b'0'..=b'9' => c - b'0',
        b'a'..=b'f' => c - b'a' + 10,
        _ => panic!("lowercase hex digit"),
    }
}

#[cfg(test)]
thread_local! {
    /// Field multiplications (squarings included) this thread has done.
    static FIELD_MULS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// An element of GF(p): five 51-bit limbs, least significant first.
/// Every operation but [`Fe::add`] leaves each limb below 2⁵²; `add`
/// does not carry, and its sums of at most three such elements stay below
/// 2⁵⁴, which every operation accepts.
#[derive(Clone, Copy)]
struct Fe([u64; 5]);

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// The low 255 bits of little-endian `bytes`; the top bit is ignored.
    const fn from_bytes(bytes: &[u8; 32]) -> Fe {
        const fn load(b: &[u8; 32], i: usize) -> u64 {
            u64::from_le_bytes([
                b[i],
                b[i + 1],
                b[i + 2],
                b[i + 3],
                b[i + 4],
                b[i + 5],
                b[i + 6],
                b[i + 7],
            ])
        }
        Fe([
            load(bytes, 0) & MASK,
            (load(bytes, 6) >> 3) & MASK,
            (load(bytes, 12) >> 6) & MASK,
            (load(bytes, 19) >> 1) & MASK,
            (load(bytes, 24) >> 12) & MASK,
        ])
    }

    /// The canonical encoding: the value fully reduced below p,
    /// little-endian.
    fn to_bytes(self) -> [u8; 32] {
        let mut l = Fe::carry(self.0).0;
        // l < 2p now; q = 1 exactly when l ≥ p, i.e. when l + 19 ≥ 2²⁵⁵.
        let mut q = (l[0] + 19) >> 51;
        for &limb in &l[1..] {
            q = (limb + q) >> 51;
        }
        l[0] += 19 * q;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= MASK;
        }
        l[4] &= MASK;
        let mut out = [0u8; 32];
        let (mut acc, mut bits, mut at) = (0u128, 0, 0);
        for limb in l {
            acc |= (limb as u128) << bits;
            bits += 51;
            while bits >= 8 {
                out[at] = acc as u8;
                acc >>= 8;
                bits -= 8;
                at += 1;
            }
        }
        out[at] = acc as u8;
        out
    }

    /// Carries each limb's bits above 51 into the next, the top limb's
    /// into the bottom one times 19 (2²⁵⁵ ≡ 19): limbs end below 2⁵¹ + 2¹⁸.
    fn carry(mut l: [u64; 5]) -> Fe {
        let top = l[4] >> 51;
        for i in (1..5).rev() {
            l[i] = (l[i] & MASK) + (l[i - 1] >> 51);
        }
        l[0] = (l[0] & MASK) + top * 19;
        Fe(l)
    }

    fn add(&self, b: &Fe) -> Fe {
        let (a, b) = (&self.0, &b.0);
        Fe([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4]])
    }

    /// `self − b`, computed as `self + 16p − b` so no limb underflows.
    fn sub(&self, b: &Fe) -> Fe {
        const P16_LOW: u64 = 16 * ((1 << 51) - 19);
        const P16: u64 = 16 * ((1 << 51) - 1);
        let (a, b) = (&self.0, &b.0);
        Fe::carry([
            a[0] + P16_LOW - b[0],
            a[1] + P16 - b[1],
            a[2] + P16 - b[2],
            a[3] + P16 - b[3],
            a[4] + P16 - b[4],
        ])
    }

    fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Schoolbook product; limb products that pass 2²⁵⁵ come back in
    /// times 19.
    fn mul(&self, b: &Fe) -> Fe {
        #[cfg(test)]
        FIELD_MULS.with(|c| c.set(c.get() + 1));
        let (a, b) = (&self.0, &b.0);
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let b19 = [0, b[1] * 19, b[2] * 19, b[3] * 19, b[4] * 19];
        Fe::carry_wide([
            m(a[0], b[0]) + m(a[1], b19[4]) + m(a[2], b19[3]) + m(a[3], b19[2]) + m(a[4], b19[1]),
            m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b19[4]) + m(a[3], b19[3]) + m(a[4], b19[2]),
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b19[4]) + m(a[4], b19[3]),
            m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b19[4]),
            m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
        ])
    }

    /// `self · self`, the products `mul` would compute twice folded.
    fn square(&self) -> Fe {
        #[cfg(test)]
        FIELD_MULS.with(|c| c.set(c.get() + 1));
        let a = &self.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let (a0_2, a1_2, a3_19, a4_19) = (a[0] * 2, a[1] * 2, a[3] * 19, a[4] * 19);
        Fe::carry_wide([
            m(a[0], a[0]) + m(a1_2, a4_19) + m(a[2] * 2, a3_19),
            m(a0_2, a[1]) + m(a[2] * 2, a4_19) + m(a[3], a3_19),
            m(a0_2, a[2]) + m(a[1], a[1]) + m(a[3] * 2, a4_19),
            m(a0_2, a[3]) + m(a1_2, a[2]) + m(a[4], a4_19),
            m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]),
        ])
    }

    /// Carries 128-bit column sums back into 51-bit limbs.
    fn carry_wide(mut c: [u128; 5]) -> Fe {
        for i in 0..4 {
            c[i + 1] += c[i] >> 51;
        }
        // c[4] < 2¹¹¹, so the carry out of it times 19 fits a limb.
        let mut l = [0u64; 5];
        for (limb, ci) in l.iter_mut().zip(c) {
            *limb = ci as u64 & MASK;
        }
        l[0] += (c[4] >> 51) as u64 * 19;
        l[1] += l[0] >> 51;
        l[0] &= MASK;
        Fe(l)
    }

    /// `self^(2^k)`.
    fn pow2k(&self, k: u32) -> Fe {
        (0..k).fold(*self, |x, _| x.square())
    }

    /// `(self^(2²⁵⁰ − 1), self^11)`: the shared head of the addition
    /// chains for p − 2 and (p − 5)/8.
    fn pow22501(&self) -> (Fe, Fe) {
        let t2 = self.square();
        let t9 = self.mul(&t2.pow2k(2));
        let t11 = t2.mul(&t9);
        let e5 = t9.mul(&t11.square()); // 2⁵ − 1
        let e10 = e5.pow2k(5).mul(&e5);
        let e20 = e10.pow2k(10).mul(&e10);
        let e40 = e20.pow2k(20).mul(&e20);
        let e50 = e40.pow2k(10).mul(&e10);
        let e100 = e50.pow2k(50).mul(&e50);
        let e200 = e100.pow2k(100).mul(&e100);
        let e250 = e200.pow2k(50).mul(&e50);
        (e250, t11)
    }

    /// `self^(p − 2)`, the inverse of a non-zero element.
    fn invert(&self) -> Fe {
        let (e250, t11) = self.pow22501();
        e250.pow2k(5).mul(&t11)
    }

    /// A square root of `u/v` for `v ≠ 0`, if there is one
    /// (RFC 8032 §5.1.3): `x = u·v³·(u·v⁷)^((p−5)/8)`, times √−1 when
    /// that squares to `−u/v`.
    fn sqrt_ratio(u: &Fe, v: &Fe) -> Option<Fe> {
        let v3 = v.square().mul(v);
        let uv7 = u.mul(&v3.square().mul(v));
        let x = u.mul(&v3).mul(&uv7.pow22501().0.pow2k(2).mul(&uv7));
        let vxx = v.mul(&x.square()).to_bytes();
        if vxx == u.to_bytes() {
            Some(x)
        } else if vxx == u.neg().to_bytes() {
            Some(x.mul(&SQRT_M1))
        } else {
            None
        }
    }

    fn is_zero(&self) -> bool {
        self.to_bytes() == [0; 32]
    }
}

/// Words of one point in a [`ct_lookup`] table: four coordinates of five
/// limbs.
const WORDS: usize = 20;

/// A point of edwards25519 in extended coordinates.
#[derive(Clone, Copy)]
pub(crate) struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl Point {
    const IDENTITY: Point = Point { x: Fe::ZERO, y: Fe::ONE, z: Fe::ONE, t: Fe::ZERO };

    /// The base point B.
    pub(crate) fn base() -> Point {
        Point { x: BASE_X, y: BASE_Y, z: Fe::ONE, t: BASE_X.mul(&BASE_Y) }
    }

    /// `self + q` (add-2008-hwcd-3, k = 2d).
    pub(crate) fn add(&self, q: &Point) -> Point {
        let a = self.y.sub(&self.x).mul(&q.y.sub(&q.x));
        let b = self.y.add(&self.x).mul(&q.y.add(&q.x));
        let c = self.t.mul(&q.t).mul(&D2);
        let zz = self.z.mul(&q.z);
        let dd = zz.add(&zz);
        let (e, f, g, h) = (b.sub(&a), dd.sub(&c), dd.add(&c), b.add(&a));
        Point { x: e.mul(&f), y: g.mul(&h), z: f.mul(&g), t: e.mul(&h) }
    }

    /// `[2ⁿ]self` by n doublings (dbl-2008-hwcd, a = −1, every
    /// intermediate negated). Doubling does not read T, so only the last
    /// one computes it.
    fn double_n(&self, n: usize) -> Point {
        let mut p = *self;
        for i in 1..=n {
            let a = p.x.square();
            let b = p.y.square();
            let zz = p.z.square();
            let h = a.add(&b);
            let e = h.sub(&p.x.add(&p.y).square());
            let g = a.sub(&b);
            let f = zz.add(&zz).add(&g);
            let t = if i == n { e.mul(&h) } else { Fe::ZERO };
            p = Point { x: e.mul(&f), y: g.mul(&h), z: f.mul(&g), t };
        }
        p
    }

    pub(crate) fn neg(&self) -> Point {
        Point { x: self.x.neg(), t: self.t.neg(), ..*self }
    }

    pub(crate) fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y.sub(&self.z).is_zero()
    }

    /// `[k]self` for any 256-bit little-endian `k`, ℓ itself included.
    pub(crate) fn mul(&self, k: &[u8; 32]) -> Point {
        // table[j] = [j]self for the window values j = 0..16.
        let mut table = [0u64; 16 * WORDS];
        let mut multiple = Point::IDENTITY;
        for entry in table.chunks_exact_mut(WORDS) {
            entry.copy_from_slice(&multiple.to_words());
            multiple = multiple.add(self);
        }
        let mut acc = Point::IDENTITY;
        let mut words = [0u64; WORDS];
        for byte in k.iter().rev() {
            for window in [byte >> 4, byte & 0xf] {
                acc = acc.double_n(4);
                ct_lookup(&table, window as usize, &mut words);
                acc = acc.add(&Point::from_words(&words));
            }
        }
        acc
    }

    /// `[k]B` for any 256-bit little-endian `k`: one addition per 4-bit
    /// window of `k` from a table of `[j·16^i]B`, built on the first call,
    /// with the same [`ct_lookup`] reads as [`Point::mul`] and no doubling.
    pub(crate) fn mul_base(k: &[u8; 32]) -> Point {
        static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
        let table = TABLE.get_or_init(|| {
            let mut table = Vec::with_capacity(64 * 16 * WORDS);
            let mut unit = Point::base();
            for _ in 0..64 {
                let mut multiple = Point::IDENTITY;
                for _ in 0..16 {
                    table.extend_from_slice(&multiple.to_words());
                    multiple = multiple.add(&unit);
                }
                unit = multiple; // 16·unit, the next window's unit
            }
            table
        });
        let mut acc = Point::IDENTITY;
        let mut words = [0u64; WORDS];
        for (i, row) in table.chunks_exact(16 * WORDS).enumerate() {
            let window = k[i / 2] >> (4 * (i % 2)) & 0xf;
            ct_lookup(row, window as usize, &mut words);
            acc = acc.add(&Point::from_words(&words));
        }
        acc
    }

    /// The 32-byte encoding: y little-endian, with the low bit of x in
    /// the top bit (RFC 8032 §5.1.2).
    pub(crate) fn compress(&self) -> [u8; 32] {
        let z_inv = self.z.invert();
        let mut bytes = self.y.mul(&z_inv).to_bytes();
        bytes[31] |= (self.x.mul(&z_inv).to_bytes()[0] & 1) << 7;
        bytes
    }

    /// The point `bytes` encodes, or `None` if y is not below p, no x
    /// solves the curve equation for y, or x = 0 comes with the sign bit
    /// set (RFC 8032 §5.1.3).
    pub(crate) fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let sign = bytes[31] >> 7;
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7f;
        let y = Fe::from_bytes(&y_bytes);
        if y.to_bytes() != y_bytes {
            return None;
        }
        let yy = y.square();
        let u = yy.sub(&Fe::ONE);
        let v = yy.mul(&D).add(&Fe::ONE);
        let mut x = Fe::sqrt_ratio(&u, &v)?;
        if x.is_zero() && sign == 1 {
            return None;
        }
        if x.to_bytes()[0] & 1 != sign {
            x = x.neg();
        }
        Some(Point { x, y, z: Fe::ONE, t: x.mul(&y) })
    }

    fn to_words(self) -> [u64; WORDS] {
        let mut words = [0u64; WORDS];
        for (chunk, fe) in words.chunks_exact_mut(5).zip([self.x, self.y, self.z, self.t]) {
            chunk.copy_from_slice(&fe.0);
        }
        words
    }

    fn from_words(words: &[u64; WORDS]) -> Point {
        let fe = |i: usize| {
            let mut limbs = [0u64; 5];
            limbs.copy_from_slice(&words[5 * i..5 * i + 5]);
            Fe(limbs)
        };
        Point { x: fe(0), y: fe(1), z: fe(2), t: fe(3) }
    }
}

/// An integer mod ℓ, little-endian, always below ℓ.
#[derive(Clone, Copy)]
pub(crate) struct Scalar([u8; 32]);

impl Scalar {
    /// A secret scalar from caller-supplied entropy: 64 bytes of HKDF
    /// output reduced mod ℓ, so the bias is below 2⁻²⁵⁰. `label` is the
    /// HKDF salt and names the key's use, so one entropy string gives
    /// unrelated scalars for different uses.
    ///
    /// # Panics
    ///
    /// Panics if `entropy` is shorter than 32 bytes.
    pub(crate) fn from_entropy(label: &[u8], entropy: &[u8]) -> Scalar {
        assert!(entropy.len() >= 32, "need at least 256 bits of entropy");
        Scalar::reduce(&hkdf(label, entropy, b"edwards25519", 64))
    }

    /// Little-endian `bytes` of any length mod ℓ: from the top bit down,
    /// `r = 2r + bit`, then `r − ℓ` replaces `r` by mask when it does not
    /// borrow.
    pub(crate) fn reduce(bytes: &[u8]) -> Scalar {
        let order = limbs(&ORDER);
        let mut r = [0u64; 4];
        for byte in bytes.iter().rev() {
            for bit in (0..8).rev() {
                let mut carry = u64::from(byte >> bit & 1);
                for limb in &mut r {
                    let top = *limb >> 63;
                    *limb = *limb << 1 | carry;
                    carry = top;
                }
                let mut diff = [0u64; 4];
                let mut borrow = 0u64;
                for ((d, &ri), &li) in diff.iter_mut().zip(&r).zip(&order) {
                    let (v, b1) = ri.overflowing_sub(li);
                    let (v, b2) = v.overflowing_sub(borrow);
                    *d = v;
                    borrow = u64::from(b1 | b2);
                }
                let keep = borrow.wrapping_neg();
                for (ri, di) in r.iter_mut().zip(diff) {
                    *ri = (*ri & keep) | (di & !keep);
                }
            }
        }
        let mut out = [0u8; 32];
        for (chunk, limb) in out.chunks_exact_mut(8).zip(r) {
            chunk.copy_from_slice(&limb.to_le_bytes());
        }
        Scalar(out)
    }

    /// `bytes` as a scalar if they encode one below ℓ, else `None`.
    pub(crate) fn from_canonical(bytes: &[u8; 32]) -> Option<Scalar> {
        let s = Scalar::reduce(bytes);
        (s.0 == *bytes).then_some(s)
    }

    /// `a·b + c mod ℓ`.
    pub(crate) fn mul_add(a: &Scalar, b: &Scalar, c: &Scalar) -> Scalar {
        let (a, b) = (limbs(&a.0), limbs(&b.0));
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&limbs(&c.0));
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &bj) in b.iter().enumerate() {
                let t = wide[i + j] as u128 + ai as u128 * bj as u128 + carry;
                wide[i + j] = t as u64;
                carry = t >> 64;
            }
            wide[i + 4] = carry as u64;
        }
        let mut bytes = [0u8; 64];
        for (chunk, limb) in bytes.chunks_exact_mut(8).zip(wide) {
            chunk.copy_from_slice(&limb.to_le_bytes());
        }
        Scalar::reduce(&bytes)
    }

    pub(crate) fn to_bytes(self) -> [u8; 32] {
        self.0
    }
}

/// Four little-endian 64-bit limbs of a 256-bit value.
fn limbs(bytes: &[u8; 32]) -> [u64; 4] {
    let mut out = [0u64; 4];
    for (limb, chunk) in out.iter_mut().zip(bytes.chunks_exact(8)) {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        *limb = u64::from_le_bytes(word);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(n: u64) -> Fe {
        Fe([n, 0, 0, 0, 0])
    }

    fn eq(a: &Point, b: &Point) -> bool {
        a.compress() == b.compress()
    }

    /// Deterministic pseudo-random 32-byte strings (xorshift64).
    fn bytes_stream(seed: u64, count: usize) -> Vec<[u8; 32]> {
        let mut state = seed;
        (0..count)
            .map(|_| {
                let mut out = [0u8; 32];
                for b in &mut out {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    *b = state as u8;
                }
                out
            })
            .collect()
    }

    #[test]
    fn constants_follow_from_their_definitions() {
        // d·121666 = −121665, and D2 = d + d.
        assert_eq!(D.mul(&small(121666)).to_bytes(), small(121665).neg().to_bytes());
        assert_eq!(D2.to_bytes(), D.add(&D).to_bytes());
        // √−1 squares to −1.
        assert_eq!(SQRT_M1.square().to_bytes(), Fe::ONE.neg().to_bytes());
        // B: y·5 = 4, and x is the even solution of the curve equation.
        assert_eq!(BASE_Y.mul(&small(5)).to_bytes(), small(4).to_bytes());
        let y = BASE_Y.to_bytes();
        let b = Point::decompress(&y).expect("y = 4/5 is on the curve");
        assert_eq!(b.x.to_bytes(), BASE_X.to_bytes());
        assert_eq!(BASE_X.to_bytes()[0] & 1, 0);
        assert_eq!(Point::base().compress(), y);
    }

    #[test]
    fn the_order_annihilates_the_base_point() {
        let b = Point::base();
        assert!(!b.is_identity());
        assert!(b.mul(&ORDER).is_identity());
        let mut order_minus_one = ORDER;
        order_minus_one[0] -= 1;
        assert!(eq(&b.mul(&order_minus_one), &b.neg()));
    }

    #[test]
    fn scalar_multiplication_is_additive() {
        let base = Point::base();
        let one = Scalar::reduce(&[1]);
        let stream = bytes_stream(0x5eed, 24);
        for abc in stream.chunks_exact(3) {
            let [a, b, c] = [0, 1, 2].map(|i| Scalar::reduce(&abc[i]));
            let sum = Scalar::mul_add(&a, &one, &b);
            assert!(eq(&base.mul(&a.0).add(&base.mul(&b.0)), &base.mul(&sum.0)));
            assert!(eq(&Point::mul_base(&a.0), &base.mul(&a.0)));
            let ab_c = Scalar::mul_add(&a, &b, &c);
            assert!(eq(&base.mul(&a.0).mul(&b.0).add(&base.mul(&c.0)), &base.mul(&ab_c.0)));
        }
        assert!(eq(&base.add(&base), &base.double_n(1)));
        assert!(eq(&base.add(&base).add(&base).add(&base), &base.double_n(2)));
        assert!(eq(&Point::mul_base(&[0xff; 32]), &base.mul(&[0xff; 32])));
        assert!(Point::mul_base(&ORDER).is_identity());
        assert!(base.add(&base.neg()).is_identity());
    }

    #[test]
    fn compression_round_trips_and_refuses_bad_encodings() {
        let b = Point::base();
        for k in bytes_stream(0xc0de, 8) {
            let p = b.mul(&k);
            let bytes = p.compress();
            assert!(eq(&Point::decompress(&bytes).expect("decodes"), &p));
            assert_eq!(Point::decompress(&bytes).unwrap().compress(), bytes);
        }
        // y = p and y = p + 1 are non-canonical encodings of 0 and 1.
        let mut p_bytes = hex32("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
        assert!(Point::decompress(&p_bytes).is_none());
        p_bytes[0] += 1;
        assert!(Point::decompress(&p_bytes).is_none());
        // y = 2 is on no point: (y² − 1)/(d·y² + 1) is not a square.
        let mut two = [0u8; 32];
        two[0] = 2;
        assert!(Point::decompress(&two).is_none());
        // The identity with its sign bit set claims x = −0.
        let mut neg_zero = [0u8; 32];
        neg_zero[0] = 1;
        assert!(Point::decompress(&neg_zero).expect("identity").is_identity());
        neg_zero[31] = 0x80;
        assert!(Point::decompress(&neg_zero).is_none());
    }

    #[test]
    fn scalars_reduce_below_the_order() {
        assert_eq!(Scalar::reduce(&ORDER).0, [0; 32]);
        assert!(Scalar::from_canonical(&ORDER).is_none());
        let mut order_minus_one = ORDER;
        order_minus_one[0] -= 1;
        assert!(Scalar::from_canonical(&order_minus_one).is_some());
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&ORDER);
        wide[32] = 1; // ℓ + 2²⁵⁶
        let two_256 = Scalar::reduce(&[&[0u8; 32][..], &[1]].concat());
        assert_eq!(Scalar::reduce(&wide).0, two_256.0);
    }

    /// Field multiplications `f` does on this thread.
    fn field_muls<T>(f: impl FnOnce() -> T) -> u64 {
        let before = FIELD_MULS.with(|c| c.get());
        f();
        FIELD_MULS.with(|c| c.get()) - before
    }

    /// Scalar multiplication does the same field work for 0, every power
    /// of two up to 2²⁵⁵, ℓ − 1, ℓ, 2²⁵⁶ − 1 and 32 pseudo-random scalars.
    #[test]
    fn scalar_multiplication_work_does_not_depend_on_the_scalar() {
        let mut scalars = vec![[0u8; 32], ORDER, [0xff; 32]];
        for bit in 0..256 {
            let mut k = [0u8; 32];
            k[bit / 8] = 1 << (bit % 8);
            scalars.push(k);
        }
        let mut order_minus_one = ORDER;
        order_minus_one[0] -= 1;
        scalars.push(order_minus_one);
        scalars.extend(bytes_stream(0x9e37_79b9, 32));
        let p = Point::base().mul(&[7; 32]);
        Point::mul_base(&[0; 32]); // builds the table outside the count
        let assert_constant = |name: &str, path: &dyn Fn(&[u8; 32]) -> Point| {
            let counts: Vec<u64> = scalars.iter().map(|k| field_muls(|| path(k))).collect();
            assert!(
                counts.iter().all(|&c| c == counts[0]),
                "{name}: field multiplications per scalar differ: {counts:?}"
            );
        };
        assert_constant("[k]B by table", &Point::mul_base);
        assert_constant("[k]B by windows", &|k| Point::base().mul(k));
        assert_constant("[k]P by windows", &|k| p.mul(k));
    }
}
