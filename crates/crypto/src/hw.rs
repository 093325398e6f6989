//! The instructions the paper names: AES-NI + PCLMULQDQ AES-GCM and
//! SHA-NI SHA-256 (§4.2 "encrypts workload pages in the TVM with AES-NI",
//! §7.2's AES-GCM-SHA engine), for x86-64 CPUs that report them.
//!
//! This module owns every `core::arch` instruction in the workspace.
//! [`AesNiGcm::detect`], [`Wide::detect`] and [`ShaNi::detect`] are the
//! only constructors and succeed only when `is_x86_feature_detected!`
//! reports every feature the code behind them is compiled with, so
//! *holding* a value of one of those types is the proof that its
//! `#[target_feature]` entry points may be called — the one fact each of
//! the six one-line `unsafe` calls below cites. Inside those functions
//! the intrinsics are safe: bytes enter and leave registers through
//! value intrinsics (`_mm_set_epi64x`, `_mm512_set_epi64`,
//! `_mm_cvtsi128_si64`, `_mm512_extracti32x4_epi32`), never through a
//! pointer.
//!
//! **Wide slabs.** Where the CPU also reports `avx512f`, `avx512bw`,
//! `vaes` and `vpclmulqdq`, an [`AesNiGcm`] carries a [`Wide`] token and
//! runs whole 256-byte slabs sixteen blocks at a time, four to a `zmm`
//! register: CTR through `_mm512_aesenc_epi128`, GHASH against
//! `H¹⁶..H¹` through `_mm512_clmulepi64_epi128` with the four lanes
//! folded into one [`Product`] and one reduction per slab. What is left
//! over runs the eight-lane loops (CTR's ending in a block tail),
//! exactly as on a CPU without the token. The 512-bit round keys and
//! hash powers are broadcast from the `__m128i` ones at the top of each
//! call, so the key grows only by `H⁹..H¹⁶`, and only when the token
//! exists. Seal stays a CTR pass then a GHASH pass, and open verifies
//! first.
//!
//! `aesenc` and `pclmulqdq` are data-independent in time and need no
//! per-key tables: key set-up is the `aeskeygenassist` schedule and the
//! eight (or sixteen) hash-key powers, and runs no portable code. On
//! every other CPU — and as the differential reference on this one — the
//! portable backend ([`crate::aes`] / [`crate::ghash`]) and the portable
//! compress in [`crate::sha256`] compute the same bits.
//!
//! **GHASH by carry-less multiply.** A GCM block is the polynomial whose
//! x⁰ coefficient is the top bit of byte 0. Read as a big-endian integer
//! `ā` (bit 127−k ↔ xᵏ) that is the bit-reversal of the natural form, and
//! reversal turns GCM's modulus x¹²⁸+x⁷+x²+x+1 into
//! Q = y¹²⁸+y¹²⁷+y¹²⁶+y¹²¹+1 and its product into
//! `rev(A·B) = ā·b̄·y⁻¹²⁷ mod Q` (RFC 8452 App. A). So the hash key is
//! stored once as `h' = h̄·y mod Q`, and each product is a 128×128
//! carry-less multiply followed by a Montgomery reduction by y¹²⁸ —
//! two more `pclmulqdq`, because Q ≡ 1 mod y⁶⁴. Reduction is linear, so
//! eight products against `H⁸..H¹` (sixteen against `H¹⁶..H¹` on the
//! wide path) are summed unreduced and reduced once.
//!
//! **Fixed costs.** A short input pays only for its own blocks. GHASH
//! folds every run of up to eight blocks — the last, partial run
//! included — against `Hⁿ..H¹` with one reduction, and a tag whose AAD,
//! ciphertext and lengths block fit in one run (a register write's
//! 32-byte signed record is three blocks) is hashed as that one run, so
//! it costs one reduction instead of one per block. The SHA-NI compress
//! keeps the message schedule in four registers rotated from step to
//! step, so its sixteen four-round steps unroll and the schedule never
//! goes through the stack. Neither adds an `unsafe` call: there are
//! still the six above.

#![allow(unsafe_code)]

use crate::aes::Key;
use crate::gcm::{NONCE_LEN, TAG_LEN};
use std::arch::x86_64::*;

/// Blocks per interleaved AES call and per aggregated GHASH reduction.
const LANES: usize = 8;

/// Blocks per wide slab: four `zmm` registers of four blocks.
const WIDE_LANES: usize = 16;

/// 128 bits → register (bit `i` of `v` is bit `i` of the register).
#[inline]
#[target_feature(enable = "sse2")]
fn reg(v: u128) -> __m128i {
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

/// Register → 128 bits; inverse of [`reg`].
#[inline]
#[target_feature(enable = "sse2,sse4.1")]
fn val(x: __m128i) -> u128 {
    (u128::from(_mm_extract_epi64::<1>(x) as u64) << 64) | u128::from(_mm_cvtsi128_si64(x) as u64)
}

/// A 16-byte block in memory order, as `aesenc` expects it.
#[inline]
#[target_feature(enable = "sse2")]
fn load(block: &[u8]) -> __m128i {
    reg(u128::from_le_bytes(
        block.try_into().expect("16-byte block"),
    ))
}

/// Memory order ↔ the big-endian integer the GHASH arithmetic works on.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
fn bswap(x: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        x,
        _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f),
    )
}

/// An unreduced 256-bit carry-less product, held as its low, middle
/// (both cross terms, weight y⁶⁴) and high 128-bit parts so products
/// can be summed before one reduction.
#[derive(Clone, Copy)]
struct Product {
    lo: __m128i,
    mid: __m128i,
    hi: __m128i,
}

impl Product {
    #[inline]
    #[target_feature(enable = "sse2")]
    fn zero() -> Product {
        let z = _mm_setzero_si128();
        Product {
            lo: z,
            mid: z,
            hi: z,
        }
    }

    /// `self += a · b` (carry-less, unreduced).
    #[inline]
    #[target_feature(enable = "sse2,pclmulqdq")]
    fn add_mul(&mut self, a: __m128i, b: __m128i) {
        self.lo = _mm_xor_si128(self.lo, _mm_clmulepi64_si128::<0x00>(a, b));
        self.hi = _mm_xor_si128(self.hi, _mm_clmulepi64_si128::<0x11>(a, b));
        let cross = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(a, b),
            _mm_clmulepi64_si128::<0x01>(a, b),
        );
        self.mid = _mm_xor_si128(self.mid, cross);
    }

    /// `self · y⁻¹²⁸ mod Q`: two Montgomery steps of y⁶⁴. Q ≡ 1 mod y⁶⁴,
    /// so each step folds the lowest word `w` in as `w·(Q−1)/y⁶⁴` =
    /// `w·y⁶⁴ ⊕ w·(y⁶³+y⁶²+y⁵⁷)`.
    #[inline]
    #[target_feature(enable = "sse2,pclmulqdq")]
    fn reduce(self) -> __m128i {
        let q = _mm_set_epi64x(0xc200_0000_0000_0000_u64 as i64, 0);
        let mut lo = _mm_xor_si128(self.lo, _mm_slli_si128::<8>(self.mid));
        let hi = _mm_xor_si128(self.hi, _mm_srli_si128::<8>(self.mid));
        for _ in 0..2 {
            let fold = _mm_clmulepi64_si128::<0x10>(lo, q);
            lo = _mm_xor_si128(_mm_shuffle_epi32::<0x4e>(lo), fold);
        }
        _mm_xor_si128(hi, lo)
    }
}

/// `a · b`, reduced: on stored powers `h̄ⁱ·y`, the stored form of the
/// product.
#[inline]
#[target_feature(enable = "sse2,pclmulqdq")]
fn gf_mul(a: __m128i, b: __m128i) -> __m128i {
    let mut p = Product::zero();
    p.add_mul(a, b);
    p.reduce()
}

/// Proof that this CPU runs the wide slab path: zero-sized, and only
/// [`Wide::detect`] makes one.
#[derive(Debug, Clone, Copy)]
struct Wide(());

impl Wide {
    /// The token, if this CPU has VAES and VPCLMULQDQ on 512-bit
    /// registers.
    fn detect() -> Option<Wide> {
        let supported = is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("vaes")
            && is_x86_feature_detected!("vpclmulqdq");
        supported.then_some(Wide(()))
    }
}

/// 64 bytes in memory order → four blocks, block `i` in lane `i`.
#[inline]
#[target_feature(enable = "avx512f")]
fn load4(bytes: &[u8]) -> __m512i {
    let w = |i: usize| i64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    _mm512_set_epi64(w(7), w(6), w(5), w(4), w(3), w(2), w(1), w(0))
}

/// Inverse of [`load4`].
#[inline]
#[target_feature(enable = "avx512f,sse4.1")]
fn store4(x: __m512i, bytes: &mut [u8]) {
    let lanes = [
        _mm512_extracti32x4_epi32::<0>(x),
        _mm512_extracti32x4_epi32::<1>(x),
        _mm512_extracti32x4_epi32::<2>(x),
        _mm512_extracti32x4_epi32::<3>(x),
    ];
    for (lane, out) in lanes.iter().zip(bytes.chunks_exact_mut(16)) {
        out.copy_from_slice(&val(*lane).to_le_bytes());
    }
}

/// Four 128-bit values → one register, `a` in lane 0.
#[inline]
#[target_feature(enable = "avx512f")]
fn lanes4(a: __m128i, b: __m128i, c: __m128i, d: __m128i) -> __m512i {
    let x = _mm512_inserti32x4::<1>(_mm512_zextsi128_si512(a), b);
    _mm512_inserti32x4::<3>(_mm512_inserti32x4::<2>(x, c), d)
}

/// XOR of a register's four lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn fold4(x: __m512i) -> __m128i {
    _mm_xor_si128(
        _mm_xor_si128(
            _mm512_extracti32x4_epi32::<0>(x),
            _mm512_extracti32x4_epi32::<1>(x),
        ),
        _mm_xor_si128(
            _mm512_extracti32x4_epi32::<2>(x),
            _mm512_extracti32x4_epi32::<3>(x),
        ),
    )
}

/// `aeskeygenassist` with FIPS-197's `Rcon[step]` (none for step 0);
/// the instruction takes the constant as an immediate.
#[inline]
#[target_feature(enable = "sse2,aes")]
fn keygen_assist(x: __m128i, step: usize) -> __m128i {
    match step {
        0 => _mm_aeskeygenassist_si128::<0x00>(x),
        1 => _mm_aeskeygenassist_si128::<0x01>(x),
        2 => _mm_aeskeygenassist_si128::<0x02>(x),
        3 => _mm_aeskeygenassist_si128::<0x04>(x),
        4 => _mm_aeskeygenassist_si128::<0x08>(x),
        5 => _mm_aeskeygenassist_si128::<0x10>(x),
        6 => _mm_aeskeygenassist_si128::<0x20>(x),
        7 => _mm_aeskeygenassist_si128::<0x40>(x),
        8 => _mm_aeskeygenassist_si128::<0x80>(x),
        9 => _mm_aeskeygenassist_si128::<0x1b>(x),
        _ => _mm_aeskeygenassist_si128::<0x36>(x),
    }
}

/// The next round key from the one `Nk` words back, `prev`, and the
/// transformed word `t` broadcast to all four lanes: word `i` is
/// `t ⊕ prev[0] ⊕ … ⊕ prev[i]`.
#[inline]
#[target_feature(enable = "sse2")]
fn schedule_step(prev: __m128i, t: __m128i) -> __m128i {
    let mut k = prev;
    for _ in 0..3 {
        k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    }
    _mm_xor_si128(k, t)
}

/// AES-GCM on `aesenc` + `pclmulqdq`: the expanded round keys and
/// `H¹..H⁸` — `H¹..H¹⁶` with the [`Wide`] token — of one key, each power
/// stored as `h̄ⁱ·y mod Q`.
#[derive(Clone)]
pub(crate) struct AesNiGcm {
    rk: [__m128i; 15],
    rounds: usize,
    /// `h[i]` multiplies by `H^(i+1)`; `h[LANES..]` only with `wide`.
    h: [__m128i; WIDE_LANES],
    wide: Option<Wide>,
    /// The round keys in FIPS-197 byte order, for the key-expansion
    /// vectors.
    #[cfg(test)]
    pub(crate) schedule: Vec<[u8; 16]>,
}

impl AesNiGcm {
    /// The hardware schedule for `key`, if this CPU has the
    /// instructions.
    pub(crate) fn detect(key: &Key) -> Option<AesNiGcm> {
        let supported = is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        if !supported {
            return None;
        }
        // SAFETY: `supported` is `expand`'s feature list, detected just above.
        Some(unsafe { AesNiGcm::expand(key, Wide::detect()) })
    }

    /// The same key with the wide token cleared: the eight-lane path on
    /// a CPU that has the wide one, for the differential tests.
    #[cfg(test)]
    pub(crate) fn narrow(mut self) -> AesNiGcm {
        self.wide = None;
        self
    }

    /// `"vaes-vpclmul"` when whole slabs run wide, else `"aesni-pclmul"`.
    pub(crate) fn name(&self) -> &'static str {
        match self.wide {
            Some(_) => "vaes-vpclmul",
            None => "aesni-pclmul",
        }
    }

    #[target_feature(enable = "sse2,ssse3,sse4.1,aes,pclmulqdq")]
    fn expand(key: &Key, wide: Option<Wide>) -> AesNiGcm {
        // FIPS-197 §5.2 a round key at a time: the key fills the first
        // `span` (1 or 2) round keys; each later one folds the key `span`
        // back with RotWord(SubWord(w)) ⊕ Rcon of the previous one's last
        // word — or, for AES-256's odd steps, SubWord(w) alone.
        let span = key.len() / 16;
        let rounds = key.len() / 4 + 6;
        let mut rk = [_mm_setzero_si128(); 15];
        for (k, bytes) in rk.iter_mut().zip(key.as_bytes().chunks_exact(16)) {
            *k = load(bytes);
        }
        for i in span..=rounds {
            let t = if i % span == 0 {
                _mm_shuffle_epi32::<0xff>(keygen_assist(rk[i - 1], i / span))
            } else {
                _mm_shuffle_epi32::<0xaa>(keygen_assist(rk[i - 1], 0))
            };
            rk[i] = schedule_step(rk[i - span], t);
        }
        #[cfg(test)]
        let mut schedule = Vec::new();
        #[cfg(test)]
        for k in &rk[..=rounds] {
            schedule.push(val(*k).to_le_bytes());
        }
        let mut key = AesNiGcm {
            rk,
            rounds,
            h: [_mm_setzero_si128(); WIDE_LANES],
            wide,
            #[cfg(test)]
            schedule,
        };
        // H = E_K(0¹²⁸); h' = h̄·y mod Q, one shift and a conditional fold.
        let h = val(bswap(key.encrypt(_mm_setzero_si128())));
        let q = 0xc200_0000_0000_0000_0000_0000_0000_0001_u128;
        key.h[0] = reg((h << 1) ^ ((h >> 127) * q));
        // By doubling: `Hⁿ⁺¹..H²ⁿ = H¹..Hⁿ · Hⁿ`, independent products.
        let top = if wide.is_some() { WIDE_LANES } else { LANES };
        let mut n = 1;
        while n < top {
            for i in n..2 * n {
                key.h[i] = gf_mul(key.h[i - n], key.h[n - 1]);
            }
            n *= 2;
        }
        key
    }

    /// One block through the cipher.
    #[inline]
    #[target_feature(enable = "sse2,aes")]
    fn encrypt(&self, block: __m128i) -> __m128i {
        let mut s = _mm_xor_si128(block, self.rk[0]);
        for rk in &self.rk[1..self.rounds] {
            s = _mm_aesenc_si128(s, *rk);
        }
        _mm_aesenclast_si128(s, self.rk[self.rounds])
    }

    /// Keystream blocks for counters `counter..counter + LANES` (with
    /// `inc32` wrap), rounds interleaved so the `aesenc` pipeline stays
    /// full.
    #[inline]
    #[target_feature(enable = "sse2,sse4.1,aes")]
    fn keystream(&self, nonce: __m128i, counter: u32) -> [__m128i; LANES] {
        let mut s = [nonce; LANES];
        for (i, s) in s.iter_mut().enumerate() {
            *s = _mm_xor_si128(
                counter_block(nonce, counter.wrapping_add(i as u32)),
                self.rk[0],
            );
        }
        for rk in &self.rk[1..self.rounds] {
            for s in s.iter_mut() {
                *s = _mm_aesenc_si128(*s, *rk);
            }
        }
        for s in s.iter_mut() {
            *s = _mm_aesenclast_si128(*s, self.rk[self.rounds]);
        }
        s
    }

    /// Absorbs `data`, zero-padding the final partial block. Each run of
    /// `n ≤ LANES` blocks — whole runs of [`LANES`], then what is left —
    /// costs one reduction: `(acc⊕b₀)·Hⁿ ⊕ b₁·Hⁿ⁻¹ ⊕ … ⊕ bₙ₋₁·H`; with
    /// the [`Wide`] token the whole 256-byte slabs go first, sixteen
    /// blocks per reduction.
    #[target_feature(enable = "sse2,ssse3,pclmulqdq")]
    fn ghash(&self, mut acc: __m128i, mut data: &[u8]) -> __m128i {
        if self.wide.is_some() && data.len() >= 16 * WIDE_LANES {
            let (slabs, rest) = data.split_at(data.len() - data.len() % (16 * WIDE_LANES));
            // SAFETY: `self.wide` is set, so `Wide::detect` saw every feature `ghash_wide` enables.
            acc = unsafe { self.ghash_wide(acc, slabs) };
            data = rest;
        }
        for run in data.chunks(16 * LANES) {
            let mut p = Product::zero();
            let powers = self.h[..run.len().div_ceil(16)].iter().rev();
            for (block, h) in run.chunks(16).zip(powers) {
                let block = if block.len() == 16 {
                    load(block)
                } else {
                    let mut padded = [0u8; 16];
                    padded[..block.len()].copy_from_slice(block);
                    load(&padded)
                };
                p.add_mul(_mm_xor_si128(acc, bswap(block)), *h);
                acc = _mm_setzero_si128(); // only b₀ carries the accumulator
            }
            acc = p.reduce();
        }
        acc
    }

    /// [`AesNiGcm::ghash`] over whole 256-byte slabs: per slab
    /// `(acc⊕b₀)·H¹⁶ ⊕ b₁·H¹⁵ ⊕ … ⊕ b₁₅·H`, four blocks to a register,
    /// the lanes folded into one [`Product`] and reduced once.
    #[target_feature(enable = "sse2,ssse3,sse4.1,pclmulqdq,avx512f,avx512bw,vpclmulqdq")]
    fn ghash_wide(&self, mut acc: __m128i, slabs: &[u8]) -> __m128i {
        // Register `k` holds blocks 4k..4k+4, which take H^(16-4k)..H^(13-4k).
        let h = &self.h;
        let powers = [
            lanes4(h[15], h[14], h[13], h[12]),
            lanes4(h[11], h[10], h[9], h[8]),
            lanes4(h[7], h[6], h[5], h[4]),
            lanes4(h[3], h[2], h[1], h[0]),
        ];
        let swap =
            _mm512_broadcast_i32x4(_mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f));
        for slab in slabs.chunks_exact(16 * WIDE_LANES) {
            let (mut lo, mut mid, mut hi) = (
                _mm512_setzero_si512(),
                _mm512_setzero_si512(),
                _mm512_setzero_si512(),
            );
            let mut carry = _mm512_zextsi128_si512(acc); // only b₀ carries it
            for (bytes, h) in slab.chunks_exact(64).zip(&powers) {
                let x = _mm512_xor_si512(_mm512_shuffle_epi8(load4(bytes), swap), carry);
                carry = _mm512_setzero_si512();
                lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128::<0x00>(x, *h));
                hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128::<0x11>(x, *h));
                let cross = _mm512_xor_si512(
                    _mm512_clmulepi64_epi128::<0x10>(x, *h),
                    _mm512_clmulepi64_epi128::<0x01>(x, *h),
                );
                mid = _mm512_xor_si512(mid, cross);
            }
            acc = Product {
                lo: fold4(lo),
                mid: fold4(mid),
                hi: fold4(hi),
            }
            .reduce();
        }
        acc
    }

    /// [`AesNiGcm::ctr_impl`] over whole 256-byte slabs: sixteen counter
    /// blocks per slab through four registers of `vaesenc`. Returns the
    /// next counter.
    #[target_feature(enable = "sse2,sse4.1,aes,avx512f,avx512bw,vaes")]
    fn ctr_wide(&self, nonce: &[u8; NONCE_LEN], counter: u32, slabs: &mut [u8]) -> u32 {
        let mut rk = [_mm512_setzero_si512(); 15];
        for (wide, k) in rk.iter_mut().zip(&self.rk[..=self.rounds]) {
            *wide = _mm512_broadcast_i32x4(*k);
        }
        // `nonce ‖ counter` with the counter a native 32-bit lane in every
        // block: `_mm512_add_epi32` wraps it within its lane (inc32, never
        // a carry into the nonce), and one byte shuffle makes it big-endian.
        let mut next =
            _mm512_broadcast_i32x4(_mm_insert_epi32::<3>(nonce_block(nonce), counter as i32));
        let big_endian =
            _mm512_broadcast_i32x4(_mm_set_epi64x(0x0c0d_0e0f_0b0a_0908, 0x0706_0504_0302_0100));
        let lane_step =
            |k: i32| _mm512_set_epi32(k + 3, 0, 0, 0, k + 2, 0, 0, 0, k + 1, 0, 0, 0, k, 0, 0, 0);
        let steps = [lane_step(0), lane_step(4), lane_step(8), lane_step(12)];
        let slab_step = _mm512_set_epi32(16, 0, 0, 0, 16, 0, 0, 0, 16, 0, 0, 0, 16, 0, 0, 0);
        for slab in slabs.chunks_exact_mut(16 * WIDE_LANES) {
            let mut s = [_mm512_setzero_si512(); 4];
            for (s, step) in s.iter_mut().zip(&steps) {
                let block = _mm512_shuffle_epi8(_mm512_add_epi32(next, *step), big_endian);
                *s = _mm512_xor_si512(block, rk[0]);
            }
            next = _mm512_add_epi32(next, slab_step);
            for rk in &rk[1..self.rounds] {
                for s in s.iter_mut() {
                    *s = _mm512_aesenc_epi128(*s, *rk);
                }
            }
            for (s, bytes) in s.iter().zip(slab.chunks_exact_mut(64)) {
                let ks = _mm512_aesenclast_epi128(*s, rk[self.rounds]);
                store4(_mm512_xor_si512(ks, load4(bytes)), bytes);
            }
        }
        counter.wrapping_add((slabs.len() / 16) as u32)
    }

    #[target_feature(enable = "sse2,sse4.1,aes")]
    fn ctr_impl(&self, nonce_bytes: &[u8; NONCE_LEN], mut counter: u32, mut data: &mut [u8]) {
        if self.wide.is_some() && data.len() >= 16 * WIDE_LANES {
            let (slabs, rest) = data.split_at_mut(data.len() - data.len() % (16 * WIDE_LANES));
            // SAFETY: `self.wide` is set, so `Wide::detect` saw every feature `ctr_wide` enables.
            counter = unsafe { self.ctr_wide(nonce_bytes, counter, slabs) };
            data = rest;
        }
        let nonce = nonce_block(nonce_bytes);
        let mut slabs = data.chunks_exact_mut(16 * LANES);
        for slab in slabs.by_ref() {
            let ks = self.keystream(nonce, counter);
            for (k, bytes) in ks.iter().zip(slab.chunks_exact_mut(16)) {
                bytes.copy_from_slice(&val(_mm_xor_si128(*k, load(bytes))).to_le_bytes());
            }
            counter = counter.wrapping_add(LANES as u32);
        }
        for chunk in slabs.into_remainder().chunks_mut(16) {
            let ks = val(self.encrypt(counter_block(nonce, counter))).to_le_bytes();
            for (d, k) in chunk.iter_mut().zip(ks) {
                *d ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    #[target_feature(enable = "sse2,ssse3,sse4.1,aes,pclmulqdq")]
    fn tag_impl(&self, nonce: &[u8; NONCE_LEN], ciphertext: &[u8], aad: &[u8]) -> [u8; TAG_LEN] {
        let mut lengths = [0u8; 16];
        lengths[..8].copy_from_slice(&(aad.len() as u64 * 8).to_be_bytes());
        lengths[8..].copy_from_slice(&(ciphertext.len() as u64 * 8).to_be_bytes());
        let (a, c) = (aad.len().div_ceil(16), ciphertext.len().div_ceil(16));
        let zero = _mm_setzero_si128();
        let s = if a + c < LANES {
            // `aad ‖ ciphertext ‖ lengths`, each zero-padded to whole
            // blocks, is one run of at most LANES blocks: one reduction.
            let mut run = [0u8; 16 * LANES];
            run[..aad.len()].copy_from_slice(aad);
            run[16 * a..16 * a + ciphertext.len()].copy_from_slice(ciphertext);
            run[16 * (a + c)..16 * (a + c + 1)].copy_from_slice(&lengths);
            self.ghash(zero, &run[..16 * (a + c + 1)])
        } else {
            self.ghash(self.ghash(self.ghash(zero, aad), ciphertext), &lengths)
        };
        // Masked with `E(K, nonce ‖ 1)`.
        let mask = self.encrypt(counter_block(nonce_block(nonce), 1));
        val(_mm_xor_si128(bswap(s), mask)).to_le_bytes()
    }

    /// The tag over `aad ‖ ciphertext`; decrypts nothing.
    pub(crate) fn tag(
        &self,
        nonce: &[u8; NONCE_LEN],
        ciphertext: &[u8],
        aad: &[u8],
    ) -> [u8; TAG_LEN] {
        // SAFETY: `self` exists, so `detect` saw every feature `tag_impl` enables.
        unsafe { self.tag_impl(nonce, ciphertext, aad) }
    }

    /// XORs the CTR keystream for counters `counter..` (wrapping as
    /// `inc32`) over `data` in place: [`WIDE_LANES`] blocks at a time with
    /// the [`Wide`] token, then [`LANES`] at a time, then block by block.
    pub(crate) fn ctr_xor(&self, nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
        // SAFETY: `self` exists, so `detect` saw every feature `ctr_impl` enables.
        unsafe { self.ctr_impl(nonce, counter, data) }
    }
}

/// `nonce ‖ 0³²`; [`counter_block`] fills in the counter.
#[inline]
#[target_feature(enable = "sse2")]
fn nonce_block(nonce: &[u8; NONCE_LEN]) -> __m128i {
    let mut block = [0u8; 16];
    block[..NONCE_LEN].copy_from_slice(nonce);
    load(&block)
}

/// `nonce ‖ counter` with the counter big-endian in the last four bytes.
#[inline]
#[target_feature(enable = "sse2,sse4.1")]
fn counter_block(nonce: __m128i, counter: u32) -> __m128i {
    _mm_insert_epi32::<3>(nonce, counter.swap_bytes() as i32)
}

/// SHA-256 compression on `sha256rnds2` / `sha256msg1` / `sha256msg2`.
/// Zero-sized: a value is the record that [`ShaNi::detect`] succeeded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// The SHA-NI compress, if this CPU has the instructions (many
    /// AES-NI parts do not).
    pub(crate) fn detect() -> Option<ShaNi> {
        let supported = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        supported.then_some(ShaNi(()))
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into `state`.
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: `self` exists, so `detect` saw every feature `compress_impl` enables.
        unsafe { compress_impl(state, blocks) }
    }
}

#[target_feature(enable = "sse2,ssse3,sse4.1,sha")]
fn compress_impl(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    // `sha256rnds2` wants the state split as ABEF / CDGH, A in the top lane.
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    // Big-endian message words: byte-swap within each 32-bit lane.
    let be32 = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let word = |i: usize| _mm_shuffle_epi8(load(&block[16 * i..16 * i + 16]), be32);
        // Schedule words 4i..4i+16 in four registers, rotated rather than
        // indexed, so the sixteen steps unroll and never touch the stack.
        let (mut w0, mut w1, mut w2, mut w3) = (word(0), word(1), word(2), word(3));
        for k in crate::sha256::K.chunks_exact(4) {
            let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
            let wk = _mm_add_epi32(w0, k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            // Words 4i+16..4i+20: unused after step 12, so dropped unrolled.
            let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
            (w0, w1, w2, w3) = (w1, w2, w3, _mm_sha256msg2_epu32(t, w3));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    let (x, y) = (val(abef), val(cdgh));
    let word = |v: u128, lane: u32| (v >> (32 * lane)) as u32;
    *state = [
        word(x, 3),
        word(x, 2),
        word(y, 3),
        word(y, 2),
        word(x, 1),
        word(x, 0),
        word(y, 1),
        word(y, 0),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes;

    /// The hardware paths for `key` on this CPU: what `detect` picks and,
    /// where that is the wide one, the same key narrowed. Logs them.
    fn paths(key: &Key) -> Vec<AesNiGcm> {
        let Some(hw) = AesNiGcm::detect(key) else {
            eprintln!("aesni-pclmul backend not available on this CPU: nothing to compare");
            return Vec::new();
        };
        let mut paths = vec![hw.clone()];
        if hw.wide.is_some() {
            paths.push(hw.narrow());
        } else {
            eprintln!("vaes-vpclmul path not available on this CPU: eight-lane path only");
        }
        let names: Vec<&str> = paths.iter().map(AesNiGcm::name).collect();
        eprintln!("hw paths under test: {}", names.join(", "));
        paths
    }

    /// `inc32`: the counter wraps inside its own 32 bits and never
    /// carries into the nonce, in every lane of a wide slab, on the
    /// eight-lane slab and on the block tail. (Through `AesGcm` a wrap
    /// takes 64 GiB, so it is driven here.)
    #[test]
    fn backend_counter_wraps_as_inc32() {
        for key in [Key::Aes128([0x37; 16]), Key::Aes256([0x59; 32])] {
            let aes = Aes::new(&key);
            let nonce = [0xA5u8; NONCE_LEN];
            for hw in paths(&key) {
                for start in std::iter::once(2u32).chain((0..16).map(|k| 0xffff_fff0 + k)) {
                    // Two wide slabs, one eight-lane slab, three single
                    // blocks, one partial block.
                    let mut got = vec![0u8; 16 * (2 * WIDE_LANES + LANES + 3) + 5];
                    hw.ctr_xor(&nonce, start, &mut got);
                    for (i, chunk) in got.chunks(16).enumerate() {
                        let mut want = [0u8; 16];
                        want[..NONCE_LEN].copy_from_slice(&nonce);
                        want[NONCE_LEN..]
                            .copy_from_slice(&start.wrapping_add(i as u32).to_be_bytes());
                        aes.encrypt_block(&mut want);
                        assert_eq!(
                            chunk,
                            &want[..chunk.len()],
                            "{} start {start:#x} block {i}",
                            hw.name()
                        );
                    }
                }
            }
        }
    }

    /// `aesenc` under the `aeskeygenassist` schedule against the
    /// portable cipher on arbitrary blocks: the keystream of counter
    /// `c` under nonce `n` is `E(n ‖ c)`, so random nonces and counters
    /// make random blocks.
    #[test]
    fn random_blocks_match_the_portable_cipher() {
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        for key in [Key::Aes128([0x5A; 16]), Key::Aes256([0xC3; 32])] {
            let Some(hw) = AesNiGcm::detect(&key) else {
                eprintln!("aesni-pclmul backend not available on this CPU: nothing to compare");
                return;
            };
            let aes = Aes::new(&key);
            for _ in 0..64 {
                let mut block = [0u8; 16];
                block.iter_mut().for_each(|b| *b = (next() >> 56) as u8);
                let nonce: [u8; NONCE_LEN] = block[..NONCE_LEN].try_into().unwrap();
                let counter = u32::from_be_bytes(block[NONCE_LEN..].try_into().unwrap());
                let mut keystream = [0u8; 16];
                hw.ctr_xor(&nonce, counter, &mut keystream);
                aes.encrypt_block(&mut block);
                assert_eq!(keystream, block);
            }
        }
    }
}
