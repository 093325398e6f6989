//! The instructions the paper names: AES-NI + PCLMULQDQ AES-GCM and
//! SHA-NI SHA-256 (§4.2 "encrypts workload pages in the TVM with AES-NI",
//! §7.2's AES-GCM-SHA engine), for x86-64 CPUs that report them.
//!
//! This module owns every `core::arch` instruction in the workspace.
//! [`AesNiGcm::detect`] and [`ShaNi::detect`] are the only constructors
//! and succeed only when `is_x86_feature_detected!` reports every
//! feature the backend's code is compiled with, so *holding* a value of
//! either type is the proof that its `#[target_feature]` entry points
//! may be called — the one fact every `unsafe` block below cites.
//! Inside those functions the intrinsics are safe: bytes enter and leave
//! registers through value intrinsics (`_mm_set_epi64x`,
//! `_mm_cvtsi128_si64`), never through a pointer.
//!
//! `aesenc` and `pclmulqdq` are data-independent in time and need no
//! per-key tables: key set-up is the `aeskeygenassist` schedule and the
//! eight hash-key powers, and runs no portable code. On every other CPU
//! — and as the differential reference on this one — the portable
//! backend ([`crate::aes`] / [`crate::ghash`]) and the portable compress
//! in [`crate::sha256`] compute the same bits.
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
//! eight products against `H⁸..H¹` are summed unreduced and reduced once.

#![allow(unsafe_code)]

use crate::aes::Key;
use crate::gcm::{NONCE_LEN, TAG_LEN};
use std::arch::x86_64::*;

/// Blocks per interleaved AES call and per aggregated GHASH reduction.
const LANES: usize = 8;

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
/// `H¹..H⁸` (each stored as `h̄ⁱ·y mod Q`) of one key.
#[derive(Clone)]
pub(crate) struct AesNiGcm {
    rk: [__m128i; 15],
    rounds: usize,
    /// `h[i]` multiplies by `H^(i+1)`.
    h: [__m128i; LANES],
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
        Some(unsafe { AesNiGcm::expand(key) })
    }

    #[target_feature(enable = "sse2,ssse3,sse4.1,aes,pclmulqdq")]
    fn expand(key: &Key) -> AesNiGcm {
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
            h: [_mm_setzero_si128(); LANES],
            #[cfg(test)]
            schedule,
        };
        // H = E_K(0¹²⁸); h' = h̄·y mod Q, one shift and a conditional fold.
        let h = val(bswap(key.encrypt(_mm_setzero_si128())));
        let q = 0xc200_0000_0000_0000_0000_0000_0000_0001_u128;
        key.h[0] = reg((h << 1) ^ ((h >> 127) * q));
        for i in 1..LANES {
            key.h[i] = key.mul_h(key.h[i - 1]);
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

    /// `x · H`, reduced.
    #[inline]
    #[target_feature(enable = "sse2,pclmulqdq")]
    fn mul_h(&self, x: __m128i) -> __m128i {
        let mut p = Product::zero();
        p.add_mul(x, self.h[0]);
        p.reduce()
    }

    /// Absorbs `data`, zero-padding the final partial block. Each run of
    /// [`LANES`] blocks costs one reduction:
    /// `(acc⊕b₀)·H⁸ ⊕ b₁·H⁷ ⊕ … ⊕ b₇·H`.
    #[target_feature(enable = "sse2,ssse3,pclmulqdq")]
    fn ghash(&self, mut acc: __m128i, data: &[u8]) -> __m128i {
        let mut slabs = data.chunks_exact(16 * LANES);
        for slab in slabs.by_ref() {
            let mut p = Product::zero();
            for (block, h) in slab.chunks_exact(16).zip(self.h.iter().rev()) {
                p.add_mul(_mm_xor_si128(acc, bswap(load(block))), *h);
                acc = _mm_setzero_si128(); // only b₀ carries the accumulator
            }
            acc = p.reduce();
        }
        for chunk in slabs.remainder().chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            acc = self.mul_h(_mm_xor_si128(acc, bswap(load(&block))));
        }
        acc
    }

    #[target_feature(enable = "sse2,sse4.1,aes")]
    fn ctr_impl(&self, nonce: &[u8; NONCE_LEN], mut counter: u32, data: &mut [u8]) {
        let nonce = nonce_block(nonce);
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
        let acc = self.ghash(self.ghash(_mm_setzero_si128(), aad), ciphertext);
        // The lengths block, then the mask `E(K, nonce ‖ 1)`.
        let bits = |len: usize| (len as u64 * 8) as i64;
        let lengths = _mm_set_epi64x(bits(aad.len()), bits(ciphertext.len()));
        let s = bswap(self.mul_h(_mm_xor_si128(acc, lengths)));
        let mask = self.encrypt(counter_block(nonce_block(nonce), 1));
        val(_mm_xor_si128(s, mask)).to_le_bytes()
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
    /// `inc32`) over `data` in place, [`LANES`] blocks at a time and then
    /// block by block.
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
        let mut w = [abef; 4];
        for (w, bytes) in w.iter_mut().zip(block.chunks_exact(16)) {
            *w = _mm_shuffle_epi8(load(bytes), be32);
        }
        for (i, k) in crate::sha256::K.chunks_exact(4).enumerate() {
            let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
            let wk = _mm_add_epi32(w[i % 4], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            if i < 12 {
                // Schedule words 4i+16..4i+20 into the slot just consumed.
                let (w1, w2, w3) = (w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                let t = _mm_add_epi32(
                    _mm_sha256msg1_epu32(w[i % 4], w1),
                    _mm_alignr_epi8::<4>(w3, w2),
                );
                w[i % 4] = _mm_sha256msg2_epu32(t, w3);
            }
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

    /// `inc32`: the counter wraps inside its own 32 bits and never
    /// carries into the nonce, on the slab path and on the block tail.
    /// (Through `AesGcm` a wrap takes 64 GiB, so it is driven here.)
    #[test]
    fn backend_counter_wraps_as_inc32() {
        for key in [Key::Aes128([0x37; 16]), Key::Aes256([0x59; 32])] {
            let Some(hw) = AesNiGcm::detect(&key) else {
                eprintln!("aesni-pclmul backend not available on this CPU: nothing to compare");
                return;
            };
            let aes = Aes::new(&key);
            let nonce = [0xA5u8; NONCE_LEN];
            for start in [2u32, 0xffff_fff9, 0xffff_ffff] {
                // Two slabs, three single blocks, one partial block.
                let mut got = vec![0u8; 16 * (2 * LANES + 3) + 5];
                hw.ctr_xor(&nonce, start, &mut got);
                for (i, chunk) in got.chunks(16).enumerate() {
                    let mut want = [0u8; 16];
                    want[..NONCE_LEN].copy_from_slice(&nonce);
                    want[NONCE_LEN..].copy_from_slice(&start.wrapping_add(i as u32).to_be_bytes());
                    aes.encrypt_block(&mut want);
                    assert_eq!(chunk, &want[..chunk.len()], "start {start:#x} block {i}");
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
