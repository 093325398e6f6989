//! FIPS-197 AES block cipher (128- and 256-bit keys), bitsliced and
//! constant-time: the portable backend's cipher, and the reference
//! `crate::hw`'s AES-NI path is tested against.
//!
//! Four blocks go through the rounds together as eight `u64` bit-planes,
//! in the shape of BearSSL's `aes_ct64`: plane `i` holds bit `i` of every
//! state byte of all four blocks, byte (row `r`, column `c`) of block `b`
//! at bit `16r + 4c + b`. SubBytes is Boyar and Peralta's Boolean circuit
//! for the S-box (eprint 2009/191), ShiftRows and MixColumns are masks,
//! shifts and rotations of the planes, and the key schedule runs SubWord
//! through the same circuit — no load address and no branch depends on
//! the key or the data. Only the forward cipher exists: GCM never
//! decrypts a block.

use serde::{Deserialize, Serialize};

/// An AES key of either supported width.
///
/// The paper's prototype uses AES-128 (§7.1); 256-bit keys are provided for
/// deployments that prefer the larger margin.
#[derive(Clone, Serialize, Deserialize)]
pub enum Key {
    /// 128-bit key (10 rounds).
    Aes128([u8; 16]),
    /// 256-bit key (14 rounds).
    Aes256([u8; 32]),
}

impl Key {
    /// Key length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Key::Aes128(_) => 16,
            Key::Aes256(_) => 32,
        }
    }

    /// Always false; keys are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Key::Aes128(k) => k,
            Key::Aes256(k) => k,
        }
    }

    /// Builds a key from a byte slice of length 16 or 32.
    pub fn from_bytes(bytes: &[u8]) -> Option<Key> {
        match bytes.len() {
            16 => {
                let mut k = [0u8; 16];
                k.copy_from_slice(bytes);
                Some(Key::Aes128(k))
            }
            32 => {
                let mut k = [0u8; 32];
                k.copy_from_slice(bytes);
                Some(Key::Aes256(k))
            }
            _ => None,
        }
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        match self {
            Key::Aes128(_) => write!(f, "Key::Aes128(<redacted>)"),
            Key::Aes256(_) => write!(f, "Key::Aes256(<redacted>)"),
        }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        crate::ct::ct_eq(self.as_bytes(), other.as_bytes())
    }
}
impl Eq for Key {}

/// FIPS-197 round constants, one per key-schedule step that applies
/// RotWord.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Bit-planes of four blocks (see the module docs for the layout).
type Planes = [u64; 8];

/// Spreads one block, as four little-endian column words, into the two
/// words [`ortho`] transposes into planes: the first carries columns 0
/// and 2, the second columns 1 and 3, one row per 16-bit slot.
fn interleave_in(w: [u32; 4]) -> (u64, u64) {
    let spread = |x: u32| {
        let x = u64::from(x);
        let x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
        (x | (x << 8)) & 0x00FF_00FF_00FF_00FF
    };
    (
        spread(w[0]) | (spread(w[2]) << 8),
        spread(w[1]) | (spread(w[3]) << 8),
    )
}

/// Inverse of [`interleave_in`].
fn interleave_out(q0: u64, q1: u64) -> [u32; 4] {
    let gather = |x: u64| {
        let x = x & 0x00FF_00FF_00FF_00FF;
        let x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
        (x | (x >> 16)) as u32
    };
    [gather(q0), gather(q1), gather(q0 >> 8), gather(q1 >> 8)]
}

/// Transposes the 8×8 bit matrix at every byte position of the eight
/// words: bit `i` of byte `m` of word `j` trades places with bit `j` of
/// byte `m` of word `i`. Its own inverse.
fn ortho(q: &mut Planes) {
    for (shift, low) in [
        (1, 0x5555_5555_5555_5555_u64),
        (2, 0x3333_3333_3333_3333),
        (4, 0x0F0F_0F0F_0F0F_0F0F),
    ] {
        let high = low << shift;
        for i in (0..8).filter(|i| i & shift == 0) {
            let (a, b) = (q[i], q[i + shift]);
            q[i] = (a & low) | ((b & low) << shift);
            q[i + shift] = ((a & high) >> shift) | (b & high);
        }
    }
}

/// The S-box on every byte of the planes at once: Boyar and Peralta's
/// circuit of 113 gates (32 AND), with `x0` the most significant input
/// bit and `s0` the most significant output bit.
fn sub_bytes(q: &mut Planes) {
    let [x7, x6, x5, x4, x3, x2, x1, x0] = *q;

    // Top linear transformation.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    // Shared non-linear middle: inversion in GF(2⁴)² form.
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;

    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;

    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear transformation (the affine map's constant 0x63 is
    // the four complements).
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    *q = [s7, s6, s5, s4, s3, s2, s1, s0];
}

/// Row `r` of every column rotates left by `r` columns: within a row's
/// 16-bit slot, each 4-bit column field moves down by `4r` bits.
fn shift_rows(q: &mut Planes) {
    for x in q.iter_mut() {
        *x = (*x & 0x0000_0000_0000_FFFF)
            | ((*x & 0x0000_0000_FFF0_0000) >> 4)
            | ((*x & 0x0000_0000_000F_0000) << 12)
            | ((*x & 0x0000_FF00_0000_0000) >> 8)
            | ((*x & 0x0000_00FF_0000_0000) << 8)
            | ((*x & 0xF000_0000_0000_0000) >> 12)
            | ((*x & 0x0FFF_0000_0000_0000) << 4);
    }
}

/// `a'ᵣ = 2·aᵣ ⊕ 3·aᵣ₊₁ ⊕ aᵣ₊₂ ⊕ aᵣ₊₃` on every column, written as
/// `2·(aᵣ ⊕ aᵣ₊₁) ⊕ aᵣ₊₁ ⊕ (aᵣ₊₂ ⊕ aᵣ₊₃)`: rotating a plane by one
/// 16-bit row slot brings row `r + 1` into row `r`'s place, by two slots
/// rows `r + 2`. Doubling moves each bit up one plane and folds bit 7
/// back into planes 0, 1, 3 and 4 (x⁸ = x⁴ + x³ + x + 1).
fn mix_columns(q: &mut Planes) {
    let a = *q;
    let next = a.map(|x| x.rotate_right(16));
    let sum: Planes = std::array::from_fn(|i| a[i] ^ next[i]);
    for (i, out) in q.iter_mut().enumerate() {
        let doubled = match i {
            0 => sum[7],
            1 | 3 | 4 => sum[i - 1] ^ sum[7],
            _ => sum[i - 1],
        };
        *out = doubled ^ next[i] ^ sum[i].rotate_right(32);
    }
}

/// Every fourth bit, starting at bit 0: one bit of each 4-bit column
/// field, i.e. one block lane.
const LANE: u64 = 0x1111_1111_1111_1111;

/// A round key is the same in all four lanes of a plane, so it is kept
/// as two words: lane `i mod 4` of plane `i` for planes 0–3, then 4–7.
fn compress(planes: &Planes) -> [u64; 2] {
    let pack = |q: &[u64]| (0..4).fold(0, |acc, j| acc | (q[j] & (LANE << j)));
    [pack(&planes[..4]), pack(&planes[4..])]
}

/// XORs a compressed round key into every lane; multiplying a lane bit
/// by 15 fills its 4-bit column field.
fn add_round_key(q: &mut Planes, rk: &[u64; 2]) {
    for (i, x) in q.iter_mut().enumerate() {
        *x ^= ((rk[i / 4] >> (i % 4)) & LANE) * 15;
    }
}

/// SubWord on a little-endian key-schedule word, through the same
/// circuit as the rounds.
fn sub_word(x: u32) -> u32 {
    let mut q = [u64::from(x), 0, 0, 0, 0, 0, 0, 0];
    ortho(&mut q);
    sub_bytes(&mut q);
    ortho(&mut q);
    q[0] as u32
}

/// An expanded AES cipher instance.
#[derive(Clone)]
pub(crate) struct Aes {
    /// Round keys as bit-planes, compressed (see [`compress`]); sized
    /// for AES-256's 15.
    rk: [[u64; 2]; 15],
    rounds: usize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes").field("rounds", &self.rounds).finish()
    }
}

impl Aes {
    /// Expands `key` into round keys.
    pub(crate) fn new(key: &Key) -> Aes {
        let kb = key.as_bytes();
        let nk = kb.len() / 4; // 4 or 8
        let rounds = nk + 6; // 10 or 14

        // FIPS-197 §5.2 on little-endian words, so RotWord is a right
        // rotation and Rcon lands in the low byte.
        let mut w = [0u32; 60];
        for (w, bytes) in w.iter_mut().zip(kb.chunks_exact(4)) {
            *w = u32::from_le_bytes(bytes.try_into().expect("4-byte word"));
        }
        for i in nk..4 * (rounds + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_right(8)) ^ u32::from(RCON[i / nk - 1]);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }

        let mut rk = [[0u64; 2]; 15];
        for (rk, words) in rk.iter_mut().zip(w.chunks_exact(4)).take(rounds + 1) {
            let (q0, q1) = interleave_in(words.try_into().expect("4 words per round key"));
            let mut planes = [q0, q0, q0, q0, q1, q1, q1, q1];
            ortho(&mut planes);
            *rk = compress(&planes);
        }
        Aes { rk, rounds }
    }

    /// Encrypts four independent blocks in place, in one pass.
    pub(crate) fn encrypt4(&self, blocks: &mut [[u8; 16]; 4]) {
        let mut q = [0u64; 8];
        for (b, block) in blocks.iter().enumerate() {
            let words = std::array::from_fn(|c| {
                u32::from_le_bytes(block[4 * c..4 * c + 4].try_into().expect("4-byte column"))
            });
            (q[b], q[b + 4]) = interleave_in(words);
        }
        ortho(&mut q);
        add_round_key(&mut q, &self.rk[0]);
        for rk in &self.rk[1..self.rounds] {
            sub_bytes(&mut q);
            shift_rows(&mut q);
            mix_columns(&mut q);
            add_round_key(&mut q, rk);
        }
        sub_bytes(&mut q);
        shift_rows(&mut q);
        add_round_key(&mut q, &self.rk[self.rounds]);
        ortho(&mut q);
        for (b, block) in blocks.iter_mut().enumerate() {
            for (c, word) in interleave_out(q[b], q[b + 4]).iter().enumerate() {
                block[4 * c..4 * c + 4].copy_from_slice(&word.to_le_bytes());
            }
        }
    }

    /// The CTR keystream blocks for `nonce ‖ counter` .. `nonce ‖
    /// counter + 3`, the 32-bit counter big-endian and wrapping as
    /// `inc32`.
    pub(crate) fn ctr_keystream(
        &self,
        nonce: &[u8; crate::gcm::NONCE_LEN],
        counter: u32,
    ) -> [[u8; 16]; 4] {
        let mut blocks = [[0u8; 16]; 4];
        for (i, block) in blocks.iter_mut().enumerate() {
            block[..12].copy_from_slice(nonce);
            block[12..].copy_from_slice(&counter.wrapping_add(i as u32).to_be_bytes());
        }
        self.encrypt4(&mut blocks);
        blocks
    }

    /// Encrypts a single 16-byte block in place (one lane of a pass).
    pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
        let mut blocks = [*block, [0; 16], [0; 16], [0; 16]];
        self.encrypt4(&mut blocks);
        *block = blocks[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn block(s: &str) -> [u8; 16] {
        hex(s).try_into().unwrap()
    }

    /// The FIPS-197 S-box (Fig. 7), held here only: the cipher has no
    /// table, so this is an independent statement of what it computes.
    #[rustfmt::skip]
    const FIPS197_SBOX: [u8; 256] = [
        0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
        0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
        0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
        0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
        0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
        0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
        0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
        0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
        0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
        0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
        0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
        0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
        0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
        0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
        0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
        0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
    ];

    #[test]
    fn fips197_aes128_vector() {
        // FIPS-197 Appendix C.1
        let key = Key::from_bytes(&hex("000102030405060708090a0b0c0d0e0f")).unwrap();
        let aes = Aes::new(&key);
        let mut b = block("00112233445566778899aabbccddeeff");
        aes.encrypt_block(&mut b);
        assert_eq!(b, block("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn fips197_aes256_vector() {
        // FIPS-197 Appendix C.3
        let key = Key::from_bytes(&hex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        ))
        .unwrap();
        let aes = Aes::new(&key);
        assert_eq!(aes.rounds, 14);
        let mut b = block("00112233445566778899aabbccddeeff");
        aes.encrypt_block(&mut b);
        assert_eq!(b, block("8ea2b7ca516745bfeafc49904b496089"));
    }

    #[test]
    fn sp800_38a_ecb_vector() {
        // NIST SP 800-38A F.1.1 ECB-AES128 block #1
        let key = Key::from_bytes(&hex("2b7e151628aed2a6abf7158809cf4f3c")).unwrap();
        let aes = Aes::new(&key);
        let mut b = block("6bc1bee22e409f96e93d7e117393172a");
        aes.encrypt_block(&mut b);
        assert_eq!(b, block("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    #[test]
    fn key_from_bytes_validates_length() {
        assert!(Key::from_bytes(&[0u8; 16]).is_some());
        assert!(Key::from_bytes(&[0u8; 32]).is_some());
        assert!(Key::from_bytes(&[0u8; 24]).is_none()); // AES-192 unsupported
        assert!(Key::from_bytes(&[]).is_none());
    }

    #[test]
    fn debug_never_leaks_key_material() {
        let key = Key::Aes128([0xEE; 16]);
        let dbg = format!("{key:?}");
        assert!(dbg.contains("redacted"));
        assert!(!dbg.contains("238")); // 0xEE
        assert!(!dbg.to_lowercase().contains("ee"), "{dbg}");
    }

    /// Every one of the 256 inputs through the circuit, 64 per plane
    /// word (input `x` at bit position `x mod 64`), against FIPS-197.
    #[test]
    fn sbox_matches_known_entries() {
        for (batch, want) in FIPS197_SBOX.chunks(64).enumerate() {
            let mut q = [0u64; 8];
            for k in 0..64 {
                let x = (64 * batch + k) as u64;
                for (i, plane) in q.iter_mut().enumerate() {
                    *plane |= ((x >> i) & 1) << k;
                }
            }
            sub_bytes(&mut q);
            for (k, &want) in want.iter().enumerate() {
                let s = (0..8).fold(0u8, |s, i| s | ((((q[i] >> k) & 1) as u8) << i));
                assert_eq!(s, want, "S({:#04x})", 64 * batch + k);
            }
        }
        // And through the key schedule's word path (little-endian bytes
        // 00 01 00 53).
        assert_eq!(sub_word(0x5300_0100), 0xed63_7c63);
    }

    /// Round key `r` back out of its planes, in FIPS-197 byte order.
    fn round_key(aes: &Aes, r: usize) -> [u8; 16] {
        let mut q = [0u64; 8];
        add_round_key(&mut q, &aes.rk[r]);
        ortho(&mut q);
        let mut out = [0u8; 16];
        for (c, word) in interleave_out(q[0], q[4]).iter().enumerate() {
            out[4 * c..4 * c + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// FIPS-197 Appendix A.1 (AES-128) and A.3 (AES-256): every
    /// expanded word, through this module's schedule and through
    /// `aeskeygenassist` wherever the CPU has it.
    #[test]
    fn key_expansion_matches_fips197_appendix_a() {
        let a1 = (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "2b7e151628aed2a6abf7158809cf4f3ca0fafe1788542cb123a339392a6c7605\
             f2c295f27a96b9435935807a7359f67f3d80477d4716fe3e1e237e446d7a883b\
             ef44a541a8525b7fb671253bdb0bad00d4d1c6f87c839d87caf2b8bc11f915bc\
             6d88a37a110b3efddbf98641ca0093fd4e54f70e5f5fc9f384a64fb24ea6dc4f\
             ead27321b58dbad2312bf5607f8d292fac7766f319fadc2128d12941575c006e\
             d014f9a8c9ee2589e13f0cc8b6630ca6",
        );
        let a3 = (
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4\
             9ba354118e6925afa51a8b5f2067fcdea8b09c1a93d194cdbe49846eb75d5b9a\
             d59aecb85bf3c917fee94248de8ebe96b5a9328a2678a647983122292f6c79b3\
             812c81addadf48ba24360af2fab8b46498c5bfc9bebd198e268c3ba709e04214\
             68007bacb2df331696e939e46c518d80c814e20476a9fb8a5025c02d59c58239\
             de1369676ccc5a71fa2563959674ee155886ca5d2e2f31d77e0af1fa27cf73c3\
             749c47ab18501ddae2757e4f7401905acafaaae3e4d59b349adf6acebd10190d\
             fe4890d1e6188d0b046df344706c631e",
        );
        for (key, words) in [a1, a3] {
            let key = Key::from_bytes(&hex(key)).unwrap();
            let want: Vec<[u8; 16]> = hex(words)
                .chunks(16)
                .map(|rk| rk.try_into().unwrap())
                .collect();
            let aes = Aes::new(&key);
            assert_eq!(aes.rounds + 1, want.len());
            for (r, want) in want.iter().enumerate() {
                assert_eq!(
                    &round_key(&aes, r),
                    want,
                    "portable, {}-bit round key {r}",
                    8 * key.len()
                );
            }
            #[cfg(target_arch = "x86_64")]
            match crate::hw::AesNiGcm::detect(&key) {
                Some(hw) => assert_eq!(hw.schedule, want, "aeskeygenassist"),
                None => {
                    eprintln!("aeskeygenassist not available on this CPU: portable schedule only")
                }
            }
        }
    }

    /// Each lane of a four-block pass equals that block encrypted alone:
    /// the interleave, transpose and row shifts never mix lanes.
    #[test]
    fn parallel_states_match_single_block() {
        for key in [Key::Aes128([0x42; 16]), Key::Aes256([0x42; 32])] {
            let aes = Aes::new(&key);
            let mut blocks = [[0u8; 16]; 4];
            for (i, b) in blocks.iter_mut().enumerate() {
                for (j, byte) in b.iter_mut().enumerate() {
                    *byte = (i * 0x35 + j * 0x1d) as u8 ^ 0xa5;
                }
            }
            let expected = blocks.map(|mut b| {
                aes.encrypt_block(&mut b);
                b
            });
            aes.encrypt4(&mut blocks);
            assert_eq!(blocks, expected);
        }
    }

    /// The CTR keystream equals plain block encryption of the counter
    /// blocks, including across a 32-bit counter wrap (`inc32`: the
    /// nonce never carries).
    #[test]
    fn ctr_keystream_matches_generic_encryption() {
        for key in [Key::Aes128([0x37; 16]), Key::Aes256([0x59; 32])] {
            let aes = Aes::new(&key);
            let nonce = [0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 0xfd, 0xed, 0xcb, 0xa9];
            for counter0 in [2u32, 250, 0xffff_fffe] {
                let got = aes.ctr_keystream(&nonce, counter0);
                for (k, got) in got.iter().enumerate() {
                    let c = counter0.wrapping_add(k as u32);
                    let mut want = [0u8; 16];
                    want[..12].copy_from_slice(&nonce);
                    want[12..].copy_from_slice(&c.to_be_bytes());
                    aes.encrypt_block(&mut want);
                    assert_eq!(*got, want, "counter {c:#x}");
                }
            }
        }
    }
}
