//! GHASH (the universal hash inside SP 800-38D GCM), constant-time and
//! table-free: the portable backend's hash, and the reference
//! `crate::hw`'s PCLMULQDQ GHASH is tested against.
//!
//! A product in GF(2¹²⁸) is a 128×128-bit carry-less multiply and a
//! reduction. As in BearSSL's `ghash_ctmul64`, the multiply is one
//! Karatsuba step over 64×64-bit carry-less multiplies, and those are
//! ordinary integer multiplies "with holes" ([`bmul64`]), so no load
//! address and no branch depends on the hash key or the data, and
//! nothing is precomputed per key.
//!
//! Bit convention: operands are big-endian `u128`s in GCM's reflected
//! order — the most significant bit of byte 0 is the coefficient of x⁰,
//! so integer bit `127 − k` carries xᵏ. Read as a plain binary
//! polynomial, a block is the bit-reversal of its GCM polynomial, and
//! the plain product of two reversed 128-bit operands is the reversed
//! 255-bit product: shifted left by one, the high 128 bits hold
//! x⁰..x¹²⁷ and the low 128 bits x¹²⁸..x²⁵⁵ in the same reflected order,
//! folded back through x¹²⁸ = x⁷ + x² + x + 1.

/// Every fourth bit, starting at bit 0.
const HOLES: u64 = 0x1111_1111_1111_1111;

/// The low 64 bits of the carry-less product of `x` and `y`.
///
/// Both operands are split into four parts keeping every fourth bit
/// (`HOLES << k`), so an integer product of two parts sums one-bit
/// products into 4-bit slots: the slot at `4m` receives at most `m + 1`
/// of them, which stays below 16 for every slot but the top one (whose
/// carry leaves the word), so no carry reaches the next slot and each
/// slot's low bit is the XOR of its terms. Result bit `4m + k` is the
/// sum of the four part products whose bit offsets add up to `k`.
fn bmul64(x: u64, y: u64) -> u64 {
    let mut z = 0;
    for k in 0..4 {
        let mut zk = 0u64;
        for i in 0..4 {
            let j = (k + 4 - i) % 4;
            zk ^= (x & (HOLES << i)).wrapping_mul(y & (HOLES << j));
        }
        z |= zk & (HOLES << k);
    }
    z
}

/// The full 127-bit carry-less product of `x` and `y`, as (high, low)
/// words. The high word comes from the low half of the product of the
/// bit-reversed operands, reversed back.
fn clmul64(x: u64, y: u64) -> (u64, u64) {
    let high = bmul64(x.reverse_bits(), y.reverse_bits()).reverse_bits() >> 1;
    (high, bmul64(x, y))
}

/// `x · h` in GF(2¹²⁸), both in GCM's bit order.
pub(crate) fn mul(x: u128, h: u128) -> u128 {
    let (x1, x0) = ((x >> 64) as u64, x as u64);
    let (h1, h0) = ((h >> 64) as u64, h as u64);
    // Karatsuba: (x1·h1)·t¹²⁸ + (mid)·t⁶⁴ + x0·h0, mid from one product.
    let (lo_h, lo_l) = clmul64(x0, h0);
    let (hi_h, hi_l) = clmul64(x1, h1);
    let (mid_h, mid_l) = clmul64(x0 ^ x1, h0 ^ h1);
    let (mid_h, mid_l) = (mid_h ^ lo_h ^ hi_h, mid_l ^ lo_l ^ hi_l);
    let hi = (u128::from(hi_h) << 64) | u128::from(hi_l ^ mid_h);
    let lo = (u128::from(lo_h ^ mid_l) << 64) | u128::from(lo_l);
    // Shift the 255-bit reversed product into 256-bit alignment.
    let (hi, lo) = ((hi << 1) | (lo >> 127), lo << 1);
    // Reduce: low bit `p` (x^(255−p)) folds into bits p+128, p+127,
    // p+126 and p+121. Those of the lowest seven bits that land back in
    // the low half (`spill`) fold once more, into the high half alone.
    let fold = |v: u128| v ^ (v >> 1) ^ (v >> 2) ^ (v >> 7);
    let spill = (lo << 127) ^ (lo << 126) ^ (lo << 121);
    hi ^ fold(lo ^ spill)
}

/// `GHASH_H(aad, ciphertext)`: both zero-padded to whole blocks, then
/// the block of their bit lengths (SP 800-38D §7.1 step 5).
pub(crate) fn ghash(h: u128, aad: &[u8], ciphertext: &[u8]) -> u128 {
    let mut acc = 0;
    for data in [aad, ciphertext] {
        for chunk in data.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            acc = mul(acc ^ u128::from_be_bytes(block), h);
        }
    }
    let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
    mul(acc ^ lengths, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Multiplication in GF(2¹²⁸) by the SP 800-38D §6.3 algorithm: the
    /// bit-serial loop, with data-dependent branches (test code only).
    fn gf_mul(x: u128, y: u128) -> u128 {
        const R: u128 = 0xe1 << 120;
        let mut z: u128 = 0;
        let mut v = x;
        for i in 0..128 {
            if (y >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= R;
            }
        }
        z
    }

    /// The low half of a carry-less product, one bit at a time.
    fn clmul_low_serial(x: u64, y: u64) -> u64 {
        (0..64)
            .filter(|i| (y >> i) & 1 == 1)
            .fold(0, |z, i| z ^ (x << i))
    }

    #[test]
    fn mul_matches_bitwise_oracle() {
        let mut x: u128 = 0x0123_4567_89ab_cdef_0011_2233_4455_6677;
        for h in [1u128 << 127, 0xdead_beef_u128, u128::MAX, 0x5a5a << 64] {
            for _ in 0..64 {
                x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17) ^ h;
                assert_eq!(mul(x, h), gf_mul(x, h), "h={h:x} x={x:x}");
            }
            // Edge operands.
            assert_eq!(mul(0, h), 0);
            assert_eq!(mul(1 << 127, h), h, "1 * H == H");
            assert_eq!(mul(u128::MAX, h), gf_mul(u128::MAX, h));
        }
    }

    /// Exhaustive over a basis. `bmul64` cannot carry between slots (its
    /// slot sums are bounded by `m + 1`, greatest for the all-ones
    /// operands checked here), so it and `mul` are bilinear over GF(2),
    /// and agreeing on every pair of basis vectors — xⁱ·xʲ for all
    /// 0 ≤ i, j < 128, and every 64×64 pair of single bits — is agreeing
    /// on every input.
    #[test]
    fn mul_matches_oracle_on_every_basis_pair() {
        assert_eq!(
            bmul64(u64::MAX, u64::MAX),
            clmul_low_serial(u64::MAX, u64::MAX)
        );
        for i in 0..64 {
            for j in 0..64 {
                let (x, y) = (1u64 << i, 1u64 << j);
                assert_eq!(bmul64(x, y), clmul_low_serial(x, y), "bit {i} × bit {j}");
                let (high, low) = clmul64(x, y);
                let full = (u128::from(high) << 64) | u128::from(low);
                assert_eq!(full, 1u128 << (i + j), "bit {i} × bit {j}, full");
            }
        }
        for i in 0..128 {
            for j in 0..128 {
                let (x, y) = (1u128 << i, 1u128 << j);
                assert_eq!(mul(x, y), gf_mul(x, y), "x^{} · x^{}", 127 - i, 127 - j);
            }
        }
    }

    /// Horner's rule on the bitwise oracle over AAD and ciphertext, then
    /// the lengths block.
    fn horner(h: u128, aad: &[u8], ciphertext: &[u8]) -> u128 {
        let mut acc = 0u128;
        for chunk in aad.chunks(16).chain(ciphertext.chunks(16)) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            acc = gf_mul(acc ^ u128::from_be_bytes(block), h);
        }
        let lengths = ((aad.len() as u128 * 8) << 64) ^ (ciphertext.len() as u128 * 8);
        gf_mul(acc ^ lengths, h)
    }

    #[test]
    fn ghash_accumulator_matches_manual_horner() {
        let h = 0x66e9_4bd4_ef8a_2c3b_884c_fa59_ca34_2b2e_u128;
        let data = [0xabu8; 40]; // 2.5 blocks
        assert_eq!(ghash(h, &[], &data), horner(h, &[], &data));
        assert_eq!(ghash(h, &data[..5], &data), horner(h, &data[..5], &data));
    }

    /// `ghash` must match the one-block Horner recurrence at every
    /// ciphertext length 0..167 (whole blocks, partial tails), with AAD
    /// lengths straddling a block. The name is from the two-block
    /// aggregated update this once checked; the loop is unchanged.
    #[test]
    fn paired_update_matches_single_block_horner() {
        let h = 0xaae0_6992_acbf_52a3_e8f4_a96e_c920_6be9_u128;
        let data: Vec<u8> = (0..167).map(|i| (i * 37 % 256) as u8).collect();
        for len in 0..data.len() {
            let aad = &data[..len % 20];
            assert_eq!(ghash(h, aad, &data[..len]), horner(h, aad, &data[..len]), "len={len}");
        }
    }
}
