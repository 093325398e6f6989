//! FIPS-197 AES block cipher (128- and 256-bit keys), table-driven.
//!
//! A T-table implementation: the S-box and the four round-fused
//! encryption tables (S-box composed with MixColumns, one rotation per
//! row) are computed at *compile time* by const evaluation, so key setup
//! only expands round keys — which is all `crate::hw`'s AES-NI backend
//! takes from here. [`Aes::ctr_keystream_para`] encrypts several
//! independent counter blocks per call with the round loop interleaved
//! across blocks; the table backend's GCM keystream rides on it wherever
//! the CPU has no AES-NI (§5's "optimization on security operations").
//!
//! The original byte-at-a-time implementation is retained in
//! [`crate::scalar`] as a differential-test oracle.

use serde::{Deserialize, Serialize};

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

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

/// xtime: multiplication by x (i.e. 2) in GF(2^8).
pub(crate) const fn xtime(a: u8) -> u8 {
    (a << 1) ^ (((a >> 7) & 1) * 0x1b)
}

/// Multiplication in GF(2^8) (used by the inverse cipher's MixColumns).
pub(crate) const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

/// S-box and inverse S-box from the field inverse + affine map, evaluated
/// at compile time.
const fn build_sboxes() -> ([u8; 256], [u8; 256]) {
    // Discrete log tables over the generator 3.
    let mut pow = [0u8; 256];
    let mut log = [0u8; 256];
    let mut x: u8 = 1;
    let mut i = 0;
    while i < 255 {
        pow[i] = x;
        log[x as usize] = i as u8;
        x ^= xtime(x);
        i += 1;
    }
    pow[255] = pow[0];
    let mut sbox = [0u8; 256];
    let mut inv_sbox = [0u8; 256];
    let mut a = 0usize;
    while a < 256 {
        let b = if a == 0 { 0 } else { pow[(255 - log[a] as usize) % 255] };
        let s = b
            ^ b.rotate_left(1)
            ^ b.rotate_left(2)
            ^ b.rotate_left(3)
            ^ b.rotate_left(4)
            ^ 0x63;
        sbox[a] = s;
        inv_sbox[s as usize] = a as u8;
        a += 1;
    }
    (sbox, inv_sbox)
}

const SBOXES: ([u8; 256], [u8; 256]) = build_sboxes();
pub(crate) const SBOX: [u8; 256] = SBOXES.0;
pub(crate) const INV_SBOX: [u8; 256] = SBOXES.1;

/// Round-fused encryption tables: `TE[r][x]` is S-box(x) pushed through
/// MixColumns for an input byte in row `r`, so a full round is four table
/// lookups and three XORs per column. 4 KiB total, shared by every key.
const fn build_te() -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        // Column contribution of a row-0 byte: (2s, s, s, 3s).
        let w = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        te[0][i] = w;
        te[1][i] = w.rotate_right(8);
        te[2][i] = w.rotate_right(16);
        te[3][i] = w.rotate_right(24);
        i += 1;
    }
    te
}

static TE: [[u32; 256]; 4] = build_te();

/// An expanded AES cipher instance.
///
/// State is held as four big-endian `u32` column words (`word[c]` carries
/// rows 0..4 of column `c`, row 0 in the most significant byte), matching
/// the byte-oriented FIPS-197 layout on load/store.
#[derive(Clone)]
pub struct Aes {
    /// Round keys as column words, one `[u32; 4]` per round. A fixed
    /// inline array (sized for AES-256's 15 round keys) rather than a
    /// `Vec`: the round loop indexes it thousands of times per chunk, and
    /// the fixed shape drops both the pointer chase and the slice bounds
    /// checks.
    ek: [[u32; 4]; 15],
    rounds: usize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes").field("rounds", &self.rounds).finish()
    }
}

/// One T-table round over all four columns.
#[inline(always)]
fn round(s: [u32; 4], rk: &[u32; 4]) -> [u32; 4] {
    [
        TE[0][(s[0] >> 24) as usize]
            ^ TE[1][((s[1] >> 16) & 0xff) as usize]
            ^ TE[2][((s[2] >> 8) & 0xff) as usize]
            ^ TE[3][(s[3] & 0xff) as usize]
            ^ rk[0],
        TE[0][(s[1] >> 24) as usize]
            ^ TE[1][((s[2] >> 16) & 0xff) as usize]
            ^ TE[2][((s[3] >> 8) & 0xff) as usize]
            ^ TE[3][(s[0] & 0xff) as usize]
            ^ rk[1],
        TE[0][(s[2] >> 24) as usize]
            ^ TE[1][((s[3] >> 16) & 0xff) as usize]
            ^ TE[2][((s[0] >> 8) & 0xff) as usize]
            ^ TE[3][(s[1] & 0xff) as usize]
            ^ rk[2],
        TE[0][(s[3] >> 24) as usize]
            ^ TE[1][((s[0] >> 16) & 0xff) as usize]
            ^ TE[2][((s[1] >> 8) & 0xff) as usize]
            ^ TE[3][(s[2] & 0xff) as usize]
            ^ rk[3],
    ]
}

/// Final round: S-box + ShiftRows only, no MixColumns.
#[inline(always)]
fn final_round(s: [u32; 4], rk: &[u32; 4]) -> [u32; 4] {
    let sub = |c0: u32, c1: u32, c2: u32, c3: u32| -> u32 {
        ((SBOX[(c0 >> 24) as usize] as u32) << 24)
            | ((SBOX[((c1 >> 16) & 0xff) as usize] as u32) << 16)
            | ((SBOX[((c2 >> 8) & 0xff) as usize] as u32) << 8)
            | (SBOX[(c3 & 0xff) as usize] as u32)
    };
    [
        sub(s[0], s[1], s[2], s[3]) ^ rk[0],
        sub(s[1], s[2], s[3], s[0]) ^ rk[1],
        sub(s[2], s[3], s[0], s[1]) ^ rk[2],
        sub(s[3], s[0], s[1], s[2]) ^ rk[3],
    ]
}

impl Aes {
    /// Expands `key` into round keys.
    pub fn new(key: &Key) -> Aes {
        let kb = key.as_bytes();
        let nk = kb.len() / 4; // 4 or 8
        let rounds = nk + 6; // 10 or 14
        let total_words = 4 * (rounds + 1);

        let mut words = [0u32; 60];
        for i in 0..nk {
            words[i] = u32::from_be_bytes([
                kb[4 * i],
                kb[4 * i + 1],
                kb[4 * i + 2],
                kb[4 * i + 3],
            ]);
        }
        let sub_word = |w: u32| -> u32 {
            ((SBOX[(w >> 24) as usize] as u32) << 24)
                | ((SBOX[((w >> 16) & 0xff) as usize] as u32) << 16)
                | ((SBOX[((w >> 8) & 0xff) as usize] as u32) << 8)
                | (SBOX[(w & 0xff) as usize] as u32)
        };
        let mut rcon: u8 = 1;
        for i in nk..total_words {
            let mut temp = words[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ ((rcon as u32) << 24);
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            words[i] = words[i - nk] ^ temp;
        }

        let mut ek = [[0u32; 4]; 15];
        for (r, rk) in ek.iter_mut().take(rounds + 1).enumerate() {
            rk.copy_from_slice(&words[4 * r..4 * r + 4]);
        }
        Aes { ek, rounds }
    }

    /// Number of rounds (10 for AES-128, 14 for AES-256).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Encrypts one state held as column words.
    #[inline]
    pub(crate) fn encrypt_words(&self, mut s: [u32; 4]) -> [u32; 4] {
        for (w, rk) in s.iter_mut().zip(&self.ek[0]) {
            *w ^= rk;
        }
        for rk in &self.ek[1..self.rounds] {
            s = round(s, rk);
        }
        final_round(s, &self.ek[self.rounds])
    }

    /// Encrypts `N` independent states with the round loop interleaved
    /// across them. The general-shape sibling of
    /// [`Aes::ctr_keystream_para`] (which additionally exploits the
    /// shared nonce words); kept as the oracle the CTR specialization is
    /// tested against.
    #[cfg(test)]
    pub(crate) fn encrypt_words_para<const N: usize>(&self, states: &mut [[u32; 4]; N]) {
        for s in states.iter_mut() {
            for (w, rk) in s.iter_mut().zip(&self.ek[0]) {
                *w ^= rk;
            }
        }
        for rk in &self.ek[1..self.rounds] {
            for s in states.iter_mut() {
                *s = round(*s, rk);
            }
        }
        let rk = &self.ek[self.rounds];
        for s in states.iter_mut() {
            *s = final_round(*s, rk);
        }
    }

    /// Produces `N` keystream states for CTR counters `counter0..counter0+N`
    /// under a fixed 96-bit nonce (`n` holds its three big-endian words).
    ///
    /// Exploits CTR structure: words 0–2 of every input state are the
    /// same nonce words, so their contribution to the first round is
    /// computed once per call and each block's first round costs 4 table
    /// lookups instead of 16.
    pub(crate) fn ctr_keystream_para<const N: usize>(
        &self,
        n: [u32; 3],
        counter0: u32,
    ) -> [[u32; 4]; N] {
        let [w0, w1, w2] =
            [n[0] ^ self.ek[0][0], n[1] ^ self.ek[0][1], n[2] ^ self.ek[0][2]];
        let rk1 = &self.ek[1];
        // Constant (nonce-only) terms of each round-1 output word; the
        // missing term of each is the counter-word lookup added below.
        let a0 = TE[0][(w0 >> 24) as usize]
            ^ TE[1][((w1 >> 16) & 0xff) as usize]
            ^ TE[2][((w2 >> 8) & 0xff) as usize]
            ^ rk1[0];
        let a1 = TE[0][(w1 >> 24) as usize]
            ^ TE[1][((w2 >> 16) & 0xff) as usize]
            ^ TE[3][(w0 & 0xff) as usize]
            ^ rk1[1];
        let a2 = TE[0][(w2 >> 24) as usize]
            ^ TE[2][((w0 >> 8) & 0xff) as usize]
            ^ TE[3][(w1 & 0xff) as usize]
            ^ rk1[2];
        let a3 = TE[1][((w0 >> 16) & 0xff) as usize]
            ^ TE[2][((w1 >> 8) & 0xff) as usize]
            ^ TE[3][(w2 & 0xff) as usize]
            ^ rk1[3];
        let mut states = [[0u32; 4]; N];
        for (k, s) in states.iter_mut().enumerate() {
            let w3 = counter0.wrapping_add(k as u32) ^ self.ek[0][3];
            *s = [
                a0 ^ TE[3][(w3 & 0xff) as usize],
                a1 ^ TE[2][((w3 >> 8) & 0xff) as usize],
                a2 ^ TE[1][((w3 >> 16) & 0xff) as usize],
                a3 ^ TE[0][(w3 >> 24) as usize],
            ];
        }
        for rk in &self.ek[2..self.rounds] {
            for s in states.iter_mut() {
                *s = round(*s, rk);
            }
        }
        let rk = &self.ek[self.rounds];
        for s in states.iter_mut() {
            *s = final_round(*s, rk);
        }
        states
    }

    /// Encrypts a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let s = self.encrypt_words([
            u32::from_be_bytes([block[0], block[1], block[2], block[3]]),
            u32::from_be_bytes([block[4], block[5], block[6], block[7]]),
            u32::from_be_bytes([block[8], block[9], block[10], block[11]]),
            u32::from_be_bytes([block[12], block[13], block[14], block[15]]),
        ]);
        for (c, w) in s.iter().enumerate() {
            block[4 * c..4 * c + 4].copy_from_slice(&w.to_be_bytes());
        }
    }

    /// Decrypts a single 16-byte block in place.
    ///
    /// The inverse cipher is off the hot path (GCM only needs the forward
    /// direction), so it stays byte-oriented.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let rounds = self.rounds;
        add_round_key(block, &self.round_key_bytes(rounds));
        for r in (1..rounds).rev() {
            inv_shift_rows(block);
            inv_sub_bytes(block);
            add_round_key(block, &self.round_key_bytes(r));
            inv_mix_columns(block);
        }
        inv_shift_rows(block);
        inv_sub_bytes(block);
        add_round_key(block, &self.round_key_bytes(0));
    }

    /// Round key `r` in FIPS-197 byte order (what `aesenc` consumes).
    pub(crate) fn round_key_bytes(&self, r: usize) -> [u8; 16] {
        let mut rk = [0u8; 16];
        for c in 0..4 {
            rk[4 * c..4 * c + 4].copy_from_slice(&self.ek[r][c].to_be_bytes());
        }
        rk
    }
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

fn inv_sub_bytes(b: &mut [u8; 16]) {
    for x in b.iter_mut() {
        *x = INV_SBOX[*x as usize];
    }
}

/// State layout is column-major: byte `state[4c + r]` is row r, column c.
fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = s[4 * c + r];
        }
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        state[4 * c] =
            gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
        state[4 * c + 1] =
            gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
        state[4 * c + 2] =
            gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
        state[4 * c + 3] =
            gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
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

    #[test]
    fn fips197_aes128_vector() {
        // FIPS-197 Appendix C.1
        let key = Key::from_bytes(&hex("000102030405060708090a0b0c0d0e0f")).unwrap();
        let aes = Aes::new(&key);
        let mut block = [0u8; 16];
        block.copy_from_slice(&hex("00112233445566778899aabbccddeeff"));
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn fips197_aes256_vector() {
        // FIPS-197 Appendix C.3
        let key = Key::from_bytes(&hex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        ))
        .unwrap();
        let aes = Aes::new(&key);
        assert_eq!(aes.rounds(), 14);
        let mut block = [0u8; 16];
        block.copy_from_slice(&hex("00112233445566778899aabbccddeeff"));
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("8ea2b7ca516745bfeafc49904b496089"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn sp800_38a_ecb_vector() {
        // NIST SP 800-38A F.1.1 ECB-AES128 block #1
        let key = Key::from_bytes(&hex("2b7e151628aed2a6abf7158809cf4f3c")).unwrap();
        let aes = Aes::new(&key);
        let mut block = [0u8; 16];
        block.copy_from_slice(&hex("6bc1bee22e409f96e93d7e117393172a"));
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    #[test]
    fn round_trip_random_blocks() {
        let key = Key::Aes128([0xA5; 16]);
        let aes = Aes::new(&key);
        for seed in 0u8..32 {
            let mut block = [seed; 16];
            for (i, b) in block.iter_mut().enumerate() {
                *b = b.wrapping_mul(31).wrapping_add(i as u8);
            }
            let original = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, original);
            aes.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
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

    #[test]
    fn sbox_matches_known_entries() {
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(INV_SBOX[0x63], 0x00);
        for i in 0..256 {
            assert_eq!(INV_SBOX[SBOX[i] as usize] as usize, i);
        }
    }

    #[test]
    fn parallel_states_match_single_block() {
        let aes = Aes::new(&Key::Aes256([0x42; 32]));
        let mut states = [[0u32; 4]; 8];
        for (i, s) in states.iter_mut().enumerate() {
            *s = [i as u32, 0x1111 * i as u32, !(i as u32), 0xdead_beef ^ i as u32];
        }
        let expected: Vec<[u32; 4]> = states.iter().map(|&s| aes.encrypt_words(s)).collect();
        aes.encrypt_words_para(&mut states);
        assert_eq!(states.to_vec(), expected);
    }

    /// The CTR-specialized keystream (shared-nonce first round hoisted
    /// out) must equal plain block encryption of the counter states,
    /// including across an 8-bit counter-byte rollover.
    #[test]
    fn ctr_keystream_matches_generic_encryption() {
        for key in [Key::Aes128([0x37; 16]), Key::Aes256([0x59; 32])] {
            let aes = Aes::new(&key);
            let n = [0xdead_beef_u32, 0x0102_0304, 0xfded_cba9];
            for counter0 in [2u32, 250, 0xffff_fffe] {
                let states = aes.ctr_keystream_para::<8>(n, counter0);
                for (k, got) in states.iter().enumerate() {
                    let c = counter0.wrapping_add(k as u32);
                    let want = aes.encrypt_words([n[0], n[1], n[2], c]);
                    assert_eq!(*got, want, "counter {c:#x}");
                }
            }
        }
    }

    #[test]
    fn table_encrypt_matches_scalar_oracle() {
        for key in [Key::Aes128([0x5A; 16]), Key::Aes256([0xC3; 32])] {
            let fast = Aes::new(&key);
            let oracle = crate::scalar::ScalarAes::new(&key);
            let mut x: u64 = 0x243F_6A88_85A3_08D3;
            for _ in 0..64 {
                let mut block = [0u8; 16];
                for b in block.iter_mut() {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    *b = (x >> 56) as u8;
                }
                let mut fast_out = block;
                fast.encrypt_block(&mut fast_out);
                let mut oracle_out = block;
                oracle.encrypt_block(&mut oracle_out);
                assert_eq!(fast_out, oracle_out);
                let mut back = fast_out;
                fast.decrypt_block(&mut back);
                assert_eq!(back, block);
            }
        }
    }
}
