//! FIPS-180-4 SHA-256.
//!
//! [`Sha256::new`] picks the compress function once from the CPU:
//! `crate::hw`'s SHA-NI rounds where x86-64 reports them, the portable
//! word loop below everywhere else (and as the reference the SHA-NI path
//! is tested against). Either way whole runs of 64-byte blocks are
//! compressed straight from the caller's slice.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Hex-encodes the digest.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use ccai_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
    compress: Compress,
}

/// Which compress function a hasher runs; a function of the CPU alone.
#[derive(Debug, Clone, Copy)]
enum Compress {
    #[cfg(target_arch = "x86_64")]
    ShaNi(crate::hw::ShaNi),
    Portable,
}

impl Compress {
    /// Compresses `blocks` (a whole number of 64-byte blocks) into `state`.
    #[inline]
    fn run(self, state: &mut [u32; 8], blocks: &[u8]) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Compress::ShaNi(hw) => hw.compress(state, blocks),
            Compress::Portable => blocks
                .chunks_exact(64)
                .for_each(|b| compress_block(state, b)),
        }
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = crate::hw::ShaNi::detect() {
            return Self::with(Compress::ShaNi(hw));
        }
        Self::with(Compress::Portable)
    }

    /// A hasher pinned to the portable compress whatever the CPU offers:
    /// the differential reference [`Sha256::new`] is tested against.
    pub fn portable() -> Self {
        Self::with(Compress::Portable)
    }

    fn with(compress: Compress) -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
            compress,
        }
    }

    /// Name of the compress function this hasher runs: `"sha-ni"` or
    /// `"portable"`.
    pub fn backend(&self) -> &'static str {
        match self.compress {
            #[cfg(target_arch = "x86_64")]
            Compress::ShaNi(_) => "sha-ni",
            Compress::Portable => "portable",
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take]
                .copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            self.compress.run(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        let (blocks, rest) = data.split_at(data.len() - data.len() % 64);
        self.compress.run(&mut self.state, blocks);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding in place: 0x80, zeros to 56 mod 64, the 64-bit length —
        // in a second block when the buffered bytes leave no room for it.
        let n = self.buffer_len;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n >= 56 {
            self.compress.run(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        self.compress.run(&mut self.state, &self.buffer);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// The FIPS-180-4 compression function over one 64-byte block.
fn compress_block(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let oneshot = sha256(&data);
        for chunk_size in [1usize, 3, 7, 63, 64, 65, 127, 500] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding at block boundaries: 55, 56, 63, 64, 65 bytes.
        for len in [55usize, 56, 63, 64, 65] {
            let data = vec![0x61u8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn digest_display_and_debug() {
        let d = sha256(b"abc");
        assert!(format!("{d}").starts_with("ba7816bf"));
        assert!(format!("{d:?}").contains("ba7816bf"));
    }

    /// Whatever [`Sha256::new`] selects on this CPU, and the pinned
    /// portable compress; logs the pair so a run shows what was compared.
    fn backends() -> [Sha256; 2] {
        let pair = [Sha256::new(), Sha256::portable()];
        eprintln!(
            "sha256 backends under test: {} and {}",
            pair[0].backend(),
            pair[1].backend()
        );
        pair
    }

    /// SHA-NI exactly where the CPU reports what `hw` compiles with, so
    /// on such a CPU the tests below never compare portable with itself.
    #[test]
    fn backend_follows_the_cpu() {
        #[cfg(target_arch = "x86_64")]
        let hw = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let hw = false;
        let [chosen, portable] = backends();
        assert_eq!(chosen.backend(), if hw { "sha-ni" } else { "portable" });
        assert_eq!(portable.backend(), "portable");
    }

    /// FIPS-180-4 "abc", the 448-bit message and 10⁶ × 'a' through both.
    #[test]
    fn backends_agree_on_fips_vectors() {
        let million = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 3] = [
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        let fresh = backends();
        for (message, digest) in vectors {
            for mut h in fresh.clone() {
                let which = h.backend();
                h.update(message);
                assert_eq!(
                    h.finalize().to_hex(),
                    digest,
                    "{which}, {} bytes",
                    message.len()
                );
            }
        }
    }

    /// Both padding shapes at their edges — the length in the same block
    /// (55), in a block of its own (56, 63), after a whole block (64) and
    /// after one block and a 55-byte tail (119) — through both backends.
    #[test]
    fn backends_agree_on_finalize_padding_edges() {
        let fresh = backends();
        for len in [55usize, 56, 63, 64, 119] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let [mut chosen, mut portable] = fresh.clone();
            chosen.update(&data);
            portable.update(&data);
            assert_eq!(chosen.finalize(), portable.finalize(), "len {len}");
        }
    }

    /// Random lengths fed in random pieces: buffered head, multi-block
    /// run, buffered tail and both padding shapes, through both.
    #[test]
    fn backends_agree_on_random_length_random_split_streams() {
        let mut x: u64 = 0x8EBC_6AF0_9C88_C6E3;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let fresh = backends();
        for _ in 0..200 {
            let data: Vec<u8> = (0..next() % 1500).map(|_| next() as u8).collect();
            let [mut chosen, mut portable] = fresh.clone();
            let mut rest = &data[..];
            while !rest.is_empty() {
                let (piece, tail) = rest.split_at((next() % 200) as usize % rest.len() + 1);
                chosen.update(piece);
                portable.update(piece);
                rest = tail;
            }
            let digest = portable.finalize();
            assert_eq!(chosen.finalize(), digest, "len {}", data.len());
            assert_eq!(sha256(&data), digest, "one-shot, len {}", data.len());
        }
    }
}
