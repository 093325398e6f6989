//! Constant-time comparison and table-lookup helpers.
//!
//! Tag and key comparisons must not leak timing information, and neither
//! may the choice of a secret-indexed table entry. These helpers
//! accumulate a difference mask over the full length rather than returning
//! early, and read every entry of a table rather than the one wanted.

/// Constant-time equality over byte slices.
///
/// Slices of different length compare unequal (the length check itself is
/// not secret). For equal lengths the comparison touches every byte.
///
/// # Example
///
/// ```
/// assert!(ccai_crypto::ct::ct_eq(b"tag", b"tag"));
/// assert!(!ccai_crypto::ct::ct_eq(b"tag", b"tab"));
/// assert!(!ccai_crypto::ct::ct_eq(b"tag", b"tagg"));
/// ```
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Constant-time table lookup: copies entry `index` of `table`, whose
/// entries are `out.len()` words each, into `out`. Every entry is read
/// and masked in, so which one was wanted does not show in the memory
/// access pattern or in a branch.
///
/// # Example
///
/// ```
/// let table = [1u64, 2, 3, 4, 5, 6];
/// let mut out = [0u64; 2];
/// ccai_crypto::ct::ct_lookup(&table, 1, &mut out);
/// assert_eq!(out, [3, 4]);
/// ```
pub fn ct_lookup(table: &[u64], index: usize, out: &mut [u64]) {
    out.fill(0);
    for (i, entry) in table.chunks_exact(out.len()).enumerate() {
        // All ones when `i == index`: only then does `diff - 1` borrow.
        let diff = (i ^ index) as u64;
        let mask = 0u64.wrapping_sub((!diff & diff.wrapping_sub(1)) >> 63);
        for (o, &e) in out.iter_mut().zip(entry) {
            *o |= e & mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_basic() {
        assert!(ct_eq(&[], &[]));
        assert!(ct_eq(&[1, 2, 3], &[1, 2, 3]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2, 4]));
        assert!(!ct_eq(&[1, 2], &[1, 2, 3]));
    }

    #[test]
    fn eq_detects_single_bit_flip_anywhere() {
        let a = vec![0xAAu8; 64];
        for i in 0..64 {
            for bit in 0..8 {
                let mut b = a.clone();
                b[i] ^= 1 << bit;
                assert!(!ct_eq(&a, &b));
            }
        }
    }

    #[test]
    fn lookup_reads_each_entry() {
        let table: Vec<u64> = (0..48).collect();
        for index in 0..16 {
            let mut out = [u64::MAX; 3];
            ct_lookup(&table, index, &mut out);
            let i = index as u64 * 3;
            assert_eq!(out, [i, i + 1, i + 2]);
        }
        let mut out = [7u64; 3];
        ct_lookup(&table, 16, &mut out);
        assert_eq!(out, [0; 3], "an index past the table selects nothing");
    }
}
