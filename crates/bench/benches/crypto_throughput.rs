//! AES-GCM datapath throughput (§5, §7.2).
//!
//! Measures every `AesGcm` backend this CPU can run — what `AesGcm::new`
//! selects and, where that is hardware, the portable reference beside
//! it; groups are named by `backend()` — at the three sizes that matter
//! to the simulated PCIe-SC: one 4 KiB chunk, a 64 KiB descriptor, and a
//! 1 MiB transfer.
//! `cargo bench -p ccai-bench --bench crypto_throughput`.

use ccai_crypto::{AesGcm, Key};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const SIZES: [(&str, usize); 3] =
    [("4KiB", 4 * 1024), ("64KiB", 64 * 1024), ("1MiB", 1024 * 1024)];

fn patterned(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 % 251) as u8).collect()
}

/// `AesGcm::new`, plus `AesGcm::portable` where that is a different backend.
fn constructors() -> Vec<fn(&Key) -> AesGcm> {
    let key = Key::Aes128([0; 16]);
    ccai_bench::distinct_backends(AesGcm::new, AesGcm::portable, |make| make(&key).backend())
}

fn bench_seal(c: &mut Criterion) {
    let key = Key::Aes128([0x42; 16]);
    for cipher in constructors().iter().map(|make| make(&key)) {
        let mut group = c.benchmark_group(&format!("seal_{}", cipher.backend()));
        for (label, len) in SIZES {
            let plaintext = patterned(len);
            group.throughput(Throughput::Bytes(len as u64));
            group.bench_function(label, |b| {
                let mut buf = plaintext.clone();
                b.iter(|| {
                    buf.copy_from_slice(&plaintext);
                    std::hint::black_box(cipher.seal_in_place_detached(&[7; 12], &mut buf, b"aad"))
                })
            });
        }
        group.finish();
    }
}

fn bench_open(c: &mut Criterion) {
    let key = Key::Aes128([0x42; 16]);
    for cipher in constructors().iter().map(|make| make(&key)) {
        let mut group = c.benchmark_group(&format!("open_{}", cipher.backend()));
        for (label, len) in SIZES {
            let mut sealed = patterned(len);
            let tag = cipher.seal_in_place_detached(&[7; 12], &mut sealed, b"aad");
            group.throughput(Throughput::Bytes(len as u64));
            group.bench_function(label, |b| {
                let mut buf = sealed.clone();
                b.iter(|| {
                    buf.copy_from_slice(&sealed);
                    cipher
                        .open_in_place_detached(&[7; 12], &mut buf, &tag, b"aad")
                        .expect("tag verifies");
                    std::hint::black_box(buf[0])
                })
            });
        }
        group.finish();
    }
}

fn bench_key_setup(c: &mut Criterion) {
    // Per-key cost — the AES schedule and `H`, plus `H²..H⁸` on the
    // hardware path — paid once per stream by `WorkloadKeyManager`.
    let key = Key::Aes256([0x24; 32]);
    for make in constructors() {
        c.bench_function(
            &format!("aes_gcm_key_setup_{}", make(&key).backend()),
            |b| b.iter(|| std::hint::black_box(make(&key))),
        );
    }
}

criterion_group!(benches, bench_seal, bench_open, bench_key_setup);
criterion_main!(benches);
