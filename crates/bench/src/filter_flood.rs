//! One fleet-scale TLP filter and one mixed 1024-TLP flood: the input
//! `bench_crypto` times the precompiled matcher against the linear-scan
//! oracle on, and `tests/filter_compiled.rs` checks both paths agree on.

use ccai_core::filter::{L1Rule, L2Rule, PacketFilter, SecurityAction};
use ccai_pcie::{Bdf, Tlp, TlpType};

/// Number of headers in the small-TLP flood.
const FLOOD_LEN: usize = 1024;
/// Requesters in the synthetic fleet-scale rule table.
const FLEET: usize = 8;
/// Address ranges per requester in the L2 table.
const RANGES_PER_REQUESTER: usize = 12;

fn requester(j: usize) -> Bdf {
    Bdf::new(j as u8 + 1, 0, 0)
}

/// A fleet-scale policy: `FLEET` TVM requesters, each admitted for
/// memory reads and writes at L1, each with `RANGES_PER_REQUESTER`
/// disjoint L2 address stripes cycling through the three permissive
/// actions. The linear scan walks up to `FLEET * RANGES_PER_REQUESTER`
/// L2 rows per packet; the compiled tree probes one (type, requester)
/// bucket.
pub fn fleet_filter() -> PacketFilter {
    let mut filter = PacketFilter::new();
    for j in 0..FLEET {
        filter.push_l1(L1Rule::admit(TlpType::MemWrite, requester(j)));
        filter.push_l1(L1Rule::admit(TlpType::MemRead, requester(j)));
    }
    filter.push_l1(L1Rule::default_deny());
    let actions = [
        SecurityAction::CryptProtect,
        SecurityAction::WriteProtect,
        SecurityAction::PassThrough,
    ];
    for j in 0..FLEET {
        for k in 0..RANGES_PER_REQUESTER {
            let base = ((j * RANGES_PER_REQUESTER + k) as u64) * 0x1000;
            filter.push_l2(L2Rule::for_range(
                TlpType::MemWrite,
                requester(j),
                base..base + 0x1000,
                actions[k % actions.len()],
            ));
        }
    }
    filter
}

/// A deterministic flood of `FLOOD_LEN` TLPs mixing in-range writes,
/// out-of-range writes (L2 miss), reads (scan the whole L2 table before
/// missing), and a rogue requester (caught by the default-deny row).
pub fn flood() -> Vec<Tlp> {
    let rogue = Bdf::new(0x3F, 0, 0);
    (0..FLOOD_LEN)
        .map(|i| {
            let req = requester(i % FLEET);
            let stripe = ((i % FLEET) * RANGES_PER_REQUESTER + (i / FLEET) % RANGES_PER_REQUESTER)
                as u64
                * 0x1000;
            match i % 4 {
                0 => Tlp::memory_write(req, stripe + (i as u64 % 0x1000), vec![0x5C; 16]),
                1 => Tlp::memory_write(req, 0x00DE_0000 + i as u64, vec![0x5C; 16]),
                2 => Tlp::memory_read(req, stripe, 64, (i % 256) as u8),
                _ => Tlp::memory_write(rogue, stripe, vec![0x5C; 16]),
            }
        })
        .collect()
}
