//! Committed golden digests: the sim contract, checked in tier-1.
//!
//! A suite renders one line per scenario — its name, telemetry trace
//! digest, sim elapsed picoseconds and, where the scenario snapshots, the
//! SHA-256 of the snapshot image — and [`check`] compares the dump with
//! `tests/golden/<suite>.txt`. A sim-visible change therefore fails the
//! suite and names every scenario it moved; a sim-invisible one leaves
//! the files byte-identical. The `figures` suite pins a plain-text report
//! the same way, one golden line per report line.
//!
//! `CCAI_BLESS=1 cargo test -q --test <suite>` rewrites the file instead
//! of comparing, for a change that means to move the digests (the diff
//! of the file then shows which scenarios moved).
//!
//! When `CCAI_TRACE_DIGEST_OUT` names a file, the dump is also written
//! there (with `out_suffix` appended), so CI can diff two runs of one
//! commit: that catches nondeterminism a bless would hide.

use std::collections::BTreeSet;
use std::path::PathBuf;

/// One scenario's golden line.
pub fn line(name: &str, digest: &str, elapsed_ps: u64, image: Option<&str>) -> String {
    match image {
        Some(image) => format!("{name} digest={digest} elapsed_ps={elapsed_ps} image={image}\n"),
        None => format!("{name} digest={digest} elapsed_ps={elapsed_ps}\n"),
    }
}

fn path(suite: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{suite}.txt"))
}

/// Compares `dump` with `tests/golden/<suite>.txt` (or rewrites the file
/// under `CCAI_BLESS=1`), after writing it to `$CCAI_TRACE_DIGEST_OUT`
/// + `out_suffix` when that variable is set.
///
/// # Panics
///
/// Panics naming every scenario whose line differs from, is missing
/// from, or is not in the golden file.
pub fn check(suite: &str, out_suffix: &str, dump: &str) {
    if let Ok(out) = std::env::var("CCAI_TRACE_DIGEST_OUT") {
        std::fs::write(format!("{out}{out_suffix}"), dump).expect("write digest dump");
    }
    let path = path(suite);
    if std::env::var("CCAI_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, dump).expect("bless golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{}: {e} (create it with CCAI_BLESS=1)", path.display())
    });
    if golden == dump {
        return;
    }
    let lines = |text: &str| text.lines().map(str::to_owned).collect::<BTreeSet<_>>();
    let (want, got) = (lines(&golden), lines(dump));
    let moved: BTreeSet<&str> = want
        .symmetric_difference(&got)
        .map(|l| l.split(' ').next().unwrap_or(""))
        .collect();
    panic!(
        "{suite}: golden lines moved for {moved:?}\n--- {}\n{golden}+++ this run\n{dump}\
         (re-bless with CCAI_BLESS=1 only if the move is intended)",
        path.display()
    );
}
