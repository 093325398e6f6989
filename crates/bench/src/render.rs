//! Plain-text rendering of the tables and figures for the `figures`
//! binary (and EXPERIMENTS.md regeneration).

use crate::figures::{AblationPoint, ComparisonPoint, KvStressPoint, OptAblationRow};
use std::fmt::Write as _;

/// Renders a comparison series the way the paper's bar charts read:
/// vanilla value, ccAI value, and the signed overhead percentage.
pub fn comparison_table(title: &str, metric: &str, points: &[ComparisonPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>12} {:>10}",
        "config",
        format!("vanilla {metric}"),
        format!("ccAI {metric}"),
        "overhead"
    );
    for p in points {
        let (vanilla, ccai, overhead) = match metric {
            "TPS" => (
                format!("{:.1}", p.vanilla.tps()),
                format!("{:.1}", p.ccai.tps()),
                -p.tps_loss(),
            ),
            "TTFT" => (
                format!("{:.3}s", p.vanilla.ttft.as_secs_f64()),
                format!("{:.3}s", p.ccai.ttft.as_secs_f64()),
                p.ttft_overhead(),
            ),
            _ => (
                format!("{:.2}s", p.vanilla.e2e.as_secs_f64()),
                format!("{:.2}s", p.ccai.e2e.as_secs_f64()),
                p.e2e_overhead(),
            ),
        };
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>12} {:>+9.2}%",
            p.label,
            vanilla,
            ccai,
            overhead * 100.0
        );
    }
    out
}

/// Renders a Fig. 11-style optimized-vs-unoptimized series.
pub fn ablation_table(title: &str, points: &[AblationPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>10}",
        "config", "ccAI E2E", "No-Opt E2E", "reduction"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<12} {:>11.2}s {:>11.2}s {:>9.2}%",
            p.label,
            p.ccai.e2e.as_secs_f64(),
            p.no_opt.e2e.as_secs_f64(),
            p.reduction() * 100.0
        );
    }
    out
}

/// Renders the Fig. 12b relative-performance series.
pub fn kv_table(points: &[KvStressPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Fig. 12b: KV-cache swapping (relative performance) ==");
    let _ = writeln!(
        out,
        "{:<12} {:>16} {:>16} {:>12}",
        "util", "vanilla w.t. KV", "ccAI w.t. KV", "ccAI adds"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<12} {:>15.1}% {:>15.1}% {:>+11.2}%",
            p.label,
            p.vanilla_relative() * 100.0,
            p.ccai_relative() * 100.0,
            p.ccai_added() * 100.0
        );
    }
    out
}

/// Renders the §5 single-switch ablation.
pub fn opt_ablation_table(rows: &[OptAblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== §5 optimization ablation (Llama-2-7b, 512 tok, batch 1) ==");
    let _ = writeln!(out, "{:<24} {:>12}", "configuration", "E2E");
    for r in rows {
        let _ = writeln!(out, "{:<24} {:>11.2}s", r.label, r.metrics.e2e.as_secs_f64());
    }
    out
}

/// Renders Table 1 (the packet access categorization).
pub fn table1() -> String {
    use ccai_core::filter::SecurityAction::*;
    let mut out = String::new();
    let _ = writeln!(out, "== Table 1: PCIe packet access control categorization ==");
    let _ = writeln!(out, "{:<24} {:<6} Meaning", "Packet Access Permission", "Action");
    for action in [Disallow, CryptProtect, WriteProtect, PassThrough] {
        let meaning = match action {
            Disallow => "Disallow",
            CryptProtect => "Integrity Check (Crypt.) + En/Decryption",
            WriteProtect => "Integrity Check (Plain) + Security Verify",
            PassThrough => "Transparent Transmission",
        };
        let _ = writeln!(out, "{:<24} {:<6} {}", action.permission_name(), action.label(), meaning);
    }
    out
}

/// Renders Table 2 (the compatibility matrix).
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table 2: compatibility comparison ==");
    let _ = writeln!(
        out,
        "{:<18} {:<18} {:<16} {:<10} {:<10} {:<22} {:<22} Host PL-SW",
        "Type", "System", "App changes", "xPU SW", "xPU HW", "Supported xPU", "TEE/TVM"
    );
    for row in ccai_core::compat::table2() {
        let _ = writeln!(
            out,
            "{:<18} {:<18} {:<16} {:<10} {:<10} {:<22} {:<22} {}",
            row.design_type,
            row.system,
            row.app_changes.to_string(),
            row.xpu_sw_changes.to_string(),
            row.xpu_hw_changes.to_string(),
            row.supported_xpu,
            row.supported_tee,
            row.host_pl_sw_changes
        );
    }
    out
}

/// Renders Table 3 (the TCB breakdown): the paper's reported numbers, and
/// this reproduction's line count per component (`repo_loc`, as
/// [`crate::tcb::row_lines`] returns it) in the last column.
pub fn table3(repo_loc: &[(&str, usize)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table 3: TCB addition (paper-reported) ==");
    let _ = writeln!(
        out,
        "{:<10} {:<18} {:>8} {:>10} {:>10} {:>8} {:>9}",
        "Side", "Component", "LoC", "ALUTs", "Regs", "BRAMs", "repo LoC"
    );
    let fmt_opt = |v: Option<u32>| v.map_or("-".to_string(), |x| x.to_string());
    for row in ccai_core::compat::table3() {
        let repo = repo_loc.iter().find(|(name, _)| *name == row.component);
        let _ = writeln!(
            out,
            "{:<10} {:<18} {:>8} {:>10} {:>10} {:>8} {:>9}",
            row.side,
            row.component,
            fmt_opt(row.loc),
            fmt_opt(row.aluts),
            fmt_opt(row.regs),
            fmt_opt(row.brams),
            repo.map_or("-".to_string(), |(_, lines)| lines.to_string())
        );
    }
    let (loc, aluts, regs, brams) = ccai_core::compat::table3_totals();
    let repo_total = match repo_loc {
        [] => "-".to_string(),
        rows => rows.iter().map(|(_, lines)| lines).sum::<usize>().to_string(),
    };
    let _ = writeln!(
        out,
        "{:<10} {:<18} {:>8} {:>10} {:>10} {:>8} {:>9}",
        "Total", "", loc, aluts, regs, brams, repo_total
    );
    let _ = writeln!(
        out,
        "(repo LoC: this reproduction's non-blank Rust lines before each file's tests)"
    );
    out
}

/// Every table and figure of the evaluation as one text report, or just
/// the artifact named by `only` (`table1`…`table3`, `fig6`…`fig12b`,
/// `ablations`; case-insensitive). `repo_loc` fills Table 3's repo-LoC
/// column (see [`crate::tcb::row_lines`]); with `&[]` it shows `-`.
pub fn all_figures(only: Option<&str>, repo_loc: &[(&str, usize)]) -> String {
    use crate::figures as f;
    let want = |name: &str| only.is_none_or(|o| o.eq_ignore_ascii_case(name));
    let mut out = String::new();
    let mut emit = |text: String| {
        let _ = writeln!(out, "{text}");
    };
    if want("table1") {
        emit(table1());
    }
    if want("table2") {
        emit(table2());
    }
    if want("table3") {
        emit(table3(repo_loc));
    }
    if want("fig6") {
        emit(fig6());
    }
    if want("fig8") {
        let (fix_batch, fix_token) = (f::fig8_fix_batch(), f::fig8_fix_token());
        emit(comparison_table("Fig. 8a: fix-batch E2E latency", "E2E", &fix_batch));
        emit(comparison_table("Fig. 8b: fix-token E2E latency", "E2E", &fix_token));
        emit(comparison_table("Fig. 8c: fix-batch TPS", "TPS", &fix_batch));
        emit(comparison_table("Fig. 8d: fix-token TPS", "TPS", &fix_token));
        emit(comparison_table("Fig. 8e: fix-batch TTFT", "TTFT", &fix_batch));
        emit(comparison_table("Fig. 8f: fix-token TTFT", "TTFT", &fix_token));
    }
    if want("fig9") {
        emit(comparison_table("Fig. 9: different LLMs (512 tok, batch 1, A100)", "E2E", &f::fig9()));
    }
    if want("fig10") {
        emit(comparison_table("Fig. 10: five xPU devices (512 tok, batch 1)", "E2E", &f::fig10()));
    }
    if want("fig11") {
        emit(ablation_table("Fig. 11 (left): optimization, token sweep", &f::fig11_fix_batch()));
        emit(ablation_table("Fig. 11 (right): optimization, batch sweep", &f::fig11_fix_token()));
    }
    if want("fig12a") {
        emit(comparison_table("Fig. 12a: limited PCIe bandwidth", "E2E", &f::fig12a()));
    }
    if want("fig12b") {
        emit(kv_table(&f::fig12b()));
    }
    if want("ablations") {
        emit(opt_ablation_table(&f::ablation_optimizations()));
        let (selective, full_link) = f::ablation_granularity();
        emit(format!(
            "== Packet-level vs full-link protection ==\n\
             selective (ccAI): {:+.2}% E2E overhead\n\
             full-link       : {:+.2}% E2E overhead\n",
            selective * 100.0,
            full_link * 100.0
        ));
    }
    out
}

/// Fig. 6: one run of the remote attestation protocol, step by step.
fn fig6() -> String {
    use ccai_crypto::SchnorrKeyPair;
    use ccai_trust::attest::{run_protocol, Platform, Verifier};
    use ccai_trust::hrot::KeyCertificate;
    use ccai_trust::pcr::PcrIndex;
    use ccai_trust::HrotBlade;
    use std::collections::HashMap;

    let mut out = String::new();
    let _ = writeln!(out, "== Fig. 6: remote attestation protocol ==");
    let vendor_ca = SchnorrKeyPair::generate(&[0xCA; 32]);
    let mut blade = HrotBlade::manufacture(&[0x01; 32]);
    blade.install_ek_certificate(KeyCertificate::issue(&vendor_ca, "EK", blade.ek_public()));
    blade.boot_generate_ak(&[0x02; 32]);
    blade
        .pcrs_mut()
        .extend_assigned(PcrIndex::ScBitstream, b"packet-filter bitstream v1");
    let golden: HashMap<usize, _> = [(
        PcrIndex::ScBitstream.index(),
        blade.pcrs().read_assigned(PcrIndex::ScBitstream),
    )]
    .into_iter()
    .collect();
    let mut platform = Platform::new(blade, &[0x03; 32]);
    let mut verifier = Verifier::new(vendor_ca.public().clone(), &[0x04; 32], golden);
    let _ = writeln!(out, "(1) SessionKey = DHKE(AttestKey)            ... exchanged");
    let _ = writeln!(out, "(2) S(AttestKey), S(EndorseKey)             ... certificate chain sent");
    let _ = writeln!(out, "(3) KeyID, PCRsel, n                        ... challenge issued");
    let verdict = match run_protocol(&mut verifier, &mut platform, &[1], [0xAA; 32]) {
        Ok(()) => "report VERIFIED".to_string(),
        Err(e) => format!("REJECTED: {e}"),
    };
    let _ = writeln!(out, "(4) r, S(r)                                 ... {verdict}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;

    #[test]
    fn tables_render_nonempty() {
        assert!(table1().contains("Write-Read Protected"));
        assert!(table2().contains("ccAI"));
        let table = table3(&[("Packet Filter", 12345)]);
        assert!(table.contains("Packet Filter"));
        assert!(table.contains("12345"));
    }

    #[test]
    fn comparison_table_renders_overheads() {
        let points = figures::fig12a();
        let text = comparison_table("Fig. 12a", "E2E", &points);
        assert!(text.contains("16GT/s*16lanes"));
        assert!(text.contains('%'));
    }

    #[test]
    fn kv_table_renders() {
        let text = kv_table(&figures::fig12b());
        assert!(text.contains("80%-util"));
        assert!(text.contains("ccAI adds"));
    }
}
