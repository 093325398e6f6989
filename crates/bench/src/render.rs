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
    let repo_total: usize = repo_loc.iter().map(|(_, lines)| lines).sum();
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
