//! This reproduction's trusted computing base, counted per Table 3 row
//! the way the paper counts its TVM side: in source lines.
//!
//! Each row's files are embedded with `include_str!`, so the count is of
//! the source the binary was built from, whatever the working directory.
//! The SC-side rows are lines too: there is no FPGA, so no ALUTs.

/// The files behind each Table 3 row this reproduction implements.
const ROWS: [(&str, &[&str]); 5] = [
    ("Adaptor", &[include_str!("../../core/src/adaptor.rs")]),
    (
        "Trust Modules",
        &[
            include_str!("../../trust/src/keymgmt.rs"),
            include_str!("../../trust/src/attest.rs"),
        ],
    ),
    (
        "Packet Filter",
        &[
            include_str!("../../core/src/filter/mod.rs"),
            include_str!("../../core/src/filter/action.rs"),
            include_str!("../../core/src/filter/compiled.rs"),
            include_str!("../../core/src/filter/config.rs"),
            include_str!("../../core/src/filter/rule.rs"),
            include_str!("../../core/src/filter/tables.rs"),
        ],
    ),
    (
        "Packet Handlers",
        &[
            include_str!("../../core/src/sc.rs"),
            include_str!("../../core/src/handler/mod.rs"),
            include_str!("../../core/src/handler/engine.rs"),
            include_str!("../../core/src/handler/env_guard.rs"),
            include_str!("../../core/src/handler/params.rs"),
            include_str!("../../core/src/handler/tags.rs"),
        ],
    ),
    (
        "HRoT-Blade",
        &[
            include_str!("../../trust/src/hrot.rs"),
            include_str!("../../trust/src/pcr.rs"),
            include_str!("../../trust/src/sealing.rs"),
            include_str!("../../trust/src/secure_boot.rs"),
            include_str!("../../trust/src/bringup.rs"),
        ],
    ),
];

/// Non-blank lines before a file's first `#[cfg(test)]`.
pub fn code_lines(source: &str) -> usize {
    source
        .lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
        .filter(|line| !line.trim().is_empty())
        .count()
}

/// `(component, lines)` for every Table 3 row this reproduction
/// implements, in the paper's row order.
pub fn row_lines() -> Vec<(&'static str, usize)> {
    ROWS.iter()
        .map(|(component, files)| (*component, files.iter().map(|f| code_lines(f)).sum()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_lines_stop_at_the_test_module() {
        assert_eq!(code_lines("a\n\n  b\n#[cfg(test)]\nc\n"), 2);
        assert_eq!(code_lines(""), 0);
    }

    /// `code_lines` stops at a file's first `#[cfg(test)]`, so in every row
    /// file that line must be the column-0 attribute of the test module:
    /// an item-level `#[cfg(test)]` above it would cut the count short.
    #[test]
    fn row_files_count_up_to_their_test_module() {
        for (component, files) in ROWS {
            for (i, source) in files.iter().enumerate() {
                let lines: Vec<&str> = source.lines().collect();
                if let Some(at) = lines.iter().position(|l| l.contains("#[cfg(test)]")) {
                    assert_eq!(
                        lines[at..at + 2],
                        ["#[cfg(test)]", "mod tests {"],
                        "{component} file {i}: line {} is not the test module",
                        at + 1
                    );
                }
            }
        }
    }

    /// The TCB may shrink but not grow unnoticed: raising a ceiling is a
    /// reviewed decision, not a side effect.
    #[test]
    fn tcb_rows_stay_under_their_ceilings() {
        let ceilings = [
            ("Adaptor", 976),
            ("Trust Modules", 656),
            ("Packet Filter", 970),
            ("Packet Handlers", 2_033),
            ("HRoT-Blade", 1_016),
        ];
        let rows = row_lines();
        assert_eq!(rows.len(), ceilings.len());
        for ((component, lines), (name, ceiling)) in rows.into_iter().zip(ceilings) {
            assert_eq!(component, name);
            assert!(lines <= ceiling, "{component}: {lines} lines > {ceiling}");
        }
    }
}
