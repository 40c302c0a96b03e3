//! The self-test of the acceptance criteria: `repro lint` on this
//! workspace is clean — zero un-waived violations, zero unused waivers —
//! and the waiver inventory is actually exercised.

use dmc_lint::lint_workspace;
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_lint_clean() {
    let report = lint_workspace(&workspace_root(), None).expect("lint pass runs");
    assert!(
        report.violations.is_empty(),
        "un-waived violations:\n{}",
        report.render_text()
    );
    assert!(
        report.unused_waivers.is_empty(),
        "stale waivers:\n{}",
        report.render_text()
    );
    assert_eq!(report.exit_code(), 0);
    // The pass actually covered the workspace and the waiver inventory is
    // live: every rule ran, dozens of files were scanned, and at least
    // one waiver per rule family is being honored somewhere.
    assert_eq!(report.rules_run, vec!["D1", "D2", "D3", "S1", "S2"]);
    // 79 files since the numerical-solver crate and the S-span module
    // were deleted (89 before); the floor trails the real count by 4 so
    // deleting a whole crate's worth of coverage fails loudly.
    assert!(report.files_scanned >= 75, "{} files", report.files_scanned);
    assert!(report.waivers_used >= 10, "{} waivers", report.waivers_used);
}

#[test]
fn rules_filter_subsets_are_clean_too() {
    for filter in ["d1", "d2,d3", "s1,s2"] {
        let report = lint_workspace(&workspace_root(), Some(filter)).expect("lint pass runs");
        assert_eq!(
            report.exit_code(),
            0,
            "--rules {filter}:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn json_report_of_the_workspace_is_stable() {
    let a = lint_workspace(&workspace_root(), None).expect("lint pass runs");
    let b = lint_workspace(&workspace_root(), None).expect("lint pass runs");
    assert_eq!(
        serde::json::to_string(&a),
        serde::json::to_string(&b),
        "report must be byte-identical across runs"
    );
    assert!(serde::json::to_string(&a).contains("\"clean\":true"));
}
