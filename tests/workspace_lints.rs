//! Every manifest opts in to the workspace lint table.
//!
//! The workspace's static rules (`unsafe_code`, and the clippy lints
//! DESIGN.md section 9.1 lists) live in the root manifest's
//! `[workspace.lints]`. A member only gets them by declaring
//! `[lints] workspace = true`, and that opt-in is the one invariant the
//! compiler cannot check for itself.

use std::fs;
use std::path::{Path, PathBuf};

/// The root manifest and every `crates/*` and `shims/*` member.
fn manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = vec![root.join("Cargo.toml")];
    for dir in ["crates", "shims"] {
        let entries = fs::read_dir(root.join(dir)).expect("member directory is readable");
        for entry in entries {
            let manifest = entry.expect("directory entry").path().join("Cargo.toml");
            if manifest.is_file() {
                found.push(manifest);
            }
        }
    }
    found
}

/// Whether `text` has a `[lints]` table whose body sets
/// `workspace = true`.
fn opts_in(text: &str) -> bool {
    let mut in_lints = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

#[test]
fn every_manifest_inherits_the_workspace_lints() {
    // The reader must be able to say no, or the check below is vacuous.
    assert!(opts_in("[package]\n\n[lints]\nworkspace = true\n"));
    assert!(!opts_in("[lints]\n\n[features]\nworkspace = true\n"));

    let manifests = manifests();
    assert!(manifests.len() > 10, "found only {manifests:?}");
    let missing: Vec<_> = manifests
        .iter()
        .filter(|path| !opts_in(&fs::read_to_string(path).expect("manifest is readable")))
        .collect();
    assert!(
        missing.is_empty(),
        "add `[lints]\\nworkspace = true` to: {missing:?}"
    );
}
