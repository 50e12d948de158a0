//! The workspace lint pass.
//!
//! Six repo-specific invariants, enforced as token scans over
//! [`crate::lexer::scrub`]bed source (comments, strings, and
//! `#[cfg(test)]` items excluded), with `file:line` diagnostics and
//! the `check/allow.toml` waiver mechanism:
//!
//! * `no-panic` — hot-path crates (`wire`, `rib`, `fib`, `telemetry`)
//!   and the daemon's session FSM must not call `unwrap()`/`expect()`
//!   or invoke panicking macros: a malformed UPDATE must surface as a
//!   typed `WireError`, a telemetry record must never abort a measured
//!   run, and an unexpected FSM event must drop the session, not the
//!   process.
//! * `no-instant` — `Instant::now()` belongs to `telemetry` (the
//!   dual-clock tracer); anywhere else it is an unattributed clock
//!   read the paper's methodology cannot account for.
//! * `no-std-hashmap` — `rib` hot paths hash `Prefix` keys millions
//!   of times per run; `std::collections::HashMap`'s SipHash costs
//!   ~2× `fxhash` there, so the crate-local `FxHashMap` is mandatory.
//! * `forbid-unsafe` — every crate root carries
//!   `#![forbid(unsafe_code)]`.
//! * `metric-once` — every `MetricId` variant is registered exactly
//!   once in the `MetricId::ALL` catalog (a variant missing from the
//!   catalog silently drops its slot from every snapshot).
//! * `trace-once` — the same exactly-once invariant over the
//!   flight-recorder's `TraceEventId` catalog (an uncatalogued event
//!   would export with no name and break schema validation). The
//!   recorder's hot path is covered by `no-panic` already: the whole
//!   `telemetry` crate is a hot-path crate.
//! * `unused-waiver` — every `check/allow.toml` entry must still
//!   cover at least one raw finding; a waiver nothing matches is
//!   stale documentation that would silently mask the next real
//!   violation at that path.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::allow::Allowlist;
use crate::lexer::{cfg_test_mask, scrub};

/// Crates whose `src/` is a hot path for the `no-panic` rule.
const HOT_PATH_CRATES: [&str; 4] = ["wire", "rib", "fib", "telemetry"];

/// Individual files under the `no-panic` rule in crates that are not
/// hot paths as a whole. The session FSM runs once per peer per simnet
/// tick and inside the live daemon's reader threads; an `unwrap()`
/// there turns a malformed peer message into a process abort. The
/// policy-profile builders run inside measured scenario setup, where a
/// panic aborts a whole grid cell instead of surfacing as a result.
/// The metrics HTTP endpoint serves requests while a measurement is
/// live; a panic in its handler kills the serving thread mid-run.
/// The daemon's core and session loop run under the one core lock,
/// every message of every peer; a panic there poisons the lock for all.
const HOT_PATH_FILES: [&str; 5] = [
    "crates/daemon/src/fsm.rs",
    "crates/core/src/policy.rs",
    "crates/daemon/src/http.rs",
    "crates/daemon/src/core.rs",
    "crates/daemon/src/session.rs",
];

/// Crates allowed to read the host clock.
const CLOCK_CRATES: [&str; 1] = ["telemetry"];

/// One unwaived lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (e.g. `no-panic`).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.path, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.path, self.line, self.rule, self.message
            )
        }
    }
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings not covered by the allowlist, in path/line order.
    pub violations: Vec<Violation>,
    /// Findings waived by `check/allow.toml`, as full records (the
    /// `--json` output reports them with `"allowlisted": true`).
    pub waived_findings: Vec<Violation>,
    /// Findings waived by `check/allow.toml`.
    pub waived: usize,
    /// Source files scanned.
    pub files_scanned: usize,
    /// Indices into the allowlist's entries that waived at least one
    /// finding; the complement feeds the `unused-waiver` rule.
    pub matched_waivers: BTreeSet<usize>,
}

impl LintReport {
    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs every rule over the workspace rooted at `root`.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading sources.
pub fn run(root: &Path, allowlist: &Allowlist) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut files = Vec::new();
    for top in ["crates", "shims", "src"] {
        collect_rust_sources(&root.join(top), &mut files)?;
    }
    files.sort();

    for file in &files {
        let rel = relative(root, file);
        let source = fs::read_to_string(file)?;
        report.files_scanned += 1;
        scan_file(&rel, &source, allowlist, &mut report);
    }

    check_crate_roots(root, &files, allowlist, &mut report);
    check_id_catalog(
        root,
        &mut report,
        "metric-once",
        "crates/telemetry/src/metrics.rs",
        "MetricId",
    )?;
    check_id_catalog(
        root,
        &mut report,
        "trace-once",
        "crates/telemetry/src/trace/mod.rs",
        "TraceEventId",
    )?;

    append_unused_waiver_findings(&mut report, allowlist);

    report
        .violations
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    report
        .waived_findings
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

/// Recursively collects `.rs` files, skipping build output.
fn collect_rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rust_sources(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Whether `rel` (repo-relative, forward slashes) is library source of
/// one of `crates`' `src/` trees (integration `tests/` excluded).
fn in_crate_src(rel: &str, crates: &[&str]) -> bool {
    crates
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// Whether `rel` is any scanned library source (crate `src/`, shim
/// `src/`, or the facade), as opposed to integration tests.
fn is_library_source(rel: &str) -> bool {
    (rel.starts_with("crates/") || rel.starts_with("shims/") || rel.starts_with("src/"))
        && !rel.contains("/tests/")
}

fn push_finding(
    report: &mut LintReport,
    allowlist: &Allowlist,
    rule: &'static str,
    path: &str,
    line: usize,
    line_text: &str,
    message: String,
) {
    if let Some(index) = allowlist.waiver_index(rule, path, line_text) {
        report.waived += 1;
        report.matched_waivers.insert(index);
        report.waived_findings.push(Violation {
            rule,
            path: path.to_owned(),
            line,
            message,
        });
    } else {
        report.violations.push(Violation {
            rule,
            path: path.to_owned(),
            line,
            message,
        });
    }
}

/// One lint finding as a JSON object (`bgpbench-check lint --json`).
/// The repo has no JSON dependency, so the string fields are escaped
/// by hand (the control/quote subset JSON requires).
pub fn finding_json(violation: &Violation, allowlisted: bool) -> String {
    format!(
        r#"{{"path":"{}","line":{},"rule":"{}","allowlisted":{},"message":"{}"}}"#,
        json_escape(&violation.path),
        violation.line,
        json_escape(violation.rule),
        allowlisted,
        json_escape(&violation.message)
    )
}

fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `unused-waiver` rule: every allowlist entry must have waived
/// at least one finding during the scan, or it is stale and the run
/// fails.
fn append_unused_waiver_findings(report: &mut LintReport, allowlist: &Allowlist) {
    for (index, entry) in allowlist.entries().iter().enumerate() {
        if !report.matched_waivers.contains(&index) {
            report.violations.push(Violation {
                rule: "unused-waiver",
                path: entry.path.clone(),
                line: 0,
                message: match &entry.contains {
                    Some(needle) => format!(
                        "allow.toml waiver [{} @ {}] (contains \"{needle}\") matches no \
                         finding — delete it",
                        entry.rule, entry.path
                    ),
                    None => format!(
                        "allow.toml waiver [{} @ {}] matches no finding — delete it",
                        entry.rule, entry.path
                    ),
                },
            });
        }
    }
}

/// The token-scan rules (`no-panic`, `no-instant`, `no-std-hashmap`).
fn scan_file(rel: &str, source: &str, allowlist: &Allowlist, report: &mut LintReport) {
    if !is_library_source(rel) {
        return;
    }
    let scrubbed = scrub(source);
    let mask = cfg_test_mask(&scrubbed);
    let original_lines: Vec<&str> = source.lines().collect();

    let panic_rule = in_crate_src(rel, &HOT_PATH_CRATES) || HOT_PATH_FILES.contains(&rel);
    let instant_rule =
        rel.starts_with("crates/") && !in_crate_src(rel, &CLOCK_CRATES) || rel.starts_with("src/");
    let hashmap_rule = in_crate_src(rel, &["rib"]);

    for (idx, line) in scrubbed.lines().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let line_no = idx + 1;
        let original = original_lines.get(idx).copied().unwrap_or("").trim();
        if panic_rule {
            for token in [
                ".unwrap()",
                ".expect(",
                "panic!",
                "unreachable!",
                "todo!",
                "unimplemented!",
            ] {
                if line.contains(token) {
                    push_finding(
                        report,
                        allowlist,
                        "no-panic",
                        rel,
                        line_no,
                        original,
                        format!("`{token}` in hot-path crate (return a typed error instead)"),
                    );
                }
            }
        }
        if instant_rule && line.contains("Instant::now") {
            push_finding(
                report,
                allowlist,
                "no-instant",
                rel,
                line_no,
                original,
                "host clock read outside `telemetry` (use the telemetry tracer)".to_owned(),
            );
        }
        if hashmap_rule && line.contains("collections::HashMap") {
            push_finding(
                report,
                allowlist,
                "no-std-hashmap",
                rel,
                line_no,
                original,
                "std HashMap in rib hot path (use crate::fxhash::FxHashMap)".to_owned(),
            );
        }
    }
}

/// The `forbid-unsafe` rule over every crate root in the file set.
fn check_crate_roots(
    root: &Path,
    files: &[PathBuf],
    allowlist: &Allowlist,
    report: &mut LintReport,
) {
    for file in files {
        let rel = relative(root, file);
        let is_root = rel == "src/lib.rs"
            || (rel.starts_with("crates/") || rel.starts_with("shims/"))
                && rel.ends_with("/src/lib.rs");
        if !is_root {
            continue;
        }
        let Ok(source) = fs::read_to_string(file) else {
            continue;
        };
        if !scrub(&source).contains("#![forbid(unsafe_code)]") {
            push_finding(
                report,
                allowlist,
                "forbid-unsafe",
                &rel,
                0,
                "",
                "crate root is missing `#![forbid(unsafe_code)]`".to_owned(),
            );
        }
    }
}

/// The exactly-once catalog rule behind `metric-once` and
/// `trace-once`: every variant of the id enum at `rel` appears in its
/// `ALL` catalog exactly once, and the catalog names no strangers.
fn check_id_catalog(
    root: &Path,
    report: &mut LintReport,
    rule: &'static str,
    rel: &'static str,
    type_name: &str,
) -> io::Result<()> {
    let path = root.join(rel);
    if !path.is_file() {
        report.violations.push(Violation {
            rule,
            path: rel.to_owned(),
            line: 0,
            message: format!("{type_name} catalog file not found"),
        });
        return Ok(());
    }
    let scrubbed = scrub(&fs::read_to_string(&path)?);

    let variants = enum_variants(&scrubbed, &format!("pub enum {type_name}"));
    let registered = catalog_entries(&scrubbed, type_name);
    if variants.is_empty() || registered.is_empty() {
        report.violations.push(Violation {
            rule,
            path: rel.to_owned(),
            line: 0,
            message: format!("could not locate `pub enum {type_name}` or `{type_name}::ALL`"),
        });
        return Ok(());
    }
    for variant in &variants {
        let count = registered.iter().filter(|r| *r == variant).count();
        if count != 1 {
            report.violations.push(Violation {
                rule,
                path: rel.to_owned(),
                line: 0,
                message: format!(
                    "{type_name}::{variant} is registered {count} times in {type_name}::ALL \
                     (want exactly 1)"
                ),
            });
        }
    }
    for entry in &registered {
        if !variants.contains(entry) {
            report.violations.push(Violation {
                rule,
                path: rel.to_owned(),
                line: 0,
                message: format!("{type_name}::ALL names unknown variant `{entry}`"),
            });
        }
    }
    Ok(())
}

/// Variant names of the enum declared by `header` (e.g.
/// `pub enum MetricId`): identifiers at brace depth 1 that are
/// followed by `=` (explicit discriminants) or `,`.
fn enum_variants(scrubbed: &str, header: &str) -> Vec<String> {
    let Some(start) = scrubbed.find(header) else {
        return Vec::new();
    };
    let Some(open) = scrubbed[start..].find('{') else {
        return Vec::new();
    };
    let body_start = start + open + 1;
    let mut depth = 1;
    let mut end = body_start;
    for (i, c) in scrubbed[body_start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    end = body_start + i;
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &scrubbed[body_start..end];
    let mut variants = Vec::new();
    // Variants in this catalog are `Name = N,` — split on commas at
    // depth 0 and take the leading identifier.
    for item in body.split(',') {
        let item = item.trim();
        let name: String = item
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() && name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            variants.push(name);
        }
    }
    variants
}

/// `<TypeName>::X` entries of the `ALL` catalog array.
fn catalog_entries(scrubbed: &str, type_name: &str) -> Vec<String> {
    let Some(start) = scrubbed.find("const ALL") else {
        return Vec::new();
    };
    let Some(open) = scrubbed[start..].find("= [") else {
        return Vec::new();
    };
    let body_start = start + open + 3;
    let Some(close) = scrubbed[body_start..].find(']') else {
        return Vec::new();
    };
    let body = &scrubbed[body_start..body_start + close];
    let prefix = format!("{type_name}::");
    body.split(',')
        .filter_map(|item| {
            item.trim()
                .strip_prefix(prefix.as_str())
                .map(|name| name.trim().to_owned())
        })
        .filter(|name| !name.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_and_catalog_extraction() {
        let src = "
pub enum MetricId {
    AlphaOne = 0,
    BetaTwo = 1,
}
impl MetricId {
    pub const ALL: [MetricId; 2] = [
        MetricId::AlphaOne,
        MetricId::BetaTwo,
    ];
}
";
        let scrubbed = scrub(src);
        assert_eq!(
            enum_variants(&scrubbed, "pub enum MetricId"),
            vec!["AlphaOne", "BetaTwo"]
        );
        assert_eq!(
            catalog_entries(&scrubbed, "MetricId"),
            vec!["AlphaOne", "BetaTwo"]
        );
        assert!(
            catalog_entries(&scrubbed, "TraceEventId").is_empty(),
            "a mismatched type name matches nothing"
        );
    }

    #[test]
    fn scan_flags_panics_in_hot_crates_only() {
        let mut report = LintReport::default();
        let allow = Allowlist::empty();
        scan_file(
            "crates/rib/src/x.rs",
            "fn f() { y.unwrap(); }\n",
            &allow,
            &mut report,
        );
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "no-panic");
        assert_eq!(report.violations[0].line, 1);

        let mut report = LintReport::default();
        scan_file(
            "crates/models/src/x.rs",
            "fn f() { y.unwrap(); }\n",
            &allow,
            &mut report,
        );
        assert!(report.is_clean(), "models is not a hot-path crate");
    }

    #[test]
    fn scan_flags_panics_in_the_session_fsm_only() {
        let allow = Allowlist::empty();
        let mut report = LintReport::default();
        scan_file(
            "crates/daemon/src/fsm.rs",
            "fn f() { unreachable!(); }\n",
            &allow,
            &mut report,
        );
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "no-panic");

        let mut report = LintReport::default();
        scan_file(
            "crates/daemon/src/config.rs",
            "fn f() { y.unwrap(); }\n",
            &allow,
            &mut report,
        );
        assert!(report.is_clean(), "the rest of the daemon is exempt");
    }

    #[test]
    fn scan_flags_panics_in_the_policy_profile_builders() {
        let allow = Allowlist::empty();
        let mut report = LintReport::default();
        scan_file(
            "crates/core/src/policy.rs",
            "fn f() { x.expect(\"boom\"); }\n",
            &allow,
            &mut report,
        );
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "no-panic");

        let mut report = LintReport::default();
        scan_file(
            "crates/core/src/harness.rs",
            "fn f() { y.unwrap(); }\n",
            &allow,
            &mut report,
        );
        assert!(report.is_clean(), "the rest of core is exempt");
    }

    #[test]
    fn scan_ignores_tests_and_comments() {
        let mut report = LintReport::default();
        let allow = Allowlist::empty();
        let src = "\
// x.unwrap() in a comment
/// doc: y.expect(\"..\")
fn hot() {}
#[cfg(test)]
mod tests {
    fn t() { z.unwrap(); }
}
";
        scan_file("crates/wire/src/x.rs", src, &allow, &mut report);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn instant_rule_spares_only_telemetry() {
        let allow = Allowlist::empty();
        for (path, clean) in [
            ("crates/telemetry/src/span.rs", true),
            ("crates/bench/src/cli.rs", false),
            ("crates/rib/src/engine.rs", false),
        ] {
            let mut report = LintReport::default();
            scan_file(
                path,
                "fn f() { let t = std::time::Instant::now(); }\n",
                &allow,
                &mut report,
            );
            assert_eq!(report.is_clean(), clean, "{path}");
        }
    }

    #[test]
    fn waived_findings_are_counted_not_reported() {
        let allow = Allowlist::parse(
            "[[allow]]\nrule = \"no-panic\"\npath = \"crates/rib/src/x.rs\"\ncontains = \"unwrap\"\nreason = \"test\"\n",
        )
        .unwrap();
        let mut report = LintReport::default();
        scan_file(
            "crates/rib/src/x.rs",
            "fn f() { y.unwrap(); }\n",
            &allow,
            &mut report,
        );
        assert!(report.is_clean());
        assert_eq!(report.waived, 1);
        // The waived finding survives as a full record for --json.
        assert_eq!(report.waived_findings.len(), 1);
        assert_eq!(report.waived_findings[0].rule, "no-panic");
        assert_eq!(report.waived_findings[0].line, 1);
        // And the entry is marked load-bearing.
        assert_eq!(
            report.matched_waivers.iter().copied().collect::<Vec<_>>(),
            [0]
        );
    }

    #[test]
    fn finding_json_escapes_and_tags() {
        let violation = Violation {
            rule: "no-panic",
            path: "crates/rib/src/x.rs".to_owned(),
            line: 7,
            message: "`.unwrap()` in \"hot\" path\n".to_owned(),
        };
        assert_eq!(
            finding_json(&violation, true),
            r#"{"path":"crates/rib/src/x.rs","line":7,"rule":"no-panic","allowlisted":true,"message":"`.unwrap()` in \"hot\" path\n"}"#
        );
    }

    #[test]
    fn unused_waivers_become_violations() {
        let allow = Allowlist::parse(
            "[[allow]]\nrule = \"no-panic\"\npath = \"crates/rib/src/x.rs\"\ncontains = \"unwrap\"\nreason = \"used\"\n\
             [[allow]]\nrule = \"no-panic\"\npath = \"crates/rib/src/gone.rs\"\nreason = \"stale\"\n",
        )
        .unwrap();
        let mut report = LintReport::default();
        scan_file(
            "crates/rib/src/x.rs",
            "fn f() { y.unwrap(); }\n",
            &allow,
            &mut report,
        );
        append_unused_waiver_findings(&mut report, &allow);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "unused-waiver");
        assert_eq!(report.violations[0].path, "crates/rib/src/gone.rs");
        assert!(report.violations[0].message.contains("matches no finding"));
    }

    #[test]
    fn daemon_endpoint_core_and_session_are_hot_path_files() {
        for path in [
            "crates/daemon/src/http.rs",
            "crates/daemon/src/core.rs",
            "crates/daemon/src/session.rs",
        ] {
            let allow = Allowlist::empty();
            let mut report = LintReport::default();
            scan_file(path, "fn f() { y.unwrap(); }\n", &allow, &mut report);
            assert_eq!(report.violations.len(), 1, "{path}");
            assert_eq!(report.violations[0].rule, "no-panic");
        }
    }
}
