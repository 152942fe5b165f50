//! Rule 3 — lint wiring.
//!
//! The workspace commits to a shared lint policy: a `[workspace.lints]`
//! table in the root manifest (rustc `missing_docs` / `unsafe_code` plus a
//! clippy pedantic subset), every member crate opting in with
//! `[lints] workspace = true`, and `#![forbid(unsafe_code)]` at the root of
//! every crate. CI runs clippy with `-D warnings`; this rule makes the
//! *configuration* itself tamper-evident so a crate cannot quietly drop out
//! of the policy.
//!
//! One documented FFI exception, a raw-syscall shim the workspace cannot
//! express safely because it vendors no `libc`/`mio` crate to hide it in:
//! `crates/serve` wraps `epoll`/`eventfd` for its reactor. The exception
//! crate's root must carry `#![deny(unsafe_code)]` instead of `forbid`
//! (deny is overridable by an item-level `allow`, forbid is not), and this
//! rule pins the blast radius: within that crate, any `allow(unsafe_code)`
//! or `unsafe` token may appear only in its sanctioned syscall-shim module
//! `src/sys.rs`. Every other crate, whatever it is named, must forbid.
//!
//! The manifest checks read TOML text; the crate-root and confinement
//! checks read code tokens, so a comment or string mentioning `unsafe`
//! neither satisfies nor trips them.

use crate::graph::Analysis;
use crate::{Audit, Workspace};

const RULE: &str = "lint-wiring";

/// Keys the root `[workspace.lints.rust]` table must define.
const REQUIRED_RUST_LINTS: [&str; 2] = ["missing_docs", "unsafe_code"];

/// Runs the lint-wiring rule over the workspace.
pub fn audit_lint_wiring(ws: &Workspace, a: &Analysis) -> Audit {
    let mut audit = Audit::new(RULE);
    check_root_tables(&mut audit, ws);
    check_member_manifests(&mut audit, ws);
    check_unsafe_forbidden(&mut audit, ws, a);
    audit
}

/// The root manifest must carry the shared lint tables.
fn check_root_tables(audit: &mut Audit, ws: &Workspace) {
    const ROOT: &str = "Cargo.toml";
    let Some(root) = ws.file(ROOT) else {
        audit.fail(ROOT, "workspace root Cargo.toml not found");
        return;
    };
    audit.check();
    if !root.text.contains("[workspace.lints.rust]") {
        audit.fail(ROOT, "missing `[workspace.lints.rust]` table");
    }
    for key in REQUIRED_RUST_LINTS {
        audit.check();
        if !table_defines(&root.text, "[workspace.lints.rust]", key) {
            audit.fail(
                ROOT,
                format!("`[workspace.lints.rust]` does not configure `{key}`"),
            );
        }
    }
    audit.check();
    let clippy_count = table_keys(&root.text, "[workspace.lints.clippy]");
    if clippy_count == 0 {
        audit.fail(
            ROOT,
            "`[workspace.lints.clippy]` is missing or empty — the workspace pins a \
             pedantic subset it commits to keeping clean",
        );
    }
}

/// Every member crate must opt in to the shared tables.
fn check_member_manifests(audit: &mut Audit, ws: &Workspace) {
    for manifest in ws.crate_manifests() {
        audit.check();
        let has_lints = manifest.text.contains("[lints]")
            && table_defines(&manifest.text, "[lints]", "workspace");
        if !has_lints {
            audit.fail(
                &manifest.path,
                "missing `[lints]\\nworkspace = true` — the crate is not covered by the \
                 workspace lint policy",
            );
        }
    }
}

/// The one sanctioned raw-syscall site, `epoll`/`eventfd` in
/// `atscale-serve`'s reactor: the crate allowed to contain `unsafe`, its
/// root (which must `deny`, not `forbid`, `unsafe_code`), and the only
/// module its unsafe code may live in.
const FFI_CRATE: &str = "crates/serve/";
const FFI_ROOT: &str = "crates/serve/src/lib.rs";
const FFI_MODULE: &str = "crates/serve/src/sys.rs";

/// Every crate root must forbid unsafe code outright — except the
/// documented FFI crate, whose root must *deny* it (so its syscall shim
/// can re-allow it for exactly one module) and whose `unsafe` usage must
/// stay confined to that module.
fn check_unsafe_forbidden(audit: &mut Audit, ws: &Workspace, a: &Analysis) {
    // Each member crate's root: `src/lib.rs`, or `src/main.rs` for
    // binary-only crates.
    let roots = ws.crate_manifests().filter_map(|m| {
        let dir = m.path.trim_end_matches("/Cargo.toml");
        a.file(&format!("{dir}/src/lib.rs"))
            .or_else(|| a.file(&format!("{dir}/src/main.rs")))
    });
    let inner_attr = |lint| ["#", "!", "[", lint, "(", "unsafe_code", ")", "]"];
    for root in roots {
        audit.check();
        if root.path == FFI_ROOT {
            if !root.contains(&inner_attr("deny")) {
                audit.fail(
                    &root.path,
                    "an FFI-exception crate must carry `#![deny(unsafe_code)]` at its root \
                     (forbid would reject the sanctioned syscall shim; anything weaker drops \
                     the guard)",
                );
            }
        } else if !root.contains(&inner_attr("forbid")) {
            audit.fail(
                &root.path,
                "missing `#![forbid(unsafe_code)]` at the crate root",
            );
        }
    }
    // The exception stays surgical: inside its crate, unsafe code and
    // `allow(unsafe_code)` opt-outs may appear only in the syscall shim.
    for file in a
        .files
        .iter()
        .filter(|f| f.path.starts_with(FFI_CRATE) && f.path != FFI_MODULE)
    {
        audit.check();
        if file.contains(&["unsafe"]) || file.contains(&["allow", "(", "unsafe_code", ")"]) {
            audit.fail(
                &file.path,
                format!(
                    "unsafe code outside the sanctioned FFI module `{FFI_MODULE}` — the \
                     exception covers the syscall shim only"
                ),
            );
        }
    }
}

/// True when `key = ...` appears inside the given TOML table (before the
/// next `[` header).
fn table_defines(toml: &str, table: &str, key: &str) -> bool {
    table_body(toml, table).is_some_and(|body| {
        body.lines().map(str::trim).any(|l| {
            l.strip_prefix(key)
                .is_some_and(|rest| rest.trim_start().starts_with('='))
        })
    })
}

/// Number of `key = value` lines inside the given TOML table.
fn table_keys(toml: &str, table: &str) -> usize {
    table_body(toml, table).map_or(0, |body| {
        body.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#') && l.contains('='))
            .count()
    })
}

/// The text between a `[table]` header and the next header.
fn table_body<'a>(toml: &'a str, table: &str) -> Option<&'a str> {
    let at = toml.find(table)? + table.len();
    let body = &toml[at..];
    Some(match body.find("\n[") {
        Some(end) => &body[..end],
        None => body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::workspace_from;

    fn lint(files: &[(&str, &str)]) -> Audit {
        let ws = workspace_from(files);
        audit_lint_wiring(&ws, &Analysis::build(&ws))
    }

    const GOOD_ROOT: &str = "
[workspace]
members = [\"crates/*\"]

[workspace.lints.rust]
missing_docs = \"warn\"
unsafe_code = \"deny\"

[workspace.lints.clippy]
semicolon_if_nothing_returned = \"warn\"
";
    const GOOD_CRATE: &str = "
[package]
name = \"x\"

[lints]
workspace = true
";

    fn good() -> Vec<(&'static str, &'static str)> {
        vec![
            ("Cargo.toml", GOOD_ROOT),
            ("crates/x/Cargo.toml", GOOD_CRATE),
            (
                "crates/x/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() {}",
            ),
        ]
    }

    #[test]
    fn wired_workspace_passes() {
        assert_eq!(lint(&good()).violations, Vec::new());
    }

    #[test]
    fn missing_clippy_table_is_flagged() {
        let root = GOOD_ROOT.replace(
            "[workspace.lints.clippy]\nsemicolon_if_nothing_returned = \"warn\"\n",
            "",
        );
        let mut files = good();
        files[0] = ("Cargo.toml", Box::leak(root.into_boxed_str()));
        let audit = lint(&files);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.message.contains("clippy")));
    }

    #[test]
    fn crate_without_opt_in_is_flagged() {
        let mut files = good();
        files[1] = ("crates/x/Cargo.toml", "[package]\nname = \"x\"\n");
        let audit = lint(&files);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.message.contains("[lints]")));
    }

    #[test]
    fn missing_forbid_unsafe_is_flagged() {
        let mut files = good();
        // A doc comment saying the attribute is not the attribute.
        files[2] = (
            "crates/x/src/lib.rs",
            "//! #![forbid(unsafe_code)]\npub fn f() {}",
        );
        let audit = lint(&files);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.message.contains("forbid(unsafe_code)")));
    }

    #[test]
    fn ffi_exception_crate_with_deny_and_confined_unsafe_passes() {
        let mut files = good();
        files.push(("crates/serve/Cargo.toml", GOOD_CRATE));
        files.push((
            "crates/serve/src/lib.rs",
            "#![deny(unsafe_code)]\npub mod sys;\npub mod reactor;",
        ));
        files.push((
            "crates/serve/src/sys.rs",
            "#[allow(unsafe_code)]\nmod imp { pub fn ep() -> i64 { unsafe { syscall(291) } } }",
        ));
        files.push(("crates/serve/src/reactor.rs", "pub fn run() {}"));
        let audit = lint(&files);
        assert_eq!(audit.violations, Vec::new());
    }

    #[test]
    fn ffi_exception_crate_without_deny_is_flagged() {
        let mut files = good();
        files.push(("crates/serve/Cargo.toml", GOOD_CRATE));
        files.push(("crates/serve/src/lib.rs", "pub mod sys;"));
        files.push(("crates/serve/src/sys.rs", "pub fn ep() -> i64 { 0 }"));
        let audit = lint(&files);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.message.contains("deny(unsafe_code)")));
    }

    #[test]
    fn unsafe_outside_the_syscall_shim_is_flagged() {
        let mut files = good();
        files.push(("crates/serve/Cargo.toml", GOOD_CRATE));
        files.push((
            "crates/serve/src/lib.rs",
            "#![deny(unsafe_code)]\npub mod sys;\npub mod reactor;",
        ));
        files.push(("crates/serve/src/sys.rs", "pub fn ep() -> i64 { 0 }"));
        files.push((
            "crates/serve/src/reactor.rs",
            "#[allow(unsafe_code)]\npub fn run() { unsafe { core::hint::unreachable_unchecked() } }",
        ));
        let audit = lint(&files);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.file == "crates/serve/src/reactor.rs"
                && v.message.contains("outside the sanctioned FFI module")));
    }

    #[test]
    fn a_syscall_shim_outside_serve_is_not_sanctioned() {
        // The exception is keyed to `crates/serve` alone: any other crate
        // with a deny root and a `src/sys.rs` shim is an ordinary crate
        // missing its forbid.
        let mut files = good();
        files.push(("crates/native/Cargo.toml", GOOD_CRATE));
        files.push((
            "crates/native/src/lib.rs",
            "#![deny(unsafe_code)]\npub mod sys;",
        ));
        files.push((
            "crates/native/src/sys.rs",
            "#[allow(unsafe_code)]\nmod imp { pub fn open() -> i64 { unsafe { syscall(298) } } }",
        ));
        let audit = lint(&files);
        assert!(
            audit
                .violations
                .iter()
                .any(|v| v.file == "crates/native/src/lib.rs"
                    && v.message.contains("forbid(unsafe_code)")),
            "{:?}",
            audit.violations
        );
    }

    #[test]
    fn unsafe_code_lint_names_do_not_trip_the_token_scan() {
        // `unsafe_code` (the lint name) contains `unsafe`, and comments and
        // strings may say the word: only an `unsafe` token counts.
        let reactor = |src| {
            let mut files = good();
            files.push(("crates/serve/Cargo.toml", GOOD_CRATE));
            files.push((
                "crates/serve/src/lib.rs",
                "#![deny(unsafe_code)]\npub mod reactor;",
            ));
            files.push(("crates/serve/src/reactor.rs", src));
            lint(&files).violations
        };
        assert_eq!(
            reactor("// no unsafe here\npub fn run() { let not_unsafe_thing = \"unsafe\"; }"),
            Vec::new()
        );
        assert_eq!(reactor("unsafe fn f() {}").len(), 1);
        assert_eq!(reactor("#![allow(unsafe_code)]").len(), 1);
    }

    #[test]
    fn missing_rust_lint_key_is_flagged() {
        let root = GOOD_ROOT.replace("missing_docs = \"warn\"\n", "");
        let mut files = good();
        files[0] = ("Cargo.toml", Box::leak(root.into_boxed_str()));
        let audit = lint(&files);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.message.contains("missing_docs")));
    }
}
