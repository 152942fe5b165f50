//! Rule 6 — hot-path allocation freedom.
//!
//! The PR-4 throughput work rests on the per-access pipeline never touching
//! the allocator: one `format!` in a TLB lookup or a `Vec::new` per walk
//! melts the benchmark's `sim_minstr_per_s`. rustc cannot express "this
//! module is allocation-free", so this rule scans the hot-path modules —
//! the MMU engine, the TLB arrays, the page-table walker, and the
//! set-associative cache array — for allocating or formatting calls.
//!
//! Three regions are exempt, each for a stated reason:
//!
//! * **panic/assert macro arguments** — a failed invariant is an error path
//!   that never executes on a healthy run; its message may format freely;
//! * **`#[cold]` functions** — the attribute is the author's explicit
//!   declaration that the function is off the hot path, and it makes the
//!   claim visible to both the optimiser and this audit;
//! * **constructors (`fn new`)** — arrays are allocated once per run at
//!   machine build time; the audited property is per-*access* allocation
//!   freedom, not zero allocation ever. The name must be exactly `new`.
//!
//! Everything else that matches a forbidden pattern fails the audit. The
//! scan runs on the module's non-test code tokens, so a `format!` inside a
//! string literal or a comment is text, not a call.

use crate::graph::Analysis;
use crate::Audit;

const RULE: &str = "hot-path-allocation";

/// Modules on the per-access path. A missing file fails the audit so a
/// rename cannot silently drop coverage.
const HOT_MODULES: [&str; 4] = [
    "crates/mmu/src/engine.rs",
    "crates/mmu/src/tlb.rs",
    "crates/mmu/src/walker.rs",
    "crates/cache/src/set_assoc.rs",
];

/// Call patterns that allocate or format, each with its token spelling.
const FORBIDDEN: [(&str, &[&str]); 8] = [
    ("format!", &["format", "!"]),
    ("String::from", &["String", ":", ":", "from"]),
    (".to_string()", &[".", "to_string", "(", ")"]),
    (".to_owned()", &[".", "to_owned", "(", ")"]),
    ("vec!", &["vec", "!"]),
    ("Vec::new", &["Vec", ":", ":", "new"]),
    ("Vec::with_capacity", &["Vec", ":", ":", "with_capacity"]),
    ("Box::new", &["Box", ":", ":", "new"]),
];

/// Macros whose arguments are error-path message formatting.
const PANIC_MACROS: [&str; 10] = [
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "unreachable",
    "invariant",
    "unimplemented",
];

/// Runs the hot-path allocation rule over the workspace.
pub fn audit_hot_path_allocation(a: &Analysis) -> Audit {
    let mut audit = Audit::new(RULE);
    for module in HOT_MODULES {
        audit.check();
        let Some(file) = a.file(module) else {
            audit.fail(
                module,
                "hot-path module not found — if it moved, update the audit's module list",
            );
            continue;
        };
        // Exempt token ranges: panic-macro arguments, `#[cold]` and `new`
        // bodies.
        let mut exempt = vec![false; file.tokens.len()];
        for (s, e) in file
            .fns
            .iter()
            .filter(|f| f.cold || f.name == "new")
            .filter_map(|f| f.body)
        {
            exempt[s..e].fill(true);
        }
        for i in file.non_test_code() {
            let open = PANIC_MACROS
                .iter()
                .find_map(|m| file.spelled(i, &[m, "!", "("]));
            if let Some((open, end)) = open.and_then(|o| Some((o, file.matching(o)?))) {
                exempt[open..end].fill(true);
            }
        }
        for (pattern, words) in FORBIDDEN {
            audit.check();
            for i in file
                .non_test_code()
                .filter(|&i| !exempt[i] && file.spells(i, words))
            {
                audit.fail(
                    &file.path,
                    format!(
                        "`{pattern}` on the hot path (line {}) — allocation and \
                         formatting belong in `#[cold]` helpers, constructors, or \
                         panic messages",
                        file.tokens[i].line
                    ),
                );
            }
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::analysis_from;

    /// A minimal clean hot-path module set.
    fn clean_files() -> Vec<(&'static str, &'static str)> {
        vec![
            (
                "crates/mmu/src/engine.rs",
                "impl Machine {\n    pub fn access(&mut self) { self.counters.inst += 1; }\n}\n",
            ),
            (
                "crates/mmu/src/tlb.rs",
                "impl TlbArray {\n    pub fn new(n: usize) -> Self {\n        TlbArray { tags: vec![0; n] }\n    }\n}\n",
            ),
            ("crates/mmu/src/walker.rs", "pub fn walk() {}\n"),
            ("crates/cache/src/set_assoc.rs", "pub fn access() {}\n"),
        ]
    }

    #[test]
    fn clean_modules_pass() {
        let audit = audit_hot_path_allocation(&analysis_from(&clean_files()));
        assert_eq!(audit.violations, Vec::new());
        assert!(audit.checked > 4);
    }

    #[test]
    fn allocation_in_access_path_is_flagged() {
        let mut files = clean_files();
        files[0] = (
            "crates/mmu/src/engine.rs",
            "impl Machine {\n    pub fn access(&mut self) { let s = format!(\"{}\", 1); }\n}\n",
        );
        let audit = audit_hot_path_allocation(&analysis_from(&files));
        assert!(audit
            .violations
            .iter()
            .any(|v| v.message.contains("format!") && v.file.contains("engine.rs")));
    }

    #[test]
    fn constructor_allocation_is_exempt() {
        // `clean_files` already allocates inside `fn new`; make sure that is
        // the exemption carrying it, not an accident of pattern order.
        let files = vec![
            (
                "crates/mmu/src/engine.rs",
                "pub fn new() -> V { Vec::with_capacity(8) }\n",
            ),
            ("crates/mmu/src/tlb.rs", ""),
            ("crates/mmu/src/walker.rs", ""),
            ("crates/cache/src/set_assoc.rs", ""),
        ];
        let audit = audit_hot_path_allocation(&analysis_from(&files));
        assert_eq!(audit.violations, Vec::new());
    }

    #[test]
    fn only_a_fn_named_exactly_new_is_a_constructor() {
        // Constructors run once per machine; `fn new_scratch` is per-access
        // code like any other.
        let mut files = clean_files();
        files[2] = (
            "crates/mmu/src/walker.rs",
            "pub fn new_scratch() -> V {\n    Vec::new()\n}\n",
        );
        let audit = audit_hot_path_allocation(&analysis_from(&files));
        assert_eq!(audit.violations.len(), 1);
        assert!(audit.violations[0]
            .message
            .starts_with("`Vec::new` on the hot path (line 2)"));
    }

    #[test]
    fn cold_function_allocation_is_exempt() {
        let mut files = clean_files();
        files[2] = (
            "crates/mmu/src/walker.rs",
            "#[cold]\nfn slow_report() -> String { format!(\"{}\", 1) }\npub fn walk() {}\n",
        );
        let audit = audit_hot_path_allocation(&analysis_from(&files));
        assert_eq!(audit.violations, Vec::new());
    }

    #[test]
    fn panic_message_formatting_is_exempt() {
        let mut files = clean_files();
        files[3] = (
            "crates/cache/src/set_assoc.rs",
            "pub fn access(x: u64) {\n    assert!(x > 0, \"bad {}\", format!(\"{x}\"));\n}\n",
        );
        let audit = audit_hot_path_allocation(&analysis_from(&files));
        assert_eq!(audit.violations, Vec::new());
    }

    #[test]
    fn allocation_outside_the_panic_args_is_still_flagged() {
        let mut files = clean_files();
        files[3] = (
            "crates/cache/src/set_assoc.rs",
            "pub fn access(x: u64) {\n    assert!(x > 0, \"bad\");\n    let v = o.unwrap_or_else(Vec::new);\n}\n",
        );
        // A path value allocates when called, so it counts like a call.
        let audit = audit_hot_path_allocation(&analysis_from(&files));
        assert!(audit
            .violations
            .iter()
            .any(|v| v.message.contains("Vec::new")));
    }

    #[test]
    fn test_modules_are_exempt() {
        let mut files = clean_files();
        files[1] = (
            "crates/mmu/src/tlb.rs",
            "pub fn lookup() {}\n#[cfg(test)]\nmod tests {\n    fn h() { let v = vec![1]; }\n}\n",
        );
        let audit = audit_hot_path_allocation(&analysis_from(&files));
        assert_eq!(audit.violations, Vec::new());
    }

    #[test]
    fn forbidden_patterns_inside_string_literals_are_not_flagged() {
        // Regression for the regex-scanner false-positive class: the old
        // scanner matched patterns inside string literals.
        let mut files = clean_files();
        files[2] = (
            "crates/mmu/src/walker.rs",
            "pub fn walk() {\n    let msg = \"never call format! or Vec::new here\";\n    emit(msg);\n}\n",
        );
        let audit = audit_hot_path_allocation(&analysis_from(&files));
        assert_eq!(audit.violations, Vec::new());
    }

    #[test]
    fn forbidden_patterns_inside_doc_comments_are_not_flagged() {
        let mut files = clean_files();
        files[2] = (
            "crates/mmu/src/walker.rs",
            "/// Never use `format!` or `Box::new` on this path.\n// vec! is also banned.\npub fn walk() {}\n",
        );
        let audit = audit_hot_path_allocation(&analysis_from(&files));
        assert_eq!(audit.violations, Vec::new());
    }

    #[test]
    fn missing_module_is_flagged() {
        let mut files = clean_files();
        files.remove(2);
        let audit = audit_hot_path_allocation(&analysis_from(&files));
        assert!(audit
            .violations
            .iter()
            .any(|v| v.file.contains("walker.rs") && v.message.contains("not found")));
    }
}
