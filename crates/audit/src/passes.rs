//! The three call-graph analysis passes.
//!
//! All three run on the [`crate::graph::Analysis`] built from the whole
//! workspace:
//!
//! * **determinism-taint** ([`determinism_taint`]) — no wall-clock,
//!   thread-identity, environment, entropy, or `HashMap`/`HashSet`
//!   iteration on any call path that reaches RunRecord serialization
//!   (`RunStore::save`/`RunStore::key`) or the deterministic telemetry
//!   sample stream (`TelemetrySink::sample`). Escape hatch:
//!   `// analyze:allow(determinism): why`.
//! * **lock-discipline** ([`lock_discipline`]) — builds the
//!   lock-acquisition order graph, fails on cycles, and flags locks held
//!   across blocking I/O (socket/file writes, reads, sleeps), with
//!   `// analyze:allow(lock-io): why` for the deliberate cases.
//! * **panic-surface** ([`panic_surface`]) — catalogues `unwrap`/`expect`/
//!   indexing/panic-macro sites reachable from the server worker threads
//!   and requires each to be contained by the scheduler's `catch_unwind`
//!   boundary or carry `// analyze:allow(panic): why`.
//!
//! An allow exempts only the finding its tag names, and only with a why:
//! one without a justification is itself a finding of the pass it would
//! silence, and one with an unknown tag exempts nothing.
//!
//! Each pass documents its approximations inline; the call graph is
//! name-resolved (see [`crate::graph`]), so reachability over-approximates
//! — the safe direction for taint and panic analysis, paid for with the
//! occasional annotated false positive.

use crate::graph::{Analysis, NodeId};
use crate::lex::TokenKind;
use crate::model::{AllowSite, CallKind, CallSite, FileModel, FnItem, LockSite};
use crate::Audit;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// The functions whose output must be byte-for-byte deterministic: the
/// RunRecord serialization entry points (a save, a save of bytes the
/// caller serialised, a key) and the telemetry sample stream. Spans,
/// progress, and histogram events deliberately carry wall-clock and are
/// *not* sinks.
pub const DETERMINISM_SINKS: [&str; 4] = [
    "RunStore::save",
    "RunStore::save_encoded",
    "RunStore::key",
    "TelemetrySink::sample",
];

/// Qualified calls whose results are nondeterministic: `(prefix, name,
/// what it leaks)`.
const NONDET_QUALIFIED: [(&str, &str, &str); 9] = [
    ("Instant", "now", "wall-clock read"),
    ("SystemTime", "now", "wall-clock read"),
    ("thread", "current", "thread identity"),
    ("env", "var", "environment read"),
    ("env", "vars", "environment read"),
    ("env", "var_os", "environment read"),
    ("env", "temp_dir", "environment read"),
    ("process", "id", "process identity"),
    ("thread", "available_parallelism", "host parallelism"),
];

/// Call names that are nondeterministic regardless of qualification.
const NONDET_ANY: [(&str, &str); 2] = [
    ("available_parallelism", "host parallelism"),
    ("from_entropy", "OS entropy"),
];

/// Methods that iterate a collection in storage order — nondeterministic
/// when the receiver is a `HashMap`/`HashSet`.
const HASH_ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// Method calls that perform blocking I/O or sleeps.
const BLOCKING_METHODS: [&str; 13] = [
    "write_all",
    "write_fmt",
    "flush",
    "read_line",
    "read_exact",
    "read_until",
    "read_to_end",
    "read_to_string",
    "accept",
    "connect",
    "recv",
    "recv_timeout",
    "sleep",
];

/// Macros that write to an `io::Write` target.
const BLOCKING_MACROS: [&str; 2] = ["write", "writeln"];

/// Panic-raising macros catalogued by the panic-surface pass
/// (`debug_assert*` is excluded: compiled out of release servers).
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Entry points of the daemon's threads — the roots of the
/// panic-surface pass: the scheduler's workers, the acceptor, each
/// reactor shard's event loop, and the worker-side reply enqueue into a
/// shard's outbufs. A bare name matches every function so named, so the
/// free-function roots are pinned to their file (`ShardedClient::run_shard`
/// is client code, not a daemon thread).
pub const PANIC_ROOTS: [(&str, Option<&str>); 4] = [
    ("Scheduler::worker_loop", None),
    ("accept_loop", Some("crates/serve/src/reactor.rs")),
    ("run_shard", Some("crates/serve/src/reactor.rs")),
    ("OutBuf::send", None),
];

/// One recorded `analyze:allow` exemption, for the report.
#[derive(Debug, Clone, Serialize)]
pub struct AllowRecord {
    /// Declaring file.
    pub file: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// The tag (`determinism`, `lock-io`, `panic`).
    pub tag: String,
    /// The justification text (possibly empty — that is itself audited).
    pub justification: String,
}

/// Report data from the determinism pass.
#[derive(Debug, Serialize)]
pub struct DeterminismReport {
    /// Sink functions found in this workspace.
    pub sinks: Vec<String>,
    /// Qualified names of every non-test function on a path to a sink.
    pub tainted: Vec<String>,
    /// Every `analyze:allow` site in the tree, all tags.
    pub allows: Vec<AllowRecord>,
}

/// One edge of the lock-acquisition order graph: `from` was held when
/// `to` was acquired (possibly via a callee).
#[derive(Debug, Clone, Serialize)]
pub struct LockEdge {
    /// The already-held lock.
    pub from: String,
    /// The lock acquired while holding `from`.
    pub to: String,
    /// File of the acquiring site.
    pub file: String,
    /// Line of the acquiring site.
    pub line: u32,
}

/// Report data from the lock-discipline pass.
#[derive(Debug, Serialize)]
pub struct LockReport {
    /// Every declared lock (`Type.field`, `static NAME`, `fn.local`).
    pub declared: Vec<String>,
    /// The acquisition-order edges.
    pub edges: Vec<LockEdge>,
    /// Lock-id cycles found (each a closed path); must be empty.
    pub cycles: Vec<Vec<String>>,
}

/// One panic-capable site reachable from a worker-thread root.
#[derive(Debug, Clone, Serialize)]
pub struct PanicSiteRecord {
    /// Qualified name of the containing function.
    pub function: String,
    /// Declaring file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// `unwrap`, `expect`, `index`, or the macro name.
    pub kind: String,
    /// Covered by an `analyze:allow(panic)` justification.
    pub allowed: bool,
}

/// Report data from the panic-surface pass.
#[derive(Debug, Serialize)]
pub struct PanicReport {
    /// Root functions found in this workspace.
    pub roots: Vec<String>,
    /// Reachable, *uncontained* sites (allowed or violating).
    pub sites: Vec<PanicSiteRecord>,
    /// Number of reachable sites contained by `catch_unwind`.
    pub contained: usize,
}

/// The active `analyze:allow(tag)` covering `line`, if any.
fn allow_for<'a>(file: &'a FileModel, tag: &str, line: u32) -> Option<&'a AllowSite> {
    file.allows.iter().find(|a| a.tag == tag && a.covers(line))
}

/// Shared allow-or-fail handling: returns true when the finding is
/// exempted by a justified `analyze:allow(tag)`; records a violation when
/// the allow exists but carries no justification.
fn allowed(audit: &mut Audit, file: &FileModel, tag: &str, line: u32) -> bool {
    match allow_for(file, tag, line) {
        Some(site) if !site.justification.is_empty() => true,
        Some(site) => {
            audit.fail(
                file.path.clone(),
                format!(
                    "line {}: `analyze:allow({tag})` must carry a justification",
                    site.line
                ),
            );
            true
        }
        None => false,
    }
}

/// Paths the determinism pass does not scan: benchmarks time by design,
/// and binary entry points may read the environment for configuration.
fn determinism_exempt(path: &str) -> bool {
    path.starts_with("crates/bench/") || path.ends_with("/src/main.rs") || path.contains("/bin/")
}

/// Files skipped by the concurrency passes' *finding* stage (their
/// declarations still feed the graph): benchmarks are not product code.
fn concurrency_exempt(path: &str) -> bool {
    path.starts_with("crates/bench/")
}

/// **Pass 1 — determinism taint.**
///
/// Computes reverse reachability from the [`DETERMINISM_SINKS`] and scans
/// every tainted non-test function for nondeterministic operations:
/// wall-clock (`Instant::now`, `SystemTime::now`), thread identity,
/// environment reads, process id, host parallelism, OS entropy, and
/// iteration over `HashMap`/`HashSet`-typed bindings (method calls and
/// `for … in` loops). Each finding must be fixed or carry a justified
/// `// analyze:allow(determinism)`.
pub fn determinism_taint(a: &Analysis) -> (Audit, DeterminismReport) {
    let mut audit = Audit::new("determinism-taint");
    let mut sink_ids: Vec<NodeId> = Vec::new();
    let mut sinks = Vec::new();
    for s in DETERMINISM_SINKS {
        let ids = a.find(s);
        if !ids.is_empty() {
            sinks.push(s.to_string());
        }
        sink_ids.extend(ids);
    }
    let tainted = a.reaching(&sink_ids);
    let mut tainted_names: BTreeSet<String> = BTreeSet::new();
    for (id, &is_tainted) in tainted.iter().enumerate() {
        if !is_tainted {
            continue;
        }
        let f = a.item(id);
        if f.in_tests || determinism_exempt(&f.path) {
            continue;
        }
        tainted_names.insert(f.qualified.clone());
        audit.check();
        let file = a.file_of(id);
        for call in a.calls(id) {
            if let Some(what) = nondet_reason(&call) {
                if !allowed(&mut audit, file, "determinism", call.line) {
                    audit.fail(
                        file.path.clone(),
                        format!(
                            "line {}: `{}` ({what}) in `{}`, which is on a call path to {}; \
                             fix it or add `// analyze:allow(determinism): <why>`",
                            call.line,
                            call_label(&call),
                            f.qualified,
                            sinks.join("/"),
                        ),
                    );
                }
            }
            if call.kind == CallKind::Method && HASH_ITER_METHODS.contains(&call.name.as_str()) {
                let chain = file.receiver_chain(call.token);
                if let Some(last) = chain.last() {
                    if file.hash_bindings.contains(last)
                        && !allowed(&mut audit, file, "determinism", call.line)
                    {
                        audit.fail(
                            file.path.clone(),
                            format!(
                                "line {}: `{last}.{}()` iterates a HashMap/HashSet in `{}`, \
                                 which is on a call path to {}; iteration order is \
                                 nondeterministic — collect and sort, use a BTreeMap, or add \
                                 `// analyze:allow(determinism): <why>`",
                                call.line,
                                call.name,
                                f.qualified,
                                sinks.join("/"),
                            ),
                        );
                    }
                }
            }
        }
        // `for x in map`-style iteration without a method call.
        for (line, name) in for_loop_hash_iteration(file, f) {
            if !allowed(&mut audit, file, "determinism", line) {
                audit.fail(
                    file.path.clone(),
                    format!(
                        "line {line}: `for … in {name}` iterates a HashMap/HashSet in `{}`, \
                         which is on a call path to {}; iteration order is nondeterministic",
                        f.qualified,
                        sinks.join("/"),
                    ),
                );
            }
        }
    }
    let allows = a
        .files
        .iter()
        .flat_map(|file| {
            file.allows.iter().map(|s| AllowRecord {
                file: file.path.clone(),
                line: s.line,
                tag: s.tag.clone(),
                justification: s.justification.clone(),
            })
        })
        .collect();
    let report = DeterminismReport {
        sinks,
        tainted: tainted_names.into_iter().collect(),
        allows,
    };
    (audit, report)
}

/// Why a call is nondeterministic, if it is.
fn nondet_reason(call: &CallSite) -> Option<&'static str> {
    if let Some(prefix) = call.prefix.as_deref() {
        for (p, n, what) in NONDET_QUALIFIED {
            if prefix == p && call.name == n {
                return Some(what);
            }
        }
    }
    NONDET_ANY
        .iter()
        .find(|(n, _)| call.name == *n)
        .map(|(_, what)| *what)
}

/// Human label for a call site.
fn call_label(call: &CallSite) -> String {
    match call.prefix.as_deref() {
        Some(p) => format!("{p}::{}", call.name),
        None => call.name.clone(),
    }
}

/// `for … in <expr>` loops in `f` whose iterated expression mentions a
/// HashMap/HashSet-typed binding; returns `(line, binding)` pairs.
fn for_loop_hash_iteration(file: &FileModel, f: &FnItem) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let idxs = file.body_token_indices(f);
    for (pos, &i) in idxs.iter().enumerate() {
        let t = &file.tokens[i];
        if !t.is_ident(&file.src, "in") {
            continue;
        }
        // Scan the loop-head expression up to its `{`.
        for &j in idxs[pos + 1..].iter().take(12) {
            let u = &file.tokens[j];
            if u.is_punct(&file.src, b'{') {
                break;
            }
            if u.kind == TokenKind::Ident {
                let name = u.text(&file.src);
                if file.hash_bindings.iter().any(|b| b == name) {
                    // A following `.method(` means the method-call check
                    // owns this site (e.g. `.keys()`); the bare form is
                    // ours.
                    let is_method_recv = file
                        .next_code_token(j)
                        .is_some_and(|(_, n)| n.is_punct(&file.src, b'.'));
                    if !is_method_recv {
                        out.push((u.line, name.to_string()));
                    }
                }
            }
        }
    }
    out
}

/// **Pass 2 — lock discipline.**
///
/// Builds the lock-acquisition order graph: an edge `A → B` means lock
/// `B` was acquired (directly, or transitively via a callee) while `A`
/// was held. Cycles in this graph are deadlock-capable orderings and
/// fail the audit. Within each held region the pass also flags blocking
/// I/O — direct calls and one call level deep (deeper blocking is what
/// the ThreadSanitizer CI job cross-validates) — unless the site carries
/// `// analyze:allow(lock-io): why`.
///
/// Guard regions are approximated short (see
/// [`crate::model::FileModel::guard_end`]); `Condvar::wait*` is exempt
/// (it releases the lock); self-edges are dropped (re-acquisition
/// through missed `drop`s would false-positive).
pub fn lock_discipline(a: &Analysis) -> (Audit, LockReport) {
    let mut audit = Audit::new("lock-discipline");
    let n = a.len();
    // Per-node direct facts.
    let sites: Vec<Vec<LockSite>> = (0..n).map(|id| a.lock_sites(id)).collect();
    let calls: Vec<Vec<CallSite>> = (0..n).map(|id| a.calls(id)).collect();
    // Guard-returning helpers: a fn whose signature names a guard type
    // acquires its lock *at the call site*.
    let helper: Vec<Option<String>> = (0..n)
        .map(|id| {
            let f = a.item(id);
            let file = a.file_of(id);
            if signature_mentions_guard(file, f) {
                sites[id]
                    .iter()
                    .find(|s| s.resolved)
                    .map(|s| s.lock.clone())
            } else {
                None
            }
        })
        .collect();
    // Direct blocking ops per node: (token, line, label).
    let blocking: Vec<Vec<(usize, u32, String)>> =
        (0..n).map(|id| direct_blocking(&calls[id])).collect();
    // Fixpoint: locks a node may acquire transitively.
    let mut locks_all: Vec<BTreeSet<String>> = (0..n)
        .map(|id| {
            let mut s: BTreeSet<String> = sites[id].iter().map(|l| l.lock.clone()).collect();
            if let Some(h) = &helper[id] {
                s.insert(h.clone());
            }
            s
        })
        .collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            let mut add: Vec<String> = Vec::new();
            for call in &calls[id] {
                for callee in a.resolve_call(id, call) {
                    for l in &locks_all[callee] {
                        if !locks_all[id].contains(l) {
                            add.push(l.clone());
                        }
                    }
                }
            }
            for l in add {
                changed |= locks_all[id].insert(l);
            }
        }
        if !changed {
            break;
        }
    }
    // Edge construction + blocking findings.
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for id in 0..n {
        let f = a.item(id);
        // `fmt` impls are skipped: `DebugStruct::finish`/`entries` collide
        // with workspace trait methods and Debug formatting never
        // dispatches into the serving tier.
        if f.in_tests || concurrency_exempt(&f.path) || f.name == "fmt" {
            continue;
        }
        let Some((_, body_end)) = f.body else {
            continue;
        };
        let file = a.file_of(id);
        audit.check();
        // Acquisitions: direct sites plus helper calls.
        let mut acqs: Vec<(String, usize, u32)> = sites[id]
            .iter()
            .map(|s| (s.lock.clone(), s.token, s.line))
            .collect();
        for call in &calls[id] {
            for callee in a.resolve_call(id, call) {
                if let Some(h) = &helper[callee] {
                    acqs.push((h.clone(), call.token, call.line));
                }
            }
        }
        acqs.sort_by_key(|(_, t, _)| *t);
        for (lock, token, _line) in &acqs {
            let end = file.guard_end(*token, body_end);
            let region = *token + 1..end;
            for (l2, t2, line2) in &acqs {
                if region.contains(t2) && l2 != lock {
                    edges
                        .entry((lock.clone(), l2.clone()))
                        .or_insert_with(|| (file.path.clone(), *line2));
                }
            }
            for call in &calls[id] {
                if !region.contains(&call.token) {
                    continue;
                }
                let callees = a.resolve_call(id, call);
                for &callee in &callees {
                    for l2 in &locks_all[callee] {
                        if l2 != lock {
                            edges
                                .entry((lock.clone(), l2.clone()))
                                .or_insert_with(|| (file.path.clone(), call.line));
                        }
                    }
                }
                // One-level-deep blocking through the callee — only when
                // the dispatch is unambiguous (every candidate blocks):
                // name-union resolution would otherwise connect every
                // `Vec::push` under a lock to an unrelated workspace
                // method. Ambiguous cases are what the TSan job covers.
                let all_block =
                    !callees.is_empty() && callees.iter().all(|&c| !blocking[c].is_empty());
                if all_block {
                    let what = &blocking[callees[0]].first().expect("checked non-empty").2;
                    if !allowed(&mut audit, file, "lock-io", call.line) {
                        audit.fail(
                            file.path.clone(),
                            format!(
                                "line {}: lock `{lock}` is held across `{}` (which does \
                                 blocking `{what}`) in `{}`; shrink the critical section \
                                 or add `// analyze:allow(lock-io): <why>`",
                                call.line,
                                call_label(call),
                                f.qualified,
                            ),
                        );
                    }
                }
            }
            for (t2, line2, what) in &blocking[id] {
                if region.contains(t2) && !allowed(&mut audit, file, "lock-io", *line2) {
                    audit.fail(
                        file.path.clone(),
                        format!(
                            "line {line2}: lock `{lock}` is held across blocking `{what}` in \
                             `{}`; shrink the critical section or add \
                             `// analyze:allow(lock-io): <why>`",
                            f.qualified,
                        ),
                    );
                }
            }
        }
    }
    let edge_list: Vec<LockEdge> = edges
        .iter()
        .map(|((from, to), (fpath, line))| LockEdge {
            from: from.clone(),
            to: to.clone(),
            file: fpath.clone(),
            line: *line,
        })
        .collect();
    let cycles = find_cycles(&edge_list);
    for cycle in &cycles {
        audit.check();
        audit.fail(
            "workspace",
            format!(
                "lock-acquisition order cycle: {} — a deadlock-capable ordering; \
                 acquire these locks in one global order",
                cycle.join(" -> "),
            ),
        );
    }
    let report = LockReport {
        declared: a.locks.iter().map(|l| l.id.clone()).collect(),
        edges: edge_list,
        cycles,
    };
    (audit, report)
}

/// True when `f`'s signature names a guard type — the marker for
/// guard-returning helper functions.
fn signature_mentions_guard(file: &FileModel, f: &FnItem) -> bool {
    let Some((start, _)) = f.body else {
        return false;
    };
    file.tokens[f.token..start].iter().any(|t| {
        t.kind == TokenKind::Ident
            && matches!(
                t.text(&file.src),
                "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard"
            )
    })
}

/// Direct blocking operations in a node's call list: blocking methods
/// (except `Condvar::wait*`, which releases the lock), `write!`/
/// `writeln!` macros, and `thread::sleep`.
fn direct_blocking(calls: &[CallSite]) -> Vec<(usize, u32, String)> {
    let mut out = Vec::new();
    for call in calls {
        let hit = match call.kind {
            CallKind::Method => BLOCKING_METHODS.contains(&call.name.as_str()),
            CallKind::Macro => BLOCKING_MACROS.contains(&call.name.as_str()),
            CallKind::Qualified => call.name == "sleep",
            CallKind::Free => false,
        };
        if hit {
            let label = match call.kind {
                CallKind::Macro => format!("{}!", call.name),
                _ => call_label(call),
            };
            out.push((call.token, call.line, label));
        }
    }
    out
}

/// Cycle detection over the lock-order edges: returns each cycle as a
/// closed path of lock ids. Self-edges are excluded by construction.
fn find_cycles(edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(&e.to);
        nodes.insert(&e.from);
        nodes.insert(&e.to);
    }
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for &start in &nodes {
        if done.contains(start) {
            continue;
        }
        // DFS with an explicit path stack; the first back-edge into the
        // current path yields one cycle per starting node at most.
        let mut path: Vec<&str> = vec![start];
        let mut iters: Vec<usize> = vec![0];
        let mut found = false;
        while let Some(&node) = path.last() {
            if found {
                break;
            }
            let i = *iters.last().expect("stacks move together");
            let next = adj.get(node).and_then(|v| v.get(i).copied());
            match next {
                Some(m) => {
                    *iters.last_mut().expect("stacks move together") += 1;
                    if let Some(at) = path.iter().position(|&p| p == m) {
                        let mut cycle: Vec<String> =
                            path[at..].iter().map(ToString::to_string).collect();
                        cycle.push(m.to_string());
                        if !cycles.iter().any(|c| same_cycle(c, &cycle)) {
                            cycles.push(cycle);
                        }
                        found = true;
                    } else if !done.contains(m) {
                        path.push(m);
                        iters.push(0);
                    }
                }
                None => {
                    done.insert(node);
                    path.pop();
                    iters.pop();
                }
            }
        }
    }
    cycles
}

/// True when two closed paths denote the same cycle (rotation-invariant).
fn same_cycle(a: &[String], b: &[String]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let core_a = &a[..a.len() - 1];
    let core_b = &b[..b.len() - 1];
    (0..core_a.len())
        .any(|r| (0..core_a.len()).all(|i| core_a[(r + i) % core_a.len()] == core_b[i]))
}

/// **Pass 3 — panic surface.**
///
/// Catalogues panic-capable sites (`unwrap`, `expect`, indexing, panic
/// macros) in every function reachable from the [`PANIC_ROOTS`] — the
/// serving tier's worker and connection threads — and requires each site
/// to be contained by the scheduler's `catch_unwind` boundary or carry
/// `// analyze:allow(panic): why`. Containment is computed from the call
/// graph: functions called inside a `catch_unwind(...)` argument span,
/// plus everything they reach.
pub fn panic_surface(a: &Analysis) -> (Audit, PanicReport) {
    let mut audit = Audit::new("panic-surface");
    let mut root_ids: Vec<NodeId> = Vec::new();
    let mut roots = Vec::new();
    for (name, file) in PANIC_ROOTS {
        let ids: Vec<NodeId> = a
            .find(name)
            .into_iter()
            .filter(|&id| file.is_none_or(|f| a.file_of(id).path == f))
            .collect();
        if !ids.is_empty() {
            roots.push(name.to_string());
        }
        root_ids.extend(ids);
    }
    let reachable = a.reachable_from(&root_ids);
    // Contained roots: workspace fns invoked inside catch_unwind(...) args.
    let mut contained_roots: Vec<NodeId> = Vec::new();
    let mut unwind_spans: BTreeMap<NodeId, Vec<(usize, usize)>> = BTreeMap::new();
    for id in 0..a.len() {
        let file = a.file_of(id);
        let node_calls = a.calls(id);
        for call in &node_calls {
            if call.name != "catch_unwind" {
                continue;
            }
            let Some((oi, o)) = file.next_code_token(call.token) else {
                continue;
            };
            if !o.is_punct(&file.src, b'(') {
                continue;
            }
            let Some(close) = file.matching(oi) else {
                continue;
            };
            unwind_spans.entry(id).or_default().push((oi, close));
            for inner in &node_calls {
                if inner.token > oi && inner.token < close {
                    contained_roots.extend(a.resolve_call(id, inner));
                }
            }
        }
    }
    let contained_set = a.reachable_from(&contained_roots);
    let mut sites = Vec::new();
    let mut contained_count = 0usize;
    for id in 0..a.len() {
        if !reachable[id] {
            continue;
        }
        let f = a.item(id);
        if f.in_tests || concurrency_exempt(&f.path) {
            continue;
        }
        audit.check();
        let file = a.file_of(id);
        let spans = unwind_spans.get(&id).map_or(&[][..], Vec::as_slice);
        for (token, line, kind) in panic_sites(file, f) {
            let contained =
                contained_set[id] || spans.iter().any(|(s, e)| token > *s && token < *e);
            if contained {
                contained_count += 1;
                continue;
            }
            let is_allowed =
                allow_for(file, "panic", line).is_some_and(|s| !s.justification.is_empty());
            if !allowed(&mut audit, file, "panic", line) {
                audit.fail(
                    file.path.clone(),
                    format!(
                        "line {line}: `{kind}` in `{}` is reachable from a server worker \
                         thread and not contained by the scheduler's catch_unwind boundary; \
                         handle the failure or add `// analyze:allow(panic): <why>`",
                        f.qualified,
                    ),
                );
            }
            sites.push(PanicSiteRecord {
                function: f.qualified.clone(),
                file: file.path.clone(),
                line,
                kind,
                allowed: is_allowed,
            });
        }
    }
    let report = PanicReport {
        roots,
        sites,
        contained: contained_count,
    };
    (audit, report)
}

/// Panic-capable sites in `f`: `(token, line, kind)`.
fn panic_sites(file: &FileModel, f: &FnItem) -> Vec<(usize, u32, String)> {
    let mut out = Vec::new();
    for call in file.calls_of(f) {
        match call.kind {
            CallKind::Method => {
                if matches!(
                    call.name.as_str(),
                    "unwrap" | "unwrap_err" | "expect" | "expect_err"
                ) {
                    out.push((call.token, call.line, format!(".{}()", call.name)));
                }
            }
            CallKind::Macro if PANIC_MACROS.contains(&call.name.as_str()) => {
                out.push((call.token, call.line, format!("{}!", call.name)));
            }
            _ => {}
        }
    }
    // Indexing: a `[` in expression position (previous token is an
    // identifier or a closing bracket). `#[attr]`, array types, and
    // `vec![…]` never match — their `[` follows `#`, `:`, `=`, or `!`.
    for i in file.body_token_indices(f) {
        let t = &file.tokens[i];
        if !t.is_punct(&file.src, b'[') {
            continue;
        }
        let Some((_, p)) = file.prev_code_token(i) else {
            continue;
        };
        let expr_pos = p.kind == TokenKind::Ident
            && !KEYWORD_BEFORE_BRACKET.contains(&p.text(&file.src))
            || p.is_punct(&file.src, b')')
            || p.is_punct(&file.src, b']');
        if expr_pos {
            out.push((i, t.line, "indexing".to_string()));
        }
    }
    out.sort_by_key(|(t, _, _)| *t);
    out
}

/// Identifiers that may precede `[` without it being an indexing site.
const KEYWORD_BEFORE_BRACKET: [&str; 4] = ["in", "return", "break", "else"];
