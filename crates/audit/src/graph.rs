//! The intra-workspace call graph with reachability queries.
//!
//! Nodes are the [`crate::model::FnItem`]s of every Rust source in the
//! workspace; edges are resolved *by name*, not by type:
//!
//! * a free call `name(...)` edges to every workspace function named
//!   `name` (the union over same-named functions — documented
//!   imprecision that errs toward over-approximation, which is the safe
//!   direction for taint and panic analysis);
//! * a method call `.name(...)` edges to every *method* named `name`;
//! * a qualified call `Type::name(...)` edges to the exact
//!   `Type::name` when the workspace declares one (with `Self`
//!   resolved against the caller's `impl` type), falling back to free
//!   functions named `name` for module-qualified calls;
//! * macro invocations produce no edges (the passes inspect them
//!   directly at the call site).
//!
//! Reachability is plain BFS, forward (callees of a root set) and
//! reverse (callers that can reach a sink set). All internal maps are
//! `BTreeMap` so the engine's own output ordering is deterministic —
//! the discipline it enforces on the rest of the workspace.

use crate::model::{CallKind, CallSite, FileModel, FnItem, LockDecl, LockSite};
use crate::Workspace;
use std::collections::BTreeMap;

/// A node id: index into `Analysis::fns`.
pub type NodeId = usize;

/// Method names whose calls are almost always `std` collection/iterator/
/// `Option`/`Result` APIs; a method call with one of these names never
/// resolves to a workspace function (see [`Analysis::resolve_call`]).
pub const STD_COLLIDING_METHODS: [&str; 53] = [
    // Collections.
    "push",
    "pop",
    "join",
    "insert",
    "remove",
    "get",
    "get_mut",
    "extend",
    "clear",
    "take",
    "entry",
    "contains",
    "contains_key",
    "len",
    "is_empty",
    "iter",
    "into_iter",
    "keys",
    "values",
    "drain",
    "retain",
    "sort",
    "sort_by",
    "sort_by_key",
    "first",
    "last",
    // Iterators.
    "next",
    "find",
    "any",
    "all",
    "map",
    "filter",
    "filter_map",
    "fold",
    "sum",
    "position",
    "count",
    "collect",
    "enumerate",
    "rev",
    "zip",
    "chain",
    "cloned",
    "copied",
    "skip",
    "flat_map",
    "for_each",
    "max",
    "min",
    // Option/Result.
    "unwrap_or",
    "unwrap_or_else",
    "and_then",
    // Filesystem builders: `File::open`/`OpenOptions::open` as a method
    // call must not edge to the workspace's `RunStore::open`-style
    // constructors (those are only ever invoked qualified).
    "open",
];

/// True for functions that belong to the test/bench harness rather than
/// product code: `#[cfg(test)]` regions, `tests/` integration files, and
/// the bench crate's sources.
fn is_harness(f: &FnItem) -> bool {
    f.in_tests || f.path.starts_with("crates/bench/") || f.path.contains("/benches/")
}

/// The analysed workspace: per-file models, the flattened function list,
/// and the call graph.
pub struct Analysis {
    /// One model per Rust source file, in workspace path order.
    pub files: Vec<FileModel>,
    /// Every lock declaration across the workspace.
    pub locks: Vec<LockDecl>,
    /// Flattened `(file index, fn index)` pairs; a [`NodeId`] indexes here.
    fns: Vec<(usize, usize)>,
    by_name: BTreeMap<String, Vec<NodeId>>,
    by_qualified: BTreeMap<String, Vec<NodeId>>,
    edges: Vec<Vec<NodeId>>,
    redges: Vec<Vec<NodeId>>,
}

impl Analysis {
    /// Parses every Rust source in `ws` and builds the call graph.
    pub fn build(ws: &Workspace) -> Analysis {
        let files: Vec<FileModel> = ws
            .files
            .iter()
            .map(|f| FileModel::parse(&f.path, &f.text))
            .collect();
        let mut locks = Vec::new();
        for f in &files {
            locks.extend(f.locks.iter().cloned());
        }
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        let mut by_qualified: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, g) in file.fns.iter().enumerate() {
                let id = fns.len();
                fns.push((fi, gi));
                by_name.entry(g.name.clone()).or_default().push(id);
                by_qualified
                    .entry(g.qualified.clone())
                    .or_default()
                    .push(id);
            }
        }
        let mut analysis = Analysis {
            files,
            locks,
            fns,
            by_name,
            by_qualified,
            edges: Vec::new(),
            redges: Vec::new(),
        };
        analysis.build_edges();
        analysis
    }

    fn build_edges(&mut self) {
        let n = self.fns.len();
        let mut edges: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut redges: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (id, slot) in edges.iter_mut().enumerate() {
            let mut out: Vec<NodeId> = Vec::new();
            for call in self.calls(id) {
                out.extend(self.resolve_call(id, &call));
            }
            out.sort_unstable();
            out.dedup();
            for &callee in &out {
                redges[callee].push(id);
            }
            *slot = out;
        }
        for r in &mut redges {
            r.sort_unstable();
            r.dedup();
        }
        self.edges = edges;
        self.redges = redges;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// True when the workspace declared no functions at all.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// The function item behind a node id.
    pub fn item(&self, id: NodeId) -> &FnItem {
        let (fi, gi) = self.fns[id];
        &self.files[fi].fns[gi]
    }

    /// The model of the Rust source at workspace-relative `path`.
    pub fn file(&self, path: &str) -> Option<&FileModel> {
        self.files.iter().find(|f| f.path == path)
    }

    /// The file model a node lives in.
    pub fn file_of(&self, id: NodeId) -> &FileModel {
        &self.files[self.fns[id].0]
    }

    /// Call sites in a node's body.
    pub fn calls(&self, id: NodeId) -> Vec<CallSite> {
        let (fi, gi) = self.fns[id];
        let file = &self.files[fi];
        file.calls_of(&file.fns[gi])
    }

    /// Lock acquisitions in a node's body.
    pub fn lock_sites(&self, id: NodeId) -> Vec<LockSite> {
        let (fi, gi) = self.fns[id];
        let file = &self.files[fi];
        file.lock_sites_of(&file.fns[gi], &self.locks)
    }

    /// Nodes matching `name` — a `Type::method` qualified name, or a bare
    /// name matched against every function with that name.
    pub fn find(&self, name: &str) -> Vec<NodeId> {
        if name.contains("::") {
            self.by_qualified.get(name).cloned().unwrap_or_default()
        } else {
            self.by_name.get(name).cloned().unwrap_or_default()
        }
    }

    /// Callees a call site may dispatch to, given the calling node.
    ///
    /// Two precision filters apply on top of name matching: production
    /// code never resolves into test/bench functions (tests may call
    /// production, never the reverse), and method names that collide
    /// with ubiquitous `std` APIs ([`STD_COLLIDING_METHODS`]) resolve to
    /// nothing — `vec.push(x)` must not edge to an unrelated workspace
    /// `fn push`. The cost is a documented false-negative class: a
    /// workspace method with such a name gets no incoming method-call
    /// edges.
    pub fn resolve_call(&self, caller: NodeId, call: &CallSite) -> Vec<NodeId> {
        let callees = self.resolve_by_name(caller, call);
        if is_harness(self.item(caller)) {
            return callees;
        }
        callees
            .into_iter()
            .filter(|&id| !is_harness(self.item(id)))
            .collect()
    }

    fn resolve_by_name(&self, caller: NodeId, call: &CallSite) -> Vec<NodeId> {
        match call.kind {
            CallKind::Macro => Vec::new(),
            CallKind::Method => {
                if STD_COLLIDING_METHODS.contains(&call.name.as_str()) {
                    return Vec::new();
                }
                self.by_name
                    .get(&call.name)
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&id| self.item(id).impl_type.is_some())
                            .collect()
                    })
                    .unwrap_or_default()
            }
            CallKind::Free => self.by_name.get(&call.name).cloned().unwrap_or_default(),
            CallKind::Qualified => {
                let prefix = match call.prefix.as_deref() {
                    Some("Self") => self.item(caller).impl_type.clone(),
                    other => other.map(str::to_string),
                };
                if let Some(p) = prefix {
                    let qualified = format!("{p}::{}", call.name);
                    if let Some(ids) = self.by_qualified.get(&qualified) {
                        return ids.clone();
                    }
                }
                // Module-qualified call (`store::hot_row(...)`):
                // fall back to free functions with that name.
                self.by_name
                    .get(&call.name)
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&id| self.item(id).impl_type.is_none())
                            .collect()
                    })
                    .unwrap_or_default()
            }
        }
    }

    /// Forward reachability: every node reachable from `roots` (roots
    /// included).
    pub fn reachable_from(&self, roots: &[NodeId]) -> Vec<bool> {
        bfs(&self.edges, roots)
    }

    /// Reverse reachability: every node from which some node in `sinks`
    /// is reachable (sinks included).
    pub fn reaching(&self, sinks: &[NodeId]) -> Vec<bool> {
        bfs(&self.redges, sinks)
    }
}

fn bfs(edges: &[Vec<NodeId>], start: &[NodeId]) -> Vec<bool> {
    let mut seen = vec![false; edges.len()];
    let mut queue: Vec<NodeId> = Vec::new();
    for &s in start {
        if s < seen.len() && !seen[s] {
            seen[s] = true;
            queue.push(s);
        }
    }
    while let Some(n) = queue.pop() {
        for &m in &edges[n] {
            if !seen[m] {
                seen[m] = true;
                queue.push(m);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use crate::test_support::analysis_from as analysis;

    #[test]
    fn free_and_method_calls_build_edges() {
        let a = analysis(&[(
            "crates/x/src/lib.rs",
            "
            fn top() { helper(); }
            fn helper() { leaf(); }
            fn leaf() {}
            struct S;
            impl S { fn m(&self) { helper(); } }
            ",
        )]);
        let top = a.find("top")[0];
        let leaf = a.find("leaf")[0];
        let reach = a.reachable_from(&[top]);
        assert!(reach[leaf], "top -> helper -> leaf");
        let back = a.reaching(&[leaf]);
        assert!(back[top]);
        assert!(back[a.find("S::m")[0]], "method caller reaches leaf too");
    }

    #[test]
    fn qualified_calls_resolve_exactly() {
        let a = analysis(&[(
            "crates/x/src/lib.rs",
            "
            struct Store;
            impl Store { fn save(&self) {} fn key(&self) { Self::save_impl(); } fn save_impl() {} }
            fn other_save() {}
            fn caller() { Store::save(s); }
            ",
        )]);
        let caller = a.find("caller")[0];
        let save = a.find("Store::save")[0];
        let other = a.find("other_save")[0];
        let reach = a.reachable_from(&[caller]);
        assert!(reach[save]);
        assert!(!reach[other]);
        // `Self::` resolves against the caller's impl type.
        let key = a.find("Store::key")[0];
        assert!(a.reachable_from(&[key])[a.find("Store::save_impl")[0]]);
    }

    #[test]
    fn append_method_calls_resolve_to_workspace_methods() {
        // `RunStore::save` reaches the segment store through
        // `self.segments.append(..)`; a denylisted `append` would hide
        // everything below it from the lock and panic passes.
        let a = analysis(&[(
            "crates/x/src/lib.rs",
            "
            struct Segments;
            impl Segments { fn append(&self, key: &str) {} }
            struct Store { segments: Segments }
            impl Store { fn save(&self) { self.segments.append(\"k\"); } }
            ",
        )]);
        let save = a.find("Store::save")[0];
        assert!(a.reachable_from(&[save])[a.find("Segments::append")[0]]);
    }

    #[test]
    fn unknown_calls_produce_no_edges() {
        let a = analysis(&[(
            "crates/x/src/lib.rs",
            "fn f() { std::process::exit(1); x.push(1); }",
        )]);
        let f = a.find("f")[0];
        let reach = a.reachable_from(&[f]);
        assert_eq!(reach.iter().filter(|&&b| b).count(), 1, "only f itself");
    }
}
