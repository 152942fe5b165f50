//! The reference kernel `model_vs_kernel` compares the cc-urand model
//! against: GAPBS-style connected components by label propagation on a
//! real CSR graph. Its data lives in host memory but is *addressed*
//! through [`SimArray`]s in simulated virtual memory, so every load and
//! store the algorithm performs reaches an [`AccessSink`] and the MMU
//! simulator sees the true address trace.

use atscale_mmu::AccessSink;
use atscale_vm::{AddressSpace, VirtAddr, VmError};

/// A typed array in simulated virtual memory backed by host data: the
/// values live in an ordinary `Vec<T>` (so the algorithm genuinely
/// computes), while every `get`/`set` also emits the element's simulated
/// virtual address.
#[derive(Debug, Clone)]
pub struct SimArray<T> {
    base: VirtAddr,
    data: Vec<T>,
}

impl<T: Copy> SimArray<T> {
    /// Allocates a named segment holding `len` elements of `fill`.
    pub fn new(space: &mut AddressSpace, name: &str, len: usize, fill: T) -> Result<Self, VmError> {
        Self::from_vec(space, name, vec![fill; len])
    }

    /// Wraps an existing host vector in a simulated segment.
    pub fn from_vec(space: &mut AddressSpace, name: &str, data: Vec<T>) -> Result<Self, VmError> {
        let bytes = (data.len().max(1) * size_of::<T>()) as u64;
        let seg = space.alloc_heap(name, bytes)?;
        Ok(SimArray {
            base: seg.base(),
            data,
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The simulated virtual address of element `i`.
    pub fn va(&self, i: usize) -> VirtAddr {
        debug_assert!(i < self.data.len());
        self.base.add((i * size_of::<T>()) as u64)
    }

    /// Reads element `i`, emitting the load to `sink`.
    pub fn get(&self, i: usize, sink: &mut dyn AccessSink) -> T {
        sink.load(self.va(i));
        self.data[i]
    }

    /// Writes element `i`, emitting the store to `sink`.
    pub fn set(&mut self, i: usize, value: T, sink: &mut dyn AccessSink) {
        sink.store(self.va(i));
        self.data[i] = value;
    }

    /// Reads element `i` without touching the simulator.
    pub fn get_silent(&self, i: usize) -> T {
        self.data[i]
    }

    /// Writes element `i` without touching the simulator (setup-phase work
    /// a real program does before measurement).
    pub fn set_silent(&mut self, i: usize, value: T) {
        self.data[i] = value;
    }

    /// The raw host data (no simulated accesses).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

/// A compressed-sparse-row graph whose `offsets` and `targets` arrays live
/// in simulated virtual memory, like GAPBS's in-memory representation.
/// Edges are stored in both directions; self-loops are dropped.
#[derive(Debug)]
pub struct CsrGraph {
    n: usize,
    offsets: SimArray<u64>,
    targets: SimArray<u32>,
}

impl CsrGraph {
    /// Builds a CSR graph over `n` vertices from a directed edge stream,
    /// symmetrising and dropping self-loops.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `>= n`.
    pub fn build(
        space: &mut AddressSpace,
        n: usize,
        edges: impl Iterator<Item = (u64, u64)>,
    ) -> Result<Self, VmError> {
        // Host-side build (the real benchmark's untimed build phase).
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            if u != v {
                pairs.push((u as u32, v as u32));
                pairs.push((v as u32, u as u32));
            }
        }
        let mut degree = vec![0u64; n];
        for &(u, _) in &pairs {
            degree[u as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; pairs.len()];
        for &(u, v) in &pairs {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
        }
        // Sort each adjacency list, as GAPBS does.
        for v in 0..n {
            targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Ok(CsrGraph {
            n,
            offsets: SimArray::from_vec(space, "csr.offsets", offsets)?,
            targets: SimArray::from_vec(space, "csr.targets", targets)?,
        })
    }

    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.n
    }

    /// Number of directed (symmetrised) edges.
    pub fn directed_edges(&self) -> usize {
        self.targets.len()
    }

    /// Adjacency range of `v`, emitting the two offset loads.
    pub fn range(&self, v: usize, sink: &mut dyn AccessSink) -> (usize, usize) {
        let start = self.offsets.get(v, sink) as usize;
        let end = self.offsets.get(v + 1, sink) as usize;
        (start, end)
    }

    /// Adjacency range without simulated accesses.
    pub fn range_silent(&self, v: usize) -> (usize, usize) {
        (
            self.offsets.get_silent(v) as usize,
            self.offsets.get_silent(v + 1) as usize,
        )
    }

    /// Degree of `v` without simulated accesses.
    pub fn degree_silent(&self, v: usize) -> usize {
        let (s, e) = self.range_silent(v);
        e - s
    }

    /// Reads the target at CSR index `i`, emitting the load.
    pub fn target(&self, i: usize, sink: &mut dyn AccessSink) -> usize {
        self.targets.get(i, sink) as usize
    }

    /// Reads the target at CSR index `i` silently.
    pub fn target_silent(&self, i: usize) -> usize {
        self.targets.get_silent(i) as usize
    }
}

/// Computes connected components by iterative label propagation into a
/// caller-allocated label array (initialised to `0..n`): every vertex
/// repeatedly adopts the minimum label among itself and its neighbours
/// until a fixpoint. Returns the number of propagation rounds.
///
/// # Panics
///
/// Panics if `comp.len() != graph.vertices()`.
pub fn connected_components(
    graph: &CsrGraph,
    comp: &mut SimArray<u64>,
    sink: &mut dyn AccessSink,
) -> u32 {
    assert_eq!(
        comp.len(),
        graph.vertices(),
        "label array must have one slot per vertex"
    );
    let n = graph.vertices();
    let mut rounds = 0;
    let mut changed = true;
    while changed && !sink.done() {
        changed = false;
        rounds += 1;
        for u in 0..n {
            let mut label = comp.get(u, sink);
            let (start, end) = graph.range(u, sink);
            for i in start..end {
                let v = graph.target(i, sink);
                let lv = comp.get(v, sink);
                sink.instructions(2);
                if lv < label {
                    label = lv;
                    changed = true;
                }
            }
            if changed {
                comp.set(u, label, sink);
            }
            if sink.done() {
                break;
            }
        }
    }
    rounds
}

mod tests {
    use super::*;
    use atscale_mmu::CountingSink;
    use atscale_vm::{BackingPolicy, PageSize};

    fn space() -> AddressSpace {
        AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K))
    }

    #[test]
    fn elements_have_disjoint_addresses() {
        let mut s = space();
        let arr = SimArray::new(&mut s, "a", 10, 0u32).unwrap();
        let vas: Vec<u64> = (0..10).map(|i| arr.va(i).as_u64()).collect();
        for w in vas.windows(2) {
            assert_eq!(w[1] - w[0], 4, "u32 elements are 4 bytes apart");
        }
    }

    #[test]
    fn get_set_roundtrip_and_count() {
        let mut s = space();
        let mut arr = SimArray::new(&mut s, "a", 8, 0i64).unwrap();
        let mut sink = CountingSink::new();
        arr.set(7, -42, &mut sink);
        assert_eq!(arr.get(7, &mut sink), -42);
        assert_eq!((sink.loads, sink.stores), (1, 1));
        assert_eq!(arr.get_silent(7), -42);
        assert_eq!((sink.loads, sink.stores), (1, 1), "silent ops emit nothing");
    }

    #[test]
    fn from_vec_preserves_contents() {
        let mut s = space();
        let arr = SimArray::from_vec(&mut s, "v", vec![3u8, 1, 4, 1, 5]).unwrap();
        assert_eq!(arr.as_slice(), &[3, 1, 4, 1, 5]);
        assert_eq!(arr.len(), 5);
        assert!(!arr.is_empty());
    }

    #[test]
    fn arrays_in_same_space_do_not_overlap() {
        let mut s = space();
        let a = SimArray::new(&mut s, "a", 1000, 0u64).unwrap();
        let b = SimArray::new(&mut s, "b", 1000, 0u64).unwrap();
        let a_end = a.va(999).as_u64() + 8;
        assert!(b.va(0).as_u64() >= a_end);
    }

    #[test]
    fn builds_symmetric_sorted_csr() {
        let mut s = space();
        let g = CsrGraph::build(&mut s, 4, [(0u64, 2u64), (0, 1), (3, 0)].into_iter()).unwrap();
        assert_eq!(g.directed_edges(), 6);
        let (start, end) = g.range_silent(0);
        let neigh: Vec<usize> = (start..end).map(|i| g.target_silent(i)).collect();
        assert_eq!(neigh, vec![1, 2, 3], "sorted adjacency");
    }

    #[test]
    fn self_loops_are_dropped() {
        let mut s = space();
        let g = CsrGraph::build(&mut s, 3, [(1u64, 1u64), (0, 1)].into_iter()).unwrap();
        assert_eq!(g.directed_edges(), 2);
        assert_eq!(g.degree_silent(1), 1);
    }

    #[test]
    fn accesses_are_emitted() {
        let mut s = space();
        let g = CsrGraph::build(&mut s, 3, [(0u64, 1u64), (1, 2)].into_iter()).unwrap();
        let mut sink = CountingSink::new();
        let (start, end) = g.range(1, &mut sink);
        for i in start..end {
            g.target(i, &mut sink);
        }
        assert_eq!(sink.loads, 2 + 2, "two offsets + two targets");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut s = space();
        let _ = CsrGraph::build(&mut s, 2, [(0u64, 5u64)].into_iter());
    }

    fn run_cc(space: &mut AddressSpace, g: &CsrGraph) -> Vec<u64> {
        let mut comp =
            SimArray::from_vec(space, "cc.comp", (0..g.vertices() as u64).collect()).unwrap();
        let mut sink = CountingSink::new();
        connected_components(g, &mut comp, &mut sink);
        comp.as_slice().to_vec()
    }

    /// Host-side union-find for cross-checking.
    fn reference_components(n: usize, edges: &[(u64, u64)]) -> Vec<usize> {
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let root = find(p, p[x]);
                p[x] = root;
            }
            p[x]
        }
        for &(u, v) in edges {
            let (ru, rv) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
            parent[ru] = rv;
        }
        (0..n).map(|v| find(&mut parent, v)).collect()
    }

    #[test]
    fn matches_union_find_on_random_graph() {
        use atscale_gen::kron::{edges, KronConfig};
        let cfg = KronConfig::new(8, 5); // 256 vertices (kron leaves isolates)
        let edge_list: Vec<(u64, u64)> = edges(cfg).collect();
        let mut s = space();
        let g = CsrGraph::build(&mut s, 256, edge_list.iter().copied()).unwrap();
        let comp = run_cc(&mut s, &g);
        let reference = reference_components(256, &edge_list);
        // Same partition: comp labels equal iff reference roots equal.
        for a in 0..256 {
            for b in (a + 1)..256 {
                assert_eq!(
                    comp[a] == comp[b],
                    reference[a] == reference[b],
                    "partition mismatch at ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn isolated_vertices_keep_their_own_label() {
        let mut s = space();
        let g = CsrGraph::build(&mut s, 3, [(0u64, 1u64)].into_iter()).unwrap();
        let comp = run_cc(&mut s, &g);
        assert_eq!(comp[2], 2);
        assert_eq!(comp[0], comp[1]);
    }

    #[test]
    fn converges_in_few_rounds_on_a_path() {
        let mut s = space();
        let g = CsrGraph::build(&mut s, 4, [(0u64, 1u64), (1, 2), (2, 3)].into_iter()).unwrap();
        let mut comp = SimArray::from_vec(&mut s, "c", (0..4u64).collect()).unwrap();
        let mut sink = CountingSink::new();
        let rounds = connected_components(&g, &mut comp, &mut sink);
        assert!(comp.as_slice().iter().all(|&l| l == 0));
        assert!(rounds >= 2, "at least one change round plus a quiet round");
    }
}
