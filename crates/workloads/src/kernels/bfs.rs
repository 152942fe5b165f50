//! Breadth-first search (GAPBS `bfs`).

use super::CsrGraph;
use crate::SimArray;
use atscale_mmu::AccessSink;

/// Top-down BFS from `source` into a caller-allocated parent array
/// (`-1` everywhere initially; `source` becomes its own parent).
///
/// The parent array must be allocated in the **same address space** as the
/// graph (typically via `machine.space_mut()`), so that its simulated
/// accesses resolve. The frontier queue is kept host-side (GAPBS's sliding
/// queue is sequential and negligible next to the graph traffic).
///
/// Returns the number of vertices reached (including `source`).
///
/// # Panics
///
/// Panics if `parent.len() != graph.vertices()`.
///
/// # Example
///
/// ```
/// use atscale_mmu::CountingSink;
/// use atscale_vm::{AddressSpace, BackingPolicy, PageSize};
/// use atscale_workloads::kernels::{bfs, CsrGraph};
/// use atscale_workloads::SimArray;
///
/// # fn main() -> Result<(), atscale_vm::VmError> {
/// let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
/// let g = CsrGraph::build(&mut space, 4, [(0, 1), (1, 2)].into_iter())?;
/// let mut parent = SimArray::new(&mut space, "bfs.parent", 4, -1i64)?;
/// let mut sink = CountingSink::new();
/// let reached = bfs(&g, 0, &mut parent, &mut sink);
/// assert_eq!(reached, 3);
/// assert_eq!(parent.as_slice(), &[0, 0, 1, -1]);
/// # Ok(())
/// # }
/// ```
pub fn bfs(
    graph: &CsrGraph,
    source: usize,
    parent: &mut SimArray<i64>,
    sink: &mut dyn AccessSink,
) -> usize {
    assert_eq!(
        parent.len(),
        graph.vertices(),
        "parent array must have one slot per vertex"
    );
    parent.set(source, source as i64, sink);
    let mut reached = 1;
    let mut frontier = vec![source];
    while !frontier.is_empty() && !sink.done() {
        let mut next = Vec::new();
        for &u in &frontier {
            let (start, end) = graph.range(u, sink);
            for i in start..end {
                let v = graph.target(i, sink);
                sink.instructions(2);
                if parent.get(v, sink) == -1 {
                    parent.set(v, u as i64, sink);
                    reached += 1;
                    next.push(v);
                }
            }
            if sink.done() {
                break;
            }
        }
        frontier = next;
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use atscale_mmu::CountingSink;
    use atscale_vm::{AddressSpace, BackingPolicy, PageSize};

    fn space() -> AddressSpace {
        AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K))
    }

    fn run_bfs(space: &mut AddressSpace, g: &CsrGraph, source: usize) -> (usize, Vec<i64>) {
        let mut parent = SimArray::new(space, "bfs.parent", g.vertices(), -1i64).unwrap();
        let mut sink = CountingSink::new();
        let reached = bfs(g, source, &mut parent, &mut sink);
        (reached, parent.as_slice().to_vec())
    }

    #[test]
    fn parents_form_a_valid_bfs_tree() {
        let mut s = space();
        // A path plus a branch: 0-1-2-3, 1-4.
        let g = CsrGraph::build(
            &mut s,
            5,
            [(0u64, 1u64), (1, 2), (2, 3), (1, 4)].into_iter(),
        )
        .unwrap();
        let (reached, parents) = run_bfs(&mut s, &g, 0);
        assert_eq!(parents, vec![0, 0, 1, 2, 1]);
        assert_eq!(reached, 5);
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        let mut s = space();
        let g = CsrGraph::build(&mut s, 4, [(0u64, 1u64)].into_iter()).unwrap();
        let (reached, parents) = run_bfs(&mut s, &g, 0);
        assert_eq!(reached, 2);
        assert_eq!(parents[2], -1);
        assert_eq!(parents[3], -1);
    }

    #[test]
    fn bfs_on_random_graph_reaches_giant_component() {
        use atscale_gen::urand::{edges, UrandConfig};
        let mut s = space();
        let cfg = UrandConfig::new(9, 3); // 512 vertices, degree 16
        let g = CsrGraph::build(&mut s, 512, edges(cfg)).unwrap();
        let mut parent = SimArray::new(&mut s, "bfs.parent", 512, -1i64).unwrap();
        let mut sink = CountingSink::new();
        let reached = bfs(&g, 0, &mut parent, &mut sink);
        assert!(reached > 500, "degree-16 urand is connected whp: {reached}");
        assert!(sink.loads > 8192, "every edge is examined");
    }

    #[test]
    #[should_panic(expected = "one slot per vertex")]
    fn wrong_parent_size_panics() {
        let mut s = space();
        let g = CsrGraph::build(&mut s, 4, [(0u64, 1u64)].into_iter()).unwrap();
        let mut parent = SimArray::new(&mut s, "p", 3, -1i64).unwrap();
        let mut sink = CountingSink::new();
        bfs(&g, 0, &mut parent, &mut sink);
    }
}
