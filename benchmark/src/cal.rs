//! The two frozen calibration kernels every stage slice is bracketed by.
//!
//! Raw wall-clock does not repeat on the box this benchmark runs on (see
//! README "Noise evidence"): the same binary's medians drift by tens of
//! percent between back-to-back runs. What does repeat is the *ratio* of a
//! stage's time to a reference loop of the same character run right before
//! and after it. These are the two reference loops:
//!
//! * [`Calibrator::walk`] — a miniature of the simulator's per-access loop:
//!   a set-associative tag scan with move-to-front, a 4-level radix lookup
//!   over preallocated tables on a tag miss, and an integer hash mix.
//! * [`Calibrator::fault`] — allocate, first-touch and free fresh memory
//!   while building radix nodes, the character of `Workload::setup`.
//!
//! The kernels are **frozen**: [`CAL_VERSION`] and the pinned checksums
//! below identify them. Changing either kernel invalidates every number
//! recorded against the old one and is its own benchmark PR.

use std::hint::black_box;
use std::time::Instant;

/// Version tag of the kernel pair; bump it with any change to this file
/// that alters the work done.
pub const CAL_VERSION: &str = "cal-v1";

/// What one `walk` kernel call is *defined* to cost, in milliseconds. A
/// stage normalised by `walk` reads `raw / measured_walk * WALK_NOMINAL_MS`,
/// so on a box where the kernel really takes this long calibrated and raw
/// numbers coincide.
pub const WALK_NOMINAL_MS: f64 = 10.0;

/// As [`WALK_NOMINAL_MS`], for the `fault` kernel.
pub const FAULT_NOMINAL_MS: f64 = 5.0;

/// Pinned output of [`Calibrator::walk`].
pub const WALK_CHECKSUM: u64 = 15_417_888_381_706_651_221;

/// Pinned output of [`Calibrator::fault`].
pub const FAULT_CHECKSUM: u64 = 8_264_683_769_967_925_063;

const SETS: usize = 1 << 14;
const WAYS: usize = 8;
/// Nodes per radix level below the root (each node has 512 slots).
const L1_NODES: usize = 64;
const L2_NODES: usize = 4096;
const LEAF_SLOTS: usize = 1 << 22;
const WALK_ITERS: u64 = 160_000;
/// Distinct "pages" the walk stream draws from: a little more than there are
/// iterations, so about a third of the scans hit a tag an earlier iteration
/// installed and the rest miss and take the radix path.
const WALK_PAGES: u64 = 3 << 16;

const FAULT_PAGES: u64 = 100_000;
/// Above glibc's largest dynamic mmap threshold (32 MiB), so the arena is
/// always fresh pages from the OS, never recycled heap.
const FAULT_ARENA_BYTES: usize = 33 << 20;
/// One first touch per this many arena bytes.
const FAULT_TOUCH_STRIDE: usize = 64 << 10;

/// SplitMix64 finaliser: the integer mix of both kernels, and the
/// benchmark's seed-derivation function.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One bracket: both kernels timed back to back.
#[derive(Debug, Clone, Copy)]
pub struct Bracket {
    /// Milliseconds the `walk` kernel took.
    pub walk_ms: f64,
    /// Milliseconds the `fault` kernel took.
    pub fault_ms: f64,
}

/// Owner of the `walk` kernel's preallocated tables (about 26 MiB). Built
/// once per run, outside every timed region.
pub struct Calibrator {
    tags: Vec<u64>,
    l0: Vec<u32>,
    l1: Vec<u32>,
    l2: Vec<u32>,
    leaf: Vec<u32>,
}

impl Calibrator {
    /// Builds the radix tables (deterministic contents).
    pub fn new() -> Calibrator {
        let fill = |len: usize, salt: u64| -> Vec<u32> {
            (0..len as u64).map(|i| mix64(i ^ salt) as u32).collect()
        };
        Calibrator {
            tags: vec![0; SETS * WAYS],
            l0: fill(512, 0xa0),
            l1: fill(L1_NODES * 512, 0xa1),
            l2: fill(L2_NODES * 512, 0xa2),
            leaf: fill(LEAF_SLOTS, 0xa3),
        }
    }

    /// Heap bytes the tables hold for the whole run (the benchmark's own
    /// memory, subtracted from `peak_heap_mb`).
    pub fn table_bytes(&self) -> u64 {
        let words = self.l0.len() + self.l1.len() + self.l2.len() + self.leaf.len();
        (self.tags.len() * 8 + words * 4) as u64
    }

    /// The simulator-like kernel. Starts from the same state on every call,
    /// so its return value is always [`WALK_CHECKSUM`].
    pub fn walk(&mut self) -> u64 {
        self.tags.fill(0);
        let mut sum = 0u64;
        for i in 0..WALK_ITERS {
            let page = mix64(i) % WALK_PAGES;
            let x = mix64(page);
            let tag = x | 1;
            let set = &mut self.tags[(page as usize % SETS) * WAYS..][..WAYS];
            match set.iter().position(|&t| t == tag) {
                Some(way) => {
                    set[..=way].rotate_right(1);
                    sum = sum.wrapping_add(way as u64);
                }
                None => {
                    set.rotate_right(1);
                    set[0] = tag;
                    let n0 = self.l0[(x >> 39) as usize & 511] as usize % L1_NODES;
                    let n1 = self.l1[n0 * 512 + ((x >> 30) as usize & 511)] as usize % L2_NODES;
                    let n2 = self.l2[n1 * 512 + ((x >> 21) as usize & 511)] as usize;
                    let pte = self.leaf[(n2 ^ (x >> 12) as usize) % LEAF_SLOTS];
                    sum = mix64(sum ^ u64::from(pte));
                }
            }
        }
        sum
    }

    /// The fault-in-like kernel: a fresh three-level radix of
    /// [`FAULT_PAGES`] mappings (every node a new zeroed allocation), a
    /// frame list grown by `push`, and a fresh arena first-touched once per
    /// [`FAULT_TOUCH_STRIDE`]; everything is freed before it returns. Always returns
    /// [`FAULT_CHECKSUM`].
    pub fn fault(&self) -> u64 {
        let mut nodes: Vec<Vec<u32>> = vec![vec![0u32; 512]];
        let mut frames: Vec<u64> = Vec::new();
        for page in 0..FAULT_PAGES {
            // Strided, so consecutive mappings land in different leaf nodes
            // the way a multi-segment working set's do.
            let vpn = page.wrapping_mul(0x9e5) % (1 << 20);
            let mut node = 0usize;
            for shift in [18u32, 9] {
                let slot = (vpn >> shift) as usize & 511;
                let mut next = nodes[node][slot] as usize;
                if next == 0 {
                    next = nodes.len();
                    nodes[node][slot] = next as u32;
                    nodes.push(vec![0u32; 512]);
                }
                node = next;
            }
            nodes[node][vpn as usize & 511] = frames.len() as u32 + 1;
            frames.push(vpn << 12);
        }
        let mut arena = vec![0u8; FAULT_ARENA_BYTES];
        for (i, chunk) in arena.chunks_exact_mut(FAULT_TOUCH_STRIDE).enumerate() {
            chunk[0] = i as u8 | 1;
        }
        let arena = black_box(arena);
        let touched: u64 = arena
            .iter()
            .step_by(FAULT_TOUCH_STRIDE)
            .map(|&b| u64::from(b))
            .sum();
        let mapped: u64 = nodes.iter().flatten().map(|&e| u64::from(e)).sum();
        mix64(touched ^ mix64(mapped ^ frames.len() as u64) ^ nodes.len() as u64)
    }

    /// Times both kernels once, checking their outputs.
    ///
    /// # Panics
    ///
    /// Panics if either kernel's checksum differs from its pinned value:
    /// every calibrated number would be meaningless.
    pub fn bracket(&mut self) -> Bracket {
        let t = Instant::now();
        let walk = black_box(self.walk());
        let walk_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let fault = black_box(self.fault());
        let fault_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(walk, WALK_CHECKSUM, "{CAL_VERSION} walk kernel checksum");
        assert_eq!(fault, FAULT_CHECKSUM, "{CAL_VERSION} fault kernel checksum");
        Bracket { walk_ms, fault_ms }
    }
}

/// Which kernel(s) a stage's time is divided by. Fixed in code per stage
/// (see `stages.rs`), chosen once from the A/A spreads in `AA_REPORT.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Norm {
    /// Uncalibrated wall-clock.
    Raw,
    /// Divide by the `walk` kernel.
    Walk,
    /// Divide by the `fault` kernel.
    Fault,
    /// Divide by `walk + fault`.
    Sum,
}

impl Norm {
    /// All four, in the order the `--explore` listing prints them.
    pub const ALL: [Norm; 4] = [Norm::Raw, Norm::Walk, Norm::Fault, Norm::Sum];

    /// Short label (`raw`, `walk`, `fault`, `sum`).
    pub fn label(self) -> &'static str {
        match self {
            Norm::Raw => "raw",
            Norm::Walk => "walk",
            Norm::Fault => "fault",
            Norm::Sum => "sum",
        }
    }

    /// The bracket's reading for this normaliser, in milliseconds
    /// (`None` for [`Norm::Raw`]).
    pub fn measured_ms(self, b: &Bracket) -> Option<f64> {
        match self {
            Norm::Raw => None,
            Norm::Walk => Some(b.walk_ms),
            Norm::Fault => Some(b.fault_ms),
            Norm::Sum => Some(b.walk_ms + b.fault_ms),
        }
    }

    /// The committed nominal cost of this normaliser, in milliseconds.
    pub fn nominal_ms(self) -> f64 {
        match self {
            Norm::Raw => 1.0,
            Norm::Walk => WALK_NOMINAL_MS,
            Norm::Fault => FAULT_NOMINAL_MS,
            Norm::Sum => WALK_NOMINAL_MS + FAULT_NOMINAL_MS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_checksums_are_pinned() {
        let mut cal = Calibrator::new();
        assert_eq!(cal.walk(), WALK_CHECKSUM);
        assert_eq!(
            cal.walk(),
            WALK_CHECKSUM,
            "walk restarts from the same state"
        );
        assert_eq!(cal.fault(), FAULT_CHECKSUM);
        assert_eq!(cal.fault(), FAULT_CHECKSUM);
    }

    #[test]
    fn walk_kernel_takes_both_paths() {
        // A repeat can hit a resident tag; a first sight always walks.
        let mut seen = std::collections::HashSet::new();
        let mut repeats = 0u64;
        for i in 0..WALK_ITERS {
            if !seen.insert(mix64(i) % WALK_PAGES) {
                repeats += 1;
            }
        }
        let first_sights = seen.len() as u64;
        assert!(repeats > WALK_ITERS / 5, "tag hits: {repeats}");
        assert!(first_sights > WALK_ITERS / 5, "radix walks: {first_sights}");
    }
}
