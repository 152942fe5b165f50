//! Control-speculation model: the source of wrong-path and aborted walks.
//!
//! The paper (§V-D) finds that up to 57 % of initiated page-table walks are
//! speculative waste — walks for instructions that never retire. The
//! mechanism: an out-of-order core keeps fetching past unresolved branches;
//! when a branch mispredicts (or a machine clear flushes the pipeline), the
//! wrong-path memory accesses already in flight have initiated TLB lookups
//! and page-table walks. A walk that finishes before the squash arrives
//! *completed on the wrong path*; one squashed mid-flight was *aborted*.
//!
//! This model reproduces that mechanism statistically rather than with a
//! full out-of-order pipeline:
//!
//! * mispredict and machine-clear events arrive as Poisson processes whose
//!   rates come from the workload profile;
//! * the machine-clear rate additionally grows with memory-stall intensity
//!   (the paper's Fig. 9 association between clears and memory activity);
//! * each event opens a *squash window* whose length tracks the latency of
//!   the load the branch depends on — so at large footprints, where loads
//!   and walks are slow, speculation runs deeper and more wrong-path walks
//!   are initiated, reproducing the paper's growth of wrong-path fraction
//!   with footprint;
//! * wrong-path addresses are a mix of near-recent addresses (wrong paths
//!   execute similar code) and wild pointers into allocated segments.

use crate::{SpecConfig, WorkloadProfile};
use atscale_vm::{Segment, VirtAddr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const RECENT_CAPACITY: usize = 64;
const LATENCY_RING: usize = 32;

/// What kind of pipeline-flush event occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecEvent {
    /// A mispredicted branch.
    Mispredict,
    /// A machine clear (memory-ordering violation, etc.).
    MachineClear,
}

/// How much wrong-path work one flush event generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrongPathPlan {
    /// Wrong-path memory accesses issued before the squash.
    pub accesses: u32,
    /// Cycles until the squash arrives; in-flight walks beyond this abort.
    pub squash_budget: u64,
}

/// The speculation engine (see module docs).
#[derive(Debug, Clone)]
pub struct SpeculationModel {
    cfg: SpecConfig,
    mispredict_rate: f64,
    clear_base_rate: f64,
    dep_load_prob: f64,
    rng: SmallRng,
    pressure: f64,
    data_lat_ema: f64,
    /// Ring of recent data-load latencies: branch-resolution windows sample
    /// from the *distribution* (an L1-hit-dependent branch resolves in a
    /// dozen cycles, a DRAM-dependent one after hundreds), which a smoothed
    /// average would erase.
    lat_ring: [f64; LATENCY_RING],
    lat_len: usize,
    lat_cursor: usize,
    to_next_mispredict: u64,
    to_next_clear: u64,
    recent: [u64; RECENT_CAPACITY],
    recent_len: usize,
    cursor: usize,
}

impl SpeculationModel {
    /// Creates a model from machine config and workload profile.
    pub fn new(cfg: SpecConfig, profile: &WorkloadProfile) -> Self {
        let mispredict_rate = profile.mispredicts_per_kinstr / 1000.0;
        let clear_base_rate = profile.clears_base_per_kinstr / 1000.0;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let to_next_mispredict = sample_gap(&mut rng, mispredict_rate);
        let to_next_clear = sample_gap(&mut rng, clear_base_rate);
        SpeculationModel {
            cfg,
            mispredict_rate,
            clear_base_rate,
            dep_load_prob: profile.dep_load_prob,
            rng,
            pressure: 0.0,
            data_lat_ema: 20.0,
            lat_ring: [20.0; LATENCY_RING],
            lat_len: 0,
            lat_cursor: 0,
            to_next_mispredict,
            to_next_clear,
            recent: [0; RECENT_CAPACITY],
            recent_len: 0,
            cursor: 0,
        }
    }

    /// `true` if speculation is modelled at all.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Records a retired access address (feeds wrong-path locality).
    #[inline]
    pub fn note_retired(&mut self, va: VirtAddr) {
        self.recent[self.cursor] = va.as_u64();
        self.cursor = (self.cursor + 1) % RECENT_CAPACITY;
        self.recent_len = (self.recent_len + 1).min(RECENT_CAPACITY);
    }

    /// Records an observed data-access latency (feeds squash windows).
    #[inline]
    pub fn note_data_latency(&mut self, latency: f64) {
        self.data_lat_ema += 0.01 * (latency - self.data_lat_ema);
        self.lat_ring[self.lat_cursor] = latency;
        self.lat_cursor = (self.lat_cursor + 1) % LATENCY_RING;
        self.lat_len = (self.lat_len + 1).min(LATENCY_RING);
    }

    /// Samples a recent data latency (the producer a branch waits on).
    fn sample_latency(&mut self) -> f64 {
        if self.lat_len == 0 {
            return self.data_lat_ema;
        }
        self.lat_ring[self.rng.gen_range(0..self.lat_len)]
    }

    /// Updates the memory-stall pressure (fraction of cycles stalled on
    /// memory or walks); drives the machine-clear rate upward.
    pub fn set_pressure(&mut self, stall_fraction: f64) {
        self.pressure = stall_fraction.clamp(0.0, 1.0);
    }

    /// Advances the instruction clock by `instrs`, returning a flush event
    /// if one fired in that window (at most one per call; the engine calls
    /// this at access granularity so windows are small).
    pub fn advance(&mut self, instrs: u64) -> Option<SpecEvent> {
        if !self.cfg.enabled {
            return None;
        }
        let clear_fired = self.to_next_clear <= instrs;
        let mispredict_fired = self.to_next_mispredict <= instrs;
        self.to_next_clear = self.to_next_clear.saturating_sub(instrs);
        self.to_next_mispredict = self.to_next_mispredict.saturating_sub(instrs);
        if clear_fired {
            let rate = self.clear_base_rate + self.cfg.clear_stall_coupling * self.pressure;
            self.to_next_clear = sample_gap(&mut self.rng, rate);
            Some(SpecEvent::MachineClear)
        } else if mispredict_fired {
            self.to_next_mispredict = sample_gap(&mut self.rng, self.mispredict_rate);
            Some(SpecEvent::Mispredict)
        } else {
            None
        }
    }

    /// Plans the wrong-path work for a flush event, given the engine's
    /// running accesses-per-instruction and the front end's fetch CPI
    /// (the workload's base CPI: wrong-path depth is set by how fast the
    /// front end fetches during the squash window, not by retired CPI).
    pub fn plan(&mut self, event: SpecEvent, api: f64, fetch_cpi: f64) -> WrongPathPlan {
        let base = self.cfg.resolve_base_cycles as f64;
        let squash_budget = match event {
            SpecEvent::Mispredict => {
                // Branch resolution waits for its producer; with probability
                // dep_load_prob that producer is an in-flight load whose
                // latency we sample from recent history.
                if self.rng.gen::<f64>() < self.dep_load_prob {
                    base + self.sample_latency()
                } else {
                    base
                }
            }
            // Clears are detected at retirement of the offending op, after
            // any outstanding misses it suffered.
            SpecEvent::MachineClear => 2.0 * base + self.sample_latency(),
        };
        let wp_instrs = (squash_budget / fetch_cpi.max(0.1)).min(self.cfg.rob_entries as f64);
        let mean_accesses = wp_instrs * api;
        // Probabilistic rounding preserves the mean for fractional counts.
        let whole = mean_accesses.floor();
        let extra = (self.rng.gen::<f64>() < (mean_accesses - whole)) as u32;
        WrongPathPlan {
            accesses: whole as u32 + extra,
            squash_budget: squash_budget as u64,
        }
    }

    /// Draws a wrong-path address: near a recent retired address with
    /// probability `wrong_path_locality`, otherwise uniform over the
    /// allocated segments. Returns `None` if there is nowhere to point.
    pub fn sample_wrong_path(&mut self, segments: &[Segment]) -> Option<VirtAddr> {
        let local = self.recent_len > 0 && self.rng.gen::<f64>() < self.cfg.wrong_path_locality;
        if local {
            let base = self.recent[self.rng.gen_range(0..self.recent_len)];
            let jitter = self.rng.gen_range(-8192i64..=8192);
            return Some(VirtAddr::new(base.saturating_add_signed(jitter)));
        }
        let total: u64 = segments.iter().map(Segment::len).sum();
        if total == 0 {
            return None;
        }
        let mut point = self.rng.gen_range(0..total);
        for seg in segments {
            if point < seg.len() {
                return Some(seg.base().add(point & !7)); // 8-byte aligned
            }
            point -= seg.len();
        }
        unreachable!("weighted segment selection is exhaustive")
    }
}

fn sample_gap(rng: &mut SmallRng, rate: f64) -> u64 {
    if rate <= 0.0 {
        return u64::MAX;
    }
    let u: f64 = rng.gen::<f64>().max(1e-12);
    let gap = -u.ln() / rate;
    gap.min(1e15) as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SpeculationModel {
        SpeculationModel::new(SpecConfig::haswell(), &WorkloadProfile::default())
    }

    #[test]
    fn event_rate_matches_profile() {
        let mut m = model();
        let mut mispredicts = 0u64;
        let total = 2_000_000u64;
        let mut i = 0;
        while i < total {
            if let Some(SpecEvent::Mispredict) = m.advance(1) {
                mispredicts += 1;
            }
            i += 1;
        }
        // Default: 4 per kinstr → expect ≈ 8000 over 2M instructions.
        let expected = 8000.0;
        assert!(
            (mispredicts as f64 - expected).abs() < expected * 0.15,
            "got {mispredicts}, expected ≈ {expected}"
        );
    }

    #[test]
    fn disabled_model_emits_nothing() {
        let mut m = SpeculationModel::new(SpecConfig::disabled(), &WorkloadProfile::default());
        for _ in 0..100_000 {
            assert_eq!(m.advance(1), None);
        }
    }

    #[test]
    fn pressure_raises_clear_rate() {
        let count_clears = |pressure: f64| {
            let mut m = model();
            m.set_pressure(pressure);
            let mut clears = 0u64;
            for _ in 0..1_000_000 {
                if let Some(SpecEvent::MachineClear) = m.advance(1) {
                    clears += 1;
                }
            }
            clears
        };
        let calm = count_clears(0.0);
        let stormy = count_clears(0.8);
        assert!(
            stormy > calm * 3,
            "clears under pressure ({stormy}) should dwarf baseline ({calm})"
        );
    }

    #[test]
    fn squash_window_tracks_data_latency() {
        let mut slow = model();
        for _ in 0..2000 {
            slow.note_data_latency(230.0);
        }
        let mut fast = model();
        for _ in 0..2000 {
            fast.note_data_latency(4.0);
        }
        // Machine clears use the EMA deterministically.
        let w_slow = slow.plan(SpecEvent::MachineClear, 0.3, 1.0).squash_budget;
        let w_fast = fast.plan(SpecEvent::MachineClear, 0.3, 1.0).squash_budget;
        assert!(w_slow > w_fast + 100);
    }

    #[test]
    fn deeper_windows_mean_more_wrong_path_accesses() {
        let mut m = model();
        for _ in 0..2000 {
            m.note_data_latency(230.0);
        }
        let mut total_deep = 0u64;
        let mut shallow = model();
        let mut total_shallow = 0u64;
        for _ in 0..200 {
            total_deep += m.plan(SpecEvent::MachineClear, 0.4, 1.0).accesses as u64;
            total_shallow += shallow.plan(SpecEvent::Mispredict, 0.4, 1.0).accesses as u64;
        }
        assert!(total_deep > total_shallow);
    }

    #[test]
    fn rob_bounds_wrong_path_depth() {
        let mut m = model();
        for _ in 0..5000 {
            m.note_data_latency(10_000.0);
        }
        let plan = m.plan(SpecEvent::MachineClear, 1.0, 0.1);
        assert!(plan.accesses <= SpecConfig::haswell().rob_entries);
    }

    #[test]
    fn wrong_path_sampling_mixes_local_and_wild() {
        use atscale_vm::{PageSize, SegmentId};
        let mut m = model();
        m.note_retired(VirtAddr::new(0x7000_0000));
        let segments = vec![Segment::new(
            SegmentId::new(0),
            "a",
            VirtAddr::new(0x1_0000_0000),
            1 << 30,
            PageSize::Size4K,
        )];
        let mut local = 0;
        let mut wild = 0;
        for _ in 0..2000 {
            let va = m.sample_wrong_path(&segments).unwrap();
            if va.as_u64().abs_diff(0x7000_0000) <= 8192 {
                local += 1;
            } else {
                assert!(segments[0].contains(va), "wild samples stay in segments");
                wild += 1;
            }
        }
        // Default locality is 0.85: most samples near recent addresses,
        // but a solid wild tail remains.
        assert!(local > 1500 && wild > 150, "local={local} wild={wild}");
    }

    #[test]
    fn sampling_with_no_targets_returns_none() {
        let mut m = model();
        assert_eq!(m.sample_wrong_path(&[]), None);
    }
}
