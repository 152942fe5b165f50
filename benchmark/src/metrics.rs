//! The metric tables: names, units, direction and, for end-to-end metrics,
//! the share by which each may worsen. `BENCHMARK.json` lists exactly these
//! (a test compares them), and README's glossary explains each.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` / `higher`, as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only; 0 for per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// `run_seconds` of `BENCHMARK.json`: what the driver passes as `--seconds`.
/// 92 driver runs of this length, with their set-up, fit the 57 minutes the
/// driver allows with about a quarter to spare.
pub const RUN_SECONDS: u32 = 25;

/// The end-to-end metrics, printed by `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sim_minstr_per_s", "Minstr/s", Higher, 0.20),
    e2e("cold_spec_ms", "ms", Lower, 0.20),
    e2e("warm_spec_us", "us", Lower, 0.20),
    e2e("cached_req_us", "us", Lower, 0.25),
    e2e("query_us", "us", Lower, 0.25),
    e2e("peak_heap_mb", "MB", Lower, 0.02),
    e2e("store_bytes_per_record", "B", Lower, 0.01),
    e2e("sim_cycles_per_kinstr", "cycles/kinstr", Lower, 0.01),
];

/// The per-layer metrics, printed by `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    // workloads (generators and models)
    layer("workloads.build_ms", "ms", Lower),
    layer("workloads.gen_ns_per_access", "ns", Lower),
    layer("workloads.accesses_per_kinstr", "count", Lower),
    // vm
    layer("vm.fault_in_ms", "ms", Lower),
    layer("vm.fault_in_ns_per_page", "ns", Lower),
    layer("vm.pages_mapped_per_spec", "count", Lower),
    layer("vm.touch_ns", "ns", Lower),
    // mmu
    layer("mmu.machine_new_ms", "ms", Lower),
    layer("mmu.finish_ms", "ms", Lower),
    layer("mmu.replay_ns_per_access", "ns", Lower),
    layer("mmu.walks_per_kinstr", "count", Lower),
    layer("mmu.stlb_miss_per_kinstr", "count", Lower),
    layer("mmu.walk_cycles_per_kinstr", "cycles", Lower),
    layer("mmu.aborted_walk_share", "share", Lower),
    layer("mmu.arch_drive_ratio.victima", "ratio", Lower),
    layer("mmu.arch_drive_ratio.dram-cache", "ratio", Lower),
    layer("mmu.arch_drive_ratio.no-tlb", "ratio", Lower),
    // cache
    layer("cache.hier_ns_per_access", "ns", Lower),
    layer("cache.l3_miss_per_kinstr", "count", Lower),
    layer("cache.pte_dram_share", "share", Lower),
    // telemetry
    layer("telemetry.enabled_overhead_share", "share", Lower),
    // core
    layer("core.record_ser_us", "us", Lower),
    layer("core.record_de_us", "us", Lower),
    layer("core.record_bytes", "B", Lower),
    layer("core.key_us", "us", Lower),
    layer("core.harness_hit_us", "us", Lower),
    // results
    layer("results.append_us", "us", Lower),
    layer("results.seal_ms", "ms", Lower),
    layer("results.load_us", "us", Lower),
    layer("results.query_us", "us", Lower),
    layer("results.compact_ms", "ms", Lower),
    layer("results.open_ms", "ms", Lower),
    layer("results.wal_bytes_per_record", "B", Lower),
    layer("results.seg_bytes_per_record", "B", Lower),
    // serve
    layer("serve.encode_us", "us", Lower),
    layer("serve.decode_us", "us", Lower),
    layer("serve.wire_bytes_per_record", "B", Lower),
    layer("serve.ping_us", "us", Lower),
    layer("serve.cached_req_p99_us", "us", Lower),
    layer("serve.cached_req_samples", "count", Higher),
    layer("serve.cold_overhead_us", "us", Lower),
    layer("serve.store_open_ms", "ms", Lower),
    layer("serve.start_ms", "ms", Lower),
    layer("serve.connect_us", "us", Lower),
    layer("serve.cache_hit_share", "share", Higher),
    // heap
    layer("heap.allocs_per_spec", "count", Lower),
    layer("heap.bytes_per_spec", "B", Lower),
    // where a direct run's time goes (shares of the traced `direct` stage)
    layer("direct.share.workloads_build", "share", Lower),
    layer("direct.share.mmu_machine_new", "share", Lower),
    layer("direct.share.vm_fault_in", "share", Lower),
    layer("direct.share.sim_drive", "share", Lower),
    layer("direct.share.mmu_finish", "share", Lower),
    layer("direct.share.workloads_drop", "share", Lower),
    layer("trace.direct_coverage_share", "share", Higher),
    // where a cold served spec's time goes
    layer("cold.share.execute", "share", Lower),
    layer("cold.share.serve_store", "share", Lower),
    // the calibration itself, and uncalibrated speed
    layer("cal.walk_ms", "ms", Lower),
    layer("cal.fault_ms", "ms", Lower),
    layer("cal.drift_share", "share", Lower),
    layer("cal.discard_share", "share", Lower),
    layer("raw.sim_minstr_per_s", "Minstr/s", Higher),
    layer("raw.cold_spec_ms", "ms", Lower),
    layer("raw.cached_req_us", "us", Lower),
    layer("raw.wall_s", "s", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("bench.first_round_ms", "ms", Lower),
    layer("bench.rounds", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::Mix;
    use serde::Value;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_contract_limits() {
        assert!((2..=8).contains(&Mix::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::HashSet::new();
        for name in Mix::ALL
            .iter()
            .map(|m| m.name())
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(matches!(setup, Some(m) if m.unit == "s" && m.better == Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(
            setup.map(|m| m.bound),
            Some(widest),
            "setup_s has the largest bound"
        );
    }

    fn str_field<'a>(entries: &'a [(String, Value)], key: &str) -> &'a str {
        match entries.iter().find(|(k, _)| k == key) {
            Some((_, Value::Str(s))) => s,
            other => panic!("{key}: expected a string, found {other:?}"),
        }
    }

    /// `BENCHMARK.json` at the repo root is the contract the driver reads;
    /// these tables are what the binary prints. They must be the same list.
    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 << 10);
        let root: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let root = root.as_map().expect("an object");
        let keys: Vec<&str> = root.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| -> Vec<&[(String, Value)]> {
            let (_, v) = root.iter().find(|(k, _)| k == key).expect(key);
            v.as_seq()
                .expect("a list")
                .iter()
                .map(|item| item.as_map().expect("an object"))
                .collect()
        };
        let workloads = list("workloads");
        assert_eq!(workloads.len(), Mix::ALL.len());
        for (entry, mix) in workloads.iter().zip(Mix::ALL) {
            assert_eq!(entry.len(), 2);
            assert_eq!(str_field(entry, "name"), mix.name());
            let why = str_field(entry, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        for (key, table, fields) in [("end_to_end", END_TO_END, 4), ("per_layer", PER_LAYER, 3)] {
            let entries = list(key);
            assert_eq!(entries.len(), table.len(), "{key}");
            for (entry, def) in entries.iter().zip(table) {
                assert_eq!(entry.len(), fields, "{key}.{}", def.name);
                assert_eq!(str_field(entry, "name"), def.name);
                assert_eq!(str_field(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(
                    str_field(entry, "better"),
                    def.better.label(),
                    "{}",
                    def.name
                );
                if fields == 4 {
                    let bound = entry.iter().find(|(k, _)| k == "bound").map(|(_, v)| v);
                    assert_eq!(bound, Some(&Value::F64(def.bound)), "{}", def.name);
                }
            }
        }
    }
}
