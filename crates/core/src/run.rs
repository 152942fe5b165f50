//! One measured run: workload × footprint × page size × architecture.

use atscale_mmu::{
    ArchKind, ArchMachine, BaselineArch, DramCacheArch, MachineConfig, NoTlbArch, RunResult,
    TelemetryHandle, TranslationArchitecture, VictimaArch,
};
use atscale_telemetry::span;
use atscale_vm::{BackingPolicy, PageSize};
use atscale_workloads::WorkloadId;
use serde::{Deserialize, Serialize, Value};

/// Everything that identifies one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunSpec {
    /// Which of the paper's 13 workloads to run.
    pub workload: WorkloadId,
    /// Nominal instance size in bytes (the model sizes itself to this; the
    /// *measured* footprint is reported in the result).
    pub nominal_footprint: u64,
    /// Page size backing the heap (the paper's three configurations).
    pub page_size: PageSize,
    /// Workload/input seed.
    pub seed: u64,
    /// Instructions simulated before counters start (the paper's dry-run
    /// warm-up analogue).
    pub warmup_instr: u64,
    /// Measured instructions.
    pub budget_instr: u64,
    /// Translation architecture the machine runs (the scenario-matrix
    /// dimension PR 10 added, DESIGN §18). `ArchKind::Baseline` is the paper's
    /// Table III design and the default for every legacy spec.
    pub arch: ArchKind,
}

// Hand-written serde: the former derive's shape with `arch` appended only
// when non-baseline, and defaulted to baseline when absent. This keeps
// baseline spec bytes — and therefore `RunStore` record keys/hashes, the
// perf-gate baselines and every sealed segment — identical to every
// pre-architecture release.
impl Serialize for RunSpec {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("workload".to_string(), self.workload.to_value()),
            (
                "nominal_footprint".to_string(),
                self.nominal_footprint.to_value(),
            ),
            ("page_size".to_string(), self.page_size.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("warmup_instr".to_string(), self.warmup_instr.to_value()),
            ("budget_instr".to_string(), self.budget_instr.to_value()),
        ];
        if self.arch != ArchKind::Baseline {
            entries.push(("arch".to_string(), self.arch.to_value()));
        }
        Value::Map(entries)
    }
}

impl Deserialize for RunSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let entries = v.as_map()?;
        Ok(RunSpec {
            workload: serde::field(entries, "workload")?,
            nominal_footprint: serde::field(entries, "nominal_footprint")?,
            page_size: serde::field(entries, "page_size")?,
            seed: serde::field(entries, "seed")?,
            warmup_instr: serde::field(entries, "warmup_instr")?,
            budget_instr: serde::field(entries, "budget_instr")?,
            arch: match entries.iter().find(|(k, _)| k == "arch") {
                Some((_, v)) => Deserialize::from_value(v)?,
                None => ArchKind::Baseline,
            },
        })
    }
}

impl RunSpec {
    /// The same spec at a different page size — the paper's §III-A
    /// protocol runs each instance at 4 KB, 2 MB and 1 GB.
    pub fn with_page_size(mut self, page_size: PageSize) -> Self {
        self.page_size = page_size;
        self
    }

    /// The same spec on a different translation architecture — the
    /// scenario-matrix axis.
    pub fn with_arch(mut self, arch: ArchKind) -> Self {
        self.arch = arch;
        self
    }

    /// Short human label for progress lines and telemetry events, e.g.
    /// `cc-urand 256MB 4K` (suffixed `@victima` etc. off-baseline, so
    /// existing baseline labels — perf-gate baselines match on them —
    /// are untouched).
    pub fn label(&self) -> String {
        let mb = self.nominal_footprint >> 20;
        let page = page_label(self.page_size);
        if self.arch == ArchKind::Baseline {
            format!("{} {mb}MB {page}", self.workload)
        } else {
            format!("{} {mb}MB {page}@{}", self.workload, self.arch)
        }
    }
}

/// The short page-size label of spec labels and the results plane's
/// `page_size` column: `4K` / `2M` / `1G`.
pub(crate) fn page_label(page_size: PageSize) -> &'static str {
    match page_size {
        PageSize::Size4K => "4K",
        PageSize::Size2M => "2M",
        PageSize::Size1G => "1G",
    }
}

/// A completed run: its spec plus everything measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// The run's identity.
    pub spec: RunSpec,
    /// All measurements (counters, TLB/cache stats, footprint).
    pub result: RunResult,
}

impl RunRecord {
    /// Measured memory footprint in kilobytes — the paper reports its
    /// footprint axis in KB (e.g. Figure 8's 10⁶ KB marks).
    pub fn footprint_kb(&self) -> f64 {
        self.result.footprint_bytes() as f64 / 1024.0
    }

    /// log10 of the measured footprint in KB (Table IV's regressor).
    pub fn log10_footprint_kb(&self) -> f64 {
        self.footprint_kb().log10()
    }

    /// Runtime in cycles.
    pub fn runtime_cycles(&self) -> u64 {
        self.result.counters.cycles
    }
}

/// Executes one run: builds the machine at the spec's page size, lets the
/// workload lay out and fault in its memory, then drives the access stream
/// through warm-up and measurement.
///
/// # Panics
///
/// Panics if the workload's setup cannot allocate (the 16 TiB simulated
/// heap would have to be exhausted).
pub fn execute_run(spec: &RunSpec, config: &MachineConfig) -> RunRecord {
    execute_run_with_telemetry(spec, config, None)
}

/// [`execute_run`] with telemetry attached: the machine records walk and
/// TLB-fill latencies into `handle`'s recorder and interval-samples the
/// counter file at the handle's cadence; the setup and drive phases are
/// wrapped in `setup`/`drive` spans (nested under the caller's span, if
/// any).
///
/// # Panics
///
/// Panics as [`execute_run`] does.
pub fn execute_run_with_telemetry(
    spec: &RunSpec,
    config: &MachineConfig,
    telemetry: Option<&TelemetryHandle>,
) -> RunRecord {
    // Static dispatch per architecture: each arm instantiates the whole
    // drive loop monomorphically, so the baseline arm *is* the
    // pre-architecture hot path — no dyn call appears on the per-access
    // path for any architecture (the repo benchmark's `sim_minstr_per_s`
    // reports the baseline arm's speed).
    match spec.arch {
        ArchKind::Baseline => drive::<BaselineArch>(spec, config, telemetry),
        ArchKind::Victima => drive::<VictimaArch>(spec, config, telemetry),
        ArchKind::DramCache => drive::<DramCacheArch>(spec, config, telemetry),
        ArchKind::NoTlb => drive::<NoTlbArch>(spec, config, telemetry),
    }
}

fn drive<A: TranslationArchitecture>(
    spec: &RunSpec,
    config: &MachineConfig,
    telemetry: Option<&TelemetryHandle>,
) -> RunRecord {
    let mut workload = spec.workload.build_model(spec.nominal_footprint, spec.seed);
    let mut machine = ArchMachine::<A>::new(
        *config,
        BackingPolicy::uniform(spec.page_size),
        workload.profile(),
    );
    if let Some(handle) = telemetry {
        machine.set_telemetry(handle.clone());
    }
    {
        let _phase = span!("setup");
        workload
            .setup(machine.space_mut())
            .expect("workload setup allocates within the simulated heap");
    }
    machine.set_limits(spec.warmup_instr, spec.budget_instr);
    {
        let _phase = span!("drive");
        // Kernels see `&mut dyn AccessSink`, but batching kernels pay one
        // virtual dispatch per *chunk*: `event_batch`'s body is instantiated
        // per implementing type, so inside the machine's instance every
        // per-event call is a direct (inlined) `Machine::access`. Buffering
        // per-item kernels' events here was benchmarked and lost: each
        // virtual call becomes a buffer push plus a deferred drain of the
        // same event, strictly more work.
        workload.run(&mut machine);
    }
    let result = machine.finish();
    result.counters.assert_consistent();
    RunRecord {
        spec: *spec,
        result,
    }
}

/// [`execute_run`] on the force-slow reference pipeline: no access batching,
/// no TLB frame payloads, no translation memo — the engine as it was before
/// the hot-path restructuring. Exists so tests can prove the optimised path
/// produces byte-identical records; there is no reason to use it otherwise.
///
/// # Panics
///
/// Panics as [`execute_run`] does, and on any non-baseline `spec.arch`:
/// the reference pipeline is frozen at the paper's Table III design, so
/// only [`ArchKind::Baseline`] has a reference to differ against.
#[doc(hidden)]
pub fn execute_run_reference(spec: &RunSpec, config: &MachineConfig) -> RunRecord {
    assert_eq!(
        spec.arch,
        ArchKind::Baseline,
        "the reference pipeline models only the baseline architecture"
    );
    let mut workload = spec.workload.build_model(spec.nominal_footprint, spec.seed);
    let mut machine = atscale_mmu::ReferenceMachine::new(
        *config,
        BackingPolicy::uniform(spec.page_size),
        workload.profile(),
    );
    workload
        .setup(machine.space_mut())
        .expect("workload setup allocates within the simulated heap");
    machine.set_limits(spec.warmup_instr, spec.budget_instr);
    workload.run(&mut machine);
    let result = machine.finish();
    result.counters.assert_consistent();
    RunRecord {
        spec: *spec,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RunSpec {
        RunSpec {
            workload: WorkloadId::parse("pr-urand").unwrap(),
            nominal_footprint: 32 << 20,
            page_size: PageSize::Size4K,
            seed: 3,
            warmup_instr: 20_000,
            budget_instr: 100_000,
            arch: ArchKind::Baseline,
        }
    }

    #[test]
    fn baseline_spec_bytes_omit_the_arch_field() {
        let json = serde_json::to_string(&spec()).unwrap();
        assert!(
            !json.contains("arch"),
            "baseline spec must serialise exactly as pre-architecture specs did: {json}"
        );
        let back: RunSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec());
    }

    #[test]
    fn non_baseline_spec_round_trips_with_arch() {
        let s = spec().with_arch(ArchKind::Victima);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"arch\":\"victima\""), "{json}");
        let back: RunSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn legacy_spec_json_decodes_as_baseline() {
        let json = serde_json::to_string(&spec()).unwrap();
        let back: RunSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.arch, ArchKind::Baseline);
    }

    #[test]
    fn arch_variant_changes_only_arch_and_label_suffix() {
        let base = spec();
        let v = base.with_arch(ArchKind::NoTlb);
        assert_eq!(v.workload, base.workload);
        assert_eq!(v.page_size, base.page_size);
        assert_eq!(base.label(), "pr-urand 32MB 4K");
        assert_eq!(v.label(), "pr-urand 32MB 4K@no-tlb");
    }

    #[test]
    fn no_tlb_walks_every_translation() {
        let mut s = spec();
        s.budget_instr = 40_000;
        s.warmup_instr = 5_000;
        let rec = execute_run(&s.with_arch(ArchKind::NoTlb), &MachineConfig::tiny_test());
        let c = &rec.result.counters;
        assert!(c.walks_initiated() > 0);
        assert_eq!(
            c.stlb_hit_loads + c.stlb_hit_stores,
            0,
            "no-tlb never hits any TLB level"
        );
    }

    #[test]
    fn run_produces_consistent_counters_and_footprint() {
        let record = execute_run(&spec(), &MachineConfig::haswell());
        let c = &record.result.counters;
        assert!(c.inst_retired >= 100_000);
        assert!(c.inst_retired < 110_000, "budget respected");
        assert!(record.result.footprint_bytes() > 28 << 20);
        assert!(record.footprint_kb() > 0.0);
        assert!(record.log10_footprint_kb() > 4.0);
        assert!(record.runtime_cycles() > 0);
    }

    #[test]
    fn identical_specs_reproduce_identical_results() {
        let a = execute_run(&spec(), &MachineConfig::haswell());
        let b = execute_run(&spec(), &MachineConfig::haswell());
        assert_eq!(a.result.counters, b.result.counters);
        assert_eq!(a.result.tlb, b.result.tlb);
    }

    #[test]
    fn page_size_variant_changes_only_page_size() {
        let s4 = spec();
        let s2 = s4.with_page_size(PageSize::Size2M);
        assert_eq!(s2.page_size, PageSize::Size2M);
        assert_eq!(s2.workload, s4.workload);
        assert_eq!(s2.budget_instr, s4.budget_instr);
    }

    #[test]
    fn superpages_reduce_walks_for_real_models() {
        // Use a footprint well past the 4 KB TLB reach so base pages walk
        // heavily while 2 MB reach still covers the working set.
        let mut s = spec();
        s.nominal_footprint = 128 << 20;
        let base = execute_run(&s, &MachineConfig::haswell());
        let huge = execute_run(
            &s.with_page_size(PageSize::Size2M),
            &MachineConfig::haswell(),
        );
        assert!(
            huge.result.counters.walks_retired() * 5 < base.result.counters.walks_retired(),
            "2MB walks {} vs 4KB walks {}",
            huge.result.counters.walks_retired(),
            base.result.counters.walks_retired()
        );
    }
}
