//! The experiment registry: every table, figure, ablation and extension
//! as one `fn(&Ctx)` in [`REGISTRY`], in DESIGN §3 order.
//!
//! An experiment is a *view* of the footprint sweep: it asks the context
//! harness for the runs it needs (cached runs cost nothing), prints its
//! table, and hands it to `Ctx::publish`, which names the CSV after the
//! experiment. One submodule per experiment holds the paper expectation it
//! reproduces.

use crate::HarnessOptions;
use atscale::report::{fmt, human_bytes, Table};
use atscale::{Harness, OverheadPoint};
use atscale_vm::invariant::{self, InvariantSummary};
use atscale_workloads::WorkloadId;

/// What an experiment runs with: the parsed options and one harness over
/// the process's single run-store handle, bound to the experiment's own
/// telemetry scope.
#[derive(Debug)]
pub(crate) struct Ctx<'a> {
    /// The parsed command-line options (`opts.sweep` is the sweep).
    pub(crate) opts: &'a HarnessOptions,
    /// The cached, parallel harness on the paper's Table III machine.
    /// Ablations derive variant machines with `clone().with_config(cfg)`:
    /// the clone shares the store handle (the store keys on the config, so
    /// variants cache side by side), threads, progress and telemetry.
    pub(crate) harness: Harness,
    name: &'static str,
    checks_before: InvariantSummary,
}

impl Ctx<'_> {
    /// The tail every experiment shares: prints the rendered table, then
    /// the `findings` lines, writes `out_dir/<experiment>.csv` and says so.
    pub(crate) fn publish(&self, table: &Table, findings: &[String]) {
        println!("{}", table.render());
        for line in findings {
            println!("{line}");
        }
        let csv = self.opts.csv_path(self.name);
        table.write_csv(&csv).expect("write csv");
        println!("wrote {}", csv.display());
    }

    /// Invariant checks executed and violated during this experiment (the
    /// tallies are process-wide; this is the part since the experiment
    /// started).
    pub(crate) fn invariant_summary(&self) -> InvariantSummary {
        let now = invariant::summary();
        InvariantSummary {
            checks: now.checks - self.checks_before.checks,
            violations: now.violations - self.checks_before.violations,
        }
    }
}

/// The registered workload called `label`.
fn workload(label: &str) -> WorkloadId {
    WorkloadId::parse(label).expect("known workload")
}

/// The Fig. 1 view of a footprint sweep, as [`atscale::SweepConfig::points`]
/// groups it: the table of relative AT overhead per workload and sweep
/// point, and the line giving the paper's headline inter-workload
/// correlation, Pearson(log10 footprint, overhead) over every point.
///
/// `fig1_overhead_vs_footprint`, `fig3_exceptions` (table only) and
/// `atscale-client sweep` all render through this.
pub fn overhead_series(
    workloads: &[WorkloadId],
    all_points: &[Vec<OverheadPoint>],
) -> (Table, String) {
    let mut table = Table::new(&["workload", "footprint", "footprint_kb", "rel_overhead"]);
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for (id, points) in workloads.iter().zip(all_points) {
        for p in points {
            table.row_owned(vec![
                id.to_string(),
                human_bytes(p.run_4k.spec.nominal_footprint),
                fmt(p.footprint_kb(), 0),
                fmt(p.relative_overhead(), 4),
            ]);
            xs.push(p.footprint_kb().log10());
            ys.push(p.relative_overhead());
        }
    }
    let pearson = match atscale_stats::pearson(&xs, &ys) {
        Ok(r) => format!("inter-workload Pearson(log10 footprint, overhead) = {r:.3}"),
        Err(e) => format!("correlation unavailable: {e}"),
    };
    (table, pearson)
}

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// The name it is run by; also the stem of its CSV and telemetry stream.
    pub name: &'static str,
    /// One line for `atscale list`.
    pub title: &'static str,
    run: fn(&Ctx),
}

impl Experiment {
    /// Runs the experiment inside its own telemetry scope (so the stream
    /// is `out_dir/telemetry/<name>.jsonl`), on a clone of `base` — the
    /// one [`HarnessOptions::harness`] of the process.
    pub fn run(&self, opts: &HarnessOptions, base: &Harness) {
        let telemetry = opts.telemetry(self.name);
        let ctx = Ctx {
            opts,
            harness: telemetry.attach(base.clone()),
            name: self.name,
            checks_before: invariant::summary(),
        };
        (self.run)(&ctx);
    }
}

/// Declares the experiment modules and the registry over them, so a name
/// is written once: `name => "title"` is module `name` with a
/// `pub(super) fn run(&Ctx)`.
macro_rules! registry {
    ($($name:ident => $title:literal,)+) => {
        $(mod $name;)+

        /// Every experiment, in DESIGN §3 order (which is paper order,
        /// then the ablations, then the extensions); `run all` follows it.
        pub const REGISTRY: &[Experiment] = &[
            $(Experiment { name: stringify!($name), title: $title, run: $name::run },)+
        ];
    };
}

registry! {
    table1_workloads => "Tables I-III: workloads, input generators, simulated machine (no simulation)",
    fig1_overhead_vs_footprint => "Fig. 1: relative AT overhead vs footprint, all 13 workloads",
    fig2_cc_urand => "Fig. 2: cc-urand overhead vs footprint with its log-linear fit",
    table4_regression => "Table IV: overhead = b0 + b1*log10(M) fit per workload",
    fig3_exceptions => "Fig. 3: the four workloads with weak log-linear fits",
    table5_metric_correlations => "Table V: Pearson/Spearman of five AT-pressure metrics vs overhead",
    fig4_wcpi_scatter => "Fig. 4: overhead vs WCPI, all AT-sensitive combinations",
    fig5_bc_urand_wcpi => "Fig. 5: overhead vs WCPI for bc-urand, labelled by footprint",
    table_intra_spearman => "Sec. V-B: per-workload Spearman rank of WCPI vs overhead",
    fig6_component_breakdown => "Fig. 6: WCPI and the four Equation 1 factors for four workloads",
    fig7_walk_outcomes => "Fig. 7: retired / wrong-path / aborted walk shares vs footprint",
    fig8_pte_location => "Fig. 8: where pr-kron's PTEs are found (L1/L2/L3/memory) vs footprint",
    fig9_machine_clears => "Fig. 9: non-correct-path walk share vs machine clears for bc-kron",
    fig10_2mb_pages => "Fig. 10: bc-urand under 2 MB pages vs 4 KB pages",
    ablate_mmu_cache => "Ablation: paging-structure caches on vs off",
    ablate_tlb_filtering => "Ablation: L2 TLB size sweep, the TLB filtering effect",
    ablate_walk_cache_levels => "Ablation: all vs PDE-only vs no paging-structure cache levels",
    ablate_speculation => "Ablation: speculation on vs off",
    extension_wcpi_promotion => "Extension: WCPI-guided 2 MB promotion vs static page-size policies",
    extension_1gb_pages => "Extension: the 1 GB vs 2 MB page crossover",
}
