//! Cross-crate pairing contract between the native harness and the sim
//! sweep: `perf_native --quick` and `fig1 --test` must produce streams
//! whose run labels pair point-for-point in `xval` (same workloads, same
//! footprint MB values). `QUICK_FOOTPRINTS_MB`'s doc comment promises
//! this; the assertion lives here because `atscale-native` cannot depend
//! on the core crate without a cycle.

use atscale::SweepConfig;
use atscale_native::{cross_validate, XvalConfig, QUICK_FOOTPRINTS_MB};
use atscale_workloads::NativeKernel;

#[test]
fn quick_footprints_match_the_test_sweep() {
    let sweep_mb: Vec<u64> = SweepConfig::test()
        .footprints()
        .iter()
        .map(|f| f >> 20)
        .collect();
    assert_eq!(
        sweep_mb,
        QUICK_FOOTPRINTS_MB.to_vec(),
        "perf_native --quick footprints must coincide with SweepConfig::test() \
         so sim and native runs pair in xval"
    );
}

#[test]
fn every_native_kernel_twins_a_sweep_workload() {
    // The sim side of each xval pair comes from the registry names the
    // experiments sweep; a rename on either side would silently
    // unpair the streams, so pin the twin names here.
    let ids: Vec<String> = atscale_workloads::WorkloadId::all()
        .iter()
        .map(ToString::to_string)
        .collect();
    for kernel in NativeKernel::ALL {
        assert!(
            ids.contains(&kernel.sim_workload().to_string()),
            "{} twins unknown sim workload {}",
            kernel.name(),
            kernel.sim_workload()
        );
    }
}

#[test]
fn paired_streams_built_from_quick_labels_cross_validate() {
    // Synthesize the exact label shapes the two harnesses emit for the
    // quick profile and check xval pairs every point (no "unpaired"
    // skip): a rename or footprint drift on either side fails here
    // before it fails in CI's native-smoke job.
    let mut sim = String::from(r#"{"type":"meta","source":"sim","schema":3}"#);
    let mut native = String::from(r#"{"type":"meta","source":"native","schema":3}"#);
    sim.push('\n');
    native.push('\n');
    for kernel in NativeKernel::ALL {
        for &mb in &QUICK_FOOTPRINTS_MB {
            let wcpi = 0.2 + 0.1 * (mb as f64).log10();
            let sim_label = format!("{} {mb}MB 4K", kernel.sim_workload());
            let native_label = format!("{} {mb}MB native", kernel.sim_workload());
            for (stream, label) in [(&mut sim, sim_label), (&mut native, native_label)] {
                stream.push_str(&format!(
                    concat!(
                        r#"{{"type":"sample","source":"sim","run":"{}","instr":1000,"cycles":2000,"#,
                        r#""counters":[],"rates":[["wcpi",{}]]}}"#,
                        "\n"
                    ),
                    label, wcpi
                ));
            }
        }
    }
    let report = cross_validate(&sim, &native, XvalConfig::default());
    assert_eq!(report.status, "pass", "findings: {:?}", report.findings);
    assert_eq!(
        report.workloads.len(),
        NativeKernel::ALL.len(),
        "every kernel must pair and fit"
    );
}
