//! The fault catalogue and the spec grammar, through the public API only:
//! what `atscale-serve --fault-spec` and the chaos suite rely on.

use atscale_faults::{FaultPlan, FaultSite};
use std::sync::Arc;

/// Fires recorded per site after `arrivals` checks at every site.
fn fires_after(plan: &FaultPlan, arrivals: usize) -> Vec<u64> {
    for site in FaultSite::ALL {
        for _ in 0..arrivals {
            plan.check(site);
        }
    }
    FaultSite::ALL.map(|site| plan.fires(site)).to_vec()
}

#[test]
fn every_site_round_trips_through_its_name_and_a_spec() {
    for site in FaultSite::ALL {
        let name = site.name();
        assert_eq!(site.to_string(), name);
        for spelling in [
            name.to_string(),
            name.to_ascii_lowercase(),
            name.to_ascii_uppercase(),
        ] {
            assert_eq!(FaultSite::parse(&spelling), Some(site), "{spelling}");
        }
        // A one-clause spec arms exactly that site, exactly as written.
        let plan = FaultPlan::parse(1, &format!("{}:max_fires=2", name.to_ascii_lowercase()))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let fires = fires_after(&plan, 3);
        for (other, fired) in FaultSite::ALL.into_iter().zip(fires) {
            assert_eq!(fired, u64::from(other == site) * 2, "{name} spec, {other}");
        }
    }
    assert_eq!(FaultSite::parse("Store Write"), None);
}

#[test]
fn index_is_dense_in_declaration_order() {
    let indices: Vec<usize> = FaultSite::ALL.iter().map(|s| s.index()).collect();
    assert_eq!(indices, (0..FaultSite::ALL.len()).collect::<Vec<_>>());
    let mut names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), FaultSite::ALL.len(), "names are distinct");
}

#[test]
fn max_fires_is_exact_under_eight_racing_threads() {
    let plan = Arc::new(FaultPlan::parse(11, "QueuePressure:p=0.5:max_fires=7").unwrap());
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let plan = Arc::clone(&plan);
            scope.spawn(move || {
                for _ in 0..200 {
                    plan.check(FaultSite::QueuePressure);
                }
            });
        }
    });
    assert_eq!(plan.hits(FaultSite::QueuePressure), 1600);
    assert_eq!(plan.fires(FaultSite::QueuePressure), 7);
    assert_eq!(plan.total_fires(), 7);
    let log = plan.log();
    assert_eq!(log.len(), 7);
    assert!(log.iter().enumerate().all(|(i, f)| f.seq == i as u64));
}

#[test]
fn fractions_outside_the_unit_interval_are_rejected() {
    for spec in [
        "ServerStall:p=nan",
        "ServerStall:p=NaN",
        "ServerStall:p=7",
        "ServerStall:p=-0.1",
        "ServerStall:p=inf",
        "SegmentTorn:torn_keep=3",
        "SegmentTorn:torn_keep=-1",
        "SegmentTorn:torn_keep=nan",
    ] {
        let err = FaultPlan::parse(1, spec).expect_err(spec);
        assert!(err.contains("bad value"), "{spec}: {err}");
    }
    // The interval's ends are valid: p=0 is inert, p=1 always fires.
    let plan = FaultPlan::parse(
        1,
        "ServerStall:p=0;SegmentTorn:p=1:torn_keep=0;ClientRead:torn_keep=1",
    )
    .expect("boundary values parse");
    assert!(plan.check(FaultSite::ServerStall).is_none());
    assert_eq!(
        plan.check(FaultSite::SegmentTorn).map(|r| r.torn_keep),
        Some(0.0)
    );
}
