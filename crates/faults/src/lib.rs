//! # atscale-faults — deterministic, seed-driven fault injection
//!
//! The serving daemon (PR 3) and the run cache (PR 4) claim to survive
//! production failures — torn writes, stalled peers, crashed workers.
//! This crate makes those claims testable instead of aspirational: a
//! [`FaultPlan`] decides, purely as a function of `(seed, site, hit
//! number)`, whether the *n*-th arrival at a named [`FaultSite`] injects
//! its failure. The decision is stateless per arrival, so the fault
//! sequence a seed produces is identical across runs regardless of thread
//! interleaving — a failing chaos seed replays exactly.
//!
//! Design constraints:
//!
//! - **Off by default.** Production code paths carry a plan only behind
//!   the `faults` cargo feature of the consuming crates; release builds
//!   compile the sites out entirely. Even with the feature on, a site
//!   with no [`FaultRule`] costs one `Option` check.
//! - **No dependencies.** std only, so the chaos machinery can never drag
//!   the simulator's dependency graph around.
//! - **Observable.** Every fire is appended to an in-memory log (see
//!   [`FaultPlan::log`]) and forwarded to an optional observer callback,
//!   which the chaos suite points at the telemetry JSONL sink.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Declares the fault sites once — each one's doc and identifier — and
/// emits [`FaultSite`], [`FaultSite::ALL`] (declaration order, which is the
/// plan's index order) and [`FaultSite::name`] (the identifier itself).
macro_rules! fault_sites {
    ($($(#[doc = $doc:literal])* $site:ident,)+) => {
        /// Named injection points threaded through the serve/store pipeline.
        ///
        /// Each variant corresponds to one `plan.check(FaultSite::…)` call
        /// site in production code (gated behind the consuming crate's
        /// `faults` feature). The chaos matrix fails unless every site
        /// fires in at least one of its scenarios.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum FaultSite {
            $($(#[doc = $doc])* $site,)+
        }

        impl FaultSite {
            /// Every site, in declaration order (index order for the plan's
            /// per-site counters).
            pub const ALL: [FaultSite; [$(FaultSite::$site),+].len()] = [$(FaultSite::$site),+];

            /// Stable name used in logs, telemetry events, and chaos outcome
            /// lines: the variant's identifier.
            pub fn name(self) -> &'static str {
                match self {
                    $(FaultSite::$site => stringify!($site),)+
                }
            }
        }
    };
}

fault_sites! {
    /// Segment store WAL append: the frame write fails before anything
    /// reaches disk, so the row never commits (exercises the caller's
    /// save-is-advisory contract).
    StoreWrite,
    /// Segment store seal or compaction: the tmp→final rename of the
    /// segment file fails (exercises dropping cleanup; the rows stay in
    /// the WAL and the next append seals them).
    StoreRename,
    /// Server connection writer: a socket write error at a frame boundary
    /// (the connection is marked dead, as a real `EPIPE` would).
    ServerWrite,
    /// Server connection writer: a stall before a frame is written
    /// (exercises client read timeouts).
    ServerStall,
    /// Client: a socket write error while sending a request.
    ClientWrite,
    /// Client: a socket read error at a reply frame boundary.
    ClientRead,
    /// Client: a stall before reading a reply frame.
    ClientStall,
    /// Scheduler: the worker panics mid-job (exercises `catch_unwind`
    /// containment and `Failed` frame delivery to single-flight
    /// subscribers).
    WorkerPanic,
    /// Scheduler admission: the queue reports itself full, rejecting the
    /// batch with `Overloaded` (exercises the client retry policy).
    QueuePressure,
    /// Scheduler: a queued job's subscribers are treated as
    /// deadline-expired (exercises the shed path and `Deadline` frames).
    DeadlineExpiry,
    /// Segment store WAL append: a torn write — a strict prefix of the
    /// framed row survives on disk (exercises torn-tail quarantine and
    /// truncate-to-last-valid-entry on reopen).
    SegmentTorn,
    /// Segment store index persist: the tmp→final rename of the index
    /// file fails (exercises the index-is-advisory contract: reopen must
    /// rebuild the index by scanning segments and the WAL).
    IndexRename,
    /// Epoll reactor shard: a stall at the top of the event loop — the
    /// shard stops reading sockets and draining outbound buffers for the
    /// stall (exercises the level-triggered recovery path: all readiness
    /// re-reports when the shard resumes, so only latency may suffer).
    ReactorStall,
}

impl FaultSite {
    /// Stable dense index of this site (its position in [`Self::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Looks a site up by its [`FaultSite::name`], case-insensitively.
    pub fn parse(name: &str) -> Option<FaultSite> {
        Self::ALL
            .iter()
            .copied()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How one site misbehaves: fire probability, arming schedule, and the
/// site-specific knobs (stall length, torn-write fraction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Probability in `[0, 1]` that an armed arrival fires. `1.0` fires
    /// every armed arrival; `0.0` never fires (the rule is inert).
    pub probability: f64,
    /// Number of initial arrivals that pass through unharmed before the
    /// rule arms — lets a scenario survive its handshake and then break.
    pub after: u64,
    /// Upper bound on total fires, enforced exactly even under
    /// concurrency; `None` is unlimited.
    pub max_fires: Option<u64>,
    /// Stall duration in milliseconds for the stall sites
    /// (`ServerStall`, `ClientStall`).
    pub stall_ms: u64,
    /// Fraction of the frame a torn write keeps (`SegmentTorn`); always
    /// a strict prefix, so the frame's CRC check catches it.
    pub torn_keep: f64,
}

impl Default for FaultRule {
    fn default() -> Self {
        FaultRule {
            probability: 1.0,
            after: 0,
            max_fires: None,
            stall_ms: 20,
            torn_keep: 0.5,
        }
    }
}

impl FaultRule {
    /// A rule that fires on every arrival.
    pub fn always() -> Self {
        FaultRule::default()
    }

    /// A rule firing with probability `p` per armed arrival.
    pub fn with_probability(p: f64) -> Self {
        FaultRule {
            probability: p,
            ..FaultRule::default()
        }
    }

    /// Arms the rule only after `n` arrivals have passed unharmed.
    pub fn after(mut self, n: u64) -> Self {
        self.after = n;
        self
    }

    /// Caps total fires at `n`.
    pub fn max_fires(mut self, n: u64) -> Self {
        self.max_fires = Some(n);
        self
    }

    /// Sets the stall duration for stall sites.
    pub fn stall_ms(mut self, ms: u64) -> Self {
        self.stall_ms = ms;
        self
    }

    /// Sets the kept-prefix fraction for torn writes.
    pub fn torn_keep(mut self, fraction: f64) -> Self {
        self.torn_keep = fraction;
        self
    }
}

/// One recorded fire, in global fire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fire {
    /// Global sequence number of this fire across all sites (0-based).
    pub seq: u64,
    /// The site that fired.
    pub site: FaultSite,
    /// The per-site arrival number (0-based) that fired.
    pub hit: u64,
}

/// Callback invoked on every fire (site, per-site hit number). The chaos
/// suite uses this to stream fires into the telemetry JSONL sink.
pub type FaultObserver = Box<dyn Fn(FaultSite, u64) + Send + Sync>;

const SITES: usize = FaultSite::ALL.len();

/// A seeded injection plan: per-site rules plus the counters and log that
/// make every fire reproducible and observable.
///
/// The fire decision for arrival `hit` at site `s` is a pure function of
/// `(seed, s, hit)` — a [`splitmix64`] hash compared against the rule's
/// probability — so concurrent arrivals may *order* differently between
/// runs, but each individual arrival always makes the same choice. With
/// `probability: 1.0` rules (the chaos suite's default) the full injected
/// fault *set* is identical run-to-run.
pub struct FaultPlan {
    seed: u64,
    rules: [Option<FaultRule>; SITES],
    hits: [AtomicU64; SITES],
    fired: [AtomicU64; SITES],
    total_fires: AtomicU64,
    log: Mutex<Vec<Fire>>,
    observer: Mutex<Option<FaultObserver>>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rules", &self.rules)
            .field("total_fires", &self.total_fires.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FaultPlan {
    /// An empty plan for `seed`: no rules, nothing fires.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: [None; SITES],
            hits: std::array::from_fn(|_| AtomicU64::new(0)),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
            total_fires: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
            observer: Mutex::new(None),
        }
    }

    /// Adds (or replaces) the rule for `site`.
    #[must_use]
    pub fn with_rule(mut self, site: FaultSite, rule: FaultRule) -> Self {
        self.rules[site.index()] = Some(rule);
        self
    }

    /// Builds a plan from a compact spec string, so fault plans can cross
    /// a process boundary (the daemon's `--fault-spec` flag, the nightly
    /// soak-under-faults CI job) without losing determinism — the spec
    /// plus the seed reconstruct the exact in-process plan.
    ///
    /// Grammar: `;`-separated clauses, each `Site[:key=value]...` with the
    /// site named as in [`FaultSite::name`] (case-insensitive) and keys
    /// `p` (fire probability, default 1.0), `after`, `max_fires`,
    /// `stall_ms`, `torn_keep` (`p` and `torn_keep` are fractions in
    /// `[0, 1]`). Example:
    /// `ReactorStall:stall_ms=5:max_fires=100;ServerStall:p=0.01`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause: unknown site,
    /// unknown key, a value that does not parse or is out of range, or a
    /// bare key.
    pub fn parse(seed: u64, spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let mut parts = clause.split(':').map(str::trim);
            let name = parts.next().unwrap_or_default();
            let site = FaultSite::parse(name)
                .ok_or_else(|| format!("unknown fault site {name:?} in {clause:?}"))?;
            let mut rule = FaultRule::always();
            for kv in parts {
                let (key, value) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("expected key=value, got {kv:?} in {clause:?}"))?;
                let bad = || format!("bad value {value:?} for {key} in {clause:?}");
                // A fraction in [0, 1]; NaN fails the range check too.
                let fraction = || {
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|f| (0.0..=1.0).contains(f))
                        .ok_or_else(bad)
                };
                match key {
                    "p" => rule.probability = fraction()?,
                    "after" => rule.after = value.parse().map_err(|_| bad())?,
                    "max_fires" => rule.max_fires = Some(value.parse().map_err(|_| bad())?),
                    "stall_ms" => rule.stall_ms = value.parse().map_err(|_| bad())?,
                    "torn_keep" => rule.torn_keep = fraction()?,
                    other => return Err(format!("unknown fault-rule key {other:?} in {clause:?}")),
                }
            }
            plan = plan.with_rule(site, rule);
        }
        Ok(plan)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Installs the fire observer (replacing any previous one).
    pub fn set_observer(&self, observer: FaultObserver) {
        *self.observer.lock().expect("observer lock") = Some(observer);
    }

    /// Records an arrival at `site` and decides whether it fires.
    ///
    /// Returns the site's rule when the fault fires (so the call site can
    /// read `stall_ms` / `torn_keep`), `None` otherwise. Sites without a
    /// rule never fire and pay one branch.
    pub fn check(&self, site: FaultSite) -> Option<FaultRule> {
        let idx = site.index();
        let rule = self.rules[idx]?;
        let hit = self.hits[idx].fetch_add(1, Ordering::SeqCst);
        if hit < rule.after || !decide(self.seed, idx as u64, hit, rule.probability) {
            return None;
        }
        if let Some(max) = rule.max_fires {
            // `fetch_update` enforces the cap exactly even when many
            // threads race past the probability gate at once.
            if self.fired[idx]
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |fired| {
                    (fired < max).then_some(fired + 1)
                })
                .is_err()
            {
                return None;
            }
        } else {
            self.fired[idx].fetch_add(1, Ordering::SeqCst);
        }
        let seq = self.total_fires.fetch_add(1, Ordering::SeqCst);
        self.log
            .lock()
            .expect("fire log lock")
            .push(Fire { seq, site, hit });
        if let Some(observer) = self.observer.lock().expect("observer lock").as_ref() {
            observer(site, hit);
        }
        Some(rule)
    }

    /// Number of times `site` has fired so far.
    pub fn fires(&self, site: FaultSite) -> u64 {
        self.fired[site.index()].load(Ordering::SeqCst)
    }

    /// Number of arrivals seen at `site` (fired or not).
    pub fn hits(&self, site: FaultSite) -> u64 {
        self.hits[site.index()].load(Ordering::SeqCst)
    }

    /// Total fires across all sites.
    pub fn total_fires(&self) -> u64 {
        self.total_fires.load(Ordering::SeqCst)
    }

    /// Snapshot of every fire so far, in global fire order.
    pub fn log(&self) -> Vec<Fire> {
        self.log.lock().expect("fire log lock").clone()
    }

    /// Canonical one-line rendering of the fault *set* — `site:hit` pairs
    /// sorted by `(site, hit)`, independent of thread interleaving. Chaos
    /// outcome lines embed this so a determinism diff compares injected
    /// faults, not just results.
    pub fn signature(&self) -> String {
        let mut fires: Vec<(usize, u64)> = self
            .log
            .lock()
            .expect("fire log lock")
            .iter()
            .map(|f| (f.site.index(), f.hit))
            .collect();
        fires.sort_unstable();
        let parts: Vec<String> = fires
            .iter()
            .map(|(idx, hit)| format!("{}:{hit}", FaultSite::ALL[*idx].name()))
            .collect();
        parts.join(";")
    }
}

/// The `std::io::Error` an injected I/O fault surfaces as. The message
/// carries the site name so chaos assertions (and humans reading logs)
/// can tell injected failures from real ones.
pub fn injected_io_error(site: FaultSite) -> std::io::Error {
    std::io::Error::other(format!("injected fault: {}", site.name()))
}

/// `splitmix64` — the same finalizer the workload generators use, kept
/// local so this crate stays dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Pure fire decision for arrival `hit` at site index `site` under `seed`.
fn decide(seed: u64, site: u64, hit: u64, probability: f64) -> bool {
    if probability >= 1.0 {
        return true;
    }
    if probability <= 0.0 {
        return false;
    }
    let z = splitmix64(
        seed ^ (site + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ hit.wrapping_mul(0xd1b5_4a32_d192_ed03),
    );
    // Top 53 bits → uniform in [0, 1).
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    unit < probability
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn sites_index_their_position_in_all() {
        for (i, site) in FaultSite::ALL.iter().enumerate() {
            assert_eq!(site.index(), i);
            assert_eq!(site.to_string(), site.name());
        }
    }

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::new(7);
        for site in FaultSite::ALL {
            for _ in 0..100 {
                assert!(plan.check(site).is_none());
            }
        }
        assert_eq!(plan.total_fires(), 0);
        assert!(plan.log().is_empty());
        assert_eq!(plan.signature(), "");
        // Arrivals at rule-less sites are not even counted as hits — the
        // rule check short-circuits first.
        assert_eq!(plan.hits(FaultSite::StoreWrite), 0);
    }

    #[test]
    fn always_rule_fires_every_armed_arrival() {
        let plan =
            FaultPlan::new(1).with_rule(FaultSite::WorkerPanic, FaultRule::always().after(2));
        assert!(plan.check(FaultSite::WorkerPanic).is_none());
        assert!(plan.check(FaultSite::WorkerPanic).is_none());
        assert!(plan.check(FaultSite::WorkerPanic).is_some());
        assert!(plan.check(FaultSite::WorkerPanic).is_some());
        assert_eq!(plan.fires(FaultSite::WorkerPanic), 2);
        assert_eq!(plan.hits(FaultSite::WorkerPanic), 4);
        assert_eq!(plan.signature(), "WorkerPanic:2;WorkerPanic:3");
    }

    #[test]
    fn max_fires_caps_exactly_under_concurrency() {
        let plan = Arc::new(
            FaultPlan::new(3).with_rule(FaultSite::QueuePressure, FaultRule::always().max_fires(5)),
        );
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let plan = Arc::clone(&plan);
                scope.spawn(move || {
                    for _ in 0..100 {
                        plan.check(FaultSite::QueuePressure);
                    }
                });
            }
        });
        assert_eq!(plan.fires(FaultSite::QueuePressure), 5);
        assert_eq!(plan.hits(FaultSite::QueuePressure), 800);
        assert_eq!(plan.log().len(), 5);
    }

    #[test]
    fn same_seed_same_hit_same_decision() {
        // The per-arrival decision is pure: replaying the same arrival
        // sequence reproduces the same fire set, hit for hit.
        let runs: Vec<Vec<bool>> = (0..2)
            .map(|_| {
                let plan = FaultPlan::new(42)
                    .with_rule(FaultSite::ClientRead, FaultRule::with_probability(0.37));
                (0..500)
                    .map(|_| plan.check(FaultSite::ClientRead).is_some())
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        let fired = runs[0].iter().filter(|f| **f).count();
        assert!(fired > 100 && fired < 300, "p=0.37 over 500: {fired}");
    }

    #[test]
    fn different_seeds_differ() {
        let fires = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed)
                .with_rule(FaultSite::ServerStall, FaultRule::with_probability(0.5));
            (0..64)
                .map(|_| plan.check(FaultSite::ServerStall).is_some())
                .collect()
        };
        assert_ne!(fires(1), fires(2), "seeds decorrelate fire patterns");
    }

    #[test]
    fn observer_sees_every_fire() {
        let count = Arc::new(AtomicUsize::new(0));
        let plan =
            FaultPlan::new(9).with_rule(FaultSite::SegmentTorn, FaultRule::always().max_fires(3));
        let seen = Arc::clone(&count);
        plan.set_observer(Box::new(move |site, _hit| {
            assert_eq!(site, FaultSite::SegmentTorn);
            seen.fetch_add(1, Ordering::SeqCst);
        }));
        for _ in 0..10 {
            plan.check(FaultSite::SegmentTorn);
        }
        assert_eq!(count.load(Ordering::SeqCst), 3);
        assert_eq!(plan.total_fires(), 3);
    }

    #[test]
    fn injected_errors_name_their_site() {
        let err = injected_io_error(FaultSite::ClientWrite);
        assert!(err.to_string().contains("injected fault: ClientWrite"));
    }

    #[test]
    fn every_site_name_round_trips_through_parse() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.name()), Some(site));
            assert_eq!(
                FaultSite::parse(&site.name().to_ascii_lowercase()),
                Some(site)
            );
        }
        assert_eq!(FaultSite::parse("NotASite"), None);
    }

    #[test]
    fn parsed_specs_reconstruct_the_builder_plan() {
        let parsed = FaultPlan::parse(
            42,
            "ReactorStall:stall_ms=5:max_fires=100; serverstall:p=0.25:after=10",
        )
        .unwrap();
        let built = FaultPlan::new(42)
            .with_rule(
                FaultSite::ReactorStall,
                FaultRule::always().stall_ms(5).max_fires(100),
            )
            .with_rule(
                FaultSite::ServerStall,
                FaultRule::with_probability(0.25).after(10),
            );
        for site in FaultSite::ALL {
            assert_eq!(
                parsed.rules[site.index()],
                built.rules[site.index()],
                "{site} rule differs between spec and builder"
            );
        }
        // Same seed + same rules → the same deterministic fire decisions.
        for _ in 0..50 {
            assert_eq!(
                parsed.check(FaultSite::ServerStall).is_some(),
                built.check(FaultSite::ServerStall).is_some()
            );
        }
    }

    #[test]
    fn malformed_specs_name_the_offending_clause() {
        for (spec, needle) in [
            ("NotASite:p=1", "unknown fault site"),
            ("SegmentTorn:probability=1", "unknown fault-rule key"),
            ("SegmentTorn:p", "expected key=value"),
            ("SegmentTorn:p=lots", "bad value"),
        ] {
            let err = FaultPlan::parse(1, spec).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
        // The empty spec (and stray separators) are a valid inert plan.
        let plan = FaultPlan::parse(1, " ; ").unwrap();
        assert_eq!(plan.total_fires(), 0);
    }
}
