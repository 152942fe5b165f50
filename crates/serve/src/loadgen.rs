//! Open-loop Poisson load generation against a serve topology.
//!
//! The engine drives thousands of concurrent non-blocking connections
//! from a single thread over the same [`crate::sys`] epoll shim the
//! reactor uses, issuing one-spec `Submit` requests on a precomputed
//! Poisson arrival schedule and recording send → `BatchDone` latency per
//! request.
//!
//! Two properties matter for a credible benchmark and are enforced by
//! construction:
//!
//! - **Open loop**: arrivals fire on the schedule regardless of how many
//!   replies are outstanding, so a slow server accumulates queueing delay
//!   instead of silently throttling the offered load (closed-loop
//!   coordinated omission would hide exactly the tail this benchmark
//!   exists to measure).
//! - **Determinism**: the schedule is a pure function of
//!   `(seed, rate, count, pool)` — [`schedule`] called twice with the same
//!   arguments yields the identical arrival list, byte for byte, which is
//!   what makes a committed baseline meaningful.
//!
//! The engine routes each request to the shard that owns its spec's
//! record hash (via [`ShardMap`]), exactly as [`crate::ShardedClient`]
//! does, so a sharded topology is exercised the way real clients use it.

use crate::protocol::{self, Reply, Request, Submit};
use crate::router::ShardMap;
use crate::sys::{raw_fd, Epoll, Event, Interest};
use atscale::gen::splitmix64;
use atscale::RunSpec;
use atscale_mmu::MachineConfig;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Read-buffer granularity for reply streams.
const READ_CHUNK: usize = 16 * 1024;

/// Events drained per epoll wake.
const EVENT_BATCH: usize = 64;

/// Hard per-run drain window after the last scheduled arrival: requests
/// still unanswered when it expires are counted `timed_out`, never waited
/// on forever.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// One scheduled arrival: when to send (nanoseconds from run start) and
/// which spec of the pre-warmed pool to submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from run start, in nanoseconds.
    pub at_ns: u64,
    /// Index into the spec pool.
    pub spec: usize,
}

/// Builds the full open-loop arrival schedule: `count` arrivals with
/// exponentially-distributed inter-arrival gaps at `rate_per_sec`
/// (a Poisson process), each assigned a spec drawn uniformly from a
/// `pool`-sized pool.
///
/// Pure function of its arguments — identical inputs produce the
/// identical schedule, which the determinism test pins.
pub fn schedule(seed: u64, rate_per_sec: f64, count: usize, pool: usize) -> Vec<Arrival> {
    let rate = if rate_per_sec > 0.0 {
        rate_per_sec
    } else {
        1.0
    };
    let pool = pool.max(1);
    let mut out = Vec::with_capacity(count);
    let mut t_ns = 0u64;
    let mut state = seed;
    for _ in 0..count {
        let u = unit_f64(&mut state);
        // Inverse-CDF exponential sample; clamp away u == 1.0 so ln(0)
        // never appears.
        let dt_s = -(1.0 - u).max(f64::MIN_POSITIVE).ln() / rate;
        t_ns = t_ns.saturating_add((dt_s * 1e9) as u64);
        let spec = (next_u64(&mut state) % pool as u64) as usize;
        out.push(Arrival { at_ns: t_ns, spec });
    }
    out
}

/// The schedule sampler's generator: [`splitmix64`] of the state, which
/// then steps by the same increment `splitmix64` adds.
fn next_u64(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    out
}

/// A uniform draw in `[0, 1)` from the schedule's generator state.
fn unit_f64(state: &mut u64) -> f64 {
    (next_u64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Loadgen run parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Every shard's address, in shard-index order (one entry = standalone).
    pub topology: Vec<String>,
    /// Concurrent connections to hold open, distributed round-robin
    /// across the topology.
    pub connections: usize,
    /// Total requests to issue.
    pub requests: usize,
    /// Offered load in requests per second (Poisson arrivals).
    pub rate_per_sec: f64,
    /// Seed for the arrival schedule and spec selection.
    pub seed: u64,
}

/// What a loadgen run measured. Serialized as the
/// `atscale-serve-loadgen-v1` JSON schema by the `loadgen` bench binary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Report schema tag.
    pub schema: String,
    /// Always `"epoll"`, the daemon's one I/O plane; the field stays so
    /// committed `atscale-serve-loadgen-v1` baselines load unchanged.
    pub tier: String,
    /// Shards in the target topology.
    pub shards: u64,
    /// Concurrent connections held open.
    pub connections: u64,
    /// Offered load, requests/second.
    pub rate_per_sec: f64,
    /// Schedule seed.
    pub seed: u64,
    /// Requests issued.
    pub sent: u64,
    /// Requests answered with a full reply stream (`BatchDone`).
    pub completed: u64,
    /// Requests rejected by admission control (`Overloaded`).
    pub overloaded: u64,
    /// Requests lost to connection errors or protocol breaks.
    pub errors: u64,
    /// Requests still unanswered when the drain window closed.
    pub timed_out: u64,
    /// Wall-clock run duration, seconds.
    pub duration_s: f64,
    /// Completed requests per second of wall-clock.
    pub goodput_per_s: f64,
    /// `Overloaded` replies as a fraction of requests issued.
    pub overloaded_rate: f64,
    /// Median send→done latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds.
    pub p999_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
}

impl LoadgenReport {
    /// The schema tag the bench gate matches on.
    pub const SCHEMA: &'static str = "atscale-serve-loadgen-v1";
}

/// One managed connection.
struct Conn {
    stream: TcpStream,
    shard: usize,
    /// Bytes queued for the socket (front-drained).
    out: Vec<u8>,
    /// Partial inbound line.
    inbuf: Vec<u8>,
    /// Whether `EPOLLOUT` is currently armed.
    writable_armed: bool,
    dead: bool,
}

/// Latency percentile over a sorted sample set (microseconds).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted.get(rank.min(sorted.len() - 1)).copied().unwrap_or(0)
}

/// Runs the load-generation engine: opens `config.connections`
/// non-blocking connections across the topology, fires the arrival
/// schedule open-loop, and collects per-request latency until every
/// request resolves or the drain window closes.
///
/// `specs` is the pre-warmed pool arrivals draw from; pre-warming (one
/// [`crate::ShardedClient::run_chunked`] pass) is the caller's job so the
/// measured path is the cached-answer path.
///
/// # Errors
///
/// Fails on setup errors — epoll unavailable, or a connection that cannot
/// be established after retries. Runtime failures (drops mid-stream,
/// protocol breaks) are counted in the report instead.
pub fn run(
    config: &LoadgenConfig,
    specs: &[RunSpec],
    machine: &MachineConfig,
) -> std::io::Result<LoadgenReport> {
    if config.topology.is_empty() || specs.is_empty() || config.connections == 0 {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            "loadgen needs a topology, a spec pool, and at least one connection",
        ));
    }
    let map = ShardMap::new(config.topology.len());
    let plan = schedule(
        config.seed,
        config.rate_per_sec,
        config.requests,
        specs.len(),
    );

    // Per-shard connection groups: conn i serves shard i % shards, so
    // every shard has connections as long as connections >= shards.
    let epoll = Epoll::new()?;
    let mut conns: Vec<Conn> = Vec::with_capacity(config.connections);
    for i in 0..config.connections {
        let shard = i % config.topology.len();
        let addr = config
            .topology
            .get(shard)
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "topology hole"))?;
        let stream = connect_retry(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        epoll.add(raw_fd(&stream), i as u64, Interest::Read)?;
        conns.push(Conn {
            stream,
            shard,
            out: Vec::new(),
            inbuf: Vec::new(),
            writable_armed: false,
            dead: false,
        });
    }
    let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); config.topology.len()];
    for (i, conn) in conns.iter().enumerate() {
        if let Some(group) = by_shard.get_mut(conn.shard) {
            group.push(i);
        }
    }
    let mut rr: Vec<usize> = vec![0; config.topology.len()];

    // In-flight requests: id -> (owning conn, send offset ns).
    let mut pending: HashMap<u64, (usize, u64)> = HashMap::new();
    let mut latencies_us: Vec<u64> = Vec::with_capacity(config.requests);
    let mut sent = 0u64;
    let mut overloaded = 0u64;
    let mut errors = 0u64;

    let start = Instant::now();
    let drain_deadline = plan.last().map_or(DRAIN_TIMEOUT, |a| {
        Duration::from_nanos(a.at_ns) + DRAIN_TIMEOUT
    });
    let mut events = vec![Event::default(); EVENT_BATCH];
    let mut next_arrival = 0usize;
    let mut next_id = 1u64;

    loop {
        let elapsed = start.elapsed();
        let now_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);

        // Fire every arrival whose time has come (open loop: no waiting
        // on outstanding replies).
        while let Some(arrival) = plan.get(next_arrival) {
            if arrival.at_ns > now_ns {
                break;
            }
            next_arrival += 1;
            let Some(spec) = specs.get(arrival.spec) else {
                continue;
            };
            let shard = map.shard_for(spec, machine);
            let conn_idx = pick_conn(&by_shard, &mut rr, &conns, shard);
            let Some(conn_idx) = conn_idx else {
                errors += 1;
                sent += 1;
                continue;
            };
            let id = next_id;
            next_id += 1;
            let mut line = protocol::encode(&Request::Submit(Submit {
                id,
                specs: vec![*spec],
                deadline_ms: None,
                no_cache: false,
                sample_interval: 0,
            }));
            line.push('\n');
            sent += 1;
            pending.insert(id, (conn_idx, now_ns));
            if let Some(conn) = conns.get_mut(conn_idx) {
                conn.out.extend_from_slice(line.as_bytes());
                flush_conn(&epoll, conn, conn_idx);
            }
        }

        if next_arrival >= plan.len() && pending.is_empty() {
            break;
        }
        if elapsed >= drain_deadline {
            break;
        }

        // Sleep until the next arrival is due (capped so reply streams
        // stay responsive) or until a socket wakes us.
        let timeout_ms = match plan.get(next_arrival) {
            Some(arrival) => {
                let wait_ns = arrival.at_ns.saturating_sub(now_ns);
                (wait_ns / 1_000_000).clamp(0, 20) as i32
            }
            None => 20,
        };
        let n = epoll.wait(&mut events, timeout_ms)?;
        for event in events.iter().take(n) {
            let conn_idx = event.token as usize;
            let Some(conn) = conns.get_mut(conn_idx) else {
                continue;
            };
            if conn.dead {
                continue;
            }
            if event.readable || event.closed {
                read_replies(
                    conn,
                    &mut pending,
                    &mut latencies_us,
                    &mut overloaded,
                    &mut errors,
                    &start,
                );
            }
            if event.writable && !conn.dead {
                flush_conn(&epoll, conn, conn_idx);
            }
            if conn.dead {
                // Everything in flight on a dead connection is lost.
                let lost: Vec<u64> = pending
                    .iter()
                    .filter(|(_, (c, _))| *c == conn_idx)
                    .map(|(&id, _)| id)
                    .collect();
                for id in lost {
                    pending.remove(&id);
                    errors += 1;
                }
                epoll.delete(raw_fd(&conn.stream)).ok();
            }
        }
    }

    let timed_out = pending.len() as u64;
    let duration_s = start.elapsed().as_secs_f64();
    latencies_us.sort_unstable();
    let completed = latencies_us.len() as u64;
    Ok(LoadgenReport {
        schema: LoadgenReport::SCHEMA.to_string(),
        tier: "epoll".to_string(),
        shards: config.topology.len() as u64,
        connections: config.connections as u64,
        rate_per_sec: config.rate_per_sec,
        seed: config.seed,
        sent,
        completed,
        overloaded,
        errors,
        timed_out,
        duration_s,
        goodput_per_s: if duration_s > 0.0 {
            completed as f64 / duration_s
        } else {
            0.0
        },
        overloaded_rate: if sent > 0 {
            overloaded as f64 / sent as f64
        } else {
            0.0
        },
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
        p999_us: percentile(&latencies_us, 0.999),
        max_us: latencies_us.last().copied().unwrap_or(0),
    })
}

/// Connects with bounded retries — a connect storm against a freshly
/// spawned daemon can transiently overflow the accept backlog.
fn connect_retry(addr: &str) -> std::io::Result<TcpStream> {
    let mut last = None;
    for attempt in 0..50 {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(5 * (attempt / 10 + 1)));
            }
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("connect failed")))
}

/// Round-robins over a shard's live connections.
fn pick_conn(
    by_shard: &[Vec<usize>],
    rr: &mut [usize],
    conns: &[Conn],
    shard: usize,
) -> Option<usize> {
    let group = by_shard.get(shard)?;
    let cursor = rr.get_mut(shard)?;
    for _ in 0..group.len() {
        let idx = group.get(*cursor % group.len().max(1)).copied()?;
        *cursor = cursor.wrapping_add(1);
        if conns.get(idx).is_some_and(|c| !c.dead) {
            return Some(idx);
        }
    }
    None
}

/// Drains a connection's readable bytes, resolving in-flight requests.
fn read_replies(
    conn: &mut Conn,
    pending: &mut HashMap<u64, (usize, u64)>,
    latencies_us: &mut Vec<u64>,
    overloaded: &mut u64,
    errors: &mut u64,
    start: &Instant,
) {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.inbuf
                    .extend_from_slice(chunk.get(..n).unwrap_or_default());
                while let Some(pos) = conn.inbuf.iter().position(|&b| b == b'\n') {
                    let rest = conn.inbuf.split_off(pos + 1);
                    let line = std::mem::replace(&mut conn.inbuf, rest);
                    let text = String::from_utf8_lossy(&line);
                    let text = text.trim();
                    if text.is_empty() {
                        continue;
                    }
                    resolve_reply(text, pending, latencies_us, overloaded, errors, start);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Classifies one reply line against the in-flight table.
fn resolve_reply(
    line: &str,
    pending: &mut HashMap<u64, (usize, u64)>,
    latencies_us: &mut Vec<u64>,
    overloaded: &mut u64,
    errors: &mut u64,
    start: &Instant,
) {
    let Ok(reply) = protocol::decode::<Reply>(line) else {
        *errors += 1;
        return;
    };
    match reply {
        Reply::BatchDone(done) => {
            if let Some((_, sent_ns)) = pending.remove(&done.id) {
                let now_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                latencies_us.push(now_ns.saturating_sub(sent_ns) / 1_000);
            }
        }
        Reply::Overloaded(o) if pending.remove(&o.id).is_some() => *overloaded += 1,
        Reply::Error(e) if pending.remove(&e.id).is_some() => *errors += 1,
        // Mid-stream frames for a batch still in flight.
        _ => {}
    }
}

/// Writes as much queued output as the socket accepts; arms or disarms
/// `EPOLLOUT` to match what remains.
fn flush_conn(epoll: &Epoll, conn: &mut Conn, token: usize) {
    while !conn.out.is_empty() {
        match conn.stream.write(&conn.out) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.out.drain(..n.min(conn.out.len()));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    let want_write = !conn.out.is_empty();
    if want_write != conn.writable_armed {
        let interest = if want_write {
            Interest::ReadWrite
        } else {
            Interest::Read
        };
        if epoll
            .modify(raw_fd(&conn.stream), token as u64, interest)
            .is_ok()
        {
            conn.writable_armed = want_write;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = schedule(42, 1000.0, 512, 16);
        let b = schedule(42, 1000.0, 512, 16);
        assert_eq!(a, b, "fixed seed must reproduce the identical schedule");
        let c = schedule(43, 1000.0, 512, 16);
        assert_ne!(a, c, "different seeds must decorrelate");
    }

    /// The committed `BENCH_SERVE_*.json` baselines were measured on
    /// this schedule: a change to the generator must not move it.
    #[test]
    fn schedule_is_pinned() {
        let pinned = [
            (494_017, 0),
            (2_804_237, 3),
            (3_406_523, 1),
            (4_037_546, 2),
            (4_181_714, 1),
            (4_291_037, 0),
            (6_792_311, 0),
            (8_787_467, 0),
        ]
        .map(|(at_ns, spec)| Arrival { at_ns, spec });
        assert_eq!(schedule(7, 1000.0, 8, 4), pinned);
    }

    #[test]
    fn schedule_is_monotone_and_rate_shaped() {
        let plan = schedule(7, 10_000.0, 4096, 8);
        assert_eq!(plan.len(), 4096);
        for pair in plan.windows(2) {
            assert!(pair[0].at_ns <= pair[1].at_ns, "arrivals are ordered");
        }
        // Mean inter-arrival should land near 1/rate (100 µs) — within
        // a loose 3x band, this is a smoke check not a statistics test.
        let span_ns = plan.last().map_or(0, |a| a.at_ns);
        let mean_ns = span_ns / 4096;
        assert!(
            (30_000..300_000).contains(&mean_ns),
            "mean inter-arrival {mean_ns} ns far from 100 µs"
        );
        assert!(plan.iter().all(|a| a.spec < 8), "specs drawn from the pool");
    }

    #[test]
    fn percentiles_pick_expected_ranks() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.50), 501);
        assert_eq!(percentile(&sorted, 0.99), 990);
        assert_eq!(percentile(&sorted, 0.999), 999);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
