//! `--aa N`: the benchmark's own A/A test. Runs the workload as two
//! alternating sets of N child runs (A B A B ..., every run its own process
//! and its own seed, exactly as the driver runs it) and prints, per metric,
//! both medians, the quartiles, the spread the driver computes (the distance
//! between the first and third quartile as a share of the median) and the
//! disagreement between the two medians, against the metric's bound.

use crate::estimate::median;
use crate::metrics::{Better, END_TO_END};
use crate::Args;
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method: position `p * (len + 1)`).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = (p * (v.len() + 1) as f64).clamp(1.0, v.len() as f64);
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Runs one child and returns its `metrics` (name → value) if it exited 0
/// with `correct: true`.
fn child(args: &Args, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--explore", if args.explore { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!(
            "seed {seed}: child exited {}: {last}",
            output.status
        ));
    }
    let root: Value = serde_json::from_str(last).map_err(|e| format!("seed {seed}: {e}"))?;
    let root = root.as_map().map_err(|e| format!("seed {seed}: {e}"))?;
    let field = |key: &str| root.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    if field("correct") != Some(&Value::Bool(true)) {
        return Err(format!("seed {seed}: run was not correct: {last}"));
    }
    let metrics = field("metrics")
        .and_then(|m| m.as_map().ok())
        .ok_or_else(|| format!("seed {seed}: no metrics"))?;
    let mut out = BTreeMap::new();
    for (name, entry) in metrics {
        let value = entry
            .as_map()
            .ok()
            .and_then(|e| e.iter().find(|(k, _)| k == "value"))
            .and_then(|(_, v)| match v {
                Value::F64(x) => Some(*x),
                Value::U64(x) => Some(*x as f64),
                Value::I64(x) => Some(*x as f64),
                _ => None,
            })
            .ok_or_else(|| format!("seed {seed}: {name} has no numeric value"))?;
        out.insert(name.clone(), value);
    }
    Ok(out)
}

/// Runs the A/A test and prints the report as a Markdown table. Returns
/// whether every bounded metric agreed within its bound with a spread
/// within its bound.
///
/// # Errors
///
/// Returns the first child failure.
pub fn run(args: &Args, runs_per_set: usize) -> Result<bool, String> {
    if runs_per_set < 2 {
        return Err("--aa needs at least 2 runs per set".to_string());
    }
    let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    for i in 0..2 * runs_per_set {
        let seed = args.seed + i as u64;
        let metrics = child(args, seed)?;
        eprintln!(
            "aa: {} run {}/{} (set {}, seed {seed}) done",
            args.workload.name(),
            i + 1,
            2 * runs_per_set,
            ["A", "B"][i % 2]
        );
        for (name, value) in metrics {
            sets[i % 2].entry(name).or_default().push(value);
        }
    }
    println!(
        "### `{}` — two alternating sets of {runs_per_set} runs, {} s each, seeds {}..{}, trace {}\n",
        args.workload.name(),
        args.seconds,
        args.seed,
        args.seed + 2 * runs_per_set as u64 - 1,
        u8::from(args.trace),
    );
    println!("| metric | median A | q1..q3 A | spread A | median B | q1..q3 B | spread B | B vs A | bound | |");
    println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|---|");
    let mut all_ok = true;
    let names: Vec<String> = sets[0].keys().cloned().collect();
    // Bounded metrics first, in table order, then whatever else was printed.
    let bounded = END_TO_END.iter().map(|m| m.name.to_string());
    let rest = names
        .iter()
        .filter(|n| END_TO_END.iter().all(|m| m.name != **n))
        .cloned();
    for name in bounded.chain(rest).filter(|n| names.contains(n)) {
        let (a, b) = (&sets[0][&name], &sets[1][&name]);
        let (ma, mb) = (median(a), median(b));
        let (qa, qb) = (quartiles(a), quartiles(b));
        let def = END_TO_END.iter().find(|m| m.name == name);
        // Worsening of B against A, signed so that positive is worse.
        let worse = match def.map(|m| m.better) {
            Some(Better::Higher) => (ma - mb) / ma,
            _ => (mb - ma) / ma,
        };
        let (bound, verdict) = match def {
            Some(m) => {
                let spread_ok = m.name == "setup_s" || spread(a).max(spread(b)) <= m.bound;
                let ok = spread_ok && worse.abs() <= m.bound;
                all_ok &= ok;
                (
                    format!("{:.1} %", m.bound * 100.0),
                    if ok { "ok" } else { "**over**" },
                )
            }
            None => ("—".to_string(), ""),
        };
        println!(
            "| `{name}` | {ma:.4} | {:.4}..{:.4} | {:.2} % | {mb:.4} | {:.4}..{:.4} | {:.2} % | {:+.2} % | {bound} | {verdict} |",
            qa.0, qa.1, spread(a) * 100.0, qb.0, qb.1, spread(b) * 100.0, worse * 100.0,
        );
    }
    println!("\nEvery run, in the order made (A and B alternate):\n");
    println!("| metric | values |");
    println!("|---|---|");
    for m in END_TO_END
        .iter()
        .filter(|m| names.iter().any(|n| n == m.name))
    {
        let (a, b) = (&sets[0][m.name], &sets[1][m.name]);
        let runs: Vec<String> = a
            .iter()
            .zip(b)
            .flat_map(|(a, b)| [a, b])
            .map(|v| format!("{v:.4}"))
            .collect();
        println!("| `{}` | {} |", m.name, runs.join(" "));
    }
    println!();
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
