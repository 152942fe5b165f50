//! The experiment registry against its three fixed points: the CSV bytes
//! the per-figure binaries wrote before they became registry entries
//! (`golden/`, captured from the parent commit's `--test` sweep), the
//! DESIGN §3 index, and the committed `results/*.csv` — plus three
//! EXPERIMENTS.md claims, asserted over those committed CSVs.

use atscale::SweepConfig;
use atscale_bench::experiments::REGISTRY;
use atscale_bench::HarnessOptions;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(relative)
}

fn csv_stems(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
        .map(|path| {
            path.file_stem()
                .expect("stem")
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

#[test]
fn every_experiment_writes_the_bytes_its_binary_wrote() {
    let out = std::env::temp_dir().join(format!("atscale-bench-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let opts = HarnessOptions {
        sweep: SweepConfig::test(),
        out_dir: out.clone(),
        ..HarnessOptions::default()
    };
    let harness = opts.harness();
    for experiment in REGISTRY {
        experiment.run(&opts, &harness);
    }

    let golden = repo("crates/bench/tests/golden");
    assert_eq!(csv_stems(&out), csv_stems(&golden), "set of CSVs written");
    for stem in csv_stems(&golden) {
        let file = format!("{stem}.csv");
        assert_eq!(
            std::fs::read_to_string(out.join(&file)).expect("written csv"),
            std::fs::read_to_string(golden.join(&file)).expect("golden csv"),
            "{file} differs from the parent commit's bytes"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// The "Regeneration target" cells of DESIGN §3 that name an experiment:
/// last cell of a table row, one back-quoted identifier, optionally
/// followed by a parenthesised remark.
fn design_targets() -> Vec<String> {
    let design = std::fs::read_to_string(repo("DESIGN.md")).expect("DESIGN.md");
    let section = design
        .split("\n## 3. ")
        .nth(1)
        .and_then(|rest| rest.split("\n## 4. ").next())
        .expect("DESIGN §3");
    section
        .lines()
        .filter(|line| line.starts_with('|'))
        .filter_map(|line| {
            let cell = line.trim_end_matches('|').rsplit('|').next()?.trim();
            let name = cell.strip_prefix('`')?;
            let (name, remark) = name.split_once('`')?;
            let is_ident = name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            let remark = remark.trim();
            (is_ident && (remark.is_empty() || remark.starts_with('('))).then(|| name.to_string())
        })
        .collect()
}

#[test]
fn registry_design_index_and_committed_csvs_name_the_same_experiments() {
    let registry: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    assert_eq!(registry.len(), 20);
    assert_eq!(
        registry,
        design_targets(),
        "registry order vs DESIGN §3 order"
    );

    // Two experiments only print (the inventory tables and the promotion
    // study); every other one owns exactly one committed CSV.
    let committed = csv_stems(&repo("results"));
    assert_eq!(committed, csv_stems(&repo("crates/bench/tests/golden")));
    let printing_only: Vec<&str> = registry
        .iter()
        .copied()
        .filter(|name| !committed.contains(*name))
        .collect();
    assert_eq!(
        printing_only,
        ["table1_workloads", "extension_wcpi_promotion"]
    );
    assert_eq!(committed.len() + printing_only.len(), registry.len());
}

/// Rows of a committed `results/<stem>.csv`, header dropped.
fn committed_rows(stem: &str) -> Vec<Vec<String>> {
    let path = repo("results").join(format!("{stem}.csv"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .skip(1)
        .map(|line| line.split(',').map(str::to_string).collect())
        .collect()
}

fn number(cell: &str) -> f64 {
    cell.parse()
        .unwrap_or_else(|e| panic!("{cell:?} is not a number: {e}"))
}

fn strictly_rising(series: &[f64]) -> bool {
    series.windows(2).all(|pair| pair[0] < pair[1])
}

#[test]
fn table4_mean_strong_fit_slope_is_as_experiments_md_says() {
    // EXPERIMENTS.md, Table IV: eleven fits with adj. R² > 0.9, mean
    // log10(M) coefficient 0.091 (paper 0.13).
    let strong: Vec<f64> = committed_rows("table4_regression")
        .iter()
        .filter(|row| number(&row[3]) > 0.9)
        .map(|row| number(&row[2]))
        .collect();
    assert_eq!(strong.len(), 11);
    let mean = strong.iter().sum::<f64>() / strong.len() as f64;
    assert!((mean - 0.091).abs() < 0.003, "mean strong-fit beta {mean}");
}

#[test]
fn fig7_aborted_walk_share_of_bc_urand_rises_with_footprint() {
    // EXPERIMENTS.md, Fig. 7: bc-urand's aborted share grows with every
    // footprint step, 2.1 % -> 6.0 % over the quick sweep.
    let aborted: Vec<f64> = committed_rows("fig7_walk_outcomes")
        .iter()
        .filter(|row| row[0] == "bc-urand")
        .map(|row| number(&row[5]))
        .collect();
    assert_eq!(aborted.len(), SweepConfig::quick().points);
    assert!(strictly_rising(&aborted), "aborted shares {aborted:?}");
    let (first, last) = (aborted[0], aborted[aborted.len() - 1]);
    assert!((first - 0.021).abs() < 0.004, "smallest footprint {first}");
    assert!((last - 0.060).abs() < 0.006, "largest footprint {last}");
}

#[test]
fn tlb_filtering_accesses_per_walk_rise_with_l2_tlb_size() {
    // EXPERIMENTS.md, TLB-filtering ablation: a larger L2 TLB misses less
    // but leaves longer walks, 1.02 -> 1.38 accesses/walk over 64 -> 16 Ki
    // entries.
    let rows = committed_rows("ablate_tlb_filtering");
    let entries: Vec<f64> = rows.iter().map(|row| number(&row[0])).collect();
    let miss_ratio: Vec<f64> = rows.iter().map(|row| -number(&row[1])).collect();
    let acc_per_walk: Vec<f64> = rows.iter().map(|row| number(&row[2])).collect();
    assert_eq!(entries, [64.0, 256.0, 1024.0, 4096.0, 16384.0]);
    assert!(
        strictly_rising(&miss_ratio),
        "miss ratio must fall: {rows:?}"
    );
    assert!(strictly_rising(&acc_per_walk), "acc/walk {acc_per_walk:?}");
    assert!((acc_per_walk[0] - 1.018).abs() < 0.01);
    assert!((acc_per_walk[4] - 1.38).abs() < 0.03);
}
