//! The paper's 13 workload–generator combinations (Table I × Table II).

use crate::models::{GraphGen, GraphKernel, GraphModel, KvModel, McfModel, StreamclusterModel};
use crate::workload::Workload;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Program under study (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Program {
    Bc,
    Bfs,
    Cc,
    Pr,
    Tc,
    Mcf,
    Memcached,
    Streamcluster,
}

impl Program {
    /// Lowercase program name.
    pub const fn name(self) -> &'static str {
        match self {
            Program::Bc => "bc",
            Program::Bfs => "bfs",
            Program::Cc => "cc",
            Program::Pr => "pr",
            Program::Tc => "tc",
            Program::Mcf => "mcf",
            Program::Memcached => "memcached",
            Program::Streamcluster => "streamcluster",
        }
    }

    /// Benchmark suite the program comes from.
    pub const fn suite(self) -> &'static str {
        match self {
            Program::Bc | Program::Bfs | Program::Cc | Program::Pr | Program::Tc => "gapbs",
            Program::Memcached => "ycsb",
            Program::Mcf => "spec2006",
            Program::Streamcluster => "parsec",
        }
    }
}

/// Input generator (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Generator {
    Urand,
    Kron,
    Uniform,
    Rand,
}

impl Generator {
    /// Lowercase generator name.
    pub const fn name(self) -> &'static str {
        match self {
            Generator::Urand => "urand",
            Generator::Kron => "kron",
            Generator::Uniform => "uniform",
            Generator::Rand => "rand",
        }
    }
}

/// A workload identity: `program-generator`, always one of the 13 pairs
/// in [`WorkloadId::all`]. It serialises as a `{program, generator}` map;
/// decoding rejects any other pair, so a wire spec cannot name a workload
/// the paper does not study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct WorkloadId {
    program: Program,
    generator: Generator,
}

impl WorkloadId {
    /// The program.
    pub const fn program(self) -> Program {
        self.program
    }

    /// The input generator.
    pub const fn generator(self) -> Generator {
        self.generator
    }

    /// All 13 combinations the paper studies.
    pub fn all() -> Vec<WorkloadId> {
        let mut ids = Vec::with_capacity(13);
        for program in [
            Program::Bc,
            Program::Bfs,
            Program::Cc,
            Program::Pr,
            Program::Tc,
        ] {
            for generator in [Generator::Urand, Generator::Kron] {
                ids.push(WorkloadId { program, generator });
            }
        }
        ids.push(WorkloadId {
            program: Program::Mcf,
            generator: Generator::Rand,
        });
        ids.push(WorkloadId {
            program: Program::Memcached,
            generator: Generator::Uniform,
        });
        ids.push(WorkloadId {
            program: Program::Streamcluster,
            generator: Generator::Rand,
        });
        ids
    }

    /// Parses `"program-generator"` labels.
    ///
    /// # Example
    ///
    /// ```
    /// use atscale_workloads::WorkloadId;
    ///
    /// let id = WorkloadId::parse("cc-urand").unwrap();
    /// assert_eq!(id.to_string(), "cc-urand");
    /// assert!(WorkloadId::parse("mcf-kron").is_none());
    /// ```
    pub fn parse(label: &str) -> Option<WorkloadId> {
        WorkloadId::all()
            .into_iter()
            .find(|id| id.to_string() == label)
    }

    /// Builds the paper-scale model of this workload at the given nominal
    /// footprint, seeded for reproducibility.
    pub fn build_model(&self, footprint_bytes: u64, seed: u64) -> Box<dyn Workload> {
        let gg = match self.generator {
            Generator::Urand => Some(GraphGen::Urand),
            Generator::Kron => Some(GraphGen::Kron),
            _ => None,
        };
        match self.program {
            Program::Bc => Box::new(GraphModel::new(
                GraphKernel::Bc,
                gg.expect("graph generator"),
                footprint_bytes,
                seed,
            )),
            Program::Bfs => Box::new(GraphModel::new(
                GraphKernel::Bfs,
                gg.expect("graph generator"),
                footprint_bytes,
                seed,
            )),
            Program::Cc => Box::new(GraphModel::new(
                GraphKernel::Cc,
                gg.expect("graph generator"),
                footprint_bytes,
                seed,
            )),
            Program::Pr => Box::new(GraphModel::new(
                GraphKernel::Pr,
                gg.expect("graph generator"),
                footprint_bytes,
                seed,
            )),
            Program::Tc => Box::new(GraphModel::new(
                GraphKernel::Tc,
                gg.expect("graph generator"),
                footprint_bytes,
                seed,
            )),
            Program::Mcf => Box::new(McfModel::new(footprint_bytes, seed)),
            Program::Memcached => Box::new(KvModel::new(footprint_bytes, seed)),
            Program::Streamcluster => Box::new(StreamclusterModel::new(footprint_bytes, seed)),
        }
    }
}

impl Deserialize for WorkloadId {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let entries = v.as_map()?;
        let id = WorkloadId {
            program: serde::field(entries, "program")?,
            generator: serde::field(entries, "generator")?,
        };
        if WorkloadId::all().contains(&id) {
            Ok(id)
        } else {
            Err(serde::Error::msg(format!(
                "{id} is not one of the paper's workloads"
            )))
        }
    }
}

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.program.name(), self.generator.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atscale_vm::{AddressSpace, BackingPolicy, PageSize};

    #[test]
    fn there_are_exactly_thirteen_workloads() {
        let all = WorkloadId::all();
        assert_eq!(all.len(), 13);
        let labels: Vec<String> = all.iter().map(ToString::to_string).collect();
        for expected in [
            "bc-urand",
            "bc-kron",
            "bfs-urand",
            "bfs-kron",
            "cc-urand",
            "cc-kron",
            "pr-urand",
            "pr-kron",
            "tc-urand",
            "tc-kron",
            "mcf-rand",
            "memcached-uniform",
            "streamcluster-rand",
        ] {
            assert!(labels.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn parse_roundtrips_every_workload() {
        for id in WorkloadId::all() {
            assert_eq!(WorkloadId::parse(&id.to_string()), Some(id));
            assert_eq!(WorkloadId::from_value(&id.to_value()), Ok(id));
        }
        assert!(WorkloadId::parse("nonsense").is_none());
    }

    #[test]
    fn pairs_outside_the_paper_fail_to_decode() {
        for (program, generator, label) in [("Bc", "Rand", "bc-rand"), ("Mcf", "Kron", "mcf-kron")]
        {
            let v = Value::Map(vec![
                ("program".to_string(), Value::Str(program.to_string())),
                ("generator".to_string(), Value::Str(generator.to_string())),
            ]);
            let err = WorkloadId::from_value(&v).expect_err(label);
            assert!(err.to_string().contains(label), "{err}");
        }
    }

    #[test]
    fn every_model_builds_and_runs() {
        use atscale_mmu::CountingSink;
        for id in WorkloadId::all() {
            let mut w = id.build_model(4 << 20, 1);
            assert_eq!(w.label(), id.to_string());
            let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
            w.setup(&mut space).unwrap();
            let mut sink = CountingSink::with_budget(5_000);
            w.run(&mut sink);
            assert!(sink.loads > 300, "{id}: only {} loads", sink.loads);
        }
    }

    #[test]
    fn suites_match_table_i() {
        assert_eq!(Program::Pr.suite(), "gapbs");
        assert_eq!(Program::Mcf.suite(), "spec2006");
        assert_eq!(Program::Memcached.suite(), "ycsb");
        assert_eq!(Program::Streamcluster.suite(), "parsec");
    }
}
