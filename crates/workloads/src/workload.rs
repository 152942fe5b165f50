//! The workload abstraction consumed by the experiment framework.

use atscale_mmu::{AccessSink, WorkloadProfile};
use atscale_vm::{AddressSpace, VmError};

/// A runnable workload instance: something that can lay out its memory in a
/// simulated address space and then drive an access stream into a sink.
///
/// The lifecycle is `setup` once, then `run` once; `run` must poll
/// [`AccessSink::done`] and return promptly when it reports the instruction
/// budget is exhausted.
pub trait Workload {
    /// Program name (e.g. `"pr"`).
    fn program(&self) -> &'static str;

    /// Input-generator name (e.g. `"kron"`).
    fn generator(&self) -> &'static str;

    /// The paper's `program-generator` workload label.
    fn label(&self) -> String {
        format!("{}-{}", self.program(), self.generator())
    }

    /// The workload's dynamics profile (base CPI, MLP, speculation rates).
    fn profile(&self) -> WorkloadProfile;

    /// Allocates segments and faults in the working set (the build phase of
    /// the real benchmark, which the paper excludes from measurement via
    /// dry runs). Implementations fault whole arrays in with
    /// [`AddressSpace::fault_in`], not a `touch` per page: the phase is
    /// excluded from the results, so it should not bound the footprints a
    /// sweep can reach.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError`] from allocation.
    fn setup(&mut self, space: &mut AddressSpace) -> Result<(), VmError>;

    /// Drives the access stream until the sink reports `done`.
    fn run(&mut self, sink: &mut dyn AccessSink);
}
