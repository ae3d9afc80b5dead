//! The engine trait every benchmarked VDBMS implements.

use crate::io::{ExecContext, InputVideo, QueryOutput};
use crate::query::{QueryInstance, QueryKind};
use vr_base::Result;

/// A video database management system under test.
///
/// "In the same way that relational database systems target subsets of
/// benchmarks …, Visual Road is designed to be flexible: a user may
/// either select specific applicable queries or groups of queries
/// appropriate for their systems" (§1) — hence
/// [`supports`](Vdbms::supports).
///
/// `Send + Sync` and the shared-reference [`execute`](Vdbms::execute)
/// let the VCD's batch scheduler dispatch one batch's instances across
/// worker threads; engines guard their mutable state (caches, device
/// pools, counters) internally.
pub trait Vdbms: Send + Sync {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Whether the engine can express this query at all. Unsupported
    /// queries are reported as N/A, not as failures.
    fn supports(&self, kind: QueryKind) -> bool;

    /// Called once before a query batch with every instance the
    /// driver is about to submit. Engines that plan batch-wide (like
    /// Scanner's eager table materialization) hook in here; the
    /// default does nothing. Runs inside the measured window, so the
    /// context's pipeline metrics record work done here too.
    fn prepare_batch(
        &mut self,
        instances: &[QueryInstance],
        inputs: &[InputVideo],
        ctx: &ExecContext,
    ) {
        let _ = (instances, inputs, ctx);
    }

    /// Execute one query instance. `inputs` is the whole dataset;
    /// `instance.inputs` indexes into it. Takes `&self` so the driver
    /// may run several instances of one batch concurrently.
    fn execute(
        &self,
        instance: &QueryInstance,
        inputs: &[InputVideo],
        ctx: &ExecContext,
    ) -> Result<QueryOutput>;

    /// Describe the physical plan the engine would run for this
    /// instance under this context, without executing anything
    /// (EXPLAIN). The default is a generic streaming chain; engines
    /// override it to expose their real policy, scan operator, and
    /// kernel per query. Must be deterministic for a given
    /// (instance, context) pair — the driver renders it before
    /// execution and annotates the same tree afterwards.
    fn plan(&self, instance: &QueryInstance, ctx: &ExecContext) -> crate::plan::PlanNode {
        crate::plan::build(
            &crate::plan::PlanDesc {
                engine: self.name(),
                query: instance.spec.kind().label(),
                policy: crate::plan::Policy::Streaming,
                scan: crate::plan::ScanOp::Stream,
                kernel: "kernel".to_string(),
                gate: None,
            },
            ctx,
        )
    }

    /// Stable identifier for this engine's decision on a query kind in
    /// the cost-based optimizer's caches (`"{name}/{kind label}"`).
    /// The driver uses it to look up the cached
    /// [`PlanDecision`](crate::cost::PlanDecision) for explain output
    /// and the scheduler's instance fan-out.
    fn plan_key(&self, instance: &QueryInstance) -> String {
        format!("{}/{}", self.name(), instance.spec.kind().label())
    }

    /// Called by the driver between query batches ("a VDBMS … may
    /// optionally quiesce or restart upon completing a batch", §3.2).
    /// Engines use this to drop caches and release pooled resources.
    fn quiesce(&mut self) {}
}
