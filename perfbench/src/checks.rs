//! Output checks. Each is computed from the inputs or from invariants of
//! the model, never from a stored copy of earlier output, and each returns
//! a description of what disagreed.

use bluescale_rt::task::TaskSet;
use bluescale_sim::metrics::MetricsRegistry;
use bluescale_sim::Cycle;
use bluescale_telemetry::jsonl::fold_jsonl;

/// What one simulation run produced: request accounting plus every
/// end-to-end latency sample, in completion order.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Requests released by the traffic generators.
    pub issued: u64,
    /// Requests that completed service.
    pub completed: u64,
    /// Deadline misses (completed late, or still queued past the deadline).
    pub missed: u64,
    /// Requests still queued at the clients at the horizon.
    pub backlog: u64,
    /// Requests still inside the fabric or memory controller.
    pub pending: u64,
    /// End-to-end latency of every completed request, cycles.
    pub latency: Vec<f64>,
    /// Largest response time over relative deadline.
    pub max_normalized: f64,
}

/// Requests the generators must release by `horizon`: every task releases
/// a job of `wcet` requests at cycles `0, period, 2·period, ...`.
pub fn expected_issued(sets: &[TaskSet], horizon: Cycle) -> u64 {
    sets.iter()
        .flat_map(|set| set.iter())
        .map(|t| t.wcet() * horizon.div_ceil(t.period()))
        .sum()
}

/// Requests the outcome cannot account for: the shortfall (or excess)
/// against the releases the task parameters imply, plus any request that
/// was issued but is neither completed, queued at a client nor inside the
/// fabric.
pub fn unaccounted(outcome: &SimOutcome, expected: u64) -> u64 {
    let held = outcome.completed + outcome.backlog + outcome.pending;
    outcome.issued.abs_diff(expected) + outcome.issued.abs_diff(held)
}

/// A schedulable composition must meet every deadline: no misses and no
/// response longer than its relative deadline.
pub fn check_schedulable(outcome: &SimOutcome) -> Result<(), String> {
    if outcome.missed != 0 || outcome.max_normalized > 1.0 {
        return Err(format!(
            "schedulable input missed {} deadlines (max normalised response {})",
            outcome.missed, outcome.max_normalized
        ));
    }
    Ok(())
}

/// Two runs that must agree (repeat of the same input, traced versus
/// untraced, one versus two shard workers) produced identical outcomes.
pub fn check_identical(what: &str, a: &SimOutcome, b: &SimOutcome) -> Result<(), String> {
    if a != b {
        return Err(format!(
            "{what}: outcomes differ (issued {}/{}, completed {}/{}, missed {}/{}, \
             {} vs {} latency samples)",
            a.issued,
            b.issued,
            a.completed,
            b.completed,
            a.missed,
            b.missed,
            a.latency.len(),
            b.latency.len()
        ));
    }
    Ok(())
}

/// Folding the JSONL stream reconstructs every named final registry.
pub fn check_fold(stream: &str, sources: &[(&str, &MetricsRegistry)]) -> Result<(), String> {
    let folded = fold_jsonl(stream).map_err(|e| format!("telemetry stream: {e}"))?;
    for (name, registry) in sources {
        folded
            .matches_registry(name, registry)
            .map_err(|e| format!("telemetry fold of {name}: {e}"))?;
    }
    Ok(())
}
