//! Per-layer attribution for the traced run.
//!
//! Every span is recorded from the benchmark's own side of a layer
//! boundary: the [`Traced`] decorator wraps the [`Interconnect`] the
//! `System` harness drives, [`TimedSink`] wraps the telemetry sink the
//! pipeline feeds, and [`Tally::time`] wraps direct calls into the other
//! layers. Spans are accumulated in memory (nanoseconds and call counts
//! per name) and written out once, when the run ends.

use bluescale_interconnect::admission::{CancelToken, ReconfigOutcome};
use bluescale_interconnect::{ClientId, Interconnect, MemoryRequest, MemoryResponse, ServiceEvent};
use bluescale_rt::task::TaskSet;
use bluescale_sim::fault::FaultPlan;
use bluescale_sim::metrics::MetricsRegistry;
use bluescale_sim::Cycle;
use bluescale_telemetry::{EpochDelta, TelemetrySink};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Accumulated host time and call count of one span name.
#[derive(Debug, Default)]
pub struct Tally {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Tally {
    /// Runs `f`, charging its wall time and one call to this tally.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.add(t0.elapsed().as_nanos() as u64);
        out
    }

    /// Charges `ns` nanoseconds and one call.
    pub fn add(&self, ns: u64) {
        self.ns.set(self.ns.get() + ns);
        self.calls.set(self.calls.get() + 1);
    }

    /// Total charged time, seconds.
    pub fn secs(&self) -> f64 {
        self.ns.get() as f64 / 1e9
    }

    /// Calls charged.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// Spans recorded by [`Traced`] at the harness → interconnect boundary.
#[derive(Debug, Default)]
pub struct FabricSpans {
    /// `Interconnect::step`.
    pub step: Tally,
    /// `Interconnect::inject`, accepted or bounced.
    pub inject: Tally,
    /// Injections the fabric handed back (port buffer full).
    pub inject_bounced: Cell<u64>,
    /// `pop_response` and `pop_service_event`: the per-cycle drain.
    pub drain: Tally,
    /// `next_event_hint`: the fast-forward scan.
    pub next_event: Tally,
    /// `advance_idle`: closed-form jumps.
    pub advance_idle: Tally,
    /// Every other trait method (metrics refresh, reconfiguration, ...).
    pub other: Tally,
}

impl FabricSpans {
    /// Host time spent inside the interconnect, seconds.
    pub fn total_secs(&self) -> f64 {
        [
            &self.step,
            &self.inject,
            &self.drain,
            &self.next_event,
            &self.advance_idle,
            &self.other,
        ]
        .iter()
        .map(|t| t.secs())
        .sum()
    }
}

/// A forwarding [`Interconnect`] decorator that times every trait call.
///
/// Every trait method is forwarded, including the defaulted ones: a
/// decorator that fell back to the default `next_event_hint` (`None`)
/// would silently switch fast-forward off and change what is measured.
pub struct Traced<I> {
    inner: I,
    /// Recorded spans.
    pub spans: FabricSpans,
}

impl<I> Traced<I> {
    /// Wraps `inner`.
    pub fn new(inner: I) -> Self {
        Self {
            inner,
            spans: FabricSpans::default(),
        }
    }

    /// The wrapped interconnect.
    pub fn inner(&self) -> &I {
        &self.inner
    }
}

impl<I: Interconnect> Interconnect for Traced<I> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn num_clients(&self) -> usize {
        self.inner.num_clients()
    }

    fn inject(&mut self, request: MemoryRequest, now: Cycle) -> Result<(), MemoryRequest> {
        let out = self.spans.inject.time(|| self.inner.inject(request, now));
        if out.is_err() {
            self.spans
                .inject_bounced
                .set(self.spans.inject_bounced.get() + 1);
        }
        out
    }

    fn step(&mut self, now: Cycle) {
        self.spans.step.time(|| self.inner.step(now));
    }

    fn pop_response(&mut self) -> Option<MemoryResponse> {
        self.spans.drain.time(|| self.inner.pop_response())
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn pop_service_event(&mut self) -> Option<ServiceEvent> {
        self.spans.drain.time(|| self.inner.pop_service_event())
    }

    fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.metrics()
    }

    fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        let t0 = Instant::now();
        let out = self.inner.metrics_mut();
        self.spans.other.add(t0.elapsed().as_nanos() as u64);
        out
    }

    fn install_fault_plan(&mut self, plan: &FaultPlan) {
        self.spans
            .other
            .time(|| self.inner.install_fault_plan(plan));
    }

    fn demote_client(&mut self, client: ClientId) -> bool {
        self.spans.other.time(|| self.inner.demote_client(client))
    }

    fn reconfigure_client(
        &mut self,
        client: ClientId,
        tasks: &TaskSet,
        now: Cycle,
    ) -> ReconfigOutcome {
        self.spans
            .other
            .time(|| self.inner.reconfigure_client(client, tasks, now))
    }

    fn reconfigure_client_cancellable(
        &mut self,
        client: ClientId,
        tasks: &TaskSet,
        now: Cycle,
        cancel: &CancelToken,
    ) -> ReconfigOutcome {
        self.spans.other.time(|| {
            self.inner
                .reconfigure_client_cancellable(client, tasks, now, cancel)
        })
    }

    fn next_event_hint(&self, now: Cycle) -> Option<Cycle> {
        self.spans
            .next_event
            .time(|| self.inner.next_event_hint(now))
    }

    fn advance_idle(&mut self, now: Cycle, delta: u64) {
        self.spans
            .advance_idle
            .time(|| self.inner.advance_idle(now, delta));
    }
}

/// Counts shared between a [`TimedSink`] (owned by the pipeline, possibly
/// on another thread) and the benchmark.
#[derive(Debug, Default)]
pub struct SinkTally {
    ns: AtomicU64,
    epochs: AtomicU64,
    records: AtomicU64,
}

impl SinkTally {
    /// Host time spent in the wrapped sink, seconds.
    pub fn secs(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Epochs delivered to the sink.
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Records (counter, gauge, stat, window and SLO entries) delivered.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }
}

/// A forwarding [`TelemetrySink`] decorator that times every call and
/// counts what passes through it.
pub struct TimedSink<S> {
    inner: S,
    tally: Arc<SinkTally>,
}

impl<S> TimedSink<S> {
    /// Wraps `inner`; the returned tally stays readable after the pipeline
    /// takes ownership of the sink.
    pub fn new(inner: S) -> (Self, Arc<SinkTally>) {
        let tally = Arc::new(SinkTally::default());
        (
            Self {
                inner,
                tally: Arc::clone(&tally),
            },
            tally,
        )
    }
}

impl<S: TelemetrySink> TelemetrySink for TimedSink<S> {
    fn on_epoch(&mut self, delta: &EpochDelta) {
        let t0 = Instant::now();
        self.inner.on_epoch(delta);
        let ns = t0.elapsed().as_nanos() as u64;
        let records = delta.counters.len()
            + delta.gauges.len()
            + delta.stats.len()
            + delta.windows.len()
            + delta.slo.len();
        self.tally.ns.fetch_add(ns, Ordering::Relaxed);
        self.tally.epochs.fetch_add(1, Ordering::Relaxed);
        self.tally
            .records
            .fetch_add(records as u64, Ordering::Relaxed);
    }

    fn finish(&mut self) {
        let t0 = Instant::now();
        self.inner.finish();
        self.tally
            .ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}
