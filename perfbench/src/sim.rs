//! The three simulation workloads: `dense_fig6` (serial SoA engine, busy
//! fabric), `sparse_stream` (fast-forward plus streaming telemetry) and
//! `shard_busy` (the sharded engine, timed at one worker and checked
//! against two).
//!
//! A run generates `inputs` task-set collections from the seed and builds
//! their interconnects (the set-up), then simulates them in turn — one
//! *round* is one input simulated from a fresh copy of its built
//! interconnect to the horizon — until the measured time is over, always
//! ending on a whole pass over the inputs. The simulated-time metrics come
//! from the first pass, so they depend on the seed alone; every later
//! round must reproduce its input's first outcome exactly.

use crate::checks::{
    check_fold, check_identical, check_schedulable, expected_issued, unaccounted, SimOutcome,
};
use crate::clock::{normalise, RefKernel, Stopwatch};
use crate::trace::{SinkTally, TimedSink, Traced};
use crate::{median, peak_rss_mb, percentile, Args, Report, Scratch};
use bluescale::{BlueScaleConfig, BlueScaleInterconnect, ShardedSystem};
use bluescale_bench::scalability::{sparse_task_sets, uniform_task_sets};
use bluescale_interconnect::metrics::RunMetrics;
use bluescale_interconnect::system::System;
use bluescale_interconnect::Interconnect;
use bluescale_rt::task::TaskSet;
use bluescale_sim::metrics::{ComponentId, Counter};
use bluescale_sim::rng::SimRng;
use bluescale_sim::Cycle;
use bluescale_telemetry::{JsonlSink, Pipeline, SloConfig};
use bluescale_workload::synthetic::{generate, SyntheticConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Which simulation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig 6(b): UUniFast clients at 70–90 % utilisation, work-conserving
    /// BlueScale on the serial SoA engine.
    Dense,
    /// Many mostly idle clients, fast-forward on, telemetry to JSONL.
    Sparse,
    /// Busy uniform traffic on the sharded engine.
    Shard,
}

/// Size of a simulation workload.
#[derive(Debug, Clone)]
pub struct Params {
    /// Which workload.
    pub kind: Kind,
    /// Clients (traffic generators).
    pub clients: usize,
    /// Distinct inputs generated from the seed.
    pub inputs: usize,
    /// Simulated cycles per round.
    pub horizon: Cycle,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Telemetry flush period, cycles (`sparse_stream`).
    pub flush_period: Cycle,
    /// Requests per job (`sparse_stream`).
    pub demand: u64,
    /// Shard workers of the timed rounds (`shard_busy`).
    pub workers: usize,
    /// Shard workers of the rounds every timed result is checked against,
    /// and of `core.shard.run_2w_s` (`shard_busy`).
    pub check_workers: usize,
}

impl Params {
    /// The benchmark's sizes for workload `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not a simulation workload.
    pub fn full(name: &str) -> Self {
        let kind = match name {
            "dense_fig6" => Kind::Dense,
            "sparse_stream" => Kind::Sparse,
            "shard_busy" => Kind::Shard,
            other => panic!("{other} is not a simulation workload"),
        };
        let base = Self {
            kind,
            clients: 64,
            inputs: 32,
            horizon: 20_000,
            setup_reps: 3,
            flush_period: 1_024,
            demand: 2,
            // One worker takes the sharded engine's inline path: one
            // thread, so its time is the engine's work. Two workers run
            // the coordinator and both workers through four barriers per
            // cycle — three threads on a 2-CPU host, whose time is mostly
            // the scheduler's — so they are checked and traced, not timed
            // end to end.
            workers: 1,
            check_workers: 2,
        };
        match kind {
            Kind::Dense => base,
            Kind::Sparse => Self {
                clients: 256,
                inputs: 4,
                horizon: 600 * 256,
                ..base
            },
            Kind::Shard => Self {
                clients: 512,
                inputs: 4,
                horizon: 4_096,
                ..base
            },
        }
    }

    /// A few-millisecond size of the same workload, for the self-test.
    #[cfg(test)]
    pub fn tiny(name: &str) -> Self {
        let full = Self::full(name);
        Self {
            clients: 16,
            inputs: 2,
            horizon: match full.kind {
                Kind::Sparse => 600 * 16,
                _ => 3_000,
            },
            setup_reps: 2,
            flush_period: 256,
            ..full
        }
    }
}

/// One generated input and its built interconnect.
pub struct Input {
    /// One task set per client.
    pub sets: Vec<TaskSet>,
    /// The built interconnect; every round simulates a fresh clone (for
    /// `shard_busy`, the analysis interconnect the shards are cut from).
    pub ic: BlueScaleInterconnect,
    /// Requests the task parameters say the generators release.
    pub expected: u64,
}

fn config_for(p: &Params, soa_core: bool) -> BlueScaleConfig {
    let mut config = BlueScaleConfig::for_clients(p.clients);
    config.work_conserving = true;
    config.soa_core = soa_core;
    config
}

/// Generates the inputs for `seed` (timed as `workload.generate_s`).
pub fn generate_inputs(p: &Params, seed: u64) -> Vec<Vec<TaskSet>> {
    let mut master = SimRng::seed_from(seed);
    (0..p.inputs)
        .map(|_| {
            let mut rng = master.fork();
            let n = p.clients as u64;
            match p.kind {
                Kind::Dense => generate(&SyntheticConfig::fig6(p.clients), &mut rng),
                Kind::Sparse => sparse_task_sets(p.clients, p.demand, &mut rng),
                Kind::Shard => uniform_task_sets(p.clients, 0.9, n, 4 * n, &mut rng),
            }
        })
        .collect()
}

/// Builds the interconnects (timed as `core.build_s`): interface
/// selection over the whole tree plus the engine's state.
pub fn build_inputs(p: &Params, all: Vec<Vec<TaskSet>>) -> Result<Vec<Input>, String> {
    all.into_iter()
        .map(|sets| {
            // The sharded engine cuts its shards from an analysis-only
            // interconnect, which keeps the legacy per-SE tables.
            let soa = p.kind != Kind::Shard;
            let ic = BlueScaleInterconnect::new(config_for(p, soa), &sets)
                .map_err(|e| format!("build failed: {e}"))?;
            if p.kind == Kind::Sparse && !ic.composition().schedulable {
                return Err("sparse_stream input is not schedulable".into());
            }
            let expected = expected_issued(&sets, p.horizon);
            Ok(Input { sets, ic, expected })
        })
        .collect()
}

fn outcome(m: &mut RunMetrics, pending: usize) -> SimOutcome {
    SimOutcome {
        issued: m.issued(),
        completed: m.completed(),
        missed: m.missed(),
        backlog: m.backlog(),
        pending: pending as u64,
        latency: m.latency().as_slice().to_vec(),
        max_normalized: m.normalized_response().max().unwrap_or(0.0),
    }
}

/// Per-layer figures of one traced round (or their sum over rounds).
#[derive(Debug, Default, Clone)]
struct Layers {
    step_s: f64,
    step_calls: f64,
    inject_s: f64,
    inject_bounced: f64,
    drain_s: f64,
    next_event_s: f64,
    advance_idle_s: f64,
    system_self_s: f64,
    stepped_cycles: f64,
    ff_jumps: f64,
    ff_skipped: f64,
    sink_s: f64,
    epochs: f64,
    records: f64,
    jsonl_bytes: f64,
    mem_completed: f64,
    mem_row_hits: f64,
    mem_busy: f64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        let pairs = [
            (&mut self.step_s, o.step_s),
            (&mut self.step_calls, o.step_calls),
            (&mut self.inject_s, o.inject_s),
            (&mut self.inject_bounced, o.inject_bounced),
            (&mut self.drain_s, o.drain_s),
            (&mut self.next_event_s, o.next_event_s),
            (&mut self.advance_idle_s, o.advance_idle_s),
            (&mut self.system_self_s, o.system_self_s),
            (&mut self.stepped_cycles, o.stepped_cycles),
            (&mut self.ff_jumps, o.ff_jumps),
            (&mut self.ff_skipped, o.ff_skipped),
            (&mut self.sink_s, o.sink_s),
            (&mut self.epochs, o.epochs),
            (&mut self.records, o.records),
            (&mut self.jsonl_bytes, o.jsonl_bytes),
            (&mut self.mem_completed, o.mem_completed),
            (&mut self.mem_row_hits, o.mem_row_hits),
            (&mut self.mem_busy, o.mem_busy),
        ];
        for (a, b) in pairs {
            *a += b;
        }
    }
}

/// How a round is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// As the end-to-end run measures it; `sparse_stream`'s JSONL stream
    /// is then folded back and checked against the final registries.
    Plain,
    /// As `Plain`, without the stream check: later passes of the
    /// end-to-end run, whose outcomes must equal the checked first pass.
    Repeat,
    /// With the tracing decorators.
    Traced,
    /// `sparse_stream` without its telemetry pipeline.
    NoTelemetry,
    /// `shard_busy` on `check_workers` workers.
    CheckWorkers,
}

/// One simulated round's results.
struct Round {
    outcome: SimOutcome,
    /// Wall time of the round, seconds.
    wall: f64,
    /// Process CPU time of the round (all threads), seconds.
    cpu: f64,
    layers: Layers,
}

/// Simulates `sys` to the horizon, with the sparse workload's telemetry
/// pipeline when `jsonl` is given. Returns the outcome and the sink tally.
fn drive<I: Interconnect>(
    sys: &mut System<I>,
    horizon: Cycle,
    flush_period: Cycle,
    jsonl: Option<&Path>,
) -> Result<(SimOutcome, Option<Arc<SinkTally>>), String> {
    let tally = match jsonl {
        Some(path) => {
            let sink = JsonlSink::create(path).map_err(|e| format!("jsonl sink: {e}"))?;
            let (sink, tally) = TimedSink::new(sink);
            let mut pipeline = Pipeline::new(flush_period, SloConfig::default());
            pipeline.add_sink(sink);
            sys.attach_telemetry(pipeline);
            Some(tally)
        }
        None => None,
    };
    let mut m = sys.run(horizon);
    if jsonl.is_some() {
        sys.finish_telemetry();
    }
    Ok((outcome(&mut m, sys.in_flight()), tally))
}

fn serial_round(p: &Params, input: &Input, mode: Mode, jsonl: &Path) -> Result<Round, String> {
    let stream = (p.kind == Kind::Sparse && mode != Mode::NoTelemetry).then_some(jsonl);
    let mut layers = Layers::default();
    let clock = Stopwatch::start();
    let (outcome, tally, (wall, cpu)) = if mode == Mode::Traced {
        let mut sys = System::new(Box::new(Traced::new(input.ic.clone())), &input.sets);
        let (outcome, tally) = drive(&mut sys, p.horizon, p.flush_period, stream)?;
        let (wall, cpu) = clock.read();
        let spans = &sys.interconnect().spans;
        layers.step_s = spans.step.secs();
        layers.step_calls = spans.step.calls() as f64;
        layers.inject_s = spans.inject.secs();
        layers.inject_bounced = spans.inject_bounced.get() as f64;
        layers.drain_s = spans.drain.secs();
        layers.next_event_s = spans.next_event.secs();
        layers.advance_idle_s = spans.advance_idle.secs();
        let sink_s = tally.as_ref().map_or(0.0, |t| t.secs());
        layers.system_self_s = wall - spans.total_secs() - sink_s;
        layers.ff_jumps = sys.fast_forward_jumps() as f64;
        layers.ff_skipped = sys.fast_forwarded_cycles() as f64;
        layers.stepped_cycles = (p.horizon - sys.fast_forwarded_cycles()) as f64;
        let mem = sys.interconnect().inner().memory_stats();
        layers.mem_completed = mem.completed as f64;
        layers.mem_row_hits = mem.row_hits as f64;
        layers.mem_busy = mem.busy_cycles as f64;
        if let Some(t) = &tally {
            layers.sink_s = t.secs();
            layers.epochs = t.epochs() as f64;
            layers.records = t.records() as f64;
        }
        (outcome, tally, (wall, cpu))
    } else {
        let mut sys = System::new(Box::new(input.ic.clone()), &input.sets);
        let (outcome, tally) = drive(&mut sys, p.horizon, p.flush_period, stream)?;
        let times = clock.read();
        if let (Some(path), Mode::Plain) = (stream, mode) {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read jsonl: {e}"))?;
            let fabric = sys.interconnect().metrics();
            check_fold(&text, &[("harness", sys.registry()), ("fabric", fabric)])?;
        }
        (outcome, tally, times)
    };
    if tally.is_some() {
        layers.jsonl_bytes = std::fs::metadata(jsonl).map_or(0, |m| m.len()) as f64;
    }
    Ok(Round {
        outcome,
        wall,
        cpu,
        layers,
    })
}

fn shard_round(p: &Params, input: &Input, mode: Mode) -> Round {
    let workers = if mode == Mode::CheckWorkers {
        p.check_workers
    } else {
        p.workers
    };
    let clock = Stopwatch::start();
    let mut sys =
        ShardedSystem::with_analysis(config_for(p, true), input.ic.clone(), &input.sets, workers);
    let mut m = sys.run(p.horizon);
    let (wall, cpu) = clock.read();
    let mut layers = Layers {
        ff_jumps: sys.fast_forward_jumps() as f64,
        ff_skipped: sys.fast_forwarded_cycles() as f64,
        stepped_cycles: (p.horizon - sys.fast_forwarded_cycles()) as f64,
        ..Layers::default()
    };
    let fabric = sys.fabric_metrics();
    layers.mem_completed = fabric.counter(ComponentId::Memory, Counter::MemCompleted) as f64;
    layers.mem_row_hits = fabric.counter(ComponentId::Memory, Counter::RowHits) as f64;
    layers.mem_busy = fabric.counter(ComponentId::Memory, Counter::BusyCycles) as f64;
    Round {
        outcome: outcome(&mut m, sys.pending()),
        wall,
        cpu,
        layers,
    }
}

fn round(p: &Params, input: &Input, mode: Mode, jsonl: &Path) -> Result<Round, String> {
    match p.kind {
        Kind::Shard => Ok(shard_round(p, input, mode)),
        _ => serial_round(p, input, mode, jsonl),
    }
}

/// Operation accounting and the repeat check over every round of a run.
struct Ledger {
    first: Vec<Option<SimOutcome>>,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn new(inputs: usize) -> Self {
        Self {
            first: vec![None; inputs],
            attempted: 0,
            failed: 0,
        }
    }

    /// Accounts one round of input `i` and checks it against the input's
    /// first outcome and, for `sparse_stream`, against schedulability.
    fn record(
        &mut self,
        p: &Params,
        i: usize,
        input: &Input,
        out: &SimOutcome,
        what: &str,
    ) -> Result<(), String> {
        self.attempted += out.issued.max(input.expected);
        self.failed += unaccounted(out, input.expected);
        if p.kind == Kind::Sparse {
            check_schedulable(out)?;
        }
        match &self.first[i] {
            None => {
                self.first[i] = Some(out.clone());
                Ok(())
            }
            Some(first) => check_identical(&format!("{what} of input {i}"), first, out),
        }
    }
}

/// Host time of one set-up.
#[derive(Debug, Clone, Copy)]
struct SetupTime {
    /// Wall time generating the inputs.
    generate_s: f64,
    /// Wall time building the interconnects.
    build_s: f64,
    /// Process CPU time of the whole set-up.
    cpu_s: f64,
}

/// Generates and builds the inputs once; returns them with the times.
/// A reference kernel call follows it, so that the run's kernel samples
/// include the host's speed around every set-up.
fn setup_once(
    p: &Params,
    seed: u64,
    kernel: &mut RefKernel,
) -> Result<(Vec<Input>, SetupTime), String> {
    let clock = Stopwatch::start();
    let sets = generate_inputs(p, seed);
    let (generate_s, _) = clock.read();
    let inputs = build_inputs(p, sets)?;
    let (wall, cpu_s) = clock.read();
    kernel.measure();
    Ok((
        inputs,
        SetupTime {
            generate_s,
            build_s: wall - generate_s,
            cpu_s,
        },
    ))
}

/// Runs a simulation workload and reports its metrics.
pub fn run(args: &Args, p: &Params) -> Report {
    let mut report = Report::new();
    if let Err(e) = run_inner(args, p, &mut report) {
        report.check(Err(e));
    }
    report
}

fn run_inner(args: &Args, p: &Params, report: &mut Report) -> Result<(), String> {
    let scratch = Scratch::new("sim").map_err(|e| format!("scratch directory: {e}"))?;
    let jsonl = scratch.path().join("telemetry.jsonl");
    let mut kernel = RefKernel::new();
    let (inputs, first) = setup_once(p, args.seed, &mut kernel)?;
    let mut setup_times = vec![first];
    if args.trace {
        while setup_times.len() < p.setup_reps {
            setup_times.push(setup_once(p, args.seed, &mut kernel)?.1);
        }
        traced(args, p, &inputs, &setup_times, &jsonl, report);
    } else {
        untraced(
            args,
            p,
            &inputs,
            &mut setup_times,
            &mut kernel,
            &jsonl,
            report,
        )?;
    }
    Ok(())
}

/// The end-to-end run. The remaining set-ups are spread over the
/// measured time, between passes, so that their median samples the host
/// across the run rather than in one stretch.
fn untraced(
    args: &Args,
    p: &Params,
    inputs: &[Input],
    setup_times: &mut Vec<SetupTime>,
    kernel: &mut RefKernel,
    jsonl: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let setup_every = args.seconds / p.setup_reps.max(1) as f64;
    let mut ledger = Ledger::new(inputs.len());
    // Every round's process CPU time, normalised by a reference kernel
    // call made right after it, per input (see `clock`). The median per
    // input is the estimator; raw CPU and wall figures are references.
    let mut norm: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut best_cpu = vec![f64::INFINITY; inputs.len()];
    let mut sim_cpu = 0.0;
    let mut rounds = 0;
    let mut sim_wall = 0.0;
    let start = Instant::now();
    let mut r = 0usize;
    loop {
        let i = r % inputs.len();
        let mode = if r < inputs.len() {
            Mode::Plain
        } else {
            Mode::Repeat
        };
        match round(p, &inputs[i], mode, jsonl) {
            Ok(out) => {
                report.check(ledger.record(p, i, &inputs[i], &out.outcome, "repeat"));
                norm[i].push(normalise(out.cpu, kernel.measure()));
                best_cpu[i] = best_cpu[i].min(out.cpu);
                rounds += 1;
                sim_wall += out.wall;
                sim_cpu += out.cpu;
            }
            Err(e) => return Err(e),
        }
        r += 1;
        if !r.is_multiple_of(inputs.len()) {
            continue;
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= args.seconds {
            break;
        }
        if setup_times.len() < p.setup_reps && elapsed >= setup_every * setup_times.len() as f64 {
            setup_times.push(setup_once(p, args.seed, kernel)?.1);
        }
    }
    while setup_times.len() < p.setup_reps {
        setup_times.push(setup_once(p, args.seed, kernel)?.1);
    }
    if p.kind == Kind::Shard {
        for (i, input) in inputs.iter().enumerate() {
            let two = shard_round(p, input, Mode::CheckWorkers);
            report.check(ledger.record(p, i, input, &two.outcome, "two shard workers"));
        }
    }
    let first: Vec<&SimOutcome> = ledger.first.iter().flatten().collect();
    let latency: Vec<f64> = first
        .iter()
        .flat_map(|o| o.latency.iter().copied())
        .collect();
    let missed: u64 = first.iter().map(|o| o.missed).sum();
    let issued: u64 = first.iter().map(|o| o.issued).sum();
    let pass_cycles = (inputs.len() as u64 * p.horizon) as f64;
    let run_cycles = (rounds as u64 * p.horizon) as f64;
    let setup = |f: fn(&SetupTime) -> f64| median(&setup_times.iter().map(f).collect::<Vec<_>>());
    println!(
        "rounds={rounds} inputs={} clients={} horizon={} sim_wall_s={sim_wall:.3} \
         sim_cpu_s={sim_cpu:.3} kernel_calls={} kernel_median_ms={:.4} peak_rss_mb={:.1} \
         (reference)",
        inputs.len(),
        p.clients,
        p.horizon,
        kernel.samples.len(),
        median(&kernel.samples) * 1e3,
        peak_rss_mb()
    );
    println!(
        "reference: cycles/s whole-run wall {:.1}, whole-run CPU {:.1}, \
         fastest-round CPU {:.1}; set-up wall median {:.4} s",
        run_cycles / sim_wall,
        run_cycles / sim_cpu,
        pass_cycles / best_cpu.iter().sum::<f64>(),
        setup(|t| t.generate_s + t.build_s),
    );
    println!("reference: sim_missed={missed} of {issued} issued in the first pass");
    report.attempted = ledger.attempted;
    report.failed = ledger.failed;
    // One kernel call beside a one-off set-up is too noisy a yardstick
    // (calls spread ±25 % within a run); the run's median is steadier and
    // still follows the host's speed from run to run.
    report.metric(
        "setup_s",
        normalise(setup(|t| t.cpu_s), median(&kernel.samples)),
        "s",
    );
    report.metric(
        "throughput_norm_per_s",
        pass_cycles / norm.iter().map(|n| median(n)).sum::<f64>(),
        "1/s",
    );
    report.metric(
        "sim_completed",
        first.iter().map(|o| o.completed).sum::<u64>() as f64,
        "requests",
    );
    report.metric(
        "sim_latency_p50_cycles",
        percentile(&latency, 50.0),
        "cycles",
    );
    report.metric(
        "sim_latency_p99_cycles",
        percentile(&latency, 99.0),
        "cycles",
    );
    Ok(())
}

fn traced(
    args: &Args,
    p: &Params,
    inputs: &[Input],
    setup_times: &[SetupTime],
    jsonl: &Path,
    report: &mut Report,
) {
    let mut ledger = Ledger::new(inputs.len());
    let mut sums = Layers::default();
    // Wall time per mode, summed over passes.
    let mut plain = 0.0;
    let mut traced = 0.0;
    let mut second = 0.0;
    // `shard_busy` has no decorator: its layer figures come from the
    // untraced one-worker rounds, against two-worker rounds.
    let (modes, layer_mode): (&[(Mode, &str)], Mode) = match p.kind {
        Kind::Dense => (
            &[(Mode::Plain, "repeat"), (Mode::Traced, "traced run")],
            Mode::Traced,
        ),
        Kind::Sparse => (
            &[
                (Mode::Plain, "repeat"),
                (Mode::Traced, "traced run"),
                (Mode::NoTelemetry, "run without telemetry"),
            ],
            Mode::Traced,
        ),
        Kind::Shard => (
            &[
                (Mode::Plain, "repeat"),
                (Mode::CheckWorkers, "two shard workers"),
            ],
            Mode::Plain,
        ),
    };
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        for (i, input) in inputs.iter().enumerate() {
            for &(mode, what) in modes {
                let out = match round(p, input, mode, jsonl) {
                    Ok(out) => out,
                    Err(e) => {
                        report.check(Err(e));
                        return;
                    }
                };
                report.check(ledger.record(p, i, input, &out.outcome, what));
                match mode {
                    Mode::Plain | Mode::Repeat => plain += out.wall,
                    Mode::Traced => traced += out.wall,
                    Mode::NoTelemetry | Mode::CheckWorkers => second += out.wall,
                }
                if mode == layer_mode {
                    sums.add(&out.layers);
                }
            }
        }
        passes += 1;
    }
    let n = passes as f64;
    let per = |x: f64| x / n;
    println!(
        "passes={passes} inputs={} plain_s={plain:.3} traced_s={traced:.3} second_s={second:.3}",
        inputs.len()
    );
    report.attempted = ledger.attempted;
    report.failed = ledger.failed;
    let generate_s = median(&setup_times.iter().map(|t| t.generate_s).collect::<Vec<_>>());
    let build_s = median(&setup_times.iter().map(|t| t.build_s).collect::<Vec<_>>());
    let (run_1w, run_2w) = match p.kind {
        Kind::Shard => (per(plain), per(second)),
        _ => (0.0, 0.0),
    };
    let telemetry_overhead = match p.kind {
        Kind::Sparse => per(plain - second),
        _ => 0.0,
    };
    let trace_overhead = match p.kind {
        Kind::Shard => 0.0,
        _ => per(traced - plain),
    };
    let hit_ratio = if sums.mem_completed > 0.0 {
        sums.mem_row_hits / sums.mem_completed
    } else {
        0.0
    };
    let layer_metrics = [
        ("workload.generate_s", generate_s),
        ("core.build_s", build_s),
        ("core.step_s", per(sums.step_s)),
        ("core.step_calls", per(sums.step_calls)),
        ("core.inject_s", per(sums.inject_s)),
        ("core.inject_bounced", per(sums.inject_bounced)),
        ("core.drain_s", per(sums.drain_s)),
        ("core.next_event_s", per(sums.next_event_s)),
        ("core.advance_idle_s", per(sums.advance_idle_s)),
        ("interconnect.system.self_s", per(sums.system_self_s)),
        (
            "interconnect.system.stepped_cycles",
            per(sums.stepped_cycles),
        ),
        ("interconnect.system.ff_jumps", per(sums.ff_jumps)),
        (
            "interconnect.system.ff_skipped_cycles",
            per(sums.ff_skipped),
        ),
        ("telemetry.overhead_s", telemetry_overhead),
        ("telemetry.sink_s", per(sums.sink_s)),
        ("telemetry.epochs", per(sums.epochs)),
        ("telemetry.records", per(sums.records)),
        ("telemetry.jsonl_bytes", per(sums.jsonl_bytes)),
        ("mem.completed", per(sums.mem_completed)),
        ("mem.row_hits", per(sums.mem_row_hits)),
        ("mem.row_hit_ratio", hit_ratio),
        ("mem.busy_cycles", per(sums.mem_busy)),
        ("core.shard.run_1w_s", run_1w),
        ("core.shard.run_2w_s", run_2w),
        (
            "core.shard.speedup_2w",
            if run_2w > 0.0 { run_1w / run_2w } else { 0.0 },
        ),
        ("trace.overhead_s", trace_overhead),
    ];
    report.layer("peak_rss_mb", peak_rss_mb());
    for (name, value) in layer_metrics {
        report.layer(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 5,
            seconds: 0.0,
            trace,
        }
    }

    #[test]
    fn tiny_workloads_pass_every_check() {
        for name in ["dense_fig6", "sparse_stream", "shard_busy"] {
            for trace in [false, true] {
                let r = run(&tiny_args(name, trace), &Params::tiny(name));
                assert!(r.correct, "{name} trace={trace}: {:?}", r.errors);
                assert_eq!(r.failed, 0, "{name}");
                assert!(r.attempted > 0, "{name}");
            }
        }
    }

    #[test]
    fn issued_count_follows_from_task_parameters() {
        let p = Params::tiny("dense_fig6");
        let inputs = build_inputs(&p, generate_inputs(&p, 9)).expect("builds");
        let out = round(&p, &inputs[0], Mode::Plain, Path::new("unused")).expect("runs");
        assert_eq!(out.outcome.issued, inputs[0].expected);
        assert_eq!(unaccounted(&out.outcome, inputs[0].expected), 0);
        // A round that lost a request, or ran one release short, is caught.
        let mut lost = out.outcome.clone();
        lost.completed -= 1;
        assert_eq!(unaccounted(&lost, inputs[0].expected), 1);
        assert_eq!(unaccounted(&out.outcome, inputs[0].expected + 2), 2);
    }

    #[test]
    fn every_check_rejects_a_bad_output() {
        let p = Params::tiny("sparse_stream");
        let inputs = build_inputs(&p, generate_inputs(&p, 3)).expect("builds");
        let scratch = Scratch::new("selftest-sim").expect("scratch");
        let jsonl = scratch.path().join("t.jsonl");
        let good = round(&p, &inputs[0], Mode::Plain, &jsonl).expect("runs");
        assert!(check_schedulable(&good.outcome).is_ok());

        let mut late = good.outcome.clone();
        late.max_normalized = 1.5;
        assert!(check_schedulable(&late).is_err());
        let mut missed = good.outcome.clone();
        missed.missed = 1;
        assert!(check_schedulable(&missed).is_err());

        let mut moved = good.outcome.clone();
        moved.latency[0] += 1.0;
        assert!(check_identical("x", &good.outcome, &moved).is_err());
        assert!(check_identical("x", &good.outcome, &good.outcome.clone()).is_ok());

        // The stream of one input cannot fold into another input's
        // registries.
        let mut sys = System::new(Box::new(inputs[1].ic.clone()), &inputs[1].sets);
        sys.run(p.horizon);
        let text = std::fs::read_to_string(&jsonl).expect("stream written");
        let fabric = sys.interconnect().metrics();
        assert!(check_fold(&text, &[("harness", sys.registry()), ("fabric", fabric)]).is_err());
        assert!(check_fold("{not json", &[]).is_err());
    }

    #[test]
    fn traced_interconnect_forwards_fast_forward() {
        let p = Params::tiny("sparse_stream");
        let inputs = build_inputs(&p, generate_inputs(&p, 1)).expect("builds");
        let mut sys = System::new(Box::new(Traced::new(inputs[0].ic.clone())), &inputs[0].sets);
        sys.run(p.horizon);
        assert!(
            sys.fast_forward_jumps() > 0,
            "the decorator must keep fast-forward on"
        );
        assert!(sys.interconnect().spans.next_event.calls() > 0);
        assert!(sys.interconnect().spans.advance_idle.calls() > 0);
    }
}
