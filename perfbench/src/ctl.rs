//! The `ctl_churn` workload: a control-plane daemon journalling to disk,
//! a resident tenant population admitted during set-up, then closed-loop
//! connections running join → renegotiate → leave cycles.
//!
//! Every verdict is checked against the benchmark's own tenant model. The
//! churners' and residents' demands are small enough that the root test
//! always passes, so the model predicts verdicts from the tenant table and
//! slot count alone. After the measured phase an in-process replay of the
//! same operation sequence through the registry and journal gives the
//! deterministic simulated-time results (the live daemon's interleaving
//! of two connections is not) and, in the traced run, the per-layer times.

use crate::clock::{normalise, RefKernel, Stopwatch};
use crate::{median, peak_rss_mb, percentile, Args, Report, Scratch};
use bluescale_ctl::client::{CtlClient, RetryPolicy};
use bluescale_ctl::journal::{recover, Journal, Op};
use bluescale_ctl::proto::{RejectReason, Request, Response, TaskSpec, TenantClass};
use bluescale_ctl::registry::{ApplyOutcome, ControlRegistry};
use bluescale_ctl::server::{Daemon, DaemonConfig, StatsSnapshot};
use bluescale_interconnect::metrics::RunMetrics;
use bluescale_sim::metrics::ComponentId;
use bluescale_sim::rng::SimRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Size of the control-plane workload.
#[derive(Debug, Clone)]
pub struct Params {
    /// Tenant slots.
    pub capacity: usize,
    /// Tenants admitted during set-up, resident for the whole run.
    pub residents: usize,
    /// Closed-loop connections churning tenants.
    pub connections: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Churn cycles per connection in the in-process replay.
    pub replay_cycles: u64,
    /// Simulation cycles the daemon advances after each decision batch.
    pub sim_cycles_per_batch: u64,
    /// Journal records between snapshot compactions.
    pub compact_every: u64,
}

impl Params {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Self {
            capacity: 64,
            residents: 32,
            connections: 2,
            setup_reps: 3,
            replay_cycles: 100,
            sim_cycles_per_batch: 64,
            compact_every: 256,
        }
    }

    /// A sub-second size of the same workload, for the self-test.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            capacity: 8,
            residents: 3,
            setup_reps: 1,
            replay_cycles: 4,
            compact_every: 8,
            ..Self::full()
        }
    }

    fn daemon_config(&self) -> DaemonConfig {
        DaemonConfig {
            capacity: self.capacity,
            sim_cycles_per_batch: self.sim_cycles_per_batch,
            compact_every: self.compact_every,
            ..DaemonConfig::default()
        }
    }
}

/// One admission operation of the workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Admit a tenant.
    Join(u64, TenantClass, Vec<TaskSpec>),
    /// Replace a tenant's tasks.
    Renegotiate(u64, Vec<TaskSpec>),
    /// Release a tenant.
    Leave(u64),
}

impl Decision {
    fn request(&self) -> Request {
        match self.clone() {
            Decision::Join(tenant, class, tasks) => Request::Join {
                tenant,
                class,
                tasks,
                attempt: 0,
            },
            Decision::Renegotiate(tenant, tasks) => Request::Renegotiate {
                tenant,
                tasks,
                attempt: 0,
            },
            Decision::Leave(tenant) => Request::Leave { tenant, attempt: 0 },
        }
    }
}

/// A verdict the model expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Applied and journaled.
    Admitted,
    /// Refused for this reason.
    Rejected(RejectReason),
}

/// The benchmark's model of the daemon's tenant table.
#[derive(Debug, Default)]
pub struct TenantModel {
    capacity: usize,
    tenants: BTreeMap<u64, (TenantClass, Vec<TaskSpec>)>,
}

impl TenantModel {
    /// An empty table with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tenants: BTreeMap::new(),
        }
    }

    /// Admitted tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Predicts `d`'s verdict and applies it to the table.
    pub fn decide(&mut self, d: &Decision) -> Verdict {
        match d {
            Decision::Join(t, class, tasks) => match self.tenants.get(t) {
                Some((c, s)) if c == class && s == tasks => Verdict::Admitted,
                Some(_) => Verdict::Rejected(RejectReason::AlreadyJoined),
                None if self.tenants.len() >= self.capacity => {
                    Verdict::Rejected(RejectReason::CapacityFull)
                }
                None => {
                    self.tenants.insert(*t, (*class, tasks.clone()));
                    Verdict::Admitted
                }
            },
            Decision::Renegotiate(t, tasks) => match self.tenants.get_mut(t) {
                Some(entry) => {
                    entry.1 = tasks.clone();
                    Verdict::Admitted
                }
                None => Verdict::Rejected(RejectReason::UnknownTenant),
            },
            Decision::Leave(t) => match self.tenants.remove(t) {
                Some(_) => Verdict::Admitted,
                None => Verdict::Rejected(RejectReason::UnknownTenant),
            },
        }
    }
}

/// Whether a daemon response is the verdict the model predicted.
pub fn check_verdict(expected: Verdict, got: &Response) -> Result<(), String> {
    let ok = match (expected, got) {
        (Verdict::Admitted, Response::Admitted { .. }) => true,
        (Verdict::Rejected(want), Response::Rejected { reason }) => want == *reason,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {expected:?}, daemon answered {got:?}"))
    }
}

/// A quiesced daemon gave every request exactly one disposition and holds
/// the tenants the model holds.
pub fn check_quiesced(
    stats: StatsSnapshot,
    tenants: usize,
    model: &TenantModel,
) -> Result<(), String> {
    if !stats.conservation_holds() {
        return Err(format!("daemon conservation broken: {stats:?}"));
    }
    if tenants != model.len() {
        return Err(format!(
            "daemon holds {tenants} tenants, the model {}",
            model.len()
        ));
    }
    Ok(())
}

/// A graceful restart recovers the admission state bit for bit.
pub fn check_restart(before: u64, after: u64) -> Result<(), String> {
    if before != after {
        return Err(format!(
            "state digest {before:#x} became {after:#x} across a graceful restart"
        ));
    }
    Ok(())
}

fn tasks(rng: &mut SimRng) -> Vec<TaskSpec> {
    (0..rng.range_u64(1, 3))
        .map(|_| TaskSpec {
            period: rng.range_u64(2_000, 8_001),
            wcet: rng.range_u64(1, 3),
        })
        .collect()
}

/// The tenants admitted during set-up. The same population for every
/// seed: it carries most of the replay's simulated traffic, so the
/// simulated-time results stay comparable across seeds while the churn
/// on top of it comes from the seed.
pub fn residents(p: &Params) -> Vec<Decision> {
    (0..p.residents as u64)
        .map(|i| {
            let class = if i % 2 == 0 {
                TenantClass::Guaranteed
            } else {
                TenantClass::BestEffort
            };
            let spec = TaskSpec {
                period: 2_000 + 250 * i,
                wcet: 1 + i % 2,
            };
            Decision::Join(1 + i, class, vec![spec])
        })
        .collect()
}

/// Cycle `k` of connection `conn`: join, renegotiate and leave one fresh
/// tenant. Fresh identities keep each tenant's circuit-breaker history to
/// one cycle.
pub fn churn_cycle(seed: u64, conn: u64, k: u64) -> [Decision; 3] {
    let mut rng = SimRng::seed_from(seed ^ (conn << 48) ^ k.wrapping_mul(0x9E37_79B9));
    let tenant = (conn + 1) * 1_000_000_000 + k;
    let class = if rng.chance(0.5) {
        TenantClass::Guaranteed
    } else {
        TenantClass::BestEffort
    };
    let first = tasks(&mut rng);
    let mut second = tasks(&mut rng);
    // A renegotiation to the installed set is a no-op; keep it a change.
    if second == first {
        second[0].period += 1;
    }
    [
        Decision::Join(tenant, class, first),
        Decision::Renegotiate(tenant, second),
        Decision::Leave(tenant),
    ]
}

fn send(client: &mut CtlClient, d: &Decision) -> Result<Response, String> {
    match d.clone() {
        Decision::Join(t, class, specs) => client.join(t, class, specs),
        Decision::Renegotiate(t, specs) => client.renegotiate(t, specs),
        Decision::Leave(t) => client.leave(t),
    }
    .map_err(|e| format!("transport: {e}"))
}

/// A started daemon with its residents admitted.
fn start(dir: &Path, seed: u64, p: &Params, model: &mut TenantModel) -> Result<Daemon, String> {
    let daemon = Daemon::start(dir, p.daemon_config()).map_err(|e| format!("start: {e}"))?;
    let mut client = CtlClient::new(daemon.addr(), RetryPolicy::default(), seed);
    for d in residents(p) {
        let expected = model.decide(&d);
        check_verdict(expected, &send(&mut client, &d)?)
            .map_err(|e| format!("resident admission: {e}"))?;
    }
    Ok(daemon)
}

/// [`start`], timed: returns the daemon with the set-up's wall and
/// process CPU time. A reference kernel call follows it, so that the
/// run's kernel samples include the host's speed around every set-up.
fn timed_start(
    dir: &Path,
    seed: u64,
    p: &Params,
    model: &mut TenantModel,
    kernel: &mut RefKernel,
) -> Result<(Daemon, (f64, f64)), String> {
    let clock = Stopwatch::start();
    let daemon = start(dir, seed, p, model)?;
    let times = clock.read();
    kernel.measure();
    Ok((daemon, times))
}

/// What one stretch of the measured phase saw.
#[derive(Default)]
struct Live {
    /// `(seconds since the stretch began, at the reply; latency in ms)`.
    samples: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    wall: f64,
    /// Process CPU time of the stretch, all threads (daemon and clients),
    /// less the reference kernel's.
    cpu: f64,
    /// The same, normalised by the kernel calls made during the stretch.
    norm_cpu: f64,
}

/// Runs whole churn cycles on every connection for `seconds`; connection
/// `c` continues from cycle `next_k[c]`, which is advanced past the last
/// cycle it ran. Connection 0 runs the reference kernel after each of its
/// cycles, between decisions, to normalise the stretch's CPU time.
fn churn(
    daemon: &Daemon,
    seed: u64,
    seconds: f64,
    model: &Mutex<TenantModel>,
    next_k: &mut [u64],
    kernel: &mut RefKernel,
) -> Live {
    let calls_before = kernel.samples.len();
    let clock = Stopwatch::start();
    let start = Instant::now();
    let results: Vec<(Live, u64)> = std::thread::scope(|scope| {
        let mut kernel = Some(&mut *kernel);
        let handles: Vec<_> = next_k
            .iter()
            .enumerate()
            .map(|(conn, &k0)| {
                let conn = conn as u64;
                let mut kernel = kernel.take();
                scope.spawn(move || {
                    let mut client =
                        CtlClient::new(daemon.addr(), RetryPolicy::default(), seed ^ conn);
                    let mut mine = Live::default();
                    let mut k = k0;
                    while k == k0 || start.elapsed().as_secs_f64() < seconds {
                        for d in churn_cycle(seed, conn, k) {
                            let expected = model.lock().expect("model lock").decide(&d);
                            let t0 = Instant::now();
                            let got = send(&mut client, &d);
                            mine.samples.push((
                                start.elapsed().as_secs_f64(),
                                t0.elapsed().as_secs_f64() * 1e3,
                            ));
                            mine.attempted += 1;
                            if let Err(e) = got.and_then(|r| check_verdict(expected, &r)) {
                                mine.failed += 1;
                                if mine.errors.len() < 4 {
                                    mine.errors.push(format!("conn {conn} cycle {k}: {e}"));
                                }
                            }
                        }
                        if let Some(kernel) = kernel.as_mut() {
                            kernel.measure();
                        }
                        k += 1;
                    }
                    (mine, k)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("churn connection panicked"))
            .collect()
    });
    let mut live = Live::default();
    for (conn, (mine, k)) in results.into_iter().enumerate() {
        next_k[conn] = k;
        live.samples.extend(mine.samples);
        live.attempted += mine.attempted;
        live.failed += mine.failed;
        live.errors.extend(mine.errors);
    }
    let (wall, cpu) = clock.read();
    let calls = &kernel.samples[calls_before..];
    live.wall = wall;
    live.cpu = cpu - calls.iter().sum::<f64>();
    live.norm_cpu = normalise(live.cpu, median(calls));
    live
}

/// A stretch of the measured phase cut into whole one-second slices (all
/// of it when shorter); returns the highest slice decision rate and the
/// lowest slice p50 and p90 latency. The host's speed drifts by tens of
/// percent over seconds, and the best slice is the estimator least moved
/// by a slow stretch.
fn best_slice(samples: &[(f64, f64)], wall: f64) -> (f64, f64, f64) {
    let (slices, width) = if wall >= 1.0 {
        (wall as usize, 1.0)
    } else {
        (1, wall)
    };
    let mut buckets = vec![Vec::new(); slices];
    for &(t, latency) in samples {
        // Replies after the last whole second fall outside every slice.
        let s = if wall >= 1.0 { t as usize } else { 0 };
        if let Some(bucket) = buckets.get_mut(s) {
            bucket.push(latency);
        }
    }
    let mut best = (0.0f64, f64::INFINITY, f64::INFINITY);
    for lat in buckets.iter().filter(|b| !b.is_empty()) {
        best.0 = best.0.max(lat.len() as f64 / width);
        best.1 = best.1.min(percentile(lat, 50.0));
        best.2 = best.2.min(percentile(lat, 90.0));
    }
    best
}

/// Host time of the in-process replay, per layer.
#[derive(Debug, Default)]
struct ReplayTimes {
    trial: f64,
    append: f64,
    sync: f64,
    compact: f64,
    sim_step: f64,
    codec: f64,
    decisions: u64,
    wall: f64,
}

/// Charges the time since the previous lap to a layer, when timing is on.
struct Clock(Option<Instant>);

impl Clock {
    /// Ends the current lap, charging it to `layer` (or to nothing).
    fn lap(&mut self, layer: Option<&mut f64>) {
        if let Some(last) = self.0 {
            let now = Instant::now();
            if let Some(acc) = layer {
                *acc += now.duration_since(last).as_secs_f64();
            }
            self.0 = Some(now);
        }
    }
}

/// What the replay's live simulation produced.
struct ReplaySim {
    completed: u64,
    missed: u64,
    latency: Vec<f64>,
}

fn journal_op(d: &Decision, slot: u32) -> Op {
    match d.clone() {
        Decision::Join(tenant, class, tasks) => Op::Join {
            tenant,
            class,
            slot,
            tasks,
        },
        Decision::Renegotiate(tenant, tasks) => Op::Renegotiate {
            tenant,
            slot,
            tasks,
        },
        Decision::Leave(tenant) => Op::Leave { tenant, slot },
    }
}

/// Replays residents plus `replay_cycles` churn cycles per connection
/// (round-robin over connections) through a registry and journal the way
/// the daemon's worker applies them: codec, trial, append, sync,
/// compaction, simulation step. With `timed`, every step is charged to
/// its layer.
fn replay(
    dir: &Path,
    seed: u64,
    p: &Params,
    timed: bool,
) -> Result<(ReplayTimes, ReplaySim), String> {
    let io = |e: std::io::Error| format!("replay journal: {e}");
    let recovery = recover(dir).map_err(|e| format!("replay recovery: {e}"))?;
    let mut journal = Journal::open(dir, &recovery).map_err(io)?;
    let mut reg = ControlRegistry::new(p.capacity).map_err(|e| format!("registry: {e}"))?;
    let mut model = TenantModel::new(p.capacity);
    let mut times = ReplayTimes::default();
    let mut since_compact = 0;
    let ops =
        residents(p)
            .into_iter()
            .chain((0..p.replay_cycles).flat_map(|k| {
                (0..p.connections as u64).flat_map(move |c| churn_cycle(seed, c, k))
            }));
    let mut clock = Clock(timed.then(Instant::now));
    let start = Instant::now();
    for d in ops {
        let expected = model.decide(&d);
        clock.lap(None);
        let request = Request::decode(&d.request().encode()).map_err(|e| format!("{e:?}"))?;
        clock.lap(Some(&mut times.codec));
        if request != d.request() {
            return Err("request codec round trip changed the request".into());
        }
        let outcome = match &d {
            Decision::Join(tenant, class, tasks) => reg.try_join(*tenant, *class, tasks),
            Decision::Renegotiate(tenant, tasks) => reg.try_renegotiate(*tenant, tasks),
            Decision::Leave(tenant) => reg.try_leave(*tenant),
        };
        clock.lap(Some(&mut times.trial));
        let response = match outcome {
            ApplyOutcome::Admitted {
                slot,
                transition_cycles,
            } => {
                let seq = journal.append(&journal_op(&d, slot)).map_err(io)?;
                clock.lap(Some(&mut times.append));
                journal.sync().map_err(io)?;
                clock.lap(Some(&mut times.sync));
                since_compact += 1;
                if since_compact >= p.compact_every {
                    journal
                        .compact(&reg.snapshot(journal.next_seq()))
                        .map_err(io)?;
                    clock.lap(Some(&mut times.compact));
                    since_compact = 0;
                }
                Response::Admitted {
                    seq,
                    transition_cycles,
                }
            }
            ApplyOutcome::Rejected(reason) => Response::Rejected { reason },
        };
        clock.lap(None);
        let response = Response::decode(&response.encode()).map_err(|e| format!("{e:?}"))?;
        clock.lap(Some(&mut times.codec));
        check_verdict(expected, &response).map_err(|e| format!("replay: {e}"))?;
        clock.lap(None);
        reg.step(p.sim_cycles_per_batch);
        clock.lap(Some(&mut times.sim_step));
        times.decisions += 1;
    }
    times.wall = start.elapsed().as_secs_f64();
    let mut m = RunMetrics::from_registry(reg.sim_registry(), ComponentId::System);
    let sim = ReplaySim {
        completed: m.completed(),
        missed: m.missed(),
        latency: m.latency().as_slice().to_vec(),
    };
    Ok((times, sim))
}

/// Runs the control-plane workload and reports its metrics.
pub fn run(args: &Args, p: &Params) -> Report {
    let mut report = Report::new();
    if let Err(e) = run_inner(args, p, &mut report) {
        report.check(Err(e));
    }
    report
}

fn run_inner(args: &Args, p: &Params, report: &mut Report) -> Result<(), String> {
    let scratch = Scratch::new("ctl").map_err(|e| format!("scratch directory: {e}"))?;
    // Set-up: start a daemon on an empty journal and admit the residents.
    // This daemon serves the measured phase; the remaining set-ups run on
    // journals of their own between stretches of it, so that their median
    // samples the host across the run rather than in one stretch.
    let dir = scratch.path().join("daemon");
    let mut model = TenantModel::new(p.capacity);
    let mut kernel = RefKernel::new();
    let (daemon, first) = timed_start(&dir, args.seed, p, &mut model, &mut kernel)?;
    let mut setup_times = vec![first];

    let model = Mutex::new(model);
    let stretches = p.setup_reps.max(1);
    let mut next_k = vec![0; p.connections];
    let mut lives = Vec::new();
    for i in 0..stretches {
        let seconds = args.seconds / stretches as f64;
        lives.push(churn(
            &daemon,
            args.seed,
            seconds,
            &model,
            &mut next_k,
            &mut kernel,
        ));
        if i + 1 < stretches {
            let (other, time) = timed_start(
                &scratch.path().join(format!("setup-{i}")),
                args.seed,
                p,
                &mut TenantModel::new(p.capacity),
                &mut kernel,
            )?;
            setup_times.push(time);
            other.shutdown();
        }
    }
    let model = model.into_inner().expect("model lock");
    let cpu: f64 = lives.iter().map(|l| l.cpu).sum();
    let norm_cpu: f64 = lives.iter().map(|l| l.norm_cpu).sum();
    let attempted: u64 = lives.iter().map(|l| l.attempted).sum();
    let wall: f64 = lives.iter().map(|l| l.wall).sum();
    let latencies: Vec<f64> = lives
        .iter()
        .flat_map(|l| l.samples.iter().map(|s| s.1))
        .collect();
    report.attempted = attempted;
    report.failed = lives.iter().map(|l| l.failed).sum();
    for e in lives.iter().flat_map(|l| &l.errors) {
        println!("failed decision: {e}");
    }

    // Quiesced: every request had exactly one disposition, the table
    // matches the model, and a graceful restart recovers the same state.
    report.check(check_quiesced(
        daemon.stats(),
        daemon.tenant_count(),
        &model,
    ));
    let digest = daemon.state_digest();
    daemon.shutdown();
    let restarted = Daemon::start(&dir, p.daemon_config()).map_err(|e| format!("restart: {e}"))?;
    report.check(check_restart(digest, restarted.state_digest()));
    restarted.shutdown();

    let (rate, p50, p90) = lives
        .iter()
        .map(|l| best_slice(&l.samples, l.wall))
        .fold((0.0f64, f64::INFINITY, f64::INFINITY), |a, b| {
            (a.0.max(b.0), a.1.min(b.1), a.2.min(b.2))
        });
    println!(
        "reference: whole run {:.1} decisions/s, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms; \
         best slice {rate:.1} decisions/s, p50 {p50:.3} ms, p90 {p90:.3} ms; \
         {:.1} decisions per CPU s ({cpu:.3} CPU s over {wall:.3} s); \
         set-up wall median {:.4} s; reference kernel median {:.4} ms over {} calls",
        attempted as f64 / wall,
        percentile(&latencies, 50.0),
        percentile(&latencies, 90.0),
        percentile(&latencies, 99.0),
        attempted as f64 / cpu,
        median(&setup_times.iter().map(|t| t.0).collect::<Vec<_>>()),
        median(&kernel.samples) * 1e3,
        kernel.samples.len(),
    );

    let (plain, sim) = replay(&scratch.path().join("replay-plain"), args.seed, p, false)?;
    println!(
        "decisions={} wall_s={:.3} replay_decisions={} replay_s={:.3} \
         replay_completed={} replay_missed={} (reference)",
        attempted, wall, plain.decisions, plain.wall, sim.completed, sim.missed
    );
    if args.trace {
        // The same replay with every layer boundary timed.
        let (t, again) = replay(&scratch.path().join("replay-traced"), args.seed, p, true)?;
        report.check(
            if again.latency == sim.latency && again.completed == sim.completed {
                Ok(())
            } else {
                Err("traced replay simulated differently".into())
            },
        );
        let service_ms = (t.trial + t.append + t.sync + t.compact + t.sim_step + t.codec) * 1e3
            / t.decisions.max(1) as f64;
        let live_ms = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        report.layer("ctl.registry.trial_s", t.trial);
        report.layer("ctl.journal.append_s", t.append);
        report.layer("ctl.journal.sync_s", t.sync);
        report.layer("ctl.journal.compact_s", t.compact);
        report.layer("ctl.registry.sim_step_s", t.sim_step);
        report.layer("ctl.proto.codec_s", t.codec);
        report.layer("ctl.server.wait_ms", live_ms - service_ms);
        report.layer("ctl.decision_p50_ms", p50);
        report.layer("ctl.decision_p90_ms", p90);
        report.layer("trace.overhead_s", t.wall - plain.wall);
        report.layer("peak_rss_mb", peak_rss_mb());
    } else {
        report.metric(
            "setup_s",
            normalise(
                median(&setup_times.iter().map(|t| t.1).collect::<Vec<_>>()),
                median(&kernel.samples),
            ),
            "s",
        );
        // Decisions per normalised CPU second of the whole process,
        // daemon and clients: the admission path is CPU-bound (see
        // `clock` for the normalisation).
        report.metric("throughput_norm_per_s", attempted as f64 / norm_cpu, "1/s");
        report.metric("sim_completed", sim.completed as f64, "requests");
        report.metric(
            "sim_latency_p50_cycles",
            percentile(&sim.latency, 50.0),
            "cycles",
        );
        report.metric(
            "sim_latency_p99_cycles",
            percentile(&sim.latency, 99.0),
            "cycles",
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_churn_passes_every_check() {
        for trace in [false, true] {
            let args = Args {
                workload: "ctl_churn".into(),
                seed: 11,
                seconds: 0.0,
                trace,
            };
            let r = run(&args, &Params::tiny());
            assert!(r.correct, "trace={trace}: {:?}", r.errors);
            assert_eq!(r.failed, 0);
            assert_eq!(r.attempted % 3, 0, "whole join/renegotiate/leave cycles");
            assert!(r.attempted >= 6);
        }
    }

    #[test]
    fn model_predicts_rejections_and_the_check_catches_mismatches() {
        let mut m = TenantModel::new(1);
        let spec = vec![TaskSpec {
            period: 4000,
            wcet: 1,
        }];
        let join = |t| Decision::Join(t, TenantClass::Guaranteed, spec.clone());
        assert_eq!(m.decide(&join(1)), Verdict::Admitted);
        assert_eq!(m.decide(&join(1)), Verdict::Admitted, "idempotent retry");
        assert_eq!(
            m.decide(&Decision::Join(1, TenantClass::BestEffort, spec.clone())),
            Verdict::Rejected(RejectReason::AlreadyJoined)
        );
        assert_eq!(
            m.decide(&join(2)),
            Verdict::Rejected(RejectReason::CapacityFull)
        );
        assert_eq!(
            m.decide(&Decision::Leave(7)),
            Verdict::Rejected(RejectReason::UnknownTenant)
        );
        let admitted = Response::Admitted {
            seq: 1,
            transition_cycles: 0,
        };
        assert!(check_verdict(Verdict::Admitted, &admitted).is_ok());
        for wrong in [
            Response::Shed { tier: 0 },
            Response::TimedOut,
            Response::Err { code: 2 },
            Response::Rejected {
                reason: RejectReason::Inadmissible,
            },
        ] {
            assert!(
                check_verdict(Verdict::Admitted, &wrong).is_err(),
                "{wrong:?}"
            );
        }
        assert!(check_verdict(Verdict::Rejected(RejectReason::CapacityFull), &admitted).is_err());
    }

    #[test]
    fn quiesce_and_restart_checks_reject_broken_states() {
        let mut model = TenantModel::new(4);
        let stats = StatsSnapshot {
            received: 3,
            admitted: 2,
            rejected: 1,
            shed: 0,
            timed_out: 0,
            retries: 0,
        };
        assert!(check_quiesced(stats, 0, &model).is_ok());
        let lost = StatsSnapshot {
            admitted: 1,
            ..stats
        };
        assert!(check_quiesced(lost, 0, &model).is_err());
        model.decide(&Decision::Join(1, TenantClass::Guaranteed, vec![]));
        assert!(check_quiesced(stats, 0, &model).is_err());
        assert!(check_restart(7, 7).is_ok());
        assert!(check_restart(7, 8).is_err());
    }

    #[test]
    fn best_slice_takes_whole_seconds() {
        // 2.5 s: one reply every 10 ms in the first second, every 20 ms in
        // the second; the trailing half second is not a whole slice.
        let mut samples: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 0.01, 4.0)).collect();
        samples.extend((0..50).map(|i| (1.0 + i as f64 * 0.02, 2.0)));
        samples.extend((0..500).map(|i| (2.0 + i as f64 * 0.001, 1.0)));
        assert_eq!(best_slice(&samples, 2.5), (100.0, 2.0, 2.0));
        assert_eq!(best_slice(&samples[..10], 0.5), (20.0, 4.0, 4.0));
    }

    #[test]
    fn churn_cycles_depend_on_the_seed_alone() {
        assert_eq!(churn_cycle(3, 1, 5), churn_cycle(3, 1, 5));
        assert_ne!(churn_cycle(3, 1, 5), churn_cycle(4, 1, 5));
        let [join, reneg, _] = churn_cycle(3, 0, 0);
        match (join, reneg) {
            (Decision::Join(_, _, a), Decision::Renegotiate(_, b)) => assert_ne!(a, b),
            other => panic!("unexpected cycle {other:?}"),
        }
    }
}
