//! End-to-end and per-layer benchmark of the BlueScale simulator and its
//! control plane.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense_fig6 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `dense_fig6`, `sparse_stream`, `shard_busy` (simulation) and
//! `ctl_churn` (control plane). `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs the same work untraced and traced, reports
//! per-layer attribution and the tracing overhead. The last line of
//! standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! See `README.md` for the metrics, the inputs and measured figures.

mod checks;
mod clock;
mod ctl;
mod sim;
mod trace;

use bluescale_sim::stats::Samples;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Command-line arguments, validated.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed; the program sees only inputs generated from it.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(key) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value after {key}"))?;
        let bad = |what: &str| format!("{key}: {what}, got {value:?}");
        match key.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("want u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("want seconds"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad("want 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {key}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every workload name the benchmark accepts.
pub const WORKLOADS: [&str; 4] = ["dense_fig6", "sparse_stream", "shard_busy", "ctl_churn"];

/// Every per-layer metric and its unit, in print order. A traced run
/// reports all of them; a layer the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("peak_rss_mb", "MB"),
    ("workload.generate_s", "s"),
    ("core.build_s", "s"),
    ("core.step_s", "s"),
    ("core.step_calls", "count"),
    ("core.inject_s", "s"),
    ("core.inject_bounced", "count"),
    ("core.drain_s", "s"),
    ("core.next_event_s", "s"),
    ("core.advance_idle_s", "s"),
    ("interconnect.system.self_s", "s"),
    ("interconnect.system.stepped_cycles", "cycles"),
    ("interconnect.system.ff_jumps", "count"),
    ("interconnect.system.ff_skipped_cycles", "cycles"),
    ("telemetry.overhead_s", "s"),
    ("telemetry.sink_s", "s"),
    ("telemetry.epochs", "count"),
    ("telemetry.records", "count"),
    ("telemetry.jsonl_bytes", "bytes"),
    ("mem.completed", "requests"),
    ("mem.row_hits", "requests"),
    ("mem.row_hit_ratio", "ratio"),
    ("mem.busy_cycles", "cycles"),
    ("core.shard.run_1w_s", "s"),
    ("core.shard.run_2w_s", "s"),
    ("core.shard.speedup_2w", "ratio"),
    ("ctl.registry.trial_s", "s"),
    ("ctl.journal.append_s", "s"),
    ("ctl.journal.sync_s", "s"),
    ("ctl.journal.compact_s", "s"),
    ("ctl.registry.sim_step_s", "s"),
    ("ctl.proto.codec_s", "s"),
    ("ctl.server.wait_ms", "ms"),
    ("ctl.decision_p50_ms", "ms"),
    ("ctl.decision_p90_ms", "ms"),
    ("trace.overhead_s", "s"),
];

/// What one invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (simulated requests, or control-plane
    /// decisions).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Check failures, one line each.
    pub errors: Vec<String>,
}

impl Report {
    /// An empty report that is correct until a check fails.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a per-layer metric named in [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let (name, unit) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.metric(name, value, unit);
    }

    /// Orders the per-layer metrics as [`PER_LAYER`] lists them, adding a
    /// 0 for every layer the workload did not reach.
    fn complete_layers(&mut self) {
        let reported = std::mem::take(&mut self.metrics);
        for (name, unit) in PER_LAYER {
            let value = reported
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(0.0, |m| m.1);
            self.metric(name, value, unit);
        }
    }

    /// Records a check result; a failure makes the report incorrect.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.correct = false;
            self.errors.push(e);
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut samples = Samples::new();
    for &v in values {
        samples.push(v);
    }
    samples.percentile(p).unwrap_or(0.0)
}

/// Median (lower middle for even counts) of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `.perfbench_tmp/<tag>-<pid>-<n>` under the working directory.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            PathBuf::from(".perfbench_tmp").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Removes the parent only when no other run still uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} host_cpus={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut report = match args.workload.as_str() {
        "ctl_churn" => ctl::run(&args, &ctl::Params::full()),
        name => sim::run(&args, &sim::Params::full(name)),
    };
    if args.trace {
        report.complete_layers();
    }
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let ok = parse_args(&args(&[
            "--workload",
            "dense_fig6",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!((ok.seed, ok.trace), (7, true));
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "dense_fig6",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "dense_fig6",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "dense_fig6", "--seed", "1", "--seconds", "1"],
            &[
                "--workload",
                "dense_fig6",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--bogus",
                "0",
            ],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn report_json_has_the_four_keys() {
        let mut r = Report::new();
        r.attempted = 3;
        r.metric("setup_s", 0.5, "s");
        let json = r.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        r.check(Err("boom".into()));
        assert!(!r.correct);
    }
}
