//! The lifecycle benchmark: `perfbench --workload NAME --seed N
//! --seconds S --trace 0|1 --litsearch PATH`.
//!
//! Every workload runs the whole lifecycle an operator and a user pay
//! for — generate, prepare and save, warm start, in-process serving in
//! a closed loop, and the deployed `litsearch serve` binary over
//! loopback in an open and a closed loop — and checks every output. The
//! workloads differ in corpus scale and in how much of each phase a run
//! holds, so each one puts a different set of layers under load.
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it instead times each layer's public calls on the same
//! inputs and prints the per-layer metrics. See `README.md`.

mod check;
mod layers;
mod mix;
mod phases;
mod stats;
mod summary;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One workload: a corpus scale and how much of each phase a run holds.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Papers in the generated corpus.
    pub papers: usize,
    /// Terms in the generated ontology.
    pub terms: usize,
    /// Whether prepare and save belong to set-up (otherwise they are
    /// the measured lifecycle phase).
    pub prepare_in_setup: bool,
    /// Whether starting the server belongs to set-up.
    pub server_in_setup: bool,
    /// Share of `--seconds` for the closed loop, at `closed_qps`.
    pub closed_share: f64,
    /// Nominal closed-loop queries per second (about the reference
    /// box's): with the closed-loop share it fixes the number of
    /// queries the loop runs.
    pub closed_qps: f64,
    /// Share of `--seconds` for the wire phase, split evenly between
    /// the two open-loop rates and the closed loop.
    pub wire_share: f64,
    /// Nominal closed-loop wire requests per second (about the
    /// reference box's): it fixes the number of requests of the wire
    /// closed loop, as `closed_qps` does in process.
    pub wire_closed_qps: f64,
    /// Wire arrival rates, requests per second over both connections:
    /// nominal, then high.
    pub rates: [f64; 2],
}

/// The workloads.
pub const SPECS: [Spec; 2] = [
    Spec {
        name: "build_1600",
        papers: 1600,
        terms: 320,
        prepare_in_setup: false,
        server_in_setup: false,
        closed_share: 0.2,
        closed_qps: 14_000.0,
        wire_share: 0.4,
        wire_closed_qps: 8_000.0,
        rates: [1500.0, 3000.0],
    },
    Spec {
        name: "wire_400",
        papers: 400,
        terms: 80,
        prepare_in_setup: true,
        server_in_setup: true,
        closed_share: 0.04,
        closed_qps: 30_000.0,
        wire_share: 0.9,
        wire_closed_qps: 13_000.0,
        rates: [4000.0, 8000.0],
    },
];

/// A deliberately wrong expectation, to show a correctness check fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Corrupt one fresh result in the warm-versus-fresh comparison.
    Lifecycle,
    /// Corrupt one single-threaded reference result.
    Closed,
    /// Corrupt one expected wire body.
    Wire,
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// The workload.
    pub spec: Spec,
    /// Seed of the query mix and arrival order.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The deployed `litsearch` binary.
    pub litsearch: PathBuf,
    /// Injected fault, if any.
    pub fault: Option<Fault>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let spec = *SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let litsearch = PathBuf::from(get("--litsearch")?);
    let fault = match get("--inject-fault").ok().as_deref() {
        None => None,
        Some("lifecycle") => Some(Fault::Lifecycle),
        Some("closed") => Some(Fault::Closed),
        Some("wire") => Some(Fault::Wire),
        Some(other) => return Err(format!("unknown fault {other:?}")),
    };
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        litsearch,
        fault,
    })
}

/// What a run prints: report lines, then the result object.
#[derive(Debug, Default)]
pub struct Report {
    notes: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (wrong result, error, refusal, timeout).
    pub failed: u64,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Add a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count operations and failures.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The result object. A latency that a failure made infinite is
    /// written as `null`; such a run is failed anyway.
    fn result_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Where scratch files and traces go, relative to the checkout root.
pub const OUT_DIR: &str = "perfbench/out";

/// Peak resident memory (`VmHWM`) of a running process in KiB, from
/// `/proc/<pid>/status`.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A directory for a run's scratch files, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create (or empty) `path`.
    pub fn new(path: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run() -> Result<Report, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if !args.litsearch.is_file() {
        return Err(format!("no server binary at {}", args.litsearch.display()));
    }
    let work = WorkDir::new(Path::new(OUT_DIR).join(format!(
        "work-{}-{}",
        args.spec.name,
        std::process::id()
    )))?;
    let mut report = Report::default();
    report.note(format!(
        "workload {} seed {} seconds {} trace {} | {} papers, {} terms | {} cores",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.spec.papers,
        args.spec.terms,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    if args.trace {
        layers::run(&args, work.path(), &mut report)?;
    } else {
        phases::run(&args, work.path(), &mut report)?;
    }
    Ok(report)
}

/// `perfbench summarize BENCHMARK.json RUNS.jsonl [EARLIER.jsonl]`.
fn summarize(paths: &[String]) -> ExitCode {
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let text = match paths {
        [bench, runs] => read(bench).and_then(|b| summary::summarize(&b, &read(runs)?, None)),
        [bench, runs, earlier] => {
            read(bench).and_then(|b| summary::summarize(&b, &read(runs)?, Some(&read(earlier)?)))
        }
        _ => Err("usage: perfbench summarize BENCHMARK.json RUNS.jsonl [EARLIER.jsonl]".into()),
    };
    match text {
        Ok(t) => {
            print!("{t}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("summarize") {
        return summarize(&argv[1..]);
    }
    let report = match run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    println!(
        "  {:<32} {:>16.6} ratio ({} failed of {} attempted)",
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let non_finite = report.metrics.iter().any(|(_, v, _)| !v.is_finite());
    if non_finite && report.failed == 0 {
        eprintln!("perfbench: a metric is not finite although nothing failed");
        return ExitCode::from(2);
    }
    println!("{}", report.result_json());
    if report.failed > 0 || report.attempted == 0 {
        eprintln!(
            "perfbench: {} of {} operations failed",
            report.failed, report.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
