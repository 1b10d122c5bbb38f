//! End-to-end benchmark of the fleet and serve paths.
//!
//! ```text
//! e2e-bench --workload <fleet-mixed|fleet-longday|serve-query>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload for about `S` seconds and prints, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. Exits non-zero,
//! with `correct: false` and no metrics, when a report differs between
//! paths or worker counts, misses its committed fingerprint, or shows a
//! lint soundness violation. See `README.md` next to this crate.

mod client;
mod host;
mod layers;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ea_corpus::{generate_corpus, CorpusConfig};
use ea_fleet::supervise::supervise_device;
use ea_fleet::{
    aggregate, render, run_fleet, DeviceFailure, DeviceReport, FleetConfig, FleetReport,
    SuperviseHooks, Supervision,
};
use ea_framework::AppManifest;
use ea_metrics::QuantileSketch;
use ea_serve::{run_serve, ServeConfig, ServeStats};

use crate::client::QueryLog;
use crate::stats::{fnv1a, median, quantile};

/// The workload seed whose fleet is `FleetConfig::default()`'s (fleet
/// seed 2026, corpus seed 2017) and whose reports have fingerprints.
const DEFAULT_SEED: u64 = 2026;

/// FNV-1a of `render::to_json` of each fleet's report at the default
/// seed. `serve-query` streams the `fleet-mixed` fleet, so it shares
/// that row.
const FINGERPRINTS: [(&str, u64); 2] = [
    ("fleet-mixed", 0x5e07_9849_56c7_6b75),
    ("fleet-longday", 0x323a_43a9_9733_9685),
];

/// Open-loop query rate of the serve passes, below the measured knee
/// (between 50 and 100 queries/s at 2 lanes).
pub const QUERY_RATE_HZ: f64 = 50.0;

/// Corpus generations timed per round for the fleet workloads' set-up
/// time.
const SETUP_REPS: usize = 5;

/// Times the device pass covers the fleet in a run.
const DEVICE_PASS_REPEATS: usize = 3;

/// Host calibrations per repeat of the device pass, so the run's host
/// factor samples the host all through the pass.
const DEVICE_CALIBRATIONS: usize = 16;

/// Rounds the first round assumes the device pass is spread over. Later
/// rounds spread what is left over the rounds the budget still has room
/// for; what is left when the run ends is timed at its end.
const DEVICE_PASS_ROUNDS: usize = 6;

/// Devices `device_ms_tail` leaves beyond it, at the least.
const TAIL_BEYOND: usize = 10;

/// The quantile `device_ms_tail` reads from `devices` samples: p99, or
/// the highest quantile that leaves [`TAIL_BEYOND`] samples beyond it when
/// there are too few for p99 (p92 of 128).
fn tail_quantile(devices: usize) -> f64 {
    (1.0 - TAIL_BEYOND as f64 / devices.max(1) as f64).clamp(0.0, 0.99)
}

/// Which public entry point ingests the workload's devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// `ea_fleet::run_fleet`.
    Batch,
    /// `ea_serve::run_serve` with a socket and the query client.
    Serve,
}

/// One workload: a fleet and the path it takes.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name on the command line.
    pub name: &'static str,
    /// The fleet; `jobs` is set per pass.
    pub fleet: FleetConfig,
    /// Path whose throughput the workload reports.
    pub ingest: Ingest,
    /// Row of [`FINGERPRINTS`] its report must match at the default seed.
    pub fingerprint: &'static str,
}

impl Workload {
    /// The named workload at `seed`: fleet and corpus seeds move with
    /// the workload seed, so the default seed gives the default fleet.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let base = FleetConfig::default();
        let offset = seed.wrapping_sub(DEFAULT_SEED);
        let seeded = FleetConfig {
            seed: base.seed.wrapping_add(offset),
            corpus_seed: base.corpus_seed.wrapping_add(offset),
            ..base
        };
        let mixed = FleetConfig {
            size: 2048,
            ..seeded.clone()
        };
        let (name, fleet, ingest, fingerprint) = match name {
            "fleet-mixed" => ("fleet-mixed", mixed, Ingest::Batch, "fleet-mixed"),
            "fleet-longday" => {
                let longday = FleetConfig {
                    size: 128,
                    min_apps: 2,
                    max_apps: 4,
                    sessions: 8,
                    mean_session_secs: 60,
                    mean_idle_secs: 600,
                    ..seeded
                };
                ("fleet-longday", longday, Ingest::Batch, "fleet-longday")
            }
            "serve-query" => ("serve-query", mixed, Ingest::Serve, "fleet-mixed"),
            _ => return None,
        };
        Some(Workload {
            name,
            fleet,
            ingest,
            fingerprint,
        })
    }

    /// The fleet at `jobs` workers.
    pub fn with_jobs(&self, jobs: usize) -> FleetConfig {
        FleetConfig {
            jobs,
            ..self.fleet.clone()
        }
    }

    /// The workload's shared corpus, as the engine generates it.
    pub fn corpus(&self) -> Vec<AppManifest> {
        generate_corpus(
            &CorpusConfig {
                size: self.fleet.corpus_size,
                ..CorpusConfig::paper()
            },
            self.fleet.corpus_seed,
        )
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err(String::from("--seconds must be positive"));
    }
    Ok(args)
}

/// The run's verdict on the program's outputs: the reference report
/// every other report must equal byte for byte, and every failed check.
pub struct Checks {
    workload: &'static str,
    default_seed: bool,
    reference: Option<(String, FleetReport)>,
    /// Failed checks, in the order they were found.
    pub errors: Vec<String>,
}

impl Checks {
    fn new(workload: &Workload, seed: u64) -> Self {
        Checks {
            workload: workload.fingerprint,
            default_seed: seed == DEFAULT_SEED,
            reference: None,
            errors: Vec::new(),
        }
    }

    /// Checks one report of the workload's fleet from `path`: no lint
    /// soundness violation, the same bytes as every earlier report, and
    /// (for the first one, at the default seed) the committed fingerprint.
    pub fn report(&mut self, path: &str, report: &FleetReport) {
        if report.lint.superset_violations != 0 {
            self.errors.push(format!(
                "{path}: {} lint soundness violations",
                report.lint.superset_violations
            ));
        }
        let json = render::to_json(report);
        match &self.reference {
            Some((reference, _)) => {
                if *reference != json {
                    self.errors
                        .push(format!("{path}: report differs from the first report"));
                }
            }
            None => {
                let print = fnv1a(json.as_bytes());
                let expected = FINGERPRINTS
                    .iter()
                    .find(|(name, _)| *name == self.workload)
                    .map(|&(_, fingerprint)| fingerprint);
                if self.default_seed && expected != Some(print) {
                    self.errors.push(format!(
                        "{path}: report fingerprint {print:#018x} is not the committed one for {}",
                        self.workload
                    ));
                }
                self.reference = Some((json, report.clone()));
            }
        }
    }

    /// Checks the `report` reply a query client got at drain against the
    /// compact form of the reference report.
    pub fn report_reply(&mut self, reply: Option<&str>) {
        let expected = self
            .reference
            .as_ref()
            .and_then(|(_, report)| serde_json::to_string(report).ok());
        if reply.is_none() || reply != expected.as_deref() {
            self.errors.push(String::from(
                "serve: the `report` reply differs from the batch report",
            ));
        }
    }
}

/// One serve pass.
pub struct ServePass {
    /// The drained report.
    pub report: FleetReport,
    /// The service's own counters.
    pub stats: ServeStats,
    /// Wall of the whole `run_serve` call, seconds.
    pub wall_s: f64,
    /// What the query client saw.
    pub queries: QueryLog,
}

/// The socket of this process's serve passes, inside the checkout.
fn socket_path() -> PathBuf {
    PathBuf::from(format!(".bench_out/serve-{}.sock", std::process::id()))
}

/// Streams `fleet` through `run_serve` at `lanes` with a socket, while
/// the query client drives it on a schedule drawn from `seed` (probing a
/// held connection when `probe_held`) and finally stops it.
pub fn serve_pass(
    fleet: &FleetConfig,
    lanes: usize,
    seed: u64,
    probe_held: bool,
) -> Result<ServePass, String> {
    let socket = socket_path();
    let config = ServeConfig {
        lanes,
        socket: Some(socket.clone()),
        hold: true,
        ..ServeConfig::new(fleet.clone())
    };
    let started = Instant::now();
    std::thread::scope(|scope| {
        let path: &Path = &socket;
        let client =
            scope.spawn(move || client::drive(path, started, QUERY_RATE_HZ, seed, probe_held));
        let served = run_serve(&config, None);
        let wall_s = started.elapsed().as_secs_f64();
        let queries = client
            .join()
            .map_err(|_| String::from("query client panicked"))?;
        let (report, stats) = served.map_err(|err| format!("run_serve: {err}"))?;
        Ok(ServePass {
            report,
            stats,
            wall_s,
            queries,
        })
    })
}

/// Single-worker passes over devices `0..size` through
/// `supervise_device`, each call timed from outside. The fleet is covered
/// [`DEVICE_PASS_REPEATS`] times, a chunk at a time so the samples spread
/// over the whole run. A device's time is the median of its repeats, so
/// one host stall does not decide it. Each repeat is folded into a report
/// the way the engine folds it.
#[derive(Default)]
struct DevicePass {
    /// Host-scaled wall of each call, ms, per device index.
    device_ms: Vec<Vec<f64>>,
    /// Calls made so far, over all repeats.
    calls: usize,
    tally: Supervision,
    sketch: QuantileSketch,
    outcomes: Vec<Result<DeviceReport, DeviceFailure>>,
    unsound_devices: usize,
}

impl DevicePass {
    /// Times the next `count` calls of the passes (fewer at their end), in
    /// chunks of at most 1/[`DEVICE_CALIBRATIONS`] of the fleet, and adds
    /// the host factor measured around each chunk to `factors`.
    /// Returns the report of every repeat this completes.
    fn run(
        &mut self,
        fleet: &FleetConfig,
        corpus: &[AppManifest],
        count: usize,
        factors: &mut Vec<f64>,
    ) -> Vec<FleetReport> {
        let total = fleet.size * DEVICE_PASS_REPEATS;
        let end = (self.calls + count).min(total);
        self.device_ms.resize_with(fleet.size, Vec::new);
        let hooks = SuperviseHooks::default();
        let mut reports = Vec::new();
        while self.calls < end {
            let lo = self.outcomes.len();
            let hi = (lo + end - self.calls)
                .min(lo + fleet.size.div_ceil(DEVICE_CALIBRATIONS))
                .min(fleet.size);
            let (chunk_ms, factor) = host::calibrated(|| {
                (lo..hi)
                    .map(|index| {
                        let started = Instant::now();
                        let outcome =
                            supervise_device(fleet, corpus, index, &mut self.tally, &hooks);
                        if let Ok(device) = &outcome {
                            self.sketch.record(device.drained_joules);
                            self.unsound_devices += usize::from(device.soundness_violations > 0);
                        }
                        self.outcomes.push(outcome);
                        started.elapsed().as_secs_f64() * 1e3
                    })
                    .collect::<Vec<_>>()
            });
            for (index, ms) in (lo..hi).zip(chunk_ms) {
                self.device_ms[index].push(ms);
            }
            factors.push(factor);
            self.calls += hi - lo;
            if hi == fleet.size {
                let outcomes = std::mem::take(&mut self.outcomes);
                let tally = std::mem::take(&mut self.tally);
                let sketch = std::mem::take(&mut self.sketch);
                reports.push(aggregate(fleet, outcomes, tally.health(), Some(sketch)));
            }
        }
        reports
    }

    /// Each device's median wall over its repeats, ms, unscaled.
    fn device_medians(&self) -> Vec<f64> {
        self.device_ms.iter().map(|ms| median(ms)).collect()
    }
}

/// Worker count of the "all cores" passes.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run prints besides the verdict.
pub struct RunResult {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Devices plus queries attempted.
    pub attempted: u64,
    /// Abandoned devices plus failed queries.
    pub failed: u64,
}

/// Everything the untraced run samples.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    all_cores: Vec<f64>,
    one: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    queries: Vec<QueryLog>,
    devices_attempted: u64,
    devices_abandoned: u64,
    host_factor: Vec<f64>,
    client_seed: u64,
    serve_passes: u64,
}

impl Samples {
    /// A fresh query schedule for every serve pass of the run.
    fn next_client_seed(&mut self) -> u64 {
        self.serve_passes += 1;
        ea_sim::splitmix64_stream(self.client_seed, self.serve_passes)
    }

    fn count(&mut self, report: &FleetReport) {
        self.devices_attempted += report.fleet_size as u64;
        self.devices_abandoned += report.failures.len() as u64;
    }

    /// One serve pass at `lanes`: its throughput, and at all lanes its
    /// queries and peak RSS (and set-up time when serve is the path).
    fn serve(
        &mut self,
        workload: &Workload,
        lanes: usize,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let ((pass, peak), factor) = host::calibrated(|| {
            stats::reset_peak_rss();
            (
                serve_pass(&workload.fleet, lanes, self.next_client_seed(), false),
                stats::peak_rss_mb(),
            )
        });
        let (pass, peak) = (pass?, peak?);
        self.host_factor.push(factor);
        checks.report(&format!("serve lanes={lanes}"), &pass.report);
        checks.report_reply(pass.queries.report.as_deref());
        self.count(&pass.report);
        if workload.ingest == Ingest::Serve {
            let rate = pass.report.devices_completed as f64 / pass.wall_s;
            self.setup_s.extend(pass.queries.connect_s);
            if lanes == 1 {
                self.one.push(rate);
                return Ok(());
            }
            self.all_cores.push(rate);
            self.peak_rss_mb.push(peak);
        }
        self.queries.push(pass.queries);
        Ok(())
    }
}

/// The untraced run: every end-to-end metric. The run is a sequence of
/// rounds, each taking some samples of every metric, so every metric sees
/// the whole run's share of host noise.
fn run_end_to_end(
    workload: &Workload,
    seconds: f64,
    checks: &mut Checks,
) -> Result<RunResult, String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let nproc = nproc();
    let fleet = &workload.fleet;
    let corpus = workload.corpus();
    let mut samples = Samples {
        client_seed: fleet.seed,
        ..Samples::default()
    };
    let mut devices = DevicePass::default();
    let total_calls = fleet.size * DEVICE_PASS_REPEATS;

    // The batch report every other output must equal; also the warm-up.
    let (report, _) = run_fleet(&workload.with_jobs(nproc));
    checks.report("fleet jobs=nproc", &report);
    samples.count(&report);

    // Start another round only when it should end less than half a round
    // past the budget, so a run lasts about the budget.
    let mut round = 0;
    let mut last_round = Duration::ZERO;
    while round < 2 || start.elapsed() + last_round / 2 <= budget {
        let round_started = Instant::now();
        match workload.ingest {
            Ingest::Batch => {
                let (setup, factor) = host::calibrated(|| {
                    (0..SETUP_REPS)
                        .map(|_| {
                            let started = Instant::now();
                            std::hint::black_box(workload.corpus());
                            started.elapsed().as_secs_f64()
                        })
                        .collect::<Vec<_>>()
                });
                samples.setup_s.extend(setup);
                samples.host_factor.push(factor);
                // Alternate which worker count goes first.
                let order = if round % 2 == 0 {
                    [1, nproc]
                } else {
                    [nproc, 1]
                };
                for jobs in order {
                    let ((report, wall_s, peak), factor) = host::calibrated(|| {
                        stats::reset_peak_rss();
                        let started = Instant::now();
                        let (report, _) = run_fleet(&workload.with_jobs(jobs));
                        (
                            report,
                            started.elapsed().as_secs_f64(),
                            stats::peak_rss_mb(),
                        )
                    });
                    let rate = report.devices_completed as f64 / wall_s;
                    let peak = peak?;
                    samples.host_factor.push(factor);
                    checks.report(&format!("fleet jobs={jobs}"), &report);
                    samples.count(&report);
                    if jobs == 1 {
                        samples.one.push(rate);
                    } else {
                        samples.all_cores.push(rate);
                        samples.peak_rss_mb.push(peak);
                    }
                }
                samples.serve(workload, nproc, checks)?;
            }
            Ingest::Serve => {
                for lanes in [nproc, 1, nproc] {
                    samples.serve(workload, lanes, checks)?;
                }
            }
        }
        // Rounds left, this one included, judged by the last round's length.
        let rounds_left = if round == 0 {
            DEVICE_PASS_ROUNDS
        } else {
            let left = budget.saturating_sub(start.elapsed());
            (left.as_secs_f64() / last_round.as_secs_f64())
                .round()
                .max(1.0) as usize
        };
        let chunk = (total_calls - devices.calls).div_ceil(rounds_left);
        for report in devices.run(fleet, &corpus, chunk, &mut samples.host_factor) {
            checks.report("device pass", &report);
            samples.count(&report);
        }
        round += 1;
        last_round = round_started.elapsed();
    }
    for report in devices.run(fleet, &corpus, total_calls, &mut samples.host_factor) {
        checks.report("device pass", &report);
        samples.count(&report);
    }
    if devices.unsound_devices > 0 {
        checks.errors.push(format!(
            "device pass: {} device calls with lint soundness violations",
            devices.unsound_devices
        ));
    }
    // Every CPU-bound sample is scaled by the run's median host factor,
    // not by the factor of its own pass: one kernel pair is as noisy as
    // the pass it brackets, while the median over the run follows the
    // host's slow drift.
    let factor = median(&samples.host_factor);
    let tail = tail_quantile(fleet.size);
    let device_ms: Vec<f64> = devices
        .device_medians()
        .iter()
        .map(|ms| ms * factor)
        .collect();

    let logs = &samples.queries;
    let latency = |q: f64| -> Vec<f64> {
        logs.iter()
            .map(|log| quantile(&log.latency_ms, q))
            .collect()
    };
    let timed_queries: usize = logs.iter().map(|log| log.latency_ms.len()).sum();
    let late: Vec<f64> = logs
        .iter()
        .flat_map(|log| log.late_ms.iter().copied())
        .collect();
    let sent: u64 = logs.iter().map(|log| log.sent).sum();
    let failed_queries: u64 = logs.iter().map(|log| log.failed).sum();
    eprintln!(
        "{}: {round} rounds; {} all-core and {} one-worker passes, {} devices timed {} times \
         (device_ms_tail is their p{:.0}) and {} queries timed; the generator ran at most \
         {:.2} ms late",
        workload.name,
        samples.all_cores.len(),
        samples.one.len(),
        device_ms.len(),
        DEVICE_PASS_REPEATS,
        tail * 100.0,
        timed_queries,
        late.iter().copied().fold(0.0, f64::max)
    );
    eprintln!(
        "  host factor (reference kernel {} ms / measured): median {:.3} over {} calls",
        host::REFERENCE_MS,
        factor,
        samples.host_factor.len()
    );
    Ok(RunResult {
        metrics: vec![
            ("setup_s", median(&samples.setup_s) * factor, "s"),
            (
                "devices_per_s",
                median(&samples.all_cores) / factor,
                "devices/s",
            ),
            (
                "devices_per_s_j1",
                median(&samples.one) / factor,
                "devices/s",
            ),
            ("device_ms_p50", median(&device_ms), "ms"),
            ("device_ms_tail", quantile(&device_ms, tail), "ms"),
            ("peak_rss_mb", median(&samples.peak_rss_mb), "MB"),
            (
                "device_ok_share",
                1.0 - samples.devices_abandoned as f64 / samples.devices_attempted.max(1) as f64,
                "ratio",
            ),
            ("query_ms_p50", median(&latency(0.5)), "ms"),
            ("query_ms_p99", median(&latency(0.99)), "ms"),
            ("query_late_ms", median(&late), "ms"),
            (
                "query_ok_share",
                1.0 - failed_queries as f64 / sent.max(1) as f64,
                "ratio",
            ),
        ],
        attempted: samples.devices_attempted + sent,
        failed: samples.devices_abandoned + failed_queries,
    })
}

/// Prints the result line: `metrics` only when `correct`.
fn print_result(correct: bool, result: &RunResult) {
    let metrics: Vec<String> = if correct {
        result
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect()
    } else {
        Vec::new()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2e-bench: {message}");
            std::process::exit(2);
        }
    };
    let Some(workload) = Workload::new(&args.workload, args.seed) else {
        eprintln!(
            "e2e-bench: unknown workload {:?} (fleet-mixed, fleet-longday, serve-query)",
            args.workload
        );
        std::process::exit(2);
    };
    if let Err(err) = std::fs::create_dir_all(".bench_out") {
        eprintln!("e2e-bench: creating .bench_out: {err}");
        std::process::exit(2);
    }
    let mut checks = Checks::new(&workload, args.seed);
    let result = if args.trace {
        layers::run_traced(&workload, args.seed, args.seconds, &mut checks)
    } else {
        run_end_to_end(&workload, args.seconds, &mut checks)
    };
    let result = match result {
        Ok(result) => result,
        Err(message) => {
            eprintln!("e2e-bench: {message}");
            std::process::exit(1);
        }
    };
    for (name, value, unit) in &result.metrics {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
        if !value.is_finite() {
            checks
                .errors
                .push(format!("metric {name} is not a finite number"));
        }
    }
    for error in &checks.errors {
        eprintln!("e2e-bench: FAILED: {error}");
    }
    let correct = checks.errors.is_empty();
    print_result(correct, &result);
    if !correct {
        std::process::exit(1);
    }
}
