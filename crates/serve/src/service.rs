//! The streaming fleet ingest service.
//!
//! ## Shape
//!
//! ```text
//! driver 0 ──SPSC──▶ shard worker 0 ──┐
//! driver 1 ──SPSC──▶ shard worker 1 ──┼─▶ FleetView (windows + slots)
//! driver L ──SPSC──▶ shard worker L ──┘      ▲
//!                                            │ snapshot/window/report
//!                    Unix socket server ─────┘   (line-delimited JSON)
//! ```
//!
//! Each *lane* is one bounded SPSC ring with one producer (a device
//! driver simulating the devices `index ≡ lane (mod lanes)`, under the
//! shared `ea-fleet` supervisor: retries, checkpoint salvage, chaos
//! panics) and one consumer (a shard worker folding events into the
//! shared [`FleetView`] and its own per-shard accumulator).
//!
//! ## Determinism
//!
//! The streamed [`FleetReport`] is **byte-identical** to the batch
//! engine's at any lane count, including under fault plans. Three rules
//! make that true:
//!
//! 1. per-device outcomes land in an index-keyed slot table and are
//!    folded in index order through the same
//!    [`ea_fleet::ReportFold`]-backed [`ea_fleet::aggregate`] the batch
//!    path uses (floating-point sums are order-sensitive; arrival order
//!    is not reproducible, index order is);
//! 2. per-shard drain sketches merge commutatively (integer bins), so
//!    shard scheduling cannot change the quantiles;
//! 3. supervision tallies are plain integer sums.
//!
//! Everything else the service maintains — windows, live prevalence,
//! snapshots — is observability and never feeds the report.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ea_corpus::{generate_corpus, CorpusConfig};
use ea_fleet::supervise::{install_quiet_hook, QuietPanicsGuard};
use ea_fleet::{aggregate, FleetConfig, FleetReport, SuperviseHooks, Supervision};
use ea_metrics::{FleetObservatory, FlightRecorder, QuantileSketch, SnapshotEmitter};

use crate::protocol::{Ack, LaneEvent, Request};
use crate::ring;
use crate::view::FleetView;

/// Events a shard worker drains from its lane per burst: one head-counter
/// store and one view lock amortize over up to this many events. Sized to
/// a fraction of the default ring so a burst never starves the producer.
const INGEST_BURST: usize = 64;

/// Configuration of one service run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The simulated fleet (sizes, seeds, faults, retry budget — the
    /// full batch-engine configuration, reused verbatim so the stream
    /// replays the exact same fleet).
    pub fleet: FleetConfig,
    /// Ingest lanes (driver/worker pairs); `0` means one per core.
    pub lanes: usize,
    /// Slots per SPSC ring. The default (1024) sits past the measured
    /// throughput knee — smaller rings keep the producer in its blocked
    /// path; growing past this buys nothing (see `serve_ingest` in the
    /// hotloop bench).
    pub ring_capacity: usize,
    /// Lane events per ingest window before it rolls.
    pub window_events: u64,
    /// Unix-socket path for snapshot queries; `None` disables the
    /// query server.
    pub socket: Option<PathBuf>,
    /// Keep serving queries after the stream drains, until a `shutdown`
    /// request arrives.
    pub hold: bool,
}

impl ServeConfig {
    /// A service over the given fleet with default lane sizing.
    #[must_use]
    pub fn new(fleet: FleetConfig) -> Self {
        ServeConfig {
            fleet,
            lanes: 0,
            ring_capacity: 1024,
            window_events: 64,
            socket: None,
            hold: false,
        }
    }

    /// The lane count this run will actually use.
    #[must_use]
    pub fn effective_lanes(&self) -> usize {
        let lanes = match self.lanes {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        lanes.max(1).min(self.fleet.size.max(1))
    }
}

/// Wall-clock facts about one service run; deliberately not part of the
/// deterministic report, like [`ea_fleet::FleetRunStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Ingest lanes used.
    pub lanes: usize,
    /// End-to-end wall time, milliseconds.
    pub wall_ms: f64,
    /// Lane events ingested across every shard.
    pub events_ingested: u64,
    /// Session checkpoints among those events.
    pub checkpoints_ingested: u64,
    /// Socket queries answered.
    pub queries_served: u64,
}

/// Locks a mutex, recovering the data from a poisoned lock (supervised
/// panics are already accounted; shared state stays the source of
/// truth).
fn lock_clean<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What one shard worker accumulates locally, merged into the run-wide
/// state when its lane drains. Only commutative pieces live here — the
/// sketch's integer bins merge in any order without changing a byte.
#[derive(Debug, Default)]
struct ShardAccumulator {
    drains: QuantileSketch,
    events: u64,
    checkpoints: u64,
}

/// Shared state the query server hands each connection.
#[derive(Clone, Copy)]
struct ServerShared<'a> {
    observatory: &'a FleetObservatory,
    view: &'a Mutex<FleetView>,
    report_json: &'a Mutex<Option<String>>,
    report_ready: &'a Condvar,
    stop: &'a AtomicBool,
    queries: &'a AtomicU64,
}

/// Runs the streaming service to completion: streams the configured
/// fleet through the ingest lanes, serves queries while it runs, and
/// returns the drained deterministic report plus wall-clock stats.
///
/// `emitter` (when enabled) receives an observatory snapshot roughly
/// every 250 ms and one final sample — the same snapshots the socket's
/// `snapshot` query serves.
///
/// # Errors
///
/// Only socket setup can fail (bind/permissions); the simulation itself
/// converts per-device panics into report entries.
pub fn run_serve(
    config: &ServeConfig,
    emitter: Option<&SnapshotEmitter<'_>>,
) -> std::io::Result<(FleetReport, ServeStats)> {
    install_quiet_hook();
    let started = Instant::now();

    let corpus = generate_corpus(
        &CorpusConfig {
            size: config.fleet.corpus_size,
            ..CorpusConfig::paper()
        },
        config.fleet.corpus_seed,
    );

    let size = config.fleet.size;
    let lanes = config.effective_lanes();

    let listener = match &config.socket {
        Some(path) => {
            // A stale socket file from a previous run would fail the
            // bind; the file is meaningless without its listener.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            Some(listener)
        }
        None => None,
    };

    let observatory = FleetObservatory::new(size, lanes);
    let view = Mutex::new(FleetView::new(size, config.window_events));
    let supervision = Mutex::new(Supervision::default());
    let merged_sketch = Mutex::new(QuantileSketch::default());
    let events_ingested = AtomicU64::new(0);
    let checkpoints_ingested = AtomicU64::new(0);
    let queries = AtomicU64::new(0);
    let report_json: Mutex<Option<String>> = Mutex::new(None);
    let report_ready = Condvar::new();
    let stop = AtomicBool::new(false);
    let stream_done = AtomicBool::new(false);

    let report = std::thread::scope(|scope| {
        let mut worker_handles = Vec::with_capacity(lanes);
        for lane_id in 0..lanes {
            let (producer, consumer) = ring::lane(config.ring_capacity);
            let corpus = &corpus;
            let observatory = &observatory;
            let supervision = &supervision;
            let fleet = &config.fleet;
            let view = &view;
            let merged_sketch = &merged_sketch;
            let events_ingested = &events_ingested;
            let checkpoints_ingested = &checkpoints_ingested;

            // Device driver: the lane's single producer.
            scope.spawn(move || {
                let _quiet = QuietPanicsGuard::enter();
                let mut tally = Supervision::default();
                let flight = (fleet.flight_recorder > 0)
                    .then(|| Arc::new(FlightRecorder::new(fleet.flight_recorder)));
                // One intent-log mirror per lane, reset per attempt by the
                // shared supervisor — crashed devices stream their replay
                // bundle through `LaneEvent::Crashed` like the batch path.
                let intents = Arc::new(ea_framework::IntentLogRecorder::new(
                    ea_framework::INTENT_LOG_CAPACITY,
                ));
                for index in (lane_id..size).step_by(lanes) {
                    if producer.push(LaneEvent::Join { index }).is_err() {
                        break; // shard worker died: lane can never drain
                    }
                    let device_started = Instant::now();
                    let on_checkpoint = |snapshot| {
                        let _ = producer.push(LaneEvent::Checkpoint { index, snapshot });
                    };
                    let hooks = SuperviseHooks {
                        flight: flight.as_ref(),
                        observatory: Some(observatory),
                        on_checkpoint: Some(&on_checkpoint),
                        intents: Some(&intents),
                    };
                    let outcome = ea_fleet::supervise::supervise_device(
                        fleet, corpus, index, &mut tally, &hooks,
                    );
                    observatory.worker_busy_add(
                        lane_id,
                        (device_started.elapsed().as_secs_f64() * 1e6) as u64,
                    );
                    let event = match outcome {
                        Ok(report) => LaneEvent::Completed(Box::new(report)),
                        Err(failure) => LaneEvent::Crashed(Box::new(failure)),
                    };
                    if producer.push(event).is_err() {
                        break;
                    }
                    if producer.push(LaneEvent::Leave { index }).is_err() {
                        break;
                    }
                }
                lock_clean(supervision).merge(&tally);
                // Dropping the producer closes the lane.
            });

            // Shard worker: the lane's single consumer. Events drain in
            // bursts — one head-counter store and one view lock per
            // burst instead of per event — which is what keeps a busy
            // lane's ingest cost amortized (see `ring::Consumer::
            // recv_slice` and the `serve_ingest` bench rows).
            worker_handles.push(scope.spawn(move || {
                let mut local = ShardAccumulator::default();
                let mut burst = Vec::with_capacity(INGEST_BURST);
                while consumer.recv_slice(&mut burst, INGEST_BURST) > 0 {
                    let mut guard = lock_clean(view);
                    for event in burst.drain(..) {
                        local.events += 1;
                        match &event {
                            LaneEvent::Checkpoint { .. } => local.checkpoints += 1,
                            LaneEvent::Completed(report) => {
                                local.drains.record(report.drained_joules);
                                observatory.device_completed(report.drained_joules);
                            }
                            LaneEvent::Crashed(_) => observatory.device_failed(),
                            LaneEvent::Join { .. } | LaneEvent::Leave { .. } => {}
                        }
                        guard.ingest(event);
                    }
                }
                lock_clean(merged_sketch).merge(&local.drains);
                events_ingested.fetch_add(local.events, Ordering::Relaxed);
                checkpoints_ingested.fetch_add(local.checkpoints, Ordering::Relaxed);
            }));
        }

        // Query server: poll-accept so the loop can notice the stop flag.
        if let Some(listener) = &listener {
            let shared = ServerShared {
                observatory: &observatory,
                view: &view,
                report_json: &report_json,
                report_ready: &report_ready,
                stop: &stop,
                queries: &queries,
            };
            let stop = &stop;
            scope.spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        scope.spawn(move || serve_connection(stream, &shared));
                    }
                    Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => break,
                }
            });
        }

        // Live sampler for --watch / --heartbeat.
        if emitter.is_some_and(SnapshotEmitter::enabled) {
            let observatory = &observatory;
            let stream_done = &stream_done;
            scope.spawn(move || {
                while !stream_done.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(250));
                    if stream_done.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Some(emitter) = emitter {
                        emitter.emit(&observatory.snapshot(), false);
                    }
                }
            });
        }

        // Drain: every lane closed and every buffered event ingested.
        for handle in worker_handles {
            let _ = handle.join();
        }
        stream_done.store(true, Ordering::Relaxed);

        // The deterministic fold: outcomes in index order through the
        // shared ReportFold, sketch merged commutatively, supervision
        // summed — the exact batch-engine recipe. The view keeps its
        // windows and totals so a held service still answers `window`.
        let outcomes = lock_clean(&view).take_outcomes();
        let health = lock_clean(&supervision).clone().health();
        let sketch = lock_clean(&merged_sketch).clone();
        let report = aggregate(&config.fleet, outcomes, health, Some(sketch));

        // Publish the report to any (present or future) `report` query.
        {
            let mut slot = lock_clean(&report_json);
            *slot = Some(compact_report_json(&report));
            report_ready.notify_all();
        }

        if listener.is_some() && config.hold {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
            }
        } else {
            stop.store(true, Ordering::Relaxed);
        }
        report
    });

    if let Some(emitter) = emitter {
        emitter.emit(&observatory.snapshot(), true);
    }
    if let Some(path) = &config.socket {
        let _ = std::fs::remove_file(path);
    }

    let stats = ServeStats {
        lanes,
        wall_ms: started.elapsed().as_secs_f64() * 1_000.0,
        events_ingested: events_ingested.load(Ordering::Relaxed),
        checkpoints_ingested: checkpoints_ingested.load(Ordering::Relaxed),
        queries_served: queries.load(Ordering::Relaxed),
    };
    Ok((report, stats))
}

/// One-line human summary of a service run, for stderr.
#[must_use]
pub fn stats_line(stats: &ServeStats) -> String {
    format!(
        "serve: {} lanes, {} events ({} checkpoints) ingested, {} queries, {:.0} ms",
        stats.lanes,
        stats.events_ingested,
        stats.checkpoints_ingested,
        stats.queries_served,
        stats.wall_ms,
    )
}

/// Compact single-line JSON of the final report (the `report` query's
/// wire form; the pretty rendering stays on the CLI).
fn compact_report_json(report: &FleetReport) -> String {
    serde_json::to_string(report)
        .unwrap_or_else(|err| format!("{{\"error\":\"report failed to serialize: {err}\"}}"))
}

/// Serves one socket connection: line-delimited JSON requests, one JSON
/// line per response.
fn serve_connection(stream: UnixStream, shared: &ServerShared<'_>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let parsed = Request::parse(&line);
        let reply = match parsed {
            Ok(request) => {
                shared.queries.fetch_add(1, Ordering::Relaxed);
                respond(request, shared)
            }
            Err(ref message) => format!("{{\"error\":{}}}", quote_json(message)),
        };
        if writeln!(writer, "{reply}").is_err() {
            break;
        }
        if parsed == Ok(Request::Shutdown) {
            break;
        }
    }
}

/// Computes the response line for one parsed request.
fn respond(request: Request, shared: &ServerShared<'_>) -> String {
    match request {
        Request::Ping => {
            serde_json::to_string(&Ack::new()).unwrap_or_else(|_| String::from("{\"ok\":true}"))
        }
        Request::Snapshot => shared.observatory.snapshot().to_jsonl(),
        Request::Window => {
            let window = lock_clean(shared.view).window();
            serde_json::to_string(&window)
                .unwrap_or_else(|err| format!("{{\"error\":\"window: {err}\"}}"))
        }
        Request::Report => {
            let mut guard = lock_clean(shared.report_json);
            loop {
                if let Some(json) = guard.as_ref() {
                    return json.clone();
                }
                guard = shared
                    .report_ready
                    .wait(guard)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        Request::Shutdown => {
            shared.stop.store(true, Ordering::Relaxed);
            serde_json::to_string(&Ack::new()).unwrap_or_else(|_| String::from("{\"ok\":true}"))
        }
    }
}

/// JSON-quotes an error message.
fn quote_json(message: &str) -> String {
    serde_json::to_string(message).unwrap_or_else(|_| String::from("\"bad request\""))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_fleet::run_fleet;

    #[test]
    fn stream_replay_matches_batch_bytes() {
        let fleet = FleetConfig::smoke(6, 91);
        let (batch, _) = run_fleet(&fleet);
        for lanes in [1, 3] {
            let config = ServeConfig {
                lanes,
                ..ServeConfig::new(fleet.clone())
            };
            let (streamed, stats) = run_serve(&config, None).expect("no socket: cannot fail");
            assert_eq!(
                ea_fleet::render::to_json(&batch),
                ea_fleet::render::to_json(&streamed),
                "lane count {lanes} changed the report"
            );
            assert_eq!(stats.lanes, lanes);
            // join + N checkpoints + outcome + leave per device.
            assert!(stats.events_ingested >= (3 * fleet.size) as u64);
            assert!(stats.checkpoints_ingested > 0);
        }
    }

    #[test]
    fn crashed_devices_flow_through_the_stream() {
        let fleet = FleetConfig {
            panic_devices: vec![1],
            max_retries: 1,
            ..FleetConfig::smoke(4, 17)
        };
        let config = ServeConfig {
            lanes: 2,
            ..ServeConfig::new(fleet.clone())
        };
        let (streamed, _) = run_serve(&config, None).expect("no socket: cannot fail");
        let (batch, _) = run_fleet(&fleet);
        assert_eq!(streamed.failures.len(), 1);
        assert_eq!(streamed.failures[0].index, 1);
        assert_eq!(
            ea_fleet::render::to_json(&batch),
            ea_fleet::render::to_json(&streamed)
        );
    }
}
