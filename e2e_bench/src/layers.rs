//! The traced run: spans around the benchmark's own calls into each
//! layer's public functions, and the per-layer metrics built from them.
//!
//! The device script's own draws are private to `ea-fleet`, so the
//! framework, lint and profiler layers are timed on probe handsets the
//! benchmark builds itself: app mixes drawn from the workload's corpus
//! with its app-count range and infection rate. `probe.coverage` says
//! how much of a device's wall those probes account for.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use ea_apps::demo::packages as demo;
use ea_apps::malware::Malware;
use ea_apps::DemoApps;
use ea_core::{Profiler, ScreenPolicy};
use ea_fleet::supervise::supervise_device;
use ea_fleet::{
    aggregate, render, run_fleet, DeviceFailure, DeviceReport, FleetConfig, SuperviseHooks,
    Supervision,
};
use ea_framework::{AndroidSystem, AppManifest};
use ea_lint::{AppFacts, LintContext, Linter};
use ea_metrics::{FleetObservatory, QuantileSketch};
use ea_serve::{ring, FleetView, LaneEvent, ServeConfig};
use ea_sim::{splitmix64_stream, SimDuration, SimRng};

use crate::stats::{mean, median};
use crate::trace::{Tracer, NO_DEVICE};
use crate::{host, nproc, serve_pass, Checks, Metric, RunResult, Workload};

/// Devices per alternation of the untraced and the traced device pass.
const CHUNK: usize = 16;

/// Calls per timing of the cheap read paths (`window`, `snapshot`).
const READ_REPS: usize = 1_000;

/// Corpus generations timed.
const CORPUS_REPS: usize = 5;

/// Per-device sums of the probe layers.
#[derive(Default)]
struct Probes {
    devices: usize,
    apps: usize,
    diagnostics: usize,
    phase_iterations: usize,
    reach_relaxations: usize,
    profiler_steps: u64,
}

/// Installs a probe handset for device `index` and times the framework,
/// lint and profiler layers on it.
fn probe_device(
    tracer: &mut Tracer,
    workload: &Workload,
    corpus: &[AppManifest],
    probe_seed: u64,
    index: usize,
    probes: &mut Probes,
) {
    let fleet = &workload.fleet;
    let id = index as u64;
    let mut rng = SimRng::seed(splitmix64_stream(probe_seed, id));
    let lo = fleet.min_apps.min(corpus.len());
    let hi = fleet.max_apps.clamp(lo, corpus.len());
    let count = lo + rng.range_u64(0, (hi - lo + 1) as u64) as usize;
    let mut picks: Vec<usize> = Vec::with_capacity(count);
    while picks.len() < count {
        let pick = rng.range_u64(0, corpus.len() as u64) as usize;
        if !picks.contains(&pick) {
            picks.push(pick);
        }
    }
    let manifests: Vec<AppManifest> = picks.iter().map(|&i| corpus[i].clone()).collect();
    // The apps the device script's user launches: its corpus apps and the
    // demo apps besides the camera.
    let mut packages: Vec<String> = manifests.iter().map(|m| m.package.clone()).collect();
    packages.extend(
        [
            demo::MESSAGE,
            demo::CONTACTS,
            demo::MUSIC,
            demo::VICTIM,
            demo::VICTIM2,
        ]
        .map(String::from),
    );
    let infected = rng.chance(fleet.infection_rate);

    let mut android = tracer.span("framework.install", id, |_| {
        let mut android = AndroidSystem::new();
        for manifest in manifests {
            android.install(manifest);
        }
        DemoApps::install_all(&mut android);
        if infected {
            Malware::install(&mut android);
        }
        android
    });
    let facts: Vec<AppFacts> = tracer.span("lint.facts", id, |_| {
        android.user_apps().map(AppFacts::from_installed).collect()
    });
    probes.apps += facts.len();
    let context = tracer.span("lint.solve", id, |_| LintContext::new(facts));
    let report = tracer.span("lint.rules", id, |_| Linter::new().run(&context));
    let solver = context.absint().stats();
    probes.diagnostics += report.len();
    probes.phase_iterations += solver.phase_iterations;
    probes.reach_relaxations += solver.reach_relaxations;

    // The workload's day in the mean: each session starts every app of
    // the script, keeps the last one in front and on Wi-Fi and the user touching
    // the screen every second for the mean session length; then the radio
    // goes quiet and the phone idles in the pocket for the mean idle time.
    let step = SimDuration::from_millis(fleet.step_millis.max(1));
    let mut profiler = Profiler::eandroid(ScreenPolicy::SeparateEntity)
        .with_step(step)
        .with_batch_kernel(fleet.batch_kernel);
    let attended = fleet.mean_session_secs.max(1);
    let idle = fleet.mean_idle_secs.max(1);
    for _ in 0..fleet.sessions.max(1) {
        android.user_unlock();
        for package in &packages {
            let _ = android.user_launch(package);
        }
        let foreground = android.foreground_uid();
        tracer.span("profiler.run", id, |_| {
            if let Some(uid) = foreground {
                android.set_wifi_kbps(uid, 1_000.0);
            }
            for _ in 0..attended {
                android.note_user_activity();
                profiler.run(&mut android, SimDuration::from_secs(1));
            }
            if let Some(uid) = foreground {
                android.set_wifi_kbps(uid, 0.0);
            }
            profiler.run(&mut android, SimDuration::from_secs(idle));
        });
        probes.profiler_steps += (attended + idle) * 1_000 / step.as_millis().max(1);
    }
    probes.devices += 1;
}

/// Supervises device `index`, appending the lane events a serve lane
/// would carry for it to `events`; the call is a `fleet.device` span when
/// `tracer` is given.
#[allow(clippy::result_large_err)]
fn stream_device(
    fleet: &FleetConfig,
    corpus: &[AppManifest],
    index: usize,
    tally: &mut Supervision,
    events: &RefCell<Vec<LaneEvent>>,
    tracer: Option<&mut Tracer>,
) -> Result<DeviceReport, DeviceFailure> {
    events.borrow_mut().push(LaneEvent::Join { index });
    let forward = |snapshot| {
        events
            .borrow_mut()
            .push(LaneEvent::Checkpoint { index, snapshot })
    };
    let hooks = SuperviseHooks {
        on_checkpoint: Some(&forward),
        ..SuperviseHooks::default()
    };
    let outcome = match tracer {
        Some(tracer) => tracer.span("fleet.device", index as u64, |_| {
            supervise_device(fleet, corpus, index, tally, &hooks)
        }),
        None => supervise_device(fleet, corpus, index, tally, &hooks),
    };
    let event = match &outcome {
        Ok(device) => LaneEvent::Completed(Box::new(device.clone())),
        Err(failure) => LaneEvent::Crashed(Box::new(failure.clone())),
    };
    events
        .borrow_mut()
        .extend([event, LaneEvent::Leave { index }]);
    outcome
}

/// Nanoseconds per call of `f`, over `reps` calls inside one span.
fn per_call_ns<R>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let started = Instant::now();
    tracer.span(name, NO_DEVICE, |_| {
        for _ in 0..reps {
            std::hint::black_box(f());
        }
    });
    started.elapsed().as_nanos() as f64 / reps as f64
}

/// One producer thread pushes `events` through an ingest lane while this
/// thread drains it in bursts, as a serve lane does; nanoseconds per event.
fn ring_ns_per_event(events: Vec<LaneEvent>, capacity: usize) -> f64 {
    let count = events.len().max(1);
    let (producer, consumer) = ring::lane(capacity);
    let started = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for event in events {
                if producer.push(event).is_err() {
                    break;
                }
            }
        });
        let mut burst = Vec::with_capacity(64);
        while consumer.recv_slice(&mut burst, 64) > 0 {
            burst.clear();
        }
    });
    started.elapsed().as_nanos() as f64 / count as f64
}

/// The traced run: every per-layer metric.
pub fn run_traced(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<RunResult, String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let nproc = nproc();
    let fleet = &workload.fleet;
    let size = fleet.size;
    let mut tracer = Tracer::new();
    let mut host_factors = vec![host::calibrated(|| ()).1];

    let mut corpus = Vec::new();
    for _ in 0..CORPUS_REPS {
        corpus = tracer.span("corpus.generate", NO_DEVICE, |_| workload.corpus());
    }
    let corpus_ms = tracer.total_ns("corpus.generate") as f64 / 1e6 / CORPUS_REPS as f64;

    let (report, run_stats) = tracer.span("fleet.run_fleet", NO_DEVICE, |_| {
        run_fleet(&workload.with_jobs(nproc))
    });
    checks.report("fleet jobs=nproc", &report);

    // Untraced and traced device passes alternate chunk by chunk, so the
    // difference between them is the spans' cost, not drift. Both collect
    // the lane events a serve lane would carry.
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    let mut tally = Supervision::default();
    let mut spare = Supervision::default();
    let mut sketch = QuantileSketch::default();
    let events: RefCell<Vec<LaneEvent>> = RefCell::new(Vec::new());
    let scratch: RefCell<Vec<LaneEvent>> = RefCell::new(Vec::new());
    let mut outcomes = Vec::with_capacity(size);
    let mut probes = Probes::default();
    let probe_seed = splitmix64_stream(fleet.seed, u64::MAX);
    let mut unsound_devices = 0;
    tracer.span("bench.devices", NO_DEVICE, |tracer| {
        for (n, lo) in (0..size).step_by(CHUNK).enumerate() {
            let chunk = lo..(lo + CHUNK).min(size);
            // Alternate which pass goes first, so warm caches favour neither.
            for traced in [n % 2 == 1, n % 2 == 0] {
                let started = Instant::now();
                if traced {
                    for index in chunk.clone() {
                        outcomes.push(stream_device(
                            fleet,
                            &corpus,
                            index,
                            &mut tally,
                            &events,
                            Some(&mut *tracer),
                        ));
                    }
                    traced_s += started.elapsed().as_secs_f64();
                } else {
                    for index in chunk.clone() {
                        let outcome =
                            stream_device(fleet, &corpus, index, &mut spare, &scratch, None);
                        std::hint::black_box(outcome.is_ok());
                    }
                    untraced_s += started.elapsed().as_secs_f64();
                    scratch.borrow_mut().clear();
                }
            }
            for index in chunk {
                probe_device(tracer, workload, &corpus, probe_seed, index, &mut probes);
            }
        }
    });
    host_factors.push(host::calibrated(|| ()).1);
    let events = events.into_inner();
    let devices: Vec<&DeviceReport> = outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
    for device in &devices {
        sketch.record(device.drained_joules);
        unsound_devices += usize::from(device.soundness_violations > 0);
    }
    if unsound_devices > 0 {
        checks.errors.push(format!(
            "traced device pass: {unsound_devices} devices with lint soundness violations"
        ));
    }
    let sim_s: Vec<f64> = devices.iter().map(|d| d.sim_seconds).collect();
    let step_s = fleet.step_millis.max(1) as f64 / 1e3;
    let steps_per_device = mean(&sim_s) / step_s;
    let observatory = FleetObservatory::new(size, nproc);
    for device in &devices {
        observatory.device_completed(device.drained_joules);
    }
    let first_try_share = 1.0 - tally.retried as f64 / size.max(1) as f64;
    let retries = tally.retried;
    let folded = tracer.span("fleet.aggregate", NO_DEVICE, |_| {
        aggregate(fleet, outcomes, tally.health(), Some(sketch))
    });
    checks.report("traced device pass", &folded);
    let json = tracer.span("fleet.render", NO_DEVICE, |_| render::to_json(&folded));
    std::hint::black_box(json);

    // Serve: the view and the ring over this run's own lane events, the
    // read paths, then socket passes until the time is up.
    let serve_defaults = ServeConfig::new(fleet.clone());
    let mut ingest_ns = Vec::new();
    let mut replay = || {
        let mut view = FleetView::new(size, serve_defaults.window_events);
        let batch = events.clone();
        let started = Instant::now();
        tracer.span("serve.view_ingest", NO_DEVICE, |_| {
            for event in batch {
                view.ingest(event);
            }
        });
        ingest_ns.push(started.elapsed().as_nanos() as f64 / events.len().max(1) as f64);
        view
    };
    replay();
    replay();
    let view = replay();
    let window_us = per_call_ns(&mut tracer, "serve.window", READ_REPS, || view.window()) / 1e3;
    let mut ring_ns = Vec::new();
    for _ in 0..3 {
        let batch = events.clone();
        ring_ns.push(tracer.span("serve.ring", NO_DEVICE, |_| {
            ring_ns_per_event(batch, serve_defaults.ring_capacity)
        }));
    }
    let snapshot_us = per_call_ns(&mut tracer, "metrics.snapshot", READ_REPS, || {
        observatory.snapshot()
    }) / 1e3;

    let mut serve_stats = None;
    let mut devices_run = (2 * size + report.fleet_size) as u64;
    let mut abandoned = (report.failures.len() + folded.failures.len()) as u64;
    let (mut sent, mut failed_queries) = (0, 0);
    let mut new_ms = Vec::new();
    let mut held_ms = Vec::new();
    let mut passes = 0;
    while serve_stats.is_none() || start.elapsed() < budget {
        passes += 1;
        let pass = tracer.span("serve.run_serve", NO_DEVICE, |_| {
            serve_pass(fleet, nproc, splitmix64_stream(probe_seed, passes), true)
        })?;
        checks.report(&format!("serve lanes={nproc}"), &pass.report);
        checks.report_reply(pass.queries.report.as_deref());
        let log = &pass.queries;
        new_ms.extend(
            log.latency_ms
                .iter()
                .zip(&log.late_ms)
                .map(|(total, late)| total - late),
        );
        held_ms.extend(&log.held_ms);
        devices_run += pass.report.fleet_size as u64;
        abandoned += pass.report.failures.len() as u64;
        sent += log.sent;
        failed_queries += log.failed;
        serve_stats = Some(pass.stats);
    }
    let serve_stats = serve_stats.unwrap_or_else(|| unreachable!("at least one serve pass ran"));
    host_factors.push(host::calibrated(|| ()).1);
    // CPU times are scaled to the reference host like the end-to-end
    // ones; the accept wait is a sleep, like the query latencies.
    let host_factor = median(&host_factors);
    let t = |value: f64| value * host_factor;

    let per_device_us =
        |name: &str| tracer.total_ns(name) as f64 / 1e3 / probes.devices.max(1) as f64;
    let device_us = tracer.total_ns("fleet.device") as f64 / 1e3 / size.max(1) as f64;
    let install_us = per_device_us("framework.install");
    let facts_us = per_device_us("lint.facts");
    let solve_us = per_device_us("lint.solve");
    let rules_us = per_device_us("lint.rules");
    let lint_us = facts_us + solve_us + rules_us;
    let step_ns = tracer.total_ns("profiler.run") as f64 / probes.profiler_steps.max(1) as f64;
    let profiler_us = step_ns * steps_per_device / 1e3;
    let per_probe = |count: usize| count as f64 / probes.devices.max(1) as f64;

    let spans_path = format!(".bench_out/spans-{}-{seed}.jsonl", workload.name);
    std::fs::write(&spans_path, tracer.to_jsonl())
        .map_err(|err| format!("writing {spans_path}: {err}"))?;
    let self_ns = tracer.self_ns_by_layer();
    let self_ms = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6;

    eprintln!(
        "{}: {size} devices traced, {} spans in {spans_path}; retries {retries}",
        workload.name,
        tracer.spans().len()
    );
    eprintln!(
        "  shares of the unscaled fleet.device_us = {device_us:.1} us: lint {:.3}, profiler {:.3}, probe coverage {:.3}",
        lint_us / device_us,
        profiler_us / device_us,
        (install_us + lint_us + profiler_us) / device_us
    );
    eprintln!(
        "  tracing overhead {:.1} ms on an untraced device pass of {:.1} ms",
        (traced_s - untraced_s) * 1e3,
        untraced_s * 1e3
    );

    let metrics: Vec<Metric> = vec![
        ("corpus.generate_ms", t(corpus_ms), "ms"),
        ("corpus.apps", corpus.len() as f64, "count"),
        ("framework.install_us", t(install_us), "us"),
        (
            "framework.apps_installed",
            per_probe(probes.apps),
            "count/device",
        ),
        ("lint.facts_us", t(facts_us), "us"),
        ("lint.solve_us", t(solve_us), "us"),
        ("lint.rules_us", t(rules_us), "us"),
        (
            "lint.phase_iterations",
            per_probe(probes.phase_iterations),
            "count/device",
        ),
        (
            "lint.reach_relaxations",
            per_probe(probes.reach_relaxations),
            "count/device",
        ),
        ("lint.apps", per_probe(probes.apps), "count/device"),
        (
            "lint.diagnostics",
            per_probe(probes.diagnostics),
            "count/device",
        ),
        ("lint.share", lint_us / device_us, "ratio"),
        ("profiler.step_ns", t(step_ns), "ns"),
        ("profiler.steps", steps_per_device, "count/device"),
        ("profiler.sim_s", mean(&sim_s), "s"),
        ("profiler.share", profiler_us / device_us, "ratio"),
        (
            "probe.coverage",
            (install_us + lint_us + profiler_us) / device_us,
            "ratio",
        ),
        ("fleet.device_us", t(device_us), "us"),
        (
            "fleet.day_residual_us",
            t(device_us - install_us - lint_us),
            "us",
        ),
        (
            "fleet.aggregate_ms",
            t(tracer.total_ns("fleet.aggregate") as f64 / 1e6),
            "ms",
        ),
        (
            "fleet.render_ms",
            t(tracer.total_ns("fleet.render") as f64 / 1e6),
            "ms",
        ),
        ("fleet.first_try_share", first_try_share, "ratio"),
        (
            "fleet.worker_busy",
            mean(&run_stats.worker_utilization),
            "ratio",
        ),
        ("serve.events", serve_stats.events_ingested as f64, "count"),
        (
            "serve.checkpoints",
            serve_stats.checkpoints_ingested as f64,
            "count",
        ),
        ("serve.view_ingest_ns", t(median(&ingest_ns)), "ns"),
        ("serve.window_us", t(window_us), "us"),
        ("serve.ring_ns", t(median(&ring_ns)), "ns"),
        (
            "serve.accept_wait_ms",
            median(&new_ms) - median(&held_ms),
            "ms",
        ),
        ("metrics.snapshot_us", t(snapshot_us), "us"),
        ("trace.untraced_ms", t(untraced_s * 1e3), "ms"),
        ("trace.overhead_ms", t((traced_s - untraced_s) * 1e3), "ms"),
        (
            "trace.overhead_share",
            (traced_s - untraced_s) / untraced_s,
            "ratio",
        ),
        ("host.factor", host_factor, "ratio"),
        ("bench.self_ms", t(self_ms("bench")), "ms"),
        ("corpus.self_ms", t(self_ms("corpus")), "ms"),
        ("framework.self_ms", t(self_ms("framework")), "ms"),
        ("lint.self_ms", t(self_ms("lint")), "ms"),
        ("profiler.self_ms", t(self_ms("profiler")), "ms"),
        ("fleet.self_ms", t(self_ms("fleet")), "ms"),
        ("serve.self_ms", t(self_ms("serve")), "ms"),
        ("metrics.self_ms", t(self_ms("metrics")), "ms"),
    ];
    Ok(RunResult {
        metrics,
        attempted: devices_run + sent,
        failed: abandoned + failed_queries,
    })
}
