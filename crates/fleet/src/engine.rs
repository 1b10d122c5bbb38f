//! The sharded fleet engine: a std-only worker pool over the device
//! index space.
//!
//! ## Sharding model
//!
//! Device indices are grouped into small contiguous *shards*; workers
//! claim the next unclaimed shard from a shared atomic cursor and
//! simulate its devices one by one. Claiming shards instead of single
//! devices keeps the cursor cold, and claiming dynamically (rather than
//! pre-splitting the range) self-balances: a worker that drew cheap
//! devices steals the shards a slow worker never reached.
//!
//! ## Determinism contract
//!
//! Which worker simulates a device affects nothing: device seeds are a
//! pure function of `(fleet_seed, index)`, each simulation owns all of
//! its state, and results are written into a slot vector by device index
//! before [`crate::aggregate`] folds them in index order. The same
//! `(seed, size)` therefore yields a byte-identical [`FleetReport`] at
//! any `--jobs`.
//!
//! ## Failure handling
//!
//! A panicking device is caught with [`std::panic::catch_unwind`] on the
//! worker, recorded as a [`DeviceFailure`], and never aborts the run; the
//! default panic hook is wrapped once so worker panics do not spray the
//! terminal while everyone else's devices keep simulating.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ea_corpus::{generate_corpus, CorpusConfig};
use ea_metrics::{FleetObservatory, FlightRecorder, QuantileSketch};
use ea_telemetry::{span, SinkHandle};
use serde::{Deserialize, Serialize};

use crate::aggregate::{aggregate, DeviceFailure};
use crate::config::FleetConfig;
use crate::device::DeviceReport;
use crate::supervise::{
    install_quiet_hook, supervise_device, QuietPanicsGuard, SuperviseHooks, Supervision,
};
use crate::FleetReport;

/// Wall-clock facts about one engine run. Deliberately *not* part of
/// [`FleetReport`]: timing varies run to run, the report must not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRunStats {
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall time, milliseconds (corpus generation included).
    pub wall_ms: f64,
    /// Completed devices per wall-clock second.
    pub devices_per_sec: f64,
    /// Per-worker busy ratio (device time / run wall time), `0.0..=1.0`.
    pub worker_utilization: Vec<f64>,
}

/// Locks a mutex, recovering the data from a poisoned lock: a worker
/// panic is already caught and accounted as a [`DeviceFailure`], so the
/// shared state it held remains the source of truth.
fn lock_clean<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Consumes a mutex, recovering from poison the same way as
/// [`lock_clean`].
fn into_clean<T>(mutex: Mutex<T>) -> T {
    mutex
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs the fleet with no telemetry.
pub fn run_fleet(config: &FleetConfig) -> (FleetReport, FleetRunStats) {
    run_fleet_traced(config, SinkHandle::noop())
}

/// Runs the fleet, reporting spans, counters, and per-worker utilization
/// gauges through `sink`.
pub fn run_fleet_traced(config: &FleetConfig, sink: SinkHandle) -> (FleetReport, FleetRunStats) {
    run_fleet_observed(config, sink, None)
}

/// [`run_fleet_traced`] with a live [`FleetObservatory`]: workers update
/// it as devices finish, so a concurrent watcher thread can sample
/// snapshots mid-run. The observatory is strictly observational — the
/// returned report is byte-identical with or without one.
pub fn run_fleet_observed(
    config: &FleetConfig,
    sink: SinkHandle,
    observatory: Option<&FleetObservatory>,
) -> (FleetReport, FleetRunStats) {
    install_quiet_hook();
    let started = Instant::now();
    let _run_span = span(sink.sink(), "fleet_run");

    let corpus = {
        let _corpus_span = span(sink.sink(), "fleet_corpus_generate");
        generate_corpus(
            &CorpusConfig {
                size: config.corpus_size,
                ..CorpusConfig::paper()
            },
            config.corpus_seed,
        )
    };

    let size = config.size;
    let jobs = config.effective_jobs().max(1).min(size.max(1));
    // Small shards: cheap claims, good balance. At least one device each.
    let shard_size = (size / (jobs * 8).max(1)).clamp(1, 32);
    let shard_count = size.div_ceil(shard_size.max(1)).max(1);

    let next_shard = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<DeviceReport, DeviceFailure>>>> =
        Mutex::new((0..size).map(|_| None).collect());
    let busy: Mutex<Vec<f64>> = Mutex::new(vec![0.0; jobs]);
    let supervision: Mutex<Supervision> = Mutex::new(Supervision::default());
    // Per-worker drain sketches merge here at worker exit; the merge is
    // commutative, so worker scheduling cannot change the final sketch.
    let drain_sketch: Mutex<QuantileSketch> = Mutex::new(QuantileSketch::default());

    std::thread::scope(|scope| {
        for worker in 0..jobs {
            let corpus = &corpus;
            let next_shard = &next_shard;
            let slots = &slots;
            let busy = &busy;
            let supervision = &supervision;
            let drain_sketch = &drain_sketch;
            let sink = sink.clone();
            scope.spawn(move || {
                let _quiet = QuietPanicsGuard::enter();
                let mut busy_secs = 0.0;
                let mut tally = Supervision::default();
                let mut local_sketch = QuantileSketch::default();
                let flight = (config.flight_recorder > 0)
                    .then(|| Arc::new(FlightRecorder::new(config.flight_recorder)));
                // One intent-log mirror per worker, reset per attempt by
                // the supervisor: every abandoned device ships its log
                // tail for `eandroid replay`.
                let intents = Arc::new(ea_framework::IntentLogRecorder::new(
                    ea_framework::INTENT_LOG_CAPACITY,
                ));
                loop {
                    let shard = next_shard.fetch_add(1, Ordering::Relaxed);
                    if shard >= shard_count {
                        break;
                    }
                    let lo = shard * shard_size;
                    let hi = ((shard + 1) * shard_size).min(size);
                    for index in lo..hi {
                        let device_started = Instant::now();
                        let hooks = SuperviseHooks {
                            flight: flight.as_ref(),
                            observatory,
                            on_checkpoint: None,
                            intents: Some(&intents),
                        };
                        let outcome = supervise_device(config, corpus, index, &mut tally, &hooks);
                        let device_secs = device_started.elapsed().as_secs_f64();
                        busy_secs += device_secs;
                        if sink.enabled() {
                            sink.observe("fleet_device_wall_ms", device_secs * 1_000.0);
                            match &outcome {
                                Ok(_) => sink.counter_add("fleet_devices_completed_total", 1),
                                Err(_) => sink.counter_add("fleet_devices_failed_total", 1),
                            }
                        }
                        match &outcome {
                            Ok(report) => {
                                local_sketch.record(report.drained_joules);
                                if let Some(observatory) = observatory {
                                    observatory.device_completed(report.drained_joules);
                                }
                            }
                            Err(_) => {
                                if let Some(observatory) = observatory {
                                    observatory.device_failed();
                                }
                            }
                        }
                        if let Some(observatory) = observatory {
                            observatory.worker_busy_add(worker, (device_secs * 1e6) as u64);
                        }
                        lock_clean(slots)[index] = Some(outcome);
                    }
                }
                lock_clean(busy)[worker] = busy_secs;
                lock_clean(drain_sketch).merge(&local_sketch);
                lock_clean(supervision).merge(&tally);
            });
        }
    });

    // The Err arm carries the full forensics bundle; it only exists on
    // the cold abandonment path, so its size is irrelevant here.
    #[allow(clippy::result_large_err)]
    let outcomes: Vec<Result<DeviceReport, DeviceFailure>> = into_clean(slots)
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| unreachable!("every device index was claimed")))
        .collect();

    let health = into_clean(supervision).health();

    let report = {
        let _merge_span = span(sink.sink(), "fleet_merge");
        let sketch = into_clean(drain_sketch);
        aggregate(config, outcomes, health, Some(sketch))
    };

    let wall_secs = started.elapsed().as_secs_f64();
    let worker_utilization: Vec<f64> = into_clean(busy)
        .into_iter()
        .map(|busy_secs| {
            if wall_secs > 0.0 {
                (busy_secs / wall_secs).min(1.0)
            } else {
                0.0
            }
        })
        .collect();
    if sink.enabled() {
        sink.gauge_set("fleet_devices_total", size as f64);
        for (worker, utilization) in worker_utilization.iter().enumerate() {
            sink.gauge_set(&format!("fleet_worker_{worker}_utilization"), *utilization);
        }
    }
    let stats = FleetRunStats {
        jobs,
        wall_ms: wall_secs * 1_000.0,
        devices_per_sec: if wall_secs > 0.0 {
            report.devices_completed as f64 / wall_secs
        } else {
            0.0
        },
        worker_utilization,
    };
    (report, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::device_seed;
    use ea_telemetry::Recorder;
    use std::sync::Arc;

    #[test]
    fn fleet_run_completes_every_device() {
        let config = FleetConfig {
            jobs: 2,
            ..FleetConfig::smoke(6, 21)
        };
        let (report, stats) = run_fleet(&config);
        assert_eq!(report.devices_completed, 6);
        assert!(report.failures.is_empty());
        assert_eq!(report.devices.len(), 6);
        assert_eq!(stats.jobs, 2);
        assert!(stats.wall_ms > 0.0);
        assert_eq!(stats.worker_utilization.len(), 2);
    }

    #[test]
    fn jobs_never_changes_the_report() {
        let mut config = FleetConfig::smoke(5, 1_234);
        config.jobs = 1;
        let (sequential, _) = run_fleet(&config);
        config.jobs = 4;
        let (parallel, _) = run_fleet(&config);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn panicking_device_becomes_a_failure_entry() {
        let config = FleetConfig {
            jobs: 2,
            panic_devices: vec![1],
            ..FleetConfig::smoke(4, 9)
        };
        let (report, _) = run_fleet(&config);
        assert_eq!(report.devices_completed, 3);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].index, 1);
        assert!(report.failures[0].message.contains("injected fault"));
        assert_eq!(report.failures[0].seed, device_seed(config.seed, 1));
        // The surviving devices are fully aggregated.
        assert_eq!(report.devices.len(), 3);
        assert!(report.drain_joules.max > 0.0);
    }

    #[test]
    fn chaos_panics_are_retried_and_survivors_recover() {
        let config = FleetConfig {
            jobs: 2,
            faults: Some(ea_chaos::FaultPlan {
                seed: 77,
                rates: ea_chaos::FaultRates {
                    device_panic: 0.5,
                    ..ea_chaos::FaultRates::ZERO
                },
            }),
            ..FleetConfig::smoke(8, 31)
        };
        let (report, _) = run_fleet(&config);
        let health = &report.health;
        let injected = health
            .faults_injected
            .get("device_panic")
            .copied()
            .unwrap_or(0);
        assert!(injected > 0, "panics actually fired");
        assert_eq!(
            health.faults_detected.get("device_panic").copied(),
            Some(injected),
            "the supervisor caught every injected panic"
        );
        assert!(health.devices_retried > 0);
        assert_eq!(
            report.devices_completed + health.devices_abandoned,
            config.size,
            "every device either completed or was abandoned on record"
        );
        for failure in &report.failures {
            assert_eq!(failure.attempts, config.max_retries + 1);
            assert!(failure.message.contains("chaos"));
        }
    }

    #[test]
    fn zero_rate_plan_is_byte_identical_to_no_plan() {
        let bare_config = FleetConfig::smoke(4, 5);
        let (bare, _) = run_fleet(&bare_config);
        let zero_config = FleetConfig {
            faults: Some(ea_chaos::FaultPlan::zero(123)),
            ..bare_config
        };
        let (zeroed, _) = run_fleet(&zero_config);
        assert_eq!(
            crate::render::to_json(&bare),
            crate::render::to_json(&zeroed)
        );
    }

    #[test]
    fn faulted_fleet_report_is_jobs_independent() {
        let mut config = FleetConfig {
            faults: Some(ea_chaos::FaultPlan::uniform(9, 0.3)),
            ..FleetConfig::smoke(6, 44)
        };
        config.jobs = 1;
        let (sequential, _) = run_fleet(&config);
        config.jobs = 4;
        let (parallel, _) = run_fleet(&config);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn telemetry_reports_completion_counters_and_utilization() {
        let recorder = Arc::new(Recorder::new());
        let config = FleetConfig {
            jobs: 2,
            panic_devices: vec![0],
            ..FleetConfig::smoke(4, 2)
        };
        let (_, stats) = run_fleet_traced(&config, SinkHandle::new(recorder.clone()));
        let metrics = recorder.metrics();
        assert_eq!(
            metrics.counters.get("fleet_devices_completed_total"),
            Some(&3)
        );
        assert_eq!(metrics.counters.get("fleet_devices_failed_total"), Some(&1));
        assert!(metrics.gauges.contains_key("fleet_worker_0_utilization"));
        assert!(recorder
            .spans()
            .iter()
            .any(|span_record| span_record.name == "fleet_run"));
        assert_eq!(stats.worker_utilization.len(), 2);
    }
}
