//! Fleet throughput scaling: simulate the same fleet at 1, 2, and all
//! available worker threads, verify the report never changes, and record
//! devices/sec plus speedup-over-sequential into `results/fleet_scale.json`.

use ea_bench::{report, TraceRequest};
use ea_fleet::{render, run_fleet, FleetConfig};
use serde::Serialize;

#[derive(Serialize)]
struct ScaleRow {
    jobs: usize,
    wall_ms: f64,
    devices_per_sec: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct FleetScaleReport {
    fleet_seed: u64,
    fleet_size: usize,
    devices_completed: usize,
    host_cpus: usize,
    report_sha_stable: bool,
    rows: Vec<ScaleRow>,
}

fn main() {
    report::header("Fleet scaling: devices/sec vs worker threads");
    let trace = TraceRequest::from_args();

    let size: usize = std::env::args()
        .skip_while(|arg| arg != "--size")
        .nth(1)
        .and_then(|value| value.parse().ok())
        .unwrap_or(128);
    let mut config = FleetConfig {
        size,
        ..FleetConfig::default()
    };

    let all_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut job_counts = vec![1, 2, all_cores];
    job_counts.sort_unstable();
    job_counts.dedup();
    if all_cores == 1 {
        eprintln!(
            "note: host exposes a single CPU; wall-clock speedup will be ~1.0x \
             (workers time-slice one core). Run on a multi-core host for the \
             scaling table."
        );
    }

    let mut rows = Vec::new();
    let mut baseline_json: Option<String> = None;
    let mut baseline_wall = 0.0;
    let mut devices_completed = 0;
    let mut stable = true;
    for &jobs in &job_counts {
        config.jobs = jobs;
        let _span = trace
            .as_ref()
            .map(|t| t.span(&format!("fleet_jobs_{jobs}")));
        let (fleet_report, stats) = run_fleet(&config);
        let json = render::to_json(&fleet_report);
        match &baseline_json {
            None => {
                baseline_json = Some(json);
                baseline_wall = stats.wall_ms;
            }
            Some(baseline) => {
                if *baseline != json {
                    stable = false;
                    eprintln!("ERROR: report at --jobs {jobs} differs from sequential run");
                }
            }
        }
        devices_completed = fleet_report.devices_completed;
        let speedup = if stats.wall_ms > 0.0 {
            baseline_wall / stats.wall_ms
        } else {
            0.0
        };
        println!(
            "jobs {:>3}: {:>8.1} ms | {:>8.1} devices/s | speedup {:>5.2}x",
            jobs, stats.wall_ms, stats.devices_per_sec, speedup
        );
        if let Some(trace) = &trace {
            trace.gauge(
                &format!("fleet_scale_jobs_{jobs}_devices_per_sec"),
                stats.devices_per_sec,
            );
        }
        rows.push(ScaleRow {
            jobs,
            wall_ms: stats.wall_ms,
            devices_per_sec: stats.devices_per_sec,
            speedup,
        });
    }

    if !stable {
        eprintln!("fleet_scale: determinism contract violated");
        std::process::exit(1);
    }
    report::write_json(
        "fleet_scale",
        &FleetScaleReport {
            fleet_seed: config.seed,
            fleet_size: config.size,
            devices_completed,
            host_cpus: all_cores,
            report_sha_stable: stable,
            rows,
        },
    );
    if let Some(trace) = &trace {
        trace.finish().expect("write trace files");
    }
}
