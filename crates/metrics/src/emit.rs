//! The one snapshot-rendering path shared by every live surface: the
//! `--watch` stderr ticker and the `--heartbeat` JSONL stream both take
//! the *same* [`MetricsSnapshot`] through a [`SnapshotEmitter`], fed by
//! the one sampler ([`sample_live`]) that `eandroid fleet`, `metrics`
//! and the `ea-serve` service all run, so a number shown on one surface
//! can never disagree with the same number on another.

use std::io::Write;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

use crate::{FleetObservatory, MetricsSnapshot};

/// How often [`sample_live`] renders a snapshot while work runs.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(250);

/// Renders observatory snapshots to the enabled live surfaces.
///
/// `Sync` by construction (the heartbeat writer sits behind a mutex), so
/// a sampler thread and a final-flush caller can share one emitter.
pub struct SnapshotEmitter<'a> {
    watch: bool,
    heartbeat: Mutex<Option<Box<dyn Write + Send + 'a>>>,
}

impl std::fmt::Debug for SnapshotEmitter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotEmitter")
            .field("watch", &self.watch)
            .finish_non_exhaustive()
    }
}

impl<'a> SnapshotEmitter<'a> {
    /// An emitter for the given surfaces: `watch` draws the one-line
    /// stderr ticker, `heartbeat` appends one JSONL line per snapshot.
    #[must_use]
    pub fn new(watch: bool, heartbeat: Option<Box<dyn Write + Send + 'a>>) -> Self {
        SnapshotEmitter {
            watch,
            heartbeat: Mutex::new(heartbeat),
        }
    }

    /// Whether any surface is enabled (if not, sampling is pointless).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.watch
            || self
                .heartbeat
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .is_some()
    }

    /// Renders one snapshot to every enabled surface. `last` finishes
    /// the watch ticker's line so the shell prompt lands cleanly.
    pub fn emit(&self, snapshot: &MetricsSnapshot, last: bool) {
        if self.watch {
            eprint!("\r\x1b[2K{}", snapshot.watch_line());
            if last {
                eprintln!();
            }
        }
        let mut heartbeat = self
            .heartbeat
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(out) = heartbeat.as_mut() {
            if let Err(error) = writeln!(out, "{}", snapshot.to_jsonl()) {
                eprintln!("metrics: heartbeat write failed: {error}");
            }
        }
    }
}

/// Runs `work` while a sampler thread renders `observatory`'s snapshot
/// to `emitter` every 250 ms, then renders one final snapshot (finishing
/// the watch line) and returns it with `work`'s result. A run shorter
/// than one interval still leaves that final snapshot; with no surface
/// enabled, no sampler thread starts.
pub fn sample_live<T>(
    observatory: &FleetObservatory,
    emitter: &SnapshotEmitter<'_>,
    work: impl FnOnce() -> T,
) -> (T, MetricsSnapshot) {
    let result = std::thread::scope(|scope| {
        // Dropping the sender wakes the sampler at once instead of after
        // its current interval.
        let (done, finished) = mpsc::channel::<()>();
        if emitter.enabled() {
            scope.spawn(move || {
                while let Err(mpsc::RecvTimeoutError::Timeout) =
                    finished.recv_timeout(SAMPLE_INTERVAL)
                {
                    emitter.emit(&observatory.snapshot(), false);
                }
            });
        }
        let result = work();
        drop(done);
        result
    });
    let last = observatory.snapshot();
    emitter.emit(&last, true);
    (result, last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SNAPSHOT_SCHEMA;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            schema: SNAPSHOT_SCHEMA.to_string(),
            seq: 1,
            elapsed_ms: 10,
            devices_total: 4,
            devices_done: 2,
            devices_failed: 0,
            devices_retried: 0,
            chaos_panics: 0,
            devices_per_sec: 1.0,
            recent_devices_per_sec: 1.0,
            worker_busy: vec![0.5],
            drain_gamma: 0.01,
            drain_p50_joules: 1.0,
            drain_p90_joules: 2.0,
            drain_p99_joules: 3.0,
        }
    }

    #[test]
    fn heartbeat_lines_are_replayable_snapshots() {
        let mut buffer: Vec<u8> = Vec::new();
        {
            let emitter = SnapshotEmitter::new(false, Some(Box::new(&mut buffer)));
            assert!(emitter.enabled());
            emitter.emit(&sample(), false);
            emitter.emit(&sample(), true);
        }
        let text = String::from_utf8(buffer).expect("utf8 jsonl");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let back: MetricsSnapshot = serde_json::from_str(line).expect("parses");
            assert_eq!(back.schema, SNAPSHOT_SCHEMA);
        }
    }

    #[test]
    fn sampler_ends_with_the_final_snapshot() {
        let observatory = FleetObservatory::new(2, 1);
        let mut buffer: Vec<u8> = Vec::new();
        {
            let emitter = SnapshotEmitter::new(false, Some(Box::new(&mut buffer)));
            let (answer, last) = sample_live(&observatory, &emitter, || {
                observatory.device_completed(1.0);
                observatory.device_completed(2.0);
                42
            });
            assert_eq!(answer, 42);
            assert_eq!(last.devices_done, 2);
        }
        let text = String::from_utf8(buffer).expect("utf8 jsonl");
        let last_line = text.lines().last().expect("a final snapshot");
        let back: MetricsSnapshot = serde_json::from_str(last_line).expect("parses");
        assert_eq!(back.devices_done, 2);
    }

    #[test]
    fn disabled_emitter_reports_itself() {
        let emitter = SnapshotEmitter::new(false, None);
        assert!(!emitter.enabled());
        emitter.emit(&sample(), true); // must be a no-op, not a panic
    }
}
