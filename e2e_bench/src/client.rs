//! The query client of a serve pass: one thread, one connection at a
//! time, `snapshot` and `window` requests alternating on an open-loop
//! schedule through [`ea_serve::query`], which opens a new connection
//! per request as `eandroid query` does. Gaps between sends are drawn
//! uniformly from half to one and a half times the mean, so sends do not
//! lock onto the service's 10 ms accept poll. When a snapshot shows every
//! device finished, the client asks for the `report` and then sends
//! `shutdown`.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use ea_serve::{query, query_with_retry, Request, WINDOW_SCHEMA};
use ea_sim::SimRng;
use serde_json::Value;

/// How long the client keeps trying its first connect before giving up.
const CONNECT_PATIENCE: Duration = Duration::from_secs(30);

/// What one serve pass's client saw.
#[derive(Debug, Default)]
pub struct QueryLog {
    /// From the pass's start until the first successful connect, seconds.
    pub connect_s: Option<f64>,
    /// Per query, from its scheduled send time until its reply, ms.
    pub latency_ms: Vec<f64>,
    /// Per query, how late it was sent against its schedule, ms.
    pub late_ms: Vec<f64>,
    /// Latency of the same `window` request on one held connection, ms
    /// (only when probing the accept wait).
    pub held_ms: Vec<f64>,
    /// Scheduled queries sent.
    pub sent: u64,
    /// Scheduled queries that errored, got no reply or a wrong one.
    pub failed: u64,
    /// The `report` reply at drain.
    pub report: Option<String>,
}

/// Whether `reply` is a well-formed answer to `request`; for a snapshot,
/// also whether it shows every device finished.
fn check_reply(request: Request, reply: &str) -> Option<bool> {
    let value: Value = serde_json::from_str(reply).ok()?;
    let schema = value.get("schema")?.as_str()?;
    match request {
        Request::Snapshot => {
            if schema != ea_metrics::SNAPSHOT_SCHEMA {
                return None;
            }
            let total = value.get("devices_total")?.as_u64()?;
            let done = value.get("devices_done")?.as_u64()?;
            let failed = value.get("devices_failed")?.as_u64()?;
            Some(done + failed >= total)
        }
        _ => (schema == WINDOW_SCHEMA).then_some(false),
    }
}

/// One request on an already-open connection; returns its latency, ms.
fn held_window(writer: &mut UnixStream, reader: &mut BufReader<UnixStream>) -> Option<f64> {
    let sent = Instant::now();
    writeln!(writer, "{}", Request::Window.to_line()).ok()?;
    let mut line = String::new();
    reader.read_line(&mut line).ok().filter(|&n| n > 0)?;
    check_reply(Request::Window, line.trim_end())?;
    Some(sent.elapsed().as_secs_f64() * 1e3)
}

/// Drives one serve pass that started at `started` and listens on
/// `socket`, sending `rate_hz` queries per second on a schedule drawn
/// from `seed`. With `probe_held`, every scheduled `window` query is
/// followed by the same request on one held connection, so the accept
/// wait can be told apart.
pub fn drive(
    socket: &Path,
    started: Instant,
    rate_hz: f64,
    seed: u64,
    probe_held: bool,
) -> QueryLog {
    let mut log = QueryLog::default();
    loop {
        if UnixStream::connect(socket).is_ok() {
            log.connect_s = Some(started.elapsed().as_secs_f64());
            break;
        }
        if started.elapsed() > CONNECT_PATIENCE {
            return log;
        }
        std::thread::sleep(Duration::from_micros(100));
    }

    let mut held = if probe_held {
        UnixStream::connect(socket)
            .ok()
            .and_then(|stream| Some((stream.try_clone().ok()?, BufReader::new(stream))))
    } else {
        None
    };

    let mean_gap = 1.0 / rate_hz;
    let mut rng = SimRng::seed(seed);
    let mut due = Instant::now();
    for k in 0u32.. {
        due += Duration::from_secs_f64(rng.range_f64(0.5 * mean_gap, 1.5 * mean_gap));
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let send = Instant::now();
        log.late_ms
            .push(send.duration_since(due).as_secs_f64() * 1e3);
        let request = if k % 2 == 0 {
            Request::Snapshot
        } else {
            Request::Window
        };
        log.sent += 1;
        let checked = query(socket, request)
            .ok()
            .and_then(|reply| check_reply(request, &reply));
        log.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
        match checked {
            None => log.failed += 1,
            Some(true) => break,
            Some(false) => {}
        }
        if request == Request::Window {
            if let Some((writer, reader)) = held.as_mut() {
                if let Some(ms) = held_window(writer, reader) {
                    log.held_ms.push(ms);
                }
            }
        }
        if log.failed > 100 && log.failed == log.sent {
            break;
        }
    }
    // A held connection keeps the service's thread scope alive: close it
    // before asking the service to stop.
    drop(held);
    log.report = query(socket, Request::Report).ok();
    let _ = query_with_retry(socket, Request::Shutdown, 50, Duration::from_millis(20));
    log
}
