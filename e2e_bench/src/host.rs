//! Host-speed calibration for the CPU-bound metrics.
//!
//! On a 2-CPU VM that shares its machine, the fleet's wall time swings
//! with what the neighbours do to caches and memory: the same 256
//! devices took 190 to 340 ms from one pass to the next, and a whole
//! run's median moved by more than half over twenty minutes, while a
//! pure ALU loop stayed within 3%. A fixed kernel timed right before
//! and right after each measured call sees the same swings, so the
//! CPU-bound metrics are scaled by its time to a reference host. The
//! kernel uses only the standard library, so no change to the program
//! can change it.

use std::collections::BTreeMap;
use std::time::Instant;

/// Kernel time of the reference host the metrics are scaled to, ms.
pub const REFERENCE_MS: f64 = 10.0;

/// Allocation-heavy map churn shaped like the fleet's own work: string
/// keys, B-tree nodes and short vectors, built, probed and dropped.
fn kernel() -> usize {
    let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut found = 0;
    for i in 0..60_000u64 {
        let key = format!("com.example.app{}", (i * 7_919) % 3_000);
        map.entry(key).or_default().push(i);
        if i % 7 == 0 {
            let probe = format!("com.example.app{}", (i * 31) % 3_000);
            found += map.get(&probe).map_or(0, Vec::len);
        }
        if map.len() > 2_000 {
            map.pop_first();
        }
    }
    found + map.len()
}

fn kernel_ms() -> f64 {
    let started = Instant::now();
    std::hint::black_box(kernel());
    started.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` between two timings of the kernel. Returns its result and
/// the host factor, [`REFERENCE_MS`] ÷ the mean kernel time: multiply a
/// time measured in `f` by it, divide a rate by it.
pub fn calibrated<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = kernel_ms();
    let result = f();
    let after = kernel_ms();
    (result, 2.0 * REFERENCE_MS / (before + after))
}
