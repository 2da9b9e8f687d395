//! How fast the host runs right now, from a fixed reference kernel.
//!
//! On the shared 2-vCPU VM the benchmark was sized on, the host's speed
//! moves in phases of tens of seconds to minutes: the rate of a fixed
//! CPU kernel swung by ±18% between 30 s windows while process CPU
//! time kept tracking wall time (so it is not steal, and CPU time does
//! not help). Whole runs landed in slow or fast phases, and 30 s runs of
//! fuzz-streams spread by 15–25% between seeds on identical code.
//!
//! The harness therefore brackets every timed round with a short run of
//! [`kernel`] in a child process and scales the round's timings to the
//! [`REFERENCE_RATE`] the kernel reaches on the sizing VM when it is
//! quiet. The kernel is self-contained (it calls no HDiff code), so a
//! change to the program cannot move it, and it does the kind of work
//! the program does: allocation, sorting, hash-map updates, formatting
//! and byte scans over a working set of about 1 MiB. Over ten seeded
//! runs per workload, scaled rates spread by 0.04–0.07 where raw ones
//! spread by 0.06–0.23. Raw medians are printed next to the scaled ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel passes per second on the sizing VM (2-vCPU KVM guest,
/// Xeon @ 2.1 GHz) in a quiet phase. A fixed constant: it only sets the
/// scale of the adjusted numbers, which read as raw ones on that host.
const REFERENCE_RATE: f64 = 300.0;

/// How long one speed reading runs the kernel.
const READING: Duration = Duration::from_millis(200);

/// Values the kernel sorts, hashes and formats per pass.
const VALUES: usize = 50_000;

/// One pass of the reference kernel, 3–5 ms and about 1 MiB of working
/// set on the sizing VM: fills a vector from a xorshift stream and sorts
/// it, tallies half of it into a hash map, and formats a quarter of it
/// as CRLF-terminated hex lines, then scans those bytes.
fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut values: Vec<u64> = (0..VALUES)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    values.sort_unstable();
    let mut tally: HashMap<u64, u64> = HashMap::new();
    for (i, v) in values.iter().enumerate().take(VALUES / 2) {
        *tally.entry(v % 5000).or_insert(0) += i as u64;
    }
    let mut text = String::new();
    for v in values.iter().take(VALUES / 4) {
        text.push_str(&format!("{v:x}\r\n"));
    }
    let digits = text.bytes().filter(|&b| b == b'a').count() as u64;
    values[VALUES / 2] ^ tally.len() as u64 ^ digits
}

/// The argument that makes the harness take one reading in this process,
/// print it and exit (see [`reading`]).
pub const READING_ARG: &str = "--host-speed-reading";

/// Kernel passes per second over one reading, taken in a fresh child
/// process of the harness (which inherits the CPU pin). Reading in a
/// separate process keeps the kernel's memory out of the measured
/// process's peak, and keeps the heap a round leaves behind from
/// changing how fast the kernel runs.
pub fn reading() -> f64 {
    let exe = std::env::current_exe().expect("the harness locates its own executable");
    let out = Command::new(exe)
        .arg(READING_ARG)
        .stdin(Stdio::null())
        .output()
        .expect("the harness runs a copy of itself for a host speed reading");
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(rate) if out.status.success() && rate > 0.0 => rate,
        _ => panic!("host speed reading failed ({}): {text:?}", out.status),
    }
}

/// One reading in this process: an unmeasured pass to fault the
/// kernel's memory in, then passes for `READING`.
pub fn read_here() -> f64 {
    black_box(kernel(0));
    let started = Instant::now();
    let mut passes = 0u64;
    while started.elapsed() < READING {
        black_box(kernel(black_box(passes)));
        passes += 1;
    }
    passes as f64 / started.elapsed().as_secs_f64()
}

/// How much slower than the reference the host ran between two
/// readings: above 1 when slow. A raw duration divided by it (or a raw
/// rate multiplied by it) is what the reference host would have shown.
pub fn slowdown(before: f64, after: f64) -> f64 {
    REFERENCE_RATE / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_seed_dependent() {
        assert_eq!(kernel(3), kernel(3));
        assert_ne!(kernel(3), kernel(4));
    }

    #[test]
    fn slowdown_compares_the_mean_reading_with_the_reference() {
        assert_eq!(slowdown(REFERENCE_RATE, REFERENCE_RATE), 1.0);
        assert_eq!(slowdown(REFERENCE_RATE / 2.0, REFERENCE_RATE / 2.0), 2.0);
        assert_eq!(slowdown(REFERENCE_RATE * 1.5, REFERENCE_RATE * 0.5), 1.0);
    }

    #[test]
    fn a_reading_counts_passes_per_second() {
        let rate = read_here();
        assert!(rate > 0.0 && rate.is_finite());
    }
}
