//! Host-speed calibration: wall-clock time converted to seconds at a fixed
//! reference speed.
//!
//! The benchmark runs on shared machines whose effective core speed drifts
//! by up to 1.7x within seconds (other tenants on the same cores), and the
//! two cores of one machine drift apart. Raw wall-clock medians of the same
//! commit then spread by 8–20% between runs, which hides any change smaller
//! than that. Probing the host between reps, from the process that
//! starts them, does not help: the probe lands on either core, and the
//! host's speed a few seconds apart says little about the rep in between.
//!
//! So every timed interval is cut into chunks of about [`CHUNK_SECS`], and
//! after each chunk the thread that did the work times a fixed probe kernel
//! — code that lives here and never changes with the simulator. A chunk's
//! *reference seconds* are its wall seconds scaled by
//! `PROBE_REF_SECS / probe`, with the probe averaged over the two probes
//! that bracket the chunk. A slow host phase slows the probe and the
//! simulator alike, so the scaled time stays put while a slower simulator
//! still reads slower.
//!
//! The probe must not see the simulator's own footprint, or a change that
//! costs more cache or memory traffic would slow the probe too and cancel
//! part of itself. So the probe works on a table allocated once and small
//! enough for the core's private caches, and runs its kernel twice: the
//! first, untimed pass brings the table back into those caches whatever the
//! simulator left there; only the second pass is timed. Work on threads
//! this program does not control (the sweep pool) is probed from a
//! sleeping sampler thread instead ([`time_sampled`]); it takes the median
//! probe, which drops the rare probe preempted by a pool worker.
//!
//! The kernel is hash-map inserts and lookups: of the kernels tried
//! (random table updates, sorting, a floating-point chain, a bytecode
//! loop, sorted merges, a DRAM pointer chase, hashing) it tracked the
//! simulator's slowdown most closely.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::stats::median;

/// Wall seconds of one timed probe pass at the reference speed: its
/// fast-phase duration on the capture host (2-vCPU Xeon VM, see
/// README.md). Any fixed value works — it only sets the scale of reference
/// seconds.
pub const PROBE_REF_SECS: f64 = 0.000_25;

/// Target wall length of one timed chunk between probes.
pub const CHUNK_SECS: f64 = 0.02;

/// Timed passes per sampler probe, of which the fastest counts: a pass
/// that a pool worker preempts reads slow, never fast.
const SAMPLER_PASSES: usize = 3;

/// Inserts, then lookups, per probe pass.
const PROBE_OPS: usize = 6_000;

/// The probe kernel and its table (about 150 KB, within a core's L2).
#[derive(Debug)]
pub struct Probe {
    table: HashMap<u64, u64>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// Allocates the table and runs one pass, so no measured pass pays
    /// page faults or a rehash.
    #[must_use]
    pub fn new() -> Self {
        let mut probe = Probe {
            table: HashMap::with_capacity(2 * PROBE_OPS),
        };
        probe.pass();
        probe
    }

    /// One pass of the kernel.
    fn pass(&mut self) {
        self.table.clear();
        let mut x = 11u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 0x3FFF
        };
        for _ in 0..PROBE_OPS {
            *self.table.entry(next()).or_default() += 1;
        }
        let mut hits = 0u64;
        for _ in 0..PROBE_OPS {
            hits += self.table.get(&next()).copied().unwrap_or(0);
        }
        black_box(hits);
    }

    /// Warms the table with one untimed pass, then returns the wall seconds
    /// of the fastest of `timed` more passes.
    pub fn time(&mut self, timed: usize) -> f64 {
        self.pass();
        (0..timed)
            .map(|_| {
                let started = Instant::now();
                self.pass();
                started.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// A timed interval, as wall seconds and as reference seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Timing {
    /// Wall-clock seconds, probes excluded.
    pub wall_s: f64,
    /// The same interval at the reference host speed.
    pub ref_s: f64,
}

impl Timing {
    /// How much slower than the reference the host ran (1.0 = reference).
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        if self.ref_s > 0.0 {
            self.wall_s / self.ref_s
        } else {
            1.0
        }
    }
}

/// Measures an interval chunk by chunk, probing between chunks. Probe time
/// is excluded from both totals.
#[derive(Debug)]
pub struct Stopwatch {
    probe: Probe,
    chunk_started: Instant,
    last_probe: f64,
    total: Timing,
}

impl Stopwatch {
    /// Probes once, then starts the first chunk.
    #[must_use]
    pub fn start() -> Self {
        let mut probe = Probe::new();
        let last_probe = probe.time(1);
        Stopwatch {
            probe,
            chunk_started: Instant::now(),
            last_probe,
            total: Timing::default(),
        }
    }

    /// Closes the current chunk if it has run for [`CHUNK_SECS`]. Call
    /// between units of work (kernel steps), when no other thread of this
    /// program runs.
    pub fn lap_if_due(&mut self) {
        if self.chunk_started.elapsed().as_secs_f64() >= CHUNK_SECS {
            self.lap();
        }
    }

    /// Closes the current chunk unconditionally and starts the next.
    pub fn lap(&mut self) {
        let wall = self.chunk_started.elapsed().as_secs_f64();
        let after = self.probe.time(1);
        let bracket = 0.5 * (self.last_probe + after);
        self.total.wall_s += wall;
        self.total.ref_s += wall * PROBE_REF_SECS / bracket;
        self.last_probe = after;
        self.chunk_started = Instant::now();
    }

    /// Closes the last chunk and returns the totals.
    #[must_use]
    pub fn stop(mut self) -> Timing {
        self.lap();
        self.total
    }
}

/// Times `f`, which keeps every core busy on threads this program does not
/// control (the sweep pool), with a sampler thread that sleeps
/// [`CHUNK_SECS`] between probes. The interval's reference seconds are its
/// wall seconds scaled by `PROBE_REF_SECS` over the median probe.
pub fn time_sampled<R>(f: impl FnOnce() -> R) -> (R, Timing) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut probe = Probe::new();
            let mut samples = vec![probe.time(SAMPLER_PASSES)];
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_secs_f64(CHUNK_SECS));
                samples.push(probe.time(SAMPLER_PASSES));
            }
            samples
        });
        let started = Instant::now();
        let out = f();
        let wall_s = started.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let samples = sampler.join().expect("sampler thread does not panic");
        (
            out,
            Timing {
                wall_s,
                ref_s: wall_s * PROBE_REF_SECS / median(&samples),
            },
        )
    })
}

/// Times `f` as one chunk bracketed by probes.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Timing) {
    let watch = Stopwatch::start();
    let out = f();
    (out, watch.stop())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_accumulates_chunks() {
        let mut watch = Stopwatch::start();
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(8));
            watch.lap_if_due();
        }
        let t = watch.stop();
        assert!(t.wall_s >= 0.024, "three sleeps measured: {t:?}");
        assert!(t.ref_s > 0.0);
        assert!(t.slowdown() > 0.0);
    }

    #[test]
    fn time_returns_the_value() {
        let (v, t) = time(|| 7);
        assert_eq!(v, 7);
        assert!(t.wall_s >= 0.0);
    }

    #[test]
    fn sampled_timing_scales_wall_time() {
        let (v, t) = time_sampled(|| {
            std::thread::sleep(Duration::from_millis(30));
            3
        });
        assert_eq!(v, 3);
        assert!(t.wall_s >= 0.03 && t.ref_s > 0.0, "{t:?}");
    }
}
