//! Host-speed gauge: a fixed reference computation, owned by the
//! benchmark, timed between the operations of a workload.
//!
//! On the shared reference host the same code switches between a fast
//! and a slow state (about 1.6× apart) every few seconds, sometimes for
//! minutes, on both vCPUs at once and with no steal time reported. The
//! fastest repeat of an operation cannot remove a slow state that lasts
//! the whole run, so every timed operation is gauged: the reference
//! computation runs right before and right after it, and the operation's
//! time is divided by the host's slowness over it (see [`Gauge::lap`]).
//! Work that keeps both vCPUs busy is gauged on both at once: the two
//! vCPUs are not always slowed alike, and such work runs at the pace of
//! both.
//! The result is "ms at the reference speed". The reference touches
//! none of the repository's code, so no change to the program moves it,
//! and a change to the program moves the scaled time as much as the
//! measured one.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// A reading of [`reading`] in the host's fast state on the 2-vCPU
/// reference host (Intel Xeon, 2.1 GHz). Scaled times are times at this
/// speed; on another host they are off by one constant factor.
pub const REFERENCE_MS: f64 = 0.62;

/// One run of the reference computation, in ms (about 0.6 ms). It mixes
/// what the engines spend their time on: lookups in a hash table of some
/// thousands of entries (hash-consing, memo tables), word-wise bitset
/// algebra with popcounts, and short-lived allocations that are sorted
/// and dropped.
fn reference() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table: HashMap<u64, u32> = HashMap::with_capacity(4096);
    for i in 0..4096u32 {
        table.insert(next() & 0xFFFF, i);
    }
    let mut found = 0u64;
    for _ in 0..16_384 {
        found += table.get(&(next() & 0xFFFF)).map_or(0, |&v| u64::from(v));
    }
    let mut a: Vec<u64> = (0..1024).map(|_| next()).collect();
    let b: Vec<u64> = (0..1024).map(|_| next()).collect();
    let mut ones = 0u32;
    for round in 0..48 {
        for i in 0..a.len() {
            a[i] = (a[i] & b[(i + round) % b.len()]) | (a[i] >> 1);
            ones += a[i].count_ones();
        }
    }
    let mut sorted = 0u64;
    for len in 0..600usize {
        let mut v: Vec<u32> = (0..16 + len % 48).map(|_| next() as u32).collect();
        v.sort_unstable();
        sorted += u64::from(v[0]);
    }
    black_box((found, ones, sorted));
    started.elapsed().as_secs_f64() * 1e3
}

/// One gauge reading (ms) on one thread: the faster of two runs of the
/// reference, so that caches the timed operation left cold cost the
/// reading nothing.
fn reading() -> f64 {
    reference().min(reference())
}

/// One gauge reading (ms) on `threads` threads at once: the mean of
/// their readings.
fn reading_on(threads: usize) -> f64 {
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(reading)).collect();
        let own = reading();
        let total: f64 = others
            .into_iter()
            .map(|h| h.join().expect("a gauge thread completes"))
            .sum();
        (own + total) / threads as f64
    })
}

/// Gauges a sequence of operations: one reading before the first and
/// one after each, the reading after an operation doubling as the one
/// before the next.
pub struct Gauge {
    threads: usize,
    last_ms: f64,
}

impl Gauge {
    /// Takes the reading before the first operation. `threads` is the
    /// number of vCPUs the operations keep busy: 1 for the verify
    /// workloads, 2 for the daemon with two connections and for the
    /// two-shard campaign.
    pub fn start(threads: usize) -> Gauge {
        Gauge {
            threads,
            last_ms: reading_on(threads),
        }
    }

    /// Ends an operation: takes the reading after it and returns the
    /// host's slowness over it, the mean of its two readings over
    /// [`REFERENCE_MS`] (1.0 at the reference speed, 1.6 in the slow
    /// state). A measured time divided by it is the time at the
    /// reference speed.
    pub fn lap(&mut self) -> f64 {
        let now = reading_on(self.threads);
        let slowness = slowness(self.last_ms, now);
        self.last_ms = now;
        slowness
    }
}

fn slowness(before_ms: f64, after_ms: f64) -> f64 {
    (before_ms + after_ms) / 2.0 / REFERENCE_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_the_mean_reading_over_the_reference() {
        assert_eq!(slowness(REFERENCE_MS, REFERENCE_MS), 1.0);
        assert!((slowness(REFERENCE_MS, 2.0 * REFERENCE_MS) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn laps_are_positive_and_finite() {
        for threads in [1, 2] {
            let mut gauge = Gauge::start(threads);
            for _ in 0..3 {
                let s = gauge.lap();
                assert!(s > 0.0 && s.is_finite());
            }
        }
    }
}
