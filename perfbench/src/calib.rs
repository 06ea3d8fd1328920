//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts where a neighbour's load can slow a
//! CPU by a quarter to a half for seconds to minutes. A fixed loop owned by
//! the benchmark slows by nearly the same factor as the solver: it pushes
//! and pops a binary heap of small allocated records keyed through random
//! reads of a 256 KiB table — the heap, allocator and cache traffic of the
//! solver's pool. Timing it right after every measured request gives the
//! host's current speed, and wall times are scaled to *reference seconds*:
//! the time the request would take where this loop takes
//! [`REFERENCE_LOOP_S`]. The loop uses no code of the program under test,
//! so no change to the program moves it.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The loop's time at reference speed. The 2.0 GHz Xeon vCPUs the bounds
/// in `BENCHMARK.json` were set on run it in about this time when no
/// neighbour is busy, so reference seconds are close to wall seconds there.
pub const REFERENCE_LOOP_S: f64 = 22.5e-6;

/// Loop timings the current speed is taken from (the fastest of them, so a
/// single interrupt does not count as a slow host).
const WINDOW: usize = 8;
/// Heap operations per loop.
const KEYS: usize = 256;
/// Table entries (256 KiB), read at random.
const TABLE: usize = 1 << 16;

/// The calibration loop and its recent timings.
pub struct Calibration {
    keys: Vec<u32>,
    table: Vec<u32>,
    recent: [f64; WINDOW],
    next: usize,
}

impl Calibration {
    /// Builds the fixed loop data and takes a full window of timings.
    pub fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        };
        let keys = (0..KEYS).map(|_| draw()).collect();
        let table = (0..TABLE).map(|_| draw()).collect();
        let mut cal = Self {
            keys,
            table,
            recent: [f64::INFINITY; WINDOW],
            next: 0,
        };
        for _ in 0..WINDOW {
            cal.sample();
        }
        cal
    }

    /// Runs the loop twice and records the time of the second run: the
    /// first brings the table back into cache after the request evicted it,
    /// so the timing reflects the host, not the request's footprint.
    fn sample(&mut self) {
        black_box(heap_walk(black_box(&self.keys), black_box(&self.table)));
        let start = Instant::now();
        black_box(heap_walk(black_box(&self.keys), black_box(&self.table)));
        self.recent[self.next] = start.elapsed().as_secs_f64();
        self.next = (self.next + 1) % WINDOW;
    }

    /// Times the loop once more and returns the factor that turns wall
    /// seconds measured now into reference seconds.
    pub fn factor(&mut self) -> f64 {
        self.sample();
        let fastest = self.recent.iter().copied().fold(f64::INFINITY, f64::min);
        REFERENCE_LOOP_S / fastest
    }
}

/// Pushes one allocated record per key into a max-heap (keyed through the
/// table) and pops every third.
fn heap_walk(keys: &[u32], table: &[u32]) -> u64 {
    let mut heap: BinaryHeap<(u32, Vec<u16>)> = BinaryHeap::new();
    let mut total = 0u64;
    for (i, &key) in keys.iter().enumerate() {
        let slot = (key as usize).wrapping_mul(7919) % table.len();
        heap.push((key ^ table[slot], vec![i as u16, key as u16]));
        if i % 3 == 2 {
            if let Some((top, record)) = heap.pop() {
                total += u64::from(top) + u64::from(record[0]);
            }
        }
    }
    total + heap.len() as u64
}
