//! A calibration kernel, timed beside every end-to-end host-time measurement.
//!
//! The build sandbox shares its host: for minutes at a time its memory-bound
//! code runs up to 1.5× slower (pure arithmetic is not affected), and two
//! sets of runs of one commit then differ by more than any bound worth
//! having — `scatter` by 41 % between two sets of ten runs taken half an hour
//! apart. The kernel below does fixed, program-independent work with the
//! same appetite for cache and memory as the simulator's hot paths — SipHash
//! `HashMap` lookups, 4 KiB page copies out of a buffer larger than L2,
//! building, sorting and dropping small maps — so how long it takes *now*
//! says how slow the machine is *now*. `setup_s` and `ops_per_s` are reported
//! in reference seconds: the measured time × [`REFERENCE_NS`] ÷ the kernel's
//! time just before and after the measurement. On the same two sets that
//! cut the difference between their medians from 15–41 % to 2–8 % and the
//! spread within a set to a third (README.md, "Noise").
//!
//! The kernel calls nothing of the program, so no change to the program can
//! move it; a change to this file changes the meaning of every host-time
//! result and is a change to the benchmark.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What one [`Calibrator::sample`] takes on the build sandbox in a quiet
/// phase, in ns: there a reference second is a second.
pub const REFERENCE_NS: f64 = 33.0e6;

const MAP_ENTRIES: u64 = 1 << 16;
const BUFFER_PAGES: usize = 1024;
const PAGE: usize = 4096;
const LOOKUPS: usize = 600_000;
const COPIES: usize = 60_000;
const SMALL_MAPS: usize = 600;
const SMALL_MAP_ENTRIES: u64 = 512;

pub struct Calibrator {
    map: HashMap<u64, u64>,
    buffer: Vec<u8>,
    page: Vec<u8>,
    x: u64,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut c = Calibrator {
            map: HashMap::new(),
            buffer: Vec::new(),
            page: vec![0; PAGE],
            x: 0x9E37_79B9_7F4A_7C15,
        };
        c.map = (0..MAP_ENTRIES).map(|k| (k, c.next())).collect();
        c.buffer = (0..BUFFER_PAGES * PAGE).map(|i| i as u8).collect();
        c
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// Run the kernel once; returns how long it took in ns.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..LOOKUPS {
            let k = self.next() % MAP_ENTRIES;
            acc = acc.wrapping_add(self.map[&k]);
        }
        for _ in 0..COPIES {
            let p = (self.next() % BUFFER_PAGES as u64) as usize;
            self.page
                .copy_from_slice(&self.buffer[p * PAGE..(p + 1) * PAGE]);
            acc = acc.wrapping_add(self.page[acc as usize % PAGE] as u64);
        }
        for _ in 0..SMALL_MAPS {
            let base = self.next();
            let small: HashMap<u64, u64> = (0..SMALL_MAP_ENTRIES)
                .map(|k| (base.wrapping_add(k.wrapping_mul(0x9E37)), k))
                .collect();
            let mut pairs: Vec<(u64, u64)> = small.into_iter().collect();
            pairs.sort_unstable();
            acc = acc.wrapping_add(pairs[0].0);
        }
        black_box(acc);
        t0.elapsed().as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_takes_time_and_leaves_the_kernel_ready_for_the_next() {
        let mut c = Calibrator::new();
        assert_eq!(c.map.len() as u64, MAP_ENTRIES);
        assert_eq!(c.buffer.len(), BUFFER_PAGES * PAGE);
        assert!(c.sample() > 0.0);
        let x = c.x;
        assert!(c.sample() > 0.0);
        assert_ne!(c.x, x, "each sample draws fresh keys");
    }
}
