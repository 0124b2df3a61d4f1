//! A fixed reference computation that measures how fast the host is
//! running right now.
//!
//! On a shared virtual machine the same work can take 30% longer from
//! one minute to the next, for every process at once. The benchmark
//! times this kernel before and after each repetition and scales the
//! run's wall seconds by `NOMINAL_S / median timing`, so the reported
//! times follow the program and not the host's speed at the time. The kernel mixes the
//! kinds of work the workloads do (hash probes, sorting, dependent loads
//! through a megabyte-sized array, linear scans over small records). All
//! its memory is allocated once, before any workload runs, so the state
//! a workload leaves in the allocator cannot change its speed.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the host this benchmark was calibrated on (a
/// 2-vCPU KVM guest), in seconds. A reported time equals wall seconds
/// whenever the kernel runs this fast.
pub const NOMINAL_S: f64 = 0.02;

const TABLE_SLOTS: usize = 1 << 17;
const KEYS: usize = 60_000;
const LOOKUP_ROUNDS: usize = 4;
const SORTED: usize = 200_000;
const CHAIN: usize = 1 << 18;
const CHASE_STEPS: usize = 1_000_000;
const RECORDS: usize = 700;
const SCANS: usize = 6_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Preallocated buffers of the reference kernel.
pub struct Reference {
    keys: Vec<u64>,
    table: Vec<u64>,
    unsorted: Vec<u64>,
    sorted: Vec<u64>,
    chain: Vec<u32>,
    records: Vec<[u64; 8]>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x9E37_79B9_7F4A_7C15;
        let keys = (0..KEYS).map(|_| xorshift(&mut x) | 1).collect();
        let unsorted: Vec<u64> = (0..SORTED).map(|_| xorshift(&mut x)).collect();
        // One random cycle through every slot (Sattolo's algorithm), so
        // each load depends on the previous one.
        let mut chain: Vec<u32> = (0..CHAIN as u32).collect();
        for i in (1..CHAIN).rev() {
            let j = (xorshift(&mut x) % i as u64) as usize;
            chain.swap(i, j);
        }
        let records = (0..RECORDS as u64)
            .map(|i| [xorshift(&mut x), i, 0, 0, 0, 0, 0, xorshift(&mut x)])
            .collect();
        Reference {
            keys,
            table: vec![0; TABLE_SLOTS],
            sorted: unsorted.clone(),
            unsorted,
            chain,
            records,
        }
    }

    /// Runs the kernel once; returns a checksum of its results.
    pub fn run(&mut self) -> u64 {
        let mask = TABLE_SLOTS as u64 - 1;
        self.table.fill(0);
        for &k in &self.keys {
            let mut slot = k & mask;
            while self.table[slot as usize] != 0 && self.table[slot as usize] != k {
                slot = (slot + 1) & mask;
            }
            self.table[slot as usize] = k;
        }
        let mut acc = 0u64;
        for _ in 0..LOOKUP_ROUNDS {
            for &k in self.keys.iter().rev() {
                let mut slot = k & mask;
                while self.table[slot as usize] != k {
                    slot = (slot + 1) & mask;
                }
                acc = acc.wrapping_add(slot);
            }
        }
        self.sorted.copy_from_slice(&self.unsorted);
        self.sorted.sort_unstable();
        acc = acc.wrapping_add(self.sorted[SORTED / 2]);
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.chain[at as usize];
        }
        acc = acc.wrapping_add(u64::from(at));
        for q in 0..SCANS as u64 {
            let want = q % RECORDS as u64;
            if let Some(r) = self.records.iter().find(|r| r[1] == want) {
                acc = acc.wrapping_add(r[0] ^ r[7]);
            }
        }
        acc
    }

    /// Wall seconds of one run of the kernel.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.run());
        t.elapsed().as_secs_f64()
    }
}

/// The kernel timed at the start of a run and after every repetition.
pub struct Calibration {
    reference: Reference,
    times_s: Vec<f64>,
}

impl Calibration {
    pub fn start() -> Calibration {
        let mut reference = Reference::new();
        let times_s = vec![reference.time()];
        Calibration { reference, times_s }
    }

    /// Times the kernel once more (call after each repetition).
    pub fn sample(&mut self) {
        let t = self.reference.time();
        self.times_s.push(t);
    }

    /// The median of the kernel's timings so far.
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.times_s).expect("timed at start")
    }

    /// The factor that scales this run's wall seconds to the nominal host
    /// speed: `NOMINAL_S` over the median timing. One factor per run, so
    /// a single disturbed timing cannot move one repetition alone.
    pub fn scale(&self) -> f64 {
        NOMINAL_S / self.median_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut a = Reference::new();
        let mut b = Reference::new();
        let first = a.run();
        assert_eq!(first, a.run(), "a rerun starts from the same state");
        assert_eq!(first, b.run());
    }

    #[test]
    fn chain_is_one_cycle_through_every_slot() {
        let r = Reference::new();
        let mut seen = vec![false; CHAIN];
        let mut at = 0usize;
        for _ in 0..CHAIN {
            assert!(!seen[at], "slot {at} visited twice");
            seen[at] = true;
            at = r.chain[at] as usize;
        }
        assert_eq!(at, 0);
    }
}
