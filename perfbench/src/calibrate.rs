//! Host-speed calibration.
//!
//! A shared host's speed drifts: by ±20% over seconds to minutes on a
//! shared 2-vCPU Xeon VM. To report replay times that measure the
//! simulator rather than the moment, the benchmark times a fixed slice of
//! reference work — code of its own, untouched by any change to the
//! simulator — between the replays, and scales replay times by how fast
//! the reference work ran. No slice runs while a simulation does, so the
//! slices neither perturb a replay nor compete with it for the cache.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Host seconds of one slice of reference work on the reference host.
pub const REFERENCE_SECONDS: f64 = 0.0115;

/// Host speed relative to the reference host, from slice times: the
/// reference time over the median slice. The median leaves out the
/// first slice after a replay, which refills the caches the replay took.
pub fn speed(slices: &[f64]) -> f64 {
    REFERENCE_SECONDS / crate::median(slices)
}

/// Run one slice of reference work and return its host seconds.
pub fn reference_seconds() -> f64 {
    REFERENCE.with(|r| {
        let mut r = r.borrow_mut();
        let t = Instant::now();
        std::hint::black_box(r.slice());
        t.elapsed().as_secs_f64()
    })
}

thread_local! {
    static REFERENCE: RefCell<Reference> = RefCell::new(Reference::new());
}

/// Resident MiB the reference work's state added to the process when it
/// was built.
pub fn footprint_mb() -> f64 {
    REFERENCE.with(|r| r.borrow().footprint_mb)
}

/// Entries in the reference work's event queue.
const QUEUE_LEN: u32 = 1 << 15;
/// `u64` words of state the reference work reads and writes at random:
/// 256 KiB. With the queue and the scratch lists the whole state stays
/// within a core's L2 cache, so a slice times the core and not how much
/// of the shared last-level cache and TLB this process happens to get;
/// with a 16 MiB table, slice times moved by ±8% from one process to the
/// next on an idle host, against ±2% at this size.
const STATE_WORDS: usize = 1 << 15;
/// Steps in one slice.
const SLICE_STEPS: u32 = 120_000;

/// Reference work shaped like a discrete-event simulation: a binary-heap
/// event queue, random reads and writes over a state table, and
/// short-lived allocations. The state persists across slices, so a slice
/// pays no page faults after the first.
struct Reference {
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    state: Vec<u64>,
    scratch: HashMap<u32, Vec<u32>, BuildHasherDefault<DefaultHasher>>,
    x: u64,
    footprint_mb: f64,
}

impl Reference {
    fn new() -> Self {
        let rss = || crate::status_mb("VmRSS").unwrap_or(0.0);
        let before = rss();
        let mut r = Reference {
            queue: BinaryHeap::with_capacity(QUEUE_LEN as usize),
            state: vec![1; STATE_WORDS],
            scratch: HashMap::default(),
            x: 0x9e37_79b9_7f4a_7c15,
            footprint_mb: 0.0,
        };
        for id in 0..QUEUE_LEN {
            let t = r.next() >> 40;
            r.queue.push(Reverse((t, id)));
        }
        r.footprint_mb = rss() - before;
        r
    }

    fn next(&mut self) -> u64 {
        self.x = self
            .x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.x
    }

    fn slice(&mut self) -> u64 {
        let mut sum = 0u64;
        for _ in 0..SLICE_STEPS {
            let Reverse((now, id)) = self.queue.pop().expect("queue never drains");
            let r = self.next();
            let cell = &mut self.state[(r >> 11) as usize % STATE_WORDS];
            *cell = cell.wrapping_add(now ^ r);
            sum = sum.wrapping_add(*cell);
            let list = self.scratch.entry(id & 0x3ff).or_default();
            if list.len() < 32 {
                list.push(id);
            } else {
                *list = Vec::with_capacity(8);
            }
            self.queue.push(Reverse((now + (r >> 44), id)));
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference work is fixed: changing it rescales every reported
    /// time, so this checksum changes only on purpose.
    #[test]
    fn reference_work_is_fixed() {
        let mut r = Reference::new();
        let first = r.slice();
        assert_eq!(first, 18_261_622_486_829_237_976);
        assert_ne!(r.slice(), first);
    }
}
