//! Host-speed calibration.
//!
//! The shared host this benchmark was built on drifts: a fixed CPU kernel's
//! median moves by a third within a minute, and two runs a few minutes
//! apart can differ by as much. Medians over a long interleaved run do not
//! remove drift between runs, and phases of a few seconds within a run
//! split a timing's samples into a fast and a slow mode. So a fixed
//! reference kernel — code of the benchmark's own, which no change to the
//! workspace can speed up — runs every few milliseconds between
//! operations, and the time of each operation is scaled by
//! `(NOMINAL_MS / median(reference time))^sensitivity` over the reference
//! samples taken while it ran and just before and after. The kernel is an
//! ordered-map workload (allocation and pointer chasing), which tracked the
//! VM's speed across host phases more closely than array-walking kernels
//! did: the VM/reference ratio varied 2% between 3-second windows while the
//! VM alone varied 9%.

use crate::book::{quantile, ratio};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Reference-kernel time that defines nominal host speed: about what the
/// kernel takes on the 2-core Xeon host the benchmark was tuned on.
const NOMINAL_MS: f64 = 1.0;
/// Minimum spacing between reference samples.
const EVERY: Duration = Duration::from_millis(20);
/// How far before and after an operation its calibration window reaches.
/// Host phases change within a tenth of a second, so the window is short.
const MARGIN: Duration = Duration::from_millis(40);

/// The reference kernel: 7,000 inserts and lookups on a 4,096-key ordered
/// map, keyed by a fixed xorshift sequence.
fn reference() -> u64 {
    let mut map = BTreeMap::new();
    let mut x = 0x0139_408d_cbbf_7a44_u64;
    let mut acc = 0u64;
    for i in 0..7_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, i);
        if let Some(v) = map.get(&(i % 4096)) {
            acc = acc.wrapping_add(*v);
        }
    }
    acc.wrapping_add(map.len() as u64)
}

/// The power of a `Calib::scale` factor that converts `metric`'s times.
/// Operations slow by different powers of the kernel's slowdown when the
/// host is busy: recording, and the certify pipeline around fleet cells,
/// the most; replay and set-up less; the uninstrumented run about as the
/// kernel does. These powers gave the steadiest figures over ten seeds per
/// workload on the tuning host (README, "Steadiness"). Per-layer spans
/// use 1.
pub fn sensitivity(metric: &str) -> f64 {
    match metric {
        "rec_ms" | "certify_s" | "gather_s" => 1.5,
        "rep_ms" | "setup_s" => 1.25,
        _ => 1.0,
    }
}

/// Reference-kernel samples taken across one run.
pub struct Calib {
    samples: Vec<(Instant, f64)>,
}

impl Calib {
    pub fn new() -> Calib {
        Calib {
            samples: Vec::new(),
        }
    }

    /// Time the reference kernel if the last sample is `EVERY` old.
    pub fn tick(&mut self) {
        if self
            .samples
            .last()
            .is_some_and(|(t, _)| t.elapsed() < EVERY)
        {
            return;
        }
        let t = Instant::now();
        std::hint::black_box(reference());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples.push((Instant::now(), ms));
    }

    /// Factor that converts wall times of an operation that ran from
    /// `start` to `end` to nominal host speed: from the samples taken within
    /// `MARGIN` of it, or the three nearest if those are fewer.
    pub fn scale(&self, start: Instant, end: Instant) -> f64 {
        let from = start.checked_sub(MARGIN).unwrap_or(start);
        let to = end + MARGIN;
        let mut near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| (from..=to).contains(t))
            .map(|&(_, ms)| ms)
            .collect();
        if near.len() < 3 {
            let mid = start + (end - start) / 2;
            let mut by_distance: Vec<(Duration, f64)> = self
                .samples
                .iter()
                .map(|&(t, ms)| (t.max(mid) - t.min(mid), ms))
                .collect();
            by_distance.sort_by_key(|&(d, _)| d);
            near = by_distance.iter().take(3).map(|&(_, ms)| ms).collect();
        }
        ratio(NOMINAL_MS, quantile(&near, 0.5))
    }

    /// Median reference time (ms) over the run, and the sample count.
    pub fn summary(&self) -> (f64, usize) {
        let all: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        (quantile(&all, 0.5), all.len())
    }
}
