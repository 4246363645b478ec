//! Sample bookkeeping: timed groups, exact counters, and the statistics
//! the report is built from.

use crate::calib::sensitivity;
use std::collections::BTreeMap;
use std::time::Instant;

/// Values measured during one group of work (a set-up repetition, a
/// certify pass, or a record round): one operation per program. Each
/// metric's values are summed over the group's programs when the group is
/// closed, so one group yields one sample per metric, for the workload and
/// for each program.
pub struct Group {
    /// Whether fine-grained layer spans and probes are recorded.
    pub traced: bool,
    /// Program, metric, value, and the index of the operation it came from.
    items: Vec<(&'static str, &'static str, f64, usize)>,
    /// Start and end of each operation.
    ops: Vec<(Instant, Instant)>,
}

impl Group {
    pub fn new(traced: bool) -> Group {
        Group {
            traced,
            items: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Start the next operation: values recorded until `end` belong to it.
    pub fn begin(&mut self) {
        let now = Instant::now();
        self.ops.push((now, now));
    }

    /// End the current operation.
    pub fn end(&mut self) {
        if let Some(op) = self.ops.last_mut() {
            op.1 = Instant::now();
        }
    }

    /// Start and end of each operation, in order.
    pub fn ops(&self) -> &[(Instant, Instant)] {
        &self.ops
    }

    /// Record an end-to-end value; kept with tracing on or off.
    pub fn push(&mut self, prog: &'static str, metric: &'static str, v: f64) {
        let op = self.ops.len().saturating_sub(1);
        self.items.push((prog, metric, v, op));
    }

    /// Record a layer value; dropped unless the group is traced.
    pub fn span(&mut self, prog: &'static str, metric: &'static str, v: f64) {
        if self.traced {
            self.push(prog, metric, v);
        }
    }
}

/// Per-metric samples (one per closed group) and totals.
#[derive(Default)]
pub struct Book {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub totals: BTreeMap<&'static str, f64>,
}

impl Book {
    fn close(&mut self, sums: BTreeMap<&'static str, f64>) {
        for (metric, v) in sums {
            self.samples.entry(metric).or_default().push(v);
            *self.totals.entry(metric).or_default() += v;
        }
    }

    pub fn median(&self, metric: &str) -> f64 {
        self.samples.get(metric).map_or(0.0, |v| quantile(v, 0.5))
    }

    pub fn p10(&self, metric: &str) -> f64 {
        self.samples.get(metric).map_or(0.0, |v| quantile(v, 0.1))
    }

    pub fn count(&self, metric: &str) -> usize {
        self.samples.get(metric).map_or(0, Vec::len)
    }

    pub fn total(&self, metric: &str) -> f64 {
        self.totals.get(metric).copied().unwrap_or(0.0)
    }
}

/// The whole-workload book plus one book per program.
#[derive(Default)]
pub struct Books {
    pub all: Book,
    pub progs: BTreeMap<&'static str, Book>,
}

impl Books {
    /// File a group's values, multiplying its times (metrics named `*_ms`
    /// or `*_s`) by the scale of the operation each came from, raised to
    /// the metric's sensitivity.
    pub fn close(&mut self, g: Group, scales: &[f64]) {
        let mut all: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut progs: BTreeMap<&'static str, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (prog, metric, v, op) in g.items {
            let v = if metric.ends_with("_ms") || metric.ends_with("_s") {
                v * scales[op].powf(sensitivity(metric))
            } else {
                v
            };
            *all.entry(metric).or_default() += v;
            *progs.entry(prog).or_default().entry(metric).or_default() += v;
        }
        self.all.close(all);
        for (prog, sums) in progs {
            self.progs.entry(prog).or_default().close(sums);
        }
    }
}

/// Counters that must repeat bit for bit, keyed by program, seed slot and
/// counter name. Every repetition of an operation at the same slot must
/// reproduce the values of its first run.
#[derive(Default)]
pub struct Exact {
    map: BTreeMap<(&'static str, u32, &'static str), u64>,
    /// Human-readable description of every mismatch seen.
    pub mismatches: Vec<String>,
}

impl Exact {
    /// Record `v`; returns false if the counter already held another value.
    pub fn check(&mut self, prog: &'static str, slot: u32, key: &'static str, v: u64) -> bool {
        match self.map.insert((prog, slot, key), v) {
            Some(old) if old != v => {
                self.mismatches
                    .push(format!("{prog} slot {slot} {key}: {old} then {v}"));
                false
            }
            _ => true,
        }
    }

    /// Values of `key` at every slot, for one program or for every program.
    pub fn values(&self, prog: Option<&str>, key: &str) -> Vec<u64> {
        self.map
            .iter()
            .filter(|((p, _, k), _)| *k == key && prog.is_none_or(|q| q == *p))
            .map(|(_, &v)| v)
            .collect()
    }

    /// Sum of `key` over every slot of one program or of every program.
    pub fn sum(&self, prog: Option<&str>, key: &str) -> f64 {
        self.values(prog, key).iter().sum::<u64>() as f64
    }

    /// Every counter summed over programs: the workload's fingerprint.
    /// Digests are summed too (wrapping), so any change shows.
    pub fn fingerprint(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (&(_, _, key), &v) in &self.map {
            let e = out.entry(key).or_default();
            *e = e.wrapping_add(v);
        }
        out
    }
}

/// Quantile of `v` at `q`: the median averages the two middle values;
/// other quantiles take the nearest rank.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if q == 0.5 {
        return if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    s[rank - 1]
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Mean of `v`, or 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_their_definitions() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0];
        assert_eq!(quantile(&v, 0.5), 3.5);
        assert_eq!(quantile(&v[..5], 0.5), 3.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.9), 90.0);
        assert_eq!(quantile(&hundred, 0.1), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn exact_counters_flag_a_changed_value() {
        let mut e = Exact::default();
        assert!(e.check("fft", 0, "events", 7));
        assert!(e.check("fft", 0, "events", 7));
        assert!(e.check("fft", 1, "events", 9));
        assert!(!e.check("fft", 0, "events", 8));
        assert_eq!(e.mismatches.len(), 1);
        assert_eq!(e.values(Some("fft"), "events"), vec![8, 9]);
    }

    #[test]
    fn groups_sum_per_metric_and_per_program() {
        let mut books = Books::default();
        let mut g = Group::new(false);
        g.begin();
        g.push("a", "base_ms", 1.0);
        g.push("a", "rec_ms", 2.0);
        g.span("a", "encode_ms", 9.0);
        g.push("a", "cells", 6.0);
        g.end();
        g.begin();
        g.push("b", "base_ms", 2.0);
        g.end();
        assert_eq!(g.ops().len(), 2);
        books.close(g, &[0.25, 0.5]);
        assert_eq!(books.all.samples["base_ms"], vec![1.25]);
        assert_eq!(books.progs["b"].samples["base_ms"], vec![1.0]);
        // Recording times take the scale to the power 1.5.
        assert_eq!(books.all.samples["rec_ms"], vec![0.25]);
        assert_eq!(books.all.samples["cells"], vec![6.0]);
        assert!(!books.all.samples.contains_key("encode_ms"));
    }
}
