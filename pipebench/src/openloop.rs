//! Open-loop schedules and what a rung of the rate ladder measured.
//!
//! Producers push documents on their own schedule, so each document
//! has a *due* time fixed before the rung starts, and its latency runs
//! from that due time, not from when the generator got round to
//! sending it. A stall therefore shows in every document queued
//! behind it. A closed-loop pass is the same plan with every document
//! due at once.

use crate::stats::quantile;
use crate::workload::Workload;

/// Which corpus document goes out at each position, and when.
pub struct Plan {
    pub docs: Vec<usize>,
    /// Due time of each position, in ns after the rung starts.
    pub due_ns: Vec<u64>,
    /// Input bytes of the whole plan.
    pub bytes: u64,
}

impl Plan {
    /// Documents cycle through the corpus from `first`, due at a steady
    /// byte rate of `rate_mb_s` for `secs` seconds.
    pub fn paced(w: &Workload, rate_mb_s: f64, secs: f64, first: usize) -> Plan {
        let mut plan = Plan {
            docs: Vec::new(),
            due_ns: Vec::new(),
            bytes: 0,
        };
        let ns_per_byte = 1e3 / rate_mb_s;
        let mut di = first;
        loop {
            let due = (plan.bytes as f64 * ns_per_byte) as u64;
            if due as f64 >= secs * 1e9 && !plan.docs.is_empty() {
                return plan;
            }
            let d = di % w.docs.len();
            plan.docs.push(d);
            plan.due_ns.push(due);
            plan.bytes += w.docs[d].len() as u64;
            di += 1;
        }
    }

    /// One pass over the corpus with every document due at once.
    pub fn closed(w: &Workload) -> Plan {
        Plan {
            docs: (0..w.docs.len()).collect(),
            due_ns: vec![0; w.docs.len()],
            bytes: w.bytes(),
        }
    }

    /// The corpus cut into closed-loop bursts of `size` consecutive
    /// documents, each due at once.
    pub fn bursts(w: &Workload, size: usize) -> Vec<Plan> {
        (0..w.docs.len())
            .step_by(size)
            .map(|first| {
                let docs: Vec<usize> = (first..w.docs.len().min(first + size)).collect();
                Plan {
                    due_ns: vec![0; docs.len()],
                    bytes: docs.iter().map(|&d| w.docs[d].len() as u64).sum(),
                    docs,
                }
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.docs.len()
    }
}

/// Per-position timestamps, ns after the rung started.
pub struct Stamps {
    /// When the generator started sending (or the worker started).
    pub send_ns: Vec<u64>,
    /// When the generator finished sending (loopback only; equals
    /// `send_ns` in process).
    pub sent_ns: Vec<u64>,
    /// When the document's completion (DOC_OK) was observed.
    pub done_ns: Vec<u64>,
    /// Documents whose output differed from the oracle.
    pub mismatched: u64,
}

impl Stamps {
    pub fn new(n: usize) -> Stamps {
        Stamps {
            send_ns: vec![0; n],
            sent_ns: vec![0; n],
            done_ns: vec![0; n],
            mismatched: 0,
        }
    }
}

/// What one rung showed, pooled over its segments: a rung runs as
/// several segments spread across the run, so a host phase lasting a
/// few seconds lands in one segment rather than in the whole rung.
#[derive(Default)]
pub struct Rung {
    pub latencies_ms: Vec<f64>,
    /// Per corpus document: its lowest latency over the rung.
    best_ms: Vec<f64>,
    pub lags_ms: Vec<f64>,
    bytes: u64,
    /// Sum over segments of the time until the last completion.
    span_ns: u64,
    /// Largest rise in backlog (documents due but not complete) from
    /// a segment's midpoint to its end.
    pub backlog_growth: u64,
    /// Largest backlog at the end of a segment.
    pub backlog_end: u64,
    pub mismatched: u64,
}

/// Backlog may rise by at most this many documents between a
/// segment's midpoint and its end before it counts as growing: one per
/// logical session can be legitimately in flight.
pub const BACKLOG_SLACK: u64 = 8;

impl Rung {
    /// Pool one segment of `secs` seconds.
    pub fn add(&mut self, plan: &Plan, stamps: &Stamps, secs: f64) {
        for i in 0..plan.len() {
            let ms = (stamps.done_ns[i] - plan.due_ns[i]) as f64 / 1e6;
            self.latencies_ms.push(ms);
            let d = plan.docs[i];
            if self.best_ms.len() <= d {
                self.best_ms.resize(d + 1, f64::INFINITY);
            }
            self.best_ms[d] = self.best_ms[d].min(ms);
            self.lags_ms
                .push(stamps.send_ns[i].saturating_sub(plan.due_ns[i]) as f64 / 1e6);
        }
        let backlog_at = |t: u64| -> u64 {
            let due = plan.due_ns.iter().filter(|&&d| d <= t).count();
            let done = stamps.done_ns.iter().filter(|&&d| d <= t).count();
            due.saturating_sub(done) as u64
        };
        let end_ns = (secs * 1e9) as u64;
        let (mid, end) = (backlog_at(end_ns / 2), backlog_at(end_ns));
        self.backlog_growth = self.backlog_growth.max(end.saturating_sub(mid));
        self.backlog_end = self.backlog_end.max(end);
        self.bytes += plan.bytes;
        self.span_ns += stamps.done_ns.iter().copied().max().unwrap_or(0);
        self.mismatched += stamps.mismatched;
    }

    pub fn docs(&self) -> usize {
        self.latencies_ms.len()
    }

    /// Input MB/s delivered: bytes over the time to the last DOC_OK.
    pub fn achieved_mb_s(&self) -> f64 {
        self.bytes as f64 * 1e3 / self.span_ns.max(1) as f64
    }

    pub fn latency_ms(&self, q: f64) -> f64 {
        quantile(&self.latencies_ms, q)
    }

    /// The `q` quantile over corpus documents of each one's lowest
    /// latency.
    pub fn best_latency_ms(&self, q: f64) -> f64 {
        let seen: Vec<f64> = self
            .best_ms
            .iter()
            .copied()
            .filter(|ms| ms.is_finite())
            .collect();
        quantile(&seen, q)
    }

    pub fn lag_p99_ms(&self) -> f64 {
        quantile(&self.lags_ms, 0.99)
    }

    /// The rung counts toward `sustained_mb_s`: its p99 meets the limit,
    /// no segment's backlog grew, and every output matched.
    pub fn sustained(&self, p99_limit_ms: f64) -> bool {
        self.latency_ms(0.99) <= p99_limit_ms
            && self.backlog_growth <= BACKLOG_SLACK
            && self.mismatched == 0
    }
}
