//! Shared pieces of every workload: seeded input generation, latency
//! summaries, the metric sheet printed at the end of a run, and the
//! reference (judge) distance.

use std::time::Duration;

/// SplitMix64 finalizer, the repository's seeding discipline: every input
/// of a run is a pure function of `--seed` through this mix.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Stages per row (the paper's 32-stage chain).
pub const STAGES: usize = 32;
/// Levels per element (2-bit cells).
pub const LEVELS: u64 = 4;
/// Neighbors requested by every top-k query.
pub const K: usize = 10;

/// Copies row `row` of a flat `rows x STAGES` slab.
pub fn row_of(flat: &[u8], row: usize) -> &[u8] {
    &flat[row * STAGES..(row + 1) * STAGES]
}

/// A stored row with two elements moved to another level: the query
/// shape of every workload (the source row is its own nearest neighbor).
pub fn perturbed(source: &[u8], h: u64) -> Vec<u8> {
    let mut q = source.to_vec();
    for t in 0..2u64 {
        let hh = splitmix(h ^ (0xE0 + t));
        let j = (hh % q.len() as u64) as usize;
        q[j] = ((u64::from(q[j]) + 1 + hh % (LEVELS - 1)) % LEVELS) as u8;
    }
    q
}

/// A uniformly random row drawn from `h`.
pub fn random_row(h: u64) -> Vec<u8> {
    (0..STAGES as u64)
        .map(|j| (splitmix(h ^ (j << 48) ^ 0x0057_0AE5) % LEVELS) as u8)
        .collect()
}

/// Element-Hamming distance (positions whose levels differ): the metric
/// `tdam::encoding::Encoding::hamming` defines, written out word-wise so
/// the judge of the corpus workloads can scan a million rows per query.
pub fn hamming(a: &[u8], b: &[u8]) -> usize {
    const LOW: u64 = 0x0101_0101_0101_0101;
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    let (wa, wb) = (a.chunks_exact(8), b.chunks_exact(8));
    let tail = wa
        .remainder()
        .iter()
        .zip(wb.remainder())
        .filter(|(x, y)| x != y)
        .count();
    wa.zip(wb)
        .map(|(x, y)| {
            // Fold every bit of each byte of the XOR into the byte's low
            // bit, then count the bytes that differ.
            let mut d = word(x) ^ word(y);
            d |= d >> 4;
            d |= d >> 2;
            d |= d >> 1;
            (d & LOW).count_ones() as usize
        })
        .sum::<usize>()
        + tail
}

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
        self.sorted = false;
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank percentile in microseconds (0 when empty).
    pub fn pct_us(&mut self, pct: f64) -> f64 {
        self.pct_ns(pct) / 1e3
    }

    /// Nearest-rank percentile in nanoseconds (0 when empty).
    pub fn pct_ns(&mut self, pct: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let rank = ((pct / 100.0) * self.ns.len() as f64).ceil() as usize;
        self.ns[rank.clamp(1, self.ns.len()) - 1] as f64
    }

    /// Samples strictly beyond the nearest-rank `pct` percentile.
    pub fn beyond(&self, pct: f64) -> usize {
        let rank = ((pct / 100.0) * self.ns.len() as f64).ceil() as usize;
        self.ns.len() - rank.min(self.ns.len())
    }

    /// The p10..p90 deciles in microseconds, as one line of context.
    pub fn deciles_us(&mut self) -> String {
        (1..10)
            .map(|d| format!("{:.1}", self.pct_us(f64::from(d) * 10.0)))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Median of a few wall-clock measurements, in seconds.
pub fn median_s(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The numbers one run reports: end-to-end metrics (untraced run) or
/// per-layer metrics (traced run), each with its unit, plus lines of
/// context that are printed but not part of the result object.
#[derive(Debug, Default)]
pub struct Sheet {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is wrong (a judge or reconciliation failure), if it is.
    pub wrong: Vec<String>,
}

impl Sheet {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a correctness failure; the run then exits non-zero.
    pub fn fail(&mut self, why: String) {
        self.wrong.push(why);
    }

    /// Asserts a counter reconciliation, recording a mismatch as a
    /// correctness failure.
    pub fn reconcile(&mut self, what: &str, counter: usize, client: usize) {
        self.note(format!(
            "reconcile {what}: counter {counter} vs client {client}"
        ));
        if counter != client {
            self.fail(format!(
                "counter mismatch: {what} = {counter}, client counted {client}"
            ));
        }
    }

    /// The result object: the last line of standard output.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
