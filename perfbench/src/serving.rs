//! Pieces shared by the two workloads over a `ShardedService`: the
//! corpus and query stream, counter snapshots, and the brute-force judge.

use std::time::Duration;

use tdam::runtime::RuntimeStats;
use tdam::serve::{
    brute_force_topk, seeded_corpus, FrontStats, ServiceStats, ShardedService, TopK,
};

use crate::common::{perturbed, splitmix, Sheet, K, LEVELS, STAGES};

/// Corpus rows of the serving workloads (16 shards of 64 rows).
pub const ROWS: usize = 1024;
/// Set-ups measured by an untraced run; `setup_s` is their median.
pub const SETUPS: usize = 15;
/// Pause before each set-up. One takes about 10 ms, so without pauses
/// every sample would see the machine at the same instant; spread over
/// a second and a half they see more of its swings in speed.
pub const SETUP_PAUSE: Duration = Duration::from_millis(100);
/// Untimed in-process queries before the first timed one: two
/// health-probe periods, so every shard has compiled its snapshot.
pub const WARM_QUERIES: u64 = 64;
/// Seeded queries answered outside the timed loop for `recall_at_10`.
pub const RECALL_QUERIES: u64 = 64;

pub fn corpus(seed: u64) -> Vec<Vec<u8>> {
    seeded_corpus(ROWS, STAGES, LEVELS as u8, splitmix(seed ^ 0xC0_4905))
}

/// Query `i`: a row of `corpus` with two elements perturbed.
pub fn query(corpus: &[Vec<u8>], seed: u64, i: u64) -> Vec<u8> {
    let h = splitmix(seed ^ 0x0051_E4D1 ^ i);
    perturbed(&corpus[(h % corpus.len() as u64) as usize], h)
}

/// Shard runtime counters summed over every shard of the service.
fn shard_sum(svc: &ShardedService) -> RuntimeStats {
    let mut sum = RuntimeStats::default();
    for st in svc.shard_statuses() {
        let s = st.stats;
        sum.health_checks += s.health_checks;
        sum.epoch_swaps += s.epoch_swaps;
        sum.incremental_repacks += s.incremental_repacks;
        sum.rows_repacked += s.rows_repacked;
        sum.recompiles += s.recompiles;
    }
    sum
}

/// Service-side counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub front: FrontStats,
    pub service: ServiceStats,
    pub shards: RuntimeStats,
}

impl Counters {
    pub fn take(svc: &ShardedService, front: FrontStats) -> Self {
        Self {
            front,
            service: svc.service_stats(),
            shards: shard_sum(svc),
        }
    }

    /// Writes the counter deltas since `before` as per-layer metrics.
    pub fn deltas(&self, before: &Counters, sheet: &mut Sheet) {
        let (f, g) = (&self.front, &before.front);
        sheet.put("front.received", (f.received - g.received) as f64, "count");
        sheet.put("front.answered", (f.answered - g.answered) as f64, "count");
        sheet.put(
            "front.shed_queue",
            (f.shed_queue - g.shed_queue) as f64,
            "count",
        );
        sheet.put(
            "front.shed_deadline",
            (f.shed_deadline - g.shed_deadline) as f64,
            "count",
        );
        sheet.put("front.errors", (f.errors - g.errors) as f64, "count");
        let (s, t) = (&self.service, &before.service);
        let requests = s.requests - t.requests;
        sheet.put("service.requests", requests as f64, "count");
        sheet.put(
            "service.complete",
            (s.complete - t.complete) as f64,
            "count",
        );
        sheet.put("service.partial", (s.partial - t.partial) as f64, "count");
        sheet.put(
            "service.degraded",
            (s.degraded - t.degraded) as f64,
            "count",
        );
        let (r, q) = (&self.shards, &before.shards);
        let per_kq = |n: usize| n as f64 * 1000.0 / requests.max(1) as f64;
        sheet.put(
            "runtime.health_checks_per_kq",
            per_kq(r.health_checks - q.health_checks),
            "1/kq",
        );
        sheet.put(
            "runtime.epoch_swaps_per_kq",
            per_kq(r.epoch_swaps - q.epoch_swaps),
            "1/kq",
        );
        sheet.put(
            "runtime.incremental_repacks_per_kq",
            per_kq(r.incremental_repacks - q.incremental_repacks),
            "1/kq",
        );
        sheet.put(
            "runtime.rows_repacked_per_kq",
            per_kq(r.rows_repacked - q.rows_repacked),
            "1/kq",
        );
        sheet.put(
            "runtime.recompiles_per_kq",
            per_kq(r.recompiles - q.recompiles),
            "1/kq",
        );
    }
}

/// Judges one answer. A complete answer must equal brute force over
/// `corpus`; any other answer is a failure, never a wrong answer.
/// Returns whether the answer counts as failed.
pub fn judge(sheet: &mut Sheet, corpus: &[Vec<u8>], query: &[u8], answer: &TopK) -> bool {
    if !answer.complete() {
        return true;
    }
    let encoding = tdam::config::ArrayConfig::paper_default().encoding;
    let want = brute_force_topk(corpus, encoding, query, K).expect("query fits the corpus");
    if answer.neighbors != want {
        sheet.fail(format!(
            "wrong answer: query {query:?} got {:?} want {want:?}",
            answer.neighbors
        ));
    }
    false
}

/// The untimed queries that precede the first timed one.
pub fn warm(service: &ShardedService, corpus: &[Vec<u8>], seed: u64, deadline: Duration) {
    for i in 0..WARM_QUERIES {
        let q = query(corpus, seed, u64::MAX - i);
        service.search_topk(&q, K, deadline).expect("warm query");
    }
}

/// Recall@K of the service's answers against brute force over `corpus`
/// (the rows as they are now), on seeded queries served in-process
/// outside the timed loop. A query that is not answered counts as
/// recalling nothing.
pub fn recall(service: &ShardedService, corpus: &[Vec<u8>], seed: u64, deadline: Duration) -> f64 {
    let encoding = tdam::config::ArrayConfig::paper_default().encoding;
    let mut hit = 0usize;
    for i in 0..RECALL_QUERIES {
        let q = query(corpus, seed ^ 0x000E_CA11, i);
        let want = brute_force_topk(corpus, encoding, &q, K).expect("query fits the corpus");
        if let Ok(got) = service.search_topk(&q, K, deadline) {
            hit += got
                .neighbors
                .iter()
                .filter(|n| want.iter().any(|w| w.1 == n.1))
                .count();
        }
    }
    hit as f64 / (RECALL_QUERIES as usize * K) as f64
}
