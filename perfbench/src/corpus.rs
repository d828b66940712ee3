//! `corpus-spill`: the two-tier `CorpusEngine` over a clustered
//! 1,000,000-row corpus, one caller, with a snapshot cache that holds
//! about 44% of the shards.

use std::time::Instant;

use tdam::corpus::{CorpusBuilder, CorpusConfig, CorpusEngine};

use crate::common::{
    hamming, median_s, peak_rss_mb, perturbed, row_of, splitmix, Samples, Sheet, K, LEVELS, STAGES,
};
use crate::trace::{Recorder, Trace};
use crate::Args;

const ROWS: usize = 1_000_000;
const PROTOTYPES: u64 = 64;
const SETUPS: usize = 3;
/// Holds about 44% of the 245 shard snapshots.
const CACHE_BUDGET_BYTES: usize = 16 << 20;
/// Untimed queries after set-up, before the first timed one.
const WARM_QUERIES: u64 = 256;
/// Seeded queries outside the timed loop, judged against flat brute
/// force over the whole corpus for `recall_at_10`.
const RECALL_QUERIES: u64 = 200;

/// Clustered corpus: each row copies one of 64 seeded prototypes, with
/// 10% of its elements redrawn at random (the generator of `ext_corpus`).
fn clustered(seed: u64) -> Vec<u8> {
    let mut flat = Vec::with_capacity(ROWS * STAGES);
    for r in 0..ROWS as u64 {
        let p = splitmix(seed ^ 0x000A_11CE ^ r) % PROTOTYPES;
        for j in 0..STAGES as u64 {
            let base = splitmix(seed ^ 0xB0_55 ^ (p << 20 | j)) % LEVELS;
            let n = splitmix(seed ^ 0x0040_15E0 ^ (r << 20 | j));
            let v = if n % 100 < 10 {
                (n >> 8) % LEVELS
            } else {
                base
            };
            flat.push(v as u8);
        }
    }
    flat
}

fn query(flat: &[u8], seed: u64, i: u64) -> Vec<u8> {
    let h = splitmix(seed ^ 0xDE_CAF ^ i);
    perturbed(row_of(flat, (h % ROWS as u64) as usize), h)
}

struct Built {
    engine: CorpusEngine,
    ingest_s: f64,
    build_s: f64,
}

fn build(cfg: CorpusConfig, flat: &[u8]) -> Built {
    let t0 = Instant::now();
    let mut builder = CorpusBuilder::new(cfg).expect("corpus config");
    builder.append_flat(flat).expect("ingest");
    let ingest_s = t0.elapsed().as_secs_f64();
    let engine = builder.build().expect("build");
    Built {
        engine,
        ingest_s,
        build_s: t0.elapsed().as_secs_f64() - ingest_s,
    }
}

/// One answered query: its index, latency, answer and probed shards.
struct Answered {
    index: u64,
    latency_ns: u64,
    answer: Vec<(usize, usize)>,
    probed: Vec<usize>,
}

/// Answers queries `*next..` until `max` are done or `end` passes.
fn drive(
    engine: &mut CorpusEngine,
    flat: &[u8],
    args: &Args,
    next: &mut u64,
    max: u64,
    end: Option<Instant>,
    mut rec: Option<&mut Recorder>,
) -> Vec<Answered> {
    let mut log = Vec::new();
    while (log.len() as u64) < max && end.is_none_or(|e| Instant::now() < e) {
        let index = *next;
        *next += 1;
        let q = query(flat, args.seed, index);
        let t0 = Instant::now();
        let (mut answer, probed) = match rec.as_mut() {
            None => engine.search_topk_probed(&q, K).expect("corpus search"),
            Some(r) => {
                let root = r.open("corpus.query", index);
                r.span("corpus.probe", index, || engine.probe(&q).expect("probe"));
                let out = r.span("corpus.search_topk_probed", index, || {
                    engine.search_topk_probed(&q, K).expect("corpus search")
                });
                r.close(root);
                out
            }
        };
        let latency_ns = t0.elapsed().as_nanos() as u64;
        // The answer keeps the capacity of every candidate scanned
        // (about 1 MB); hold on to its ten entries only.
        answer.shrink_to_fit();
        log.push(Answered {
            index,
            latency_ns,
            answer,
            probed,
        });
    }
    log
}

/// The corpus regrouped shard by shard (from the benchmark's own rows
/// and the engine's shard membership), so the restricted judge scans
/// contiguous memory.
struct ShardMajor {
    ids: Vec<Vec<usize>>,
    codes: Vec<Vec<u8>>,
}

impl ShardMajor {
    /// Regroups `flat` by `engine`'s shards, checking that the shards
    /// partition the rows.
    fn new(sheet: &mut Sheet, engine: &CorpusEngine, flat: &[u8]) -> Self {
        let mut seen = vec![false; ROWS];
        let (mut ids, mut codes) = (Vec::new(), Vec::new());
        for c in 0..engine.shards() {
            let members: Vec<usize> = engine.shard_ids(c).iter().map(|&id| id as usize).collect();
            let mut slab = Vec::with_capacity(members.len() * STAGES);
            for &id in &members {
                if id >= ROWS || std::mem::replace(&mut seen[id], true) {
                    sheet.fail(format!("shard {c} lists row {id} twice or out of range"));
                    continue;
                }
                slab.extend_from_slice(row_of(flat, id));
            }
            ids.push(members);
            codes.push(slab);
        }
        if seen.iter().any(|s| !s) {
            sheet.fail("some rows belong to no shard".into());
        }
        Self { ids, codes }
    }

    /// Top-K by `(distance, id)` over the rows of `shards`.
    fn topk(&self, q: &[u8], shards: &[usize]) -> Vec<(usize, usize)> {
        let mut ranked = Vec::new();
        for &c in shards {
            for (slot, &id) in self.ids[c].iter().enumerate() {
                ranked.push((hamming(q, row_of(&self.codes[c], slot)), id));
            }
        }
        select(ranked)
    }
}

/// The K smallest `(distance, id)` pairs, ascending.
fn select(mut ranked: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    if K < ranked.len() {
        ranked.select_nth_unstable(K - 1);
        ranked.truncate(K);
    }
    ranked.sort_unstable();
    ranked
}

/// Judges every answer against brute force restricted to its probed
/// shards; returns the latency samples.
fn settle(
    sheet: &mut Sheet,
    shards: &ShardMajor,
    flat: &[u8],
    args: &Args,
    log: &[Answered],
) -> Samples {
    let mut lat = Samples::default();
    for a in log {
        let q = query(flat, args.seed, a.index);
        let want = shards.topk(&q, &a.probed);
        if a.answer != want {
            sheet.fail(format!(
                "wrong corpus answer for query {}: got {:?} want {want:?}",
                a.index, a.answer
            ));
        }
        lat.push_ns(a.latency_ns);
    }
    lat
}

fn probes(log: &[Answered]) -> usize {
    log.iter().map(|a| a.probed.len()).sum()
}

pub fn run(args: &Args, sheet: &mut Sheet) {
    let flat = clustered(args.seed);
    let cfg = CorpusConfig {
        shard_rows: 4096,
        nprobe: 16,
        cache_budget_bytes: CACHE_BUDGET_BYTES,
        ..CorpusConfig::paper_default()
    };
    let setups = if args.trace { 1 } else { SETUPS };
    let (mut setup, mut last) = (Vec::new(), None);
    for _ in 0..setups {
        drop(last.take());
        let b = build(cfg, &flat);
        setup.push(b.ingest_s + b.build_s);
        last = Some(b);
    }
    let Built {
        mut engine,
        ingest_s,
        build_s,
    } = last.expect("at least one set-up");
    let shards = ShardMajor::new(sheet, &engine, &flat);
    let base = *engine.stats();
    let mut calls = Vec::new();

    // Warm pass: a fixed number of untimed queries.
    let mut next = u64::MAX - WARM_QUERIES;
    let warm = drive(
        &mut engine,
        &flat,
        args,
        &mut next,
        WARM_QUERIES,
        None,
        None,
    );
    calls.push(probes(&warm));

    let before = *engine.stats();
    let mut next = 0u64;
    let t0 = Instant::now();
    let log = drive(
        &mut engine,
        &flat,
        args,
        &mut next,
        u64::MAX,
        Some(t0 + args.window()),
        None,
    );
    let elapsed = t0.elapsed().as_secs_f64();
    let after = *engine.stats();
    let resident_bytes = engine.status().resident_bytes;
    calls.push(probes(&log));
    let mut lat = settle(sheet, &shards, &flat, args, &log);
    sheet.attempted = log.len() as u64;
    sheet.failed = 0;
    let qps = log.len() as f64 / elapsed;
    let hits = after.corpus_cache_hits - before.corpus_cache_hits;
    let misses = after.corpus_cache_misses - before.corpus_cache_misses;
    let evictions = after.corpus_cache_evictions - before.corpus_cache_evictions;
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    let per_query = |n: usize| n as f64 / log.len().max(1) as f64;

    if args.trace {
        let mut rec = Recorder::new(Instant::now(), 0);
        let t0 = Instant::now();
        let tlog = drive(
            &mut engine,
            &flat,
            args,
            &mut next,
            u64::MAX,
            Some(t0 + args.window()),
            Some(&mut rec),
        );
        let traced_qps = tlog.len() as f64 / t0.elapsed().as_secs_f64();
        calls.push(probes(&tlog));
        settle(sheet, &shards, &flat, args, &tlog);
        let mut trace = Trace::default();
        trace.absorb(rec);
        let mut probe = trace.durations("corpus.probe");
        sheet.put("corpus.probe_us.p50", probe.pct_us(50.0), "us");
        sheet.put("corpus.probe_us.p99", probe.pct_us(99.0), "us");
        let mut rerank = trace.difference("corpus.search_topk_probed", "corpus.probe");
        sheet.put("corpus.rerank_us.p50", rerank.pct_us(50.0), "us");
        sheet.put("corpus.rerank_us.p99", rerank.pct_us(99.0), "us");
        let reranked: usize = log
            .iter()
            .flat_map(|a| a.probed.iter().map(|&c| engine.shard_len(c)))
            .sum();
        sheet.put(
            "corpus.rows_reranked_per_query",
            per_query(reranked),
            "rows",
        );
        sheet.put("corpus.cache_hit_ratio", hit_ratio, "ratio");
        sheet.put("corpus.evictions_per_query", per_query(evictions), "count");
        let now = *engine.stats();
        let all_misses = now.corpus_cache_misses - base.corpus_cache_misses;
        let compile_us = now.corpus_compile_micros - base.corpus_compile_micros;
        sheet.put(
            "corpus.compile_us_per_miss",
            compile_us as f64 / all_misses.max(1) as f64,
            "us",
        );
        sheet.put("corpus.ingest_s", ingest_s, "s");
        sheet.put("corpus.build_s", build_s, "s");
        sheet.put("corpus.resident_bytes", resident_bytes as f64, "bytes");
        crate::finish_trace(sheet, args, &trace, qps, traced_qps);
    } else {
        sheet.put("setup_s", median_s(setup.clone()), "s");
        sheet.note(format!("set-ups (s): {setup:.4?}"));
        sheet.note(format!("latency deciles (us): {}", lat.deciles_us()));
        sheet.put("query_p50_us", lat.pct_us(50.0), "us");
        sheet.put("query_p90_us", lat.pct_us(90.0), "us");
        sheet.put("query_p99_us", lat.pct_us(99.0), "us");
        sheet.put("qps", qps, "1/s");
        let (mut hit, mut total) = (0usize, 0usize);
        let mut next = u64::MAX / 2;
        let recall_log = drive(
            &mut engine,
            &flat,
            args,
            &mut next,
            RECALL_QUERIES,
            None,
            None,
        );
        calls.push(probes(&recall_log));
        for a in &recall_log {
            let q = query(&flat, args.seed, a.index);
            let want = select(
                (0..ROWS)
                    .map(|id| (hamming(&q, row_of(&flat, id)), id))
                    .collect(),
            );
            hit += a
                .answer
                .iter()
                .filter(|n| want.iter().any(|w| w.1 == n.1))
                .count();
            total += want.len();
        }
        sheet.put("recall_at_10", hit as f64 / total.max(1) as f64, "ratio");
        sheet.put("peak_rss_mb", peak_rss_mb(), "MiB");
        sheet.note(format!(
            "latency samples {} ({} beyond p99), cache hit ratio {hit_ratio:.4}, evictions/query {:.3}, {} shards, kernel {}",
            lat.len(),
            lat.beyond(99.0),
            per_query(evictions),
            engine.shards(),
            tdam::packed::PackedKernel::detect().name()
        ));
    }

    // Every probed shard of every call is a cache hit or a miss.
    let now = *engine.stats();
    let looked_up = (now.corpus_cache_hits + now.corpus_cache_misses)
        - (base.corpus_cache_hits + base.corpus_cache_misses);
    sheet.reconcile("corpus cache hits + misses", looked_up, calls.iter().sum());
}
