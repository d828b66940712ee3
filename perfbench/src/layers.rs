//! Standalone per-layer probes of the traced run: the frame codec, the
//! packed kernel, and one shard-shaped `ResilientEngine`, each timed in
//! isolation on seeded inputs. Iteration counts are fixed, so the probes
//! cost the same on every workload.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use tdam::config::ArrayConfig;
use tdam::engine::BatchQuery;
use tdam::packed::PackedArray;
use tdam::resilience::ResilienceConfig;
use tdam::runtime::ResilientEngine;
use tdam::serve::{read_frame, write_frame, Reply, Request, ServeConfig, TopK};
use tdam::tdc::CounterTdc;
use tdam::timing::StageTiming;

use crate::common::{perturbed, random_row, row_of, splitmix, Samples, Sheet, K, STAGES};

/// Median over `rounds` of the mean ns per call of `f` run `per` times.
fn ns_per_call(rounds: usize, per: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut means: Vec<f64> = (0..rounds)
        .map(|r| {
            let t0 = Instant::now();
            for i in 0..per {
                f(r * per + i);
            }
            t0.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    means[rounds / 2]
}

fn time_ns(f: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as u64
}

/// Frame codec: request/reply encode and decode of the shapes the
/// `tcp-serve` workload sends, and one frame through `write_frame` +
/// `read_frame` over an in-memory buffer.
pub fn codec(sheet: &mut Sheet, seed: u64) {
    let query = random_row(splitmix(seed ^ 0xC0DE));
    let request = Request::Query {
        query,
        k: K,
        deadline_us: 250_000,
    };
    let reply = Reply::TopK(TopK {
        neighbors: (0..K).map(|i| (i, i * 97)).collect(),
        partial: false,
        degraded: false,
        shards_answered: 16,
        shards_total: 16,
    });
    let req_bytes = request.encode();
    let rep_bytes = reply.encode();
    let (rounds, per) = (9, 20_000);
    sheet.put(
        "codec.request_encode_ns",
        ns_per_call(rounds, per, |_| {
            black_box(black_box(&request).encode());
        }),
        "ns",
    );
    sheet.put(
        "codec.request_decode_ns",
        ns_per_call(rounds, per, |_| {
            black_box(Request::decode(black_box(&req_bytes)).expect("decodes"));
        }),
        "ns",
    );
    sheet.put(
        "codec.reply_encode_ns",
        ns_per_call(rounds, per, |_| {
            black_box(black_box(&reply).encode());
        }),
        "ns",
    );
    sheet.put(
        "codec.reply_decode_ns",
        ns_per_call(rounds, per, |_| {
            black_box(Reply::decode(black_box(&rep_bytes)).expect("decodes"));
        }),
        "ns",
    );
    let mut wire = Vec::with_capacity(rep_bytes.len() + 8);
    sheet.put(
        "codec.frame_write_read_ns",
        ns_per_call(rounds, per, |_| {
            wire.clear();
            write_frame(&mut wire, black_box(&rep_bytes)).expect("in-memory write");
            let back = read_frame(&mut Cursor::new(&wire)).expect("in-memory read");
            black_box(back);
        }),
        "ns",
    );
}

/// Packed kernel: full scans (`expand_query` + `mismatch_counts`) of a
/// shard-sized (64 rows) and a corpus-shard-sized (4096 rows) array, and
/// the `from_codes` compile of the latter.
pub fn packed(sheet: &mut Sheet, seed: u64) {
    let array = ArrayConfig::paper_default();
    let timing = StageTiming::analytic(&array.tech, array.c_load).expect("paper timing");
    let tdc = CounterTdc::matched(&timing).expect("paper tdc");
    let flat: Vec<u8> = (0..4096u64)
        .flat_map(|r| random_row(splitmix(seed ^ 0x9AC4 ^ r)))
        .collect();
    let queries: Vec<Vec<u8>> = (0..64u64)
        .map(|i| perturbed(row_of(&flat, (i * 61) as usize), splitmix(seed ^ i)))
        .collect();
    for rows in [64usize, 4096] {
        let arr = PackedArray::from_codes(
            array.encoding,
            STAGES,
            &timing,
            &tdc,
            &flat[..rows * STAGES],
        );
        let mut scratch = arr.scratch();
        let per = (1 << 20) / rows;
        let ns = ns_per_call(9, per, |i| {
            arr.expand_query(&queries[i % queries.len()], &mut scratch);
            arr.mismatch_counts(&mut scratch);
            black_box(arr.counts(&scratch, 0, rows - 1));
        });
        sheet.put(
            &format!("packed.scan_rows_per_s.{rows}"),
            rows as f64 / (ns * 1e-9),
            "rows/s",
        );
        if rows == 4096 {
            sheet.note(format!("packed kernel rung: {}", arr.kernel().name()));
        }
    }
    let mut compile = Samples::default();
    for _ in 0..15 {
        compile.push_ns(time_ns(|| {
            black_box(PackedArray::from_codes(
                array.encoding,
                STAGES,
                &timing,
                &tdc,
                black_box(&flat),
            ));
        }));
    }
    sheet.put("packed.from_codes_us.4096", compile.pct_us(50.0), "us");
}

/// One shard's engine (64 rows, the serving default's runtime policy)
/// probed call by call: `serve`, the health check, the snapshot kernel,
/// outcome resolution, snapshot compile, and reads right after a write
/// against reads of an unchanged array.
pub fn runtime(sheet: &mut Sheet, seed: u64) {
    let serve = ServeConfig::paper_default();
    let array = serve.array.with_rows(serve.rows_per_shard);
    let mut engine = ResilientEngine::new(array, ResilienceConfig::default(), serve.runtime)
        .expect("shard-shaped engine");
    let rows: Vec<Vec<u8>> = (0..serve.rows_per_shard as u64)
        .map(|r| random_row(splitmix(seed ^ 0x5EA1 ^ r)))
        .collect();
    for (r, row) in rows.iter().enumerate() {
        engine.store(r, row).expect("store");
    }
    let query = |i: u64| perturbed(&rows[(i % rows.len() as u64) as usize], splitmix(seed ^ i));
    let batch_of = |q: &[u8]| {
        let mut b = BatchQuery::new(STAGES);
        b.push(q).expect("query fits");
        b
    };

    let mut serve_ns = Samples::default();
    for i in 0..1024u64 {
        let b = batch_of(&query(i));
        serve_ns.push_ns(time_ns(|| {
            black_box(engine.serve(&b).expect("serve"));
        }));
    }
    sheet.put("runtime.serve_us.p50", serve_ns.pct_us(50.0), "us");
    sheet.put("runtime.serve_us.p99", serve_ns.pct_us(99.0), "us");

    let mut check = Samples::default();
    for _ in 0..15 {
        check.push_ns(time_ns(|| {
            black_box(engine.array().check().expect("check"));
        }));
    }
    sheet.put("runtime.health_check_us.p50", check.pct_us(50.0), "us");

    let snap = engine.snapshot().expect("serve published a snapshot");
    let (mut search, mut resolve) = (Samples::default(), Samples::default());
    for i in 0..1024u64 {
        let q = query(i);
        let t0 = Instant::now();
        let out = snap.search_packed_unchecked(&q).expect("snapshot search");
        search.push(t0.elapsed());
        let t1 = Instant::now();
        black_box(engine.array().resolve_outcome(&out));
        resolve.push(t1.elapsed());
    }
    sheet.put("runtime.snapshot_search_us.p50", search.pct_us(50.0), "us");
    sheet.put("runtime.resolve_us.p50", resolve.pct_us(50.0), "us");

    let mut compile = Samples::default();
    for _ in 0..15 {
        compile.push_ns(time_ns(|| {
            black_box(engine.array().array().compile_snapshot());
        }));
    }
    sheet.put("runtime.compile_snapshot_us", compile.pct_us(50.0), "us");

    let (mut after_write, mut clean) = (Samples::default(), Samples::default());
    for i in 0..256u64 {
        let b = batch_of(&query(i));
        let h = splitmix(seed ^ 0x3417E ^ i);
        engine
            .store((h % rows.len() as u64) as usize, &random_row(h))
            .expect("store");
        after_write.push_ns(time_ns(|| {
            black_box(engine.serve(&b).expect("serve"));
        }));
        clean.push_ns(time_ns(|| {
            black_box(engine.serve(&b).expect("serve"));
        }));
    }
    sheet.put(
        "mutate.read_after_write_us.p50",
        after_write.pct_us(50.0),
        "us",
    );
    sheet.put("mutate.read_clean_us.p50", clean.pct_us(50.0), "us");
}

/// Runs every standalone probe.
pub fn all(sheet: &mut Sheet, seed: u64) {
    codec(sheet, seed);
    packed(sheet, seed);
    runtime(sheet, seed);
}
