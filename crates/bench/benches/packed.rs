//! Criterion micro-benchmarks of the bit-sliced packed kernel across
//! encoding widths (1/2/3/4-bit at 128 rows) and array sizes (64/128/1024
//! rows at 2-bit). Each configuration times two single-threaded batch
//! tiers: `search_batch` (packed kernel, full analog outcomes) and
//! `decide_batch` (packed kernel, decision-only).
//!
//! A third group sweeps the kernel **dispatch ladder** (scalar /
//! unrolled / wide-SIMD rungs, the latter only under `--features simd`
//! on a capable CPU) on the 1024-row decision path, where the
//! cache-blocked wide rungs matter most.
//!
//! Besides the Criterion registrations, each configuration prints one
//! coarse best-of-N summary line so `cargo bench --bench packed` leaves an
//! archivable trace even when the harness is the offline stand-in.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use tdam::array::TdamArray;
use tdam::config::ArrayConfig;
use tdam::encoding::Encoding;
use tdam::engine::{BatchQuery, SimilarityEngine};
use tdam::packed::PackedKernel;

const STAGES: usize = 128;
const BATCH: usize = 32;

fn seeded_array(bits: u8, rows: usize, seed: u64) -> (TdamArray, BatchQuery) {
    let cfg = ArrayConfig::paper_default()
        .with_encoding(Encoding::new(bits).expect("encoding"))
        .with_stages(STAGES)
        .with_rows(rows);
    let levels = cfg.encoding.levels() as u32;
    let mut am = TdamArray::new(cfg).expect("array");
    let mut rng = StdRng::seed_from_u64(seed);
    for row in 0..rows {
        let values: Vec<u8> = (0..STAGES)
            .map(|_| rng.gen_range(0..levels) as u8)
            .collect();
        am.store(row, &values).expect("store");
    }
    let mut batch = BatchQuery::new(STAGES);
    for _ in 0..BATCH {
        let q: Vec<u8> = (0..STAGES)
            .map(|_| rng.gen_range(0..levels) as u8)
            .collect();
        batch.push(&q).expect("push");
    }
    (am, batch)
}

fn best_of<F: FnMut() -> usize>(f: F) -> f64 {
    best_of_n(3, f)
}

fn best_of_n<F: FnMut() -> usize>(n: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn bench_config(c: &mut Criterion, bits: u8, rows: usize) {
    let (am, batch) = seeded_array(bits, rows, 0xBEC5 ^ ((bits as u64) << 16) ^ rows as u64);
    let compiled = am.compile_snapshot();
    assert_eq!(compiled.packed_rows(), rows, "all rows must pack");
    let tag = format!("{bits}bit_{rows}rows_{STAGES}stages");

    // Coarse archivable summary, independent of the harness backend.
    let packed = best_of(|| {
        compiled
            .search_batch(&am, &batch, Some(1))
            .expect("packed")
            .len()
    });
    let decide = best_of(|| {
        compiled
            .decide_batch(&am, &batch, Some(1))
            .expect("decide")
            .len()
    });
    println!(
        "{tag}: per query  packed {:7.2} µs  decide {:7.2} µs ({:5.2}x packed)",
        packed / BATCH as f64 * 1e6,
        decide / BATCH as f64 * 1e6,
        packed / decide,
    );

    c.bench_function(&format!("packed_batch_{tag}"), |b| {
        b.iter(|| {
            compiled
                .search_batch(&am, black_box(&batch), Some(1))
                .expect("packed")
                .len()
        })
    });
    c.bench_function(&format!("decide_batch_{tag}"), |b| {
        b.iter(|| {
            compiled
                .decide_batch(&am, black_box(&batch), Some(1))
                .expect("decide")
                .len()
        })
    });
}

fn bench_encoding_sweep(c: &mut Criterion) {
    for bits in 1..=4u8 {
        bench_config(c, bits, 128);
    }
}

fn bench_row_sweep(c: &mut Criterion) {
    for rows in [64usize, 1024] {
        bench_config(c, 2, rows);
    }
}

/// Dispatch ladder on the 1024-row decision path: every available rung,
/// each asserted decision-identical to the scalar rung before timing.
fn bench_kernel_ladder(c: &mut Criterion) {
    const ROWS: usize = 1024;
    let (am, batch) = seeded_array(2, ROWS, 0x1ADD);
    let mut compiled = am.compile_snapshot();
    assert_eq!(compiled.packed_rows(), ROWS, "all rows must pack");
    assert!(compiled.force_kernel(PackedKernel::Scalar));
    let reference = compiled.decide_batch(&am, &batch, Some(1)).expect("scalar");
    // Best of many passes: at 1024 rows a single 32-query pass is short
    // enough that scheduler noise would otherwise dominate the ratios.
    let scalar = best_of_n(20, || {
        compiled
            .decide_batch(&am, &batch, Some(1))
            .expect("scalar")
            .len()
    });
    let mut line = format!(
        "ladder_2bit_{ROWS}rows_{STAGES}stages: per query  scalar {:7.2} µs",
        scalar / BATCH as f64 * 1e6
    );
    for rung in [
        PackedKernel::Scalar,
        PackedKernel::Unrolled,
        PackedKernel::Simd,
    ] {
        if !compiled.force_kernel(rung) {
            continue;
        }
        let name = compiled.kernel().name();
        assert_eq!(
            compiled.decide_batch(&am, &batch, Some(1)).expect("rung"),
            reference,
            "{name} rung diverged from scalar"
        );
        if rung != PackedKernel::Scalar {
            let t = best_of_n(20, || {
                compiled
                    .decide_batch(&am, &batch, Some(1))
                    .expect("rung")
                    .len()
            });
            line.push_str(&format!(
                "  {name} {:7.2} µs ({:5.2}x)",
                t / BATCH as f64 * 1e6,
                scalar / t
            ));
        }
        c.bench_function(
            &format!("decide_{name}_2bit_{ROWS}rows_{STAGES}stages"),
            |b| {
                b.iter(|| {
                    compiled
                        .decide_batch(&am, black_box(&batch), Some(1))
                        .expect("rung")
                        .len()
                })
            },
        );
    }
    println!("{line}");
}

criterion_group!(
    benches,
    bench_encoding_sweep,
    bench_row_sweep,
    bench_kernel_ladder
);
criterion_main!(benches);
