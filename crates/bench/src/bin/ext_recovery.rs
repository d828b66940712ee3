//! Extension: durable-state crash recovery campaign.
//!
//! Exercises the `tdam::store` persistence subsystem two ways. First, a
//! clean warm-start demonstration: a deployment is programmed, served,
//! checkpointed, and recovered, and the recovered engine must answer the
//! same query batch bit-identically to the pre-restart engine. Second,
//! the seeded crash-injection campaign (`run_crash_chaos`, each scenario
//! on a fresh in-memory `MemStorage` disk): simulated kills at every
//! byte boundary of the checkpoint commit sequence and of
//! the write-ahead journal, plus seeded bit flips and truncations of
//! both file kinds, with every recovery compared against an
//! independently replayed expected state. The acceptance bar: over 1000
//! scenarios in the full run, zero silent corruptions — every damaged
//! file is detected (CRC, magic, length, or version) and recovery falls
//! back to the last good generation.
//!
//! Usage: `cargo run --release -p tdam-bench --bin ext_recovery [--quick] [--save]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdam::config::ArrayConfig;
use tdam::engine::BatchQuery;
use tdam::resilience::ResilienceConfig;
use tdam::runtime::{ResilientEngine, RetryConfig, RuntimeConfig};
use tdam::store::{run_crash_chaos, CheckpointStore, CrashChaosConfig, DurableEngine};
use tdam_bench::{quick_mode, rline, Report};

fn warm_start_demo(rpt: &mut Report) {
    let stages = 16;
    let data_rows = 8;
    let cfg = ArrayConfig::paper_default()
        .with_stages(stages)
        .with_rows(data_rows);
    let levels = cfg.encoding.levels() as usize;
    let rcfg = RuntimeConfig {
        retry: RetryConfig {
            max_retries: 2,
            backoff: std::time::Duration::ZERO,
            backoff_cap: std::time::Duration::ZERO,
        },
        ..RuntimeConfig::default()
    };
    let resilience = ResilienceConfig {
        spare_rows: 2,
        reference_rows: 2,
        ..Default::default()
    };

    let mut engine = ResilientEngine::new(cfg, resilience, rcfg).expect("engine");
    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
    let mut stored = Vec::new();
    for row in 0..data_rows {
        let values: Vec<u8> = (0..stages)
            .map(|_| rng.gen_range(0..levels) as u8)
            .collect();
        engine.store(row, &values).expect("store");
        stored.push(values);
    }
    let mut batch = BatchQuery::new(stages);
    for values in &stored {
        let mut q = values.clone();
        q[0] = (q[0] + 1) % levels as u8; // near-match: 1 mismatch per row
        batch.push(&q).expect("push");
    }

    let dir = std::env::temp_dir().join(format!(
        "tdam-ext-recovery-{}-warm-start",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::open(&dir).expect("open store");
    let mut durable = DurableEngine::new(store, engine).expect("durable");
    let before = durable.serve(&batch).expect("serve before checkpoint");
    let generation = durable.checkpoint().expect("checkpoint");

    let (mut recovered, report) = DurableEngine::recover(&dir, rcfg).expect("recover");
    let after = recovered.serve(&batch).expect("serve after recovery");

    rline!(
        rpt,
        "checkpointed generation {generation} ({} data rows, {stages} stages); \
         recovery replayed {} journal ops, corruption detected: {}",
        data_rows,
        report.ops_replayed,
        report.corruption_detected
    );
    let identical = before.slots == after.slots;
    rline!(
        rpt,
        "pre-restart vs post-restore search_batch bit-identical: {}",
        if identical { "yes" } else { "NO" }
    );
    rline!(
        rpt,
        "post-restore backend after revalidation: {:?}",
        recovered.engine().backend()
    );
    assert!(
        identical,
        "restored engine must answer the same batch bit-identically"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn main() {
    let mut rpt = Report::new("ext_recovery");

    rpt.header("warm-start: checkpoint -> restore -> identical serving");
    warm_start_demo(&mut rpt);

    let cfg = if quick_mode() {
        CrashChaosConfig::quick()
    } else {
        CrashChaosConfig::paper_default()
    };
    rpt.header("seeded crash-injection campaign over the checkpoint/journal store");
    rline!(
        rpt,
        "deployment: {} stages x {} data rows (+{} spares, +{} references); \
         commit-kill stride {}, journal-kill stride {}",
        cfg.stages,
        cfg.data_rows,
        cfg.resilience.spare_rows,
        cfg.resilience.reference_rows,
        cfg.commit_stride,
        cfg.journal_stride
    );

    let report = run_crash_chaos(&cfg).expect("crash campaign");

    rline!(rpt, "{:>28} {:>8}", "scenario family", "count");
    for (label, count) in [
        ("kill mid-commit", report.commit_kills),
        ("kill mid-journal-append", report.journal_kills),
        ("checkpoint bit flips", report.checkpoint_flips),
        ("checkpoint truncations", report.checkpoint_truncations),
        ("journal bit flips", report.journal_flips),
        ("clean controls", report.clean_controls),
    ] {
        rline!(rpt, "{label:>28} {count:>8}");
    }
    rline!(rpt);
    rline!(rpt, "total scenarios:        {:>8}", report.scenarios);
    rline!(rpt, "damage detected:        {:>8}", report.detected);
    rline!(rpt, "generation fallbacks:   {:>8}", report.fallbacks);
    rline!(rpt, "torn journal tails:     {:>8}", report.torn_journals);
    rline!(
        rpt,
        "silent corruptions:     {:>8}",
        report.silent_corruptions
    );
    rline!(
        rpt,
        "failed recoveries:      {:>8}",
        report.failed_recoveries
    );
    rline!(rpt, "false alarms:           {:>8}", report.false_alarms);

    rline!(
        rpt,
        "\nEvery recovery was compared bit-for-bit against an independently\n\
         replayed expectation for the generation and journal prefix it\n\
         claimed to recover; a mismatch — detected or not — counts as a\n\
         silent corruption above."
    );

    if !quick_mode() {
        assert!(
            report.scenarios >= 1000,
            "full campaign must cover >= 1000 scenarios, got {}",
            report.scenarios
        );
    }
    assert_eq!(
        report.silent_corruptions, 0,
        "no scenario may recover divergent state"
    );
    assert_eq!(
        report.failed_recoveries, 0,
        "a good generation always existed; recovery must find it"
    );
    assert_eq!(
        report.false_alarms, 0,
        "clean recoveries must not report corruption"
    );
    rpt.finish();
}
