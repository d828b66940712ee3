//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <tcp-serve|mutate-mix|corpus-spill>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! Builds the workload's inputs from `--seed`, sets the program up, runs
//! a closed loop for `--seconds`, judges every answer, reconciles the
//! program's counters against the client's counts, and prints one line
//! per metric followed by the result object as the last line of standard
//! output. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! the same window untraced and then traced, and reports the per-layer
//! metrics (spans are written to `<trace-dir>/<workload>-<seed>.jsonl`).
//! A wrong answer or a counter mismatch makes the exit code 1.

mod common;
mod corpus;
mod layers;
mod mutate;
mod serving;
mod tcp;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use common::Sheet;
use trace::Trace;

const WORKLOADS: [&str; 3] = ["tcp-serve", "mutate-mix", "corpus-spill"];

/// End-to-end metrics every untraced run reports (the `end_to_end` list
/// of `BENCHMARK.json`).
const END_TO_END: [&str; 7] = [
    "setup_s",
    "query_p50_us",
    "query_p90_us",
    "query_p99_us",
    "qps",
    "recall_at_10",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run reports (the `per_layer` list of
/// `BENCHMARK.json`). A layer the workload does not run reports 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("serve.wire_self_us.p50", "us"),
    ("serve.wire_self_us.p99", "us"),
    ("codec.request_encode_ns", "ns"),
    ("codec.request_decode_ns", "ns"),
    ("codec.reply_encode_ns", "ns"),
    ("codec.reply_decode_ns", "ns"),
    ("codec.frame_write_read_ns", "ns"),
    ("front.received", "count"),
    ("front.answered", "count"),
    ("front.shed_queue", "count"),
    ("front.shed_deadline", "count"),
    ("front.errors", "count"),
    ("service.search_topk_us.p50", "us"),
    ("service.search_topk_us.p99", "us"),
    ("service.store_row_us.p50", "us"),
    ("service.store_row_us.p99", "us"),
    ("service.requests", "count"),
    ("service.complete", "count"),
    ("service.partial", "count"),
    ("service.degraded", "count"),
    ("service.build_s", "s"),
    ("runtime.serve_us.p50", "us"),
    ("runtime.serve_us.p99", "us"),
    ("runtime.health_check_us.p50", "us"),
    ("runtime.snapshot_search_us.p50", "us"),
    ("runtime.resolve_us.p50", "us"),
    ("runtime.compile_snapshot_us", "us"),
    ("runtime.health_checks_per_kq", "1/kq"),
    ("runtime.epoch_swaps_per_kq", "1/kq"),
    ("runtime.incremental_repacks_per_kq", "1/kq"),
    ("runtime.rows_repacked_per_kq", "1/kq"),
    ("runtime.recompiles_per_kq", "1/kq"),
    ("mutate.read_after_write_us.p50", "us"),
    ("mutate.read_clean_us.p50", "us"),
    ("packed.scan_rows_per_s.64", "rows/s"),
    ("packed.scan_rows_per_s.4096", "rows/s"),
    ("packed.from_codes_us.4096", "us"),
    ("corpus.probe_us.p50", "us"),
    ("corpus.probe_us.p99", "us"),
    ("corpus.rerank_us.p50", "us"),
    ("corpus.rerank_us.p99", "us"),
    ("corpus.rows_reranked_per_query", "rows"),
    ("corpus.cache_hit_ratio", "ratio"),
    ("corpus.evictions_per_query", "count"),
    ("corpus.compile_us_per_miss", "us"),
    ("corpus.ingest_s", "s"),
    ("corpus.build_s", "s"),
    ("corpus.resident_bytes", "bytes"),
];

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_dir: PathBuf,
}

impl Args {
    /// Length of one measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    fn parse() -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            trace_dir: PathBuf::from(".bench_trace"),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    };
                }
                "--trace-dir" => args.trace_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !(args.seconds > 0.0 && args.seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(args)
    }
}

/// Shared tail of every traced run: tracing overhead against the
/// untraced window, the span summary and file, and the standalone layer
/// probes.
pub fn finish_trace(sheet: &mut Sheet, args: &Args, trace: &Trace, qps: f64, traced_qps: f64) {
    sheet.put("trace.overhead_frac", 1.0 - traced_qps / qps, "ratio");
    sheet.put("trace.spans", trace.len() as f64, "count");
    for line in trace.summary() {
        sheet.note(line);
    }
    let path = args
        .trace_dir
        .join(format!("{}-{}.jsonl", args.workload, args.seed));
    match trace.write(&path) {
        Ok(()) => sheet.note(format!("spans written to {}", path.display())),
        Err(e) => sheet.note(format!("spans not written to {}: {e}", path.display())),
    }
    layers::all(sheet, args.seed);
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut sheet = Sheet::default();
    match args.workload.as_str() {
        "tcp-serve" => tcp::run(&args, &mut sheet),
        "mutate-mix" => mutate::run(&args, &mut sheet),
        "corpus-spill" => corpus::run(&args, &mut sheet),
        _ => unreachable!("workload validated by Args::parse"),
    }
    if sheet.attempted == 0 {
        sheet.fail("no operation completed inside the window".into());
    }

    let expected: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&n| (n, "")).collect()
    };
    let mut absent = Vec::new();
    for (name, unit) in &expected {
        if !sheet.metrics.iter().any(|(n, _, _)| n == name) {
            assert!(args.trace, "end-to-end metric {name} missing");
            absent.push(*name);
            sheet.put(name, 0.0, unit);
        }
    }
    sheet
        .metrics
        .retain(|(n, _, _)| expected.iter().any(|(e, _)| e == n));
    sheet
        .metrics
        .sort_by_key(|(n, _, _)| expected.iter().position(|(e, _)| e == n).expect("retained"));

    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &sheet.notes {
        println!("# {note}");
    }
    if !absent.is_empty() {
        println!(
            "# not on this workload's path (reported as 0): {}",
            absent.join(", ")
        );
    }
    for (name, value, unit) in &sheet.metrics {
        println!("{name:<36} {value:>18.6} {unit}");
    }
    for why in sheet.wrong.iter().take(10) {
        println!("# FAIL {why}");
    }
    if sheet.wrong.len() > 10 {
        println!("# FAIL ... and {} more", sheet.wrong.len() - 10);
    }
    println!("{}", sheet.json());
    if sheet.wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
