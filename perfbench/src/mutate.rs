//! `mutate-mix`: the default 1,024-row `ShardedService` in-process, owned
//! by one caller running a seeded 3 reads : 1 write mix of `search_topk`
//! and `store_row`.

use std::time::{Duration, Instant};

use tdam::serve::{FrontStats, ServeConfig, ServeError, ShardedService, TopK};

use crate::common::{median_s, peak_rss_mb, random_row, splitmix, Samples, Sheet, K};
use crate::serving::{self, Counters, ROWS};
use crate::trace::{Recorder, Trace};
use crate::Args;

/// Operation `i` of the seeded mix: one in four is a write of a fresh
/// random row to a seeded row index.
fn write_of(seed: u64, i: u64) -> Option<(usize, Vec<u8>)> {
    let h = splitmix(seed ^ 0x0037_17E5 ^ i);
    (h % 4 == 3).then(|| ((splitmix(h) % ROWS as u64) as usize, random_row(h)))
}

enum Op {
    Read {
        query: Vec<u8>,
        latency: Duration,
        reply: Result<TopK, ServeError>,
    },
    Write {
        row: usize,
        values: Vec<u8>,
        latency: Duration,
    },
}

/// Runs the mix from operation `*next` until `end`. `mirror` follows
/// every write, so queries are drawn from the rows as they are now.
fn drive(
    service: &mut ShardedService,
    mirror: &mut [Vec<u8>],
    args: &Args,
    next: &mut u64,
    end: Instant,
    deadline: Duration,
    mut rec: Option<&mut Recorder>,
) -> Vec<Op> {
    let mut log = Vec::new();
    while Instant::now() < end {
        let i = *next;
        *next += 1;
        if let Some((row, values)) = write_of(args.seed, i) {
            let id = rec.as_mut().map(|r| r.open("service.store_row", i));
            let t0 = Instant::now();
            service.store_row(row, &values).expect("store_row");
            let latency = t0.elapsed();
            if let (Some(r), Some(id)) = (rec.as_mut(), id) {
                r.close(id);
            }
            mirror[row].clone_from(&values);
            log.push(Op::Write {
                row,
                values,
                latency,
            });
        } else {
            let query = serving::query(mirror, args.seed, i);
            let id = rec.as_mut().map(|r| r.open("service.search_topk", i));
            let t0 = Instant::now();
            let mut reply = service.search_topk(&query, K, deadline);
            let latency = t0.elapsed();
            // The answer keeps the capacity of every row scanned; hold on
            // to its ten entries only.
            if let Ok(t) = &mut reply {
                t.neighbors.shrink_to_fit();
            }
            if let (Some(r), Some(id)) = (rec.as_mut(), id) {
                r.close(id);
            }
            log.push(Op::Read {
                query,
                latency,
                reply,
            });
        }
    }
    log
}

struct Settled {
    reads: Samples,
    writes: Samples,
    answered: usize,
    failed: usize,
}

/// Replays the log over `start` (the rows before the window), judging
/// every read against brute force over the rows as they were then.
fn settle(sheet: &mut Sheet, start: &[Vec<u8>], log: &[Op], deadline: Duration) -> Settled {
    let mut rows = start.to_vec();
    let mut out = Settled {
        reads: Samples::default(),
        writes: Samples::default(),
        answered: 0,
        failed: 0,
    };
    for op in log {
        match op {
            Op::Write {
                row,
                values,
                latency,
            } => {
                rows[*row].clone_from(values);
                out.writes.push(*latency);
            }
            Op::Read {
                query,
                latency,
                reply,
            } => {
                let bad = match reply {
                    Ok(t) => {
                        out.answered += 1;
                        serving::judge(sheet, &rows, query, t)
                    }
                    Err(_) => true,
                };
                out.failed += usize::from(bad);
                out.reads.push(if bad {
                    (*latency).max(deadline)
                } else {
                    *latency
                });
            }
        }
    }
    out
}

pub fn run(args: &Args, sheet: &mut Sheet) {
    let cfg = ServeConfig::paper_default();
    let deadline = cfg.default_deadline;
    let mut mirror = serving::corpus(args.seed);

    let setups = if args.trace { 1 } else { serving::SETUPS };
    let mut setup = Vec::new();
    let mut service = None;
    for _ in 0..setups {
        drop(service.take());
        std::thread::sleep(serving::SETUP_PAUSE);
        let t0 = Instant::now();
        service = Some(ShardedService::new(&cfg, &mirror, None).expect("service builds"));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let mut service = service.expect("at least one set-up");
    serving::warm(&service, &mirror, args.seed, deadline);

    let start = mirror.clone();
    let before = Counters::take(&service, FrontStats::default());
    let mut next = 0u64;
    let t0 = Instant::now();
    let log = drive(
        &mut service,
        &mut mirror,
        args,
        &mut next,
        t0 + args.window(),
        deadline,
        None,
    );
    let elapsed = t0.elapsed().as_secs_f64();
    let after = Counters::take(&service, FrontStats::default());
    let mut s = settle(sheet, &start, &log, deadline);
    sheet.reconcile(
        "service.requests",
        after.service.requests - before.service.requests,
        s.answered,
    );
    sheet.attempted = log.len() as u64;
    sheet.failed = s.failed as u64;
    let qps = (s.reads.len() - s.failed) as f64 / elapsed;

    if args.trace {
        after.deltas(&before, sheet);
        sheet.put("service.build_s", median_s(setup), "s");
        let start = mirror.clone();
        let mut rec = Recorder::new(Instant::now(), 0);
        let t0 = Instant::now();
        let tlog = drive(
            &mut service,
            &mut mirror,
            args,
            &mut next,
            t0 + args.window(),
            deadline,
            Some(&mut rec),
        );
        let traced_elapsed = t0.elapsed().as_secs_f64();
        let mut t = settle(sheet, &start, &tlog, deadline);
        let traced_qps = (t.reads.len() - t.failed) as f64 / traced_elapsed;
        let mut trace = Trace::default();
        trace.absorb(rec);
        let mut search = trace.durations("service.search_topk");
        sheet.put("service.search_topk_us.p50", search.pct_us(50.0), "us");
        sheet.put("service.search_topk_us.p99", search.pct_us(99.0), "us");
        sheet.put("service.store_row_us.p50", t.writes.pct_us(50.0), "us");
        sheet.put("service.store_row_us.p99", t.writes.pct_us(99.0), "us");
        crate::finish_trace(sheet, args, &trace, qps, traced_qps);
    } else {
        sheet.put("setup_s", median_s(setup.clone()), "s");
        sheet.put("query_p50_us", s.reads.pct_us(50.0), "us");
        sheet.put("query_p90_us", s.reads.pct_us(90.0), "us");
        sheet.put("query_p99_us", s.reads.pct_us(99.0), "us");
        sheet.put("qps", qps, "1/s");
        let recall = serving::recall(&service, &mirror, args.seed, deadline);
        sheet.put("recall_at_10", recall, "ratio");
        sheet.put("peak_rss_mb", peak_rss_mb(), "MiB");
        sheet.note(format!("set-ups (s): {setup:.4?}"));
        sheet.note(format!(
            "read latency deciles (us): {}",
            s.reads.deciles_us()
        ));
        sheet.note(format!(
            "reads {} ({} beyond p99), writes {}: write_p50_us {:.3}, write_p99_us {:.3} ({} beyond p99), failed_frac {:.6}",
            s.reads.len(),
            s.reads.beyond(99.0),
            s.writes.len(),
            s.writes.pct_us(50.0),
            s.writes.pct_us(99.0),
            s.writes.beyond(99.0),
            s.failed as f64 / log.len().max(1) as f64
        ));
    }
}
