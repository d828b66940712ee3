//! `tcp-serve`: loopback `FrontEnd` over the default 1,024-row
//! `ShardedService`, driven by two closed-loop clients sending read-only
//! top-k queries.

use std::cell::{Cell, RefCell};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdam::serve::{
    FrontEnd, ServeClient, ServeConfig, ServeError, ShardedService, TcpTransport, TopK, Transport,
    CLIENT_IO_TIMEOUT,
};

use crate::common::{median_s, peak_rss_mb, Samples, Sheet, K};
use crate::serving::{self, Counters};
use crate::trace::{Recorder, Trace};
use crate::Args;

/// Closed-loop client connections (one load thread each).
const CLIENTS: usize = 2;

struct Deployment {
    service: Arc<ShardedService>,
    front: FrontEnd,
    clients: Vec<ServeClient>,
}

/// Builds the service, starts the front-end and connects the clients.
/// Returns the deployment, the whole set-up time and the service build
/// time alone.
fn deploy(cfg: &ServeConfig, corpus: &[Vec<u8>]) -> (Deployment, f64, f64) {
    let t0 = Instant::now();
    let service = Arc::new(ShardedService::new(cfg, corpus, None).expect("service builds"));
    let build_s = t0.elapsed().as_secs_f64();
    let front = FrontEnd::start(Arc::clone(&service), cfg, "127.0.0.1:0").expect("front starts");
    let clients = (0..CLIENTS)
        .map(|_| ServeClient::connect(front.addr()).expect("client connects"))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    (
        Deployment {
            service,
            front,
            clients,
        },
        setup_s,
        build_s,
    )
}

/// One request as the client saw it.
struct Sent {
    index: u64,
    latency: Duration,
    reply: Result<TopK, ServeError>,
}

/// The untraced client: `ServeClient::query` in a closed loop.
fn drive(
    client: &mut ServeClient,
    c: usize,
    corpus: &[Vec<u8>],
    args: &Args,
    end: Instant,
    deadline: Duration,
) -> Vec<Sent> {
    let mut log = Vec::new();
    let mut index = c as u64;
    while Instant::now() < end {
        let q = serving::query(corpus, args.seed, index);
        let t0 = Instant::now();
        let reply = client.query(&q, K, deadline);
        log.push(Sent {
            index,
            latency: t0.elapsed(),
            reply,
        });
        index += CLIENTS as u64;
    }
    log
}

/// `TcpTransport` with a span around each frame sent and received, so
/// the traced client is the production `ServeClient` path.
struct TracedTransport<'a> {
    inner: TcpTransport,
    rec: &'a RefCell<Recorder>,
    request: &'a Cell<u64>,
}

impl Transport for TracedTransport<'_> {
    fn send(&mut self, payload: &[u8]) -> Result<(), ServeError> {
        let inner = &mut self.inner;
        self.rec
            .borrow_mut()
            .span("wire.send", self.request.get(), || inner.send(payload))
    }
    fn recv(&mut self) -> Result<Option<Vec<u8>>, ServeError> {
        let inner = &mut self.inner;
        self.rec
            .borrow_mut()
            .span("wire.recv", self.request.get(), || inner.recv())
    }
}

/// The traced client: `ServeClient::query` over [`TracedTransport`],
/// followed by the same query served in-process (the "twin") so the
/// wire's share of the round trip can be separated.
#[allow(clippy::too_many_arguments)]
fn drive_traced(
    addr: SocketAddr,
    service: &ShardedService,
    c: usize,
    corpus: &[Vec<u8>],
    args: &Args,
    end: Instant,
    deadline: Duration,
    rec: &RefCell<Recorder>,
) -> (Vec<Sent>, Vec<(u64, TopK)>) {
    let request = Cell::new(c as u64);
    let inner = TcpTransport::connect(addr, CLIENT_IO_TIMEOUT).expect("client connects");
    let mut client = ServeClient::over(TracedTransport {
        inner,
        rec,
        request: &request,
    });
    let (mut log, mut twins) = (Vec::new(), Vec::new());
    while Instant::now() < end {
        let index = request.get();
        let q = serving::query(corpus, args.seed, index);
        let t0 = Instant::now();
        let root = rec.borrow_mut().open("tcp.query", index);
        let reply = client.query(&q, K, deadline);
        rec.borrow_mut().close(root);
        log.push(Sent {
            index,
            latency: t0.elapsed(),
            reply,
        });
        let twin = rec.borrow_mut().span("service.search_topk", index, || {
            service.search_topk(&q, K, deadline)
        });
        if let Ok(t) = twin {
            twins.push((index, t));
        }
        request.set(index + CLIENTS as u64);
    }
    (log, twins)
}

/// Judges every reply and folds it into the latency samples.
/// Returns (samples, answered TopK replies, failed).
fn settle(
    sheet: &mut Sheet,
    corpus: &[Vec<u8>],
    args: &Args,
    log: &[Sent],
    deadline: Duration,
) -> (Samples, usize, usize) {
    let (mut lat, mut answered, mut failed) = (Samples::default(), 0, 0);
    for s in log {
        let q = serving::query(corpus, args.seed, s.index);
        let bad = match &s.reply {
            Ok(t) => {
                answered += 1;
                serving::judge(sheet, corpus, &q, t)
            }
            Err(_) => true,
        };
        failed += usize::from(bad);
        // A failed request counts as missing the deadline.
        lat.push(if bad {
            s.latency.max(deadline)
        } else {
            s.latency
        });
    }
    (lat, answered, failed)
}

pub fn run(args: &Args, sheet: &mut Sheet) {
    let cfg = ServeConfig::paper_default();
    let deadline = cfg.default_deadline;
    let corpus = serving::corpus(args.seed);

    let setups = if args.trace { 1 } else { serving::SETUPS };
    let (mut setup, mut build) = (Vec::new(), Vec::new());
    let mut dep = None;
    for _ in 0..setups {
        // Tear the previous deployment down before timing the next.
        drop(dep.take());
        std::thread::sleep(serving::SETUP_PAUSE);
        let (d, s, b) = deploy(&cfg, &corpus);
        setup.push(s);
        build.push(b);
        dep = Some(d);
    }
    let Deployment {
        service,
        mut front,
        clients,
    } = dep.expect("at least one set-up");

    serving::warm(&service, &corpus, args.seed, deadline);

    // The untraced window: the end-to-end numbers.
    let before = Counters::take(&service, front.front_stats());
    let t0 = Instant::now();
    let end = t0 + args.window();
    let logs: Vec<Vec<Sent>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let corpus = &corpus;
                s.spawn(move || drive(&mut client, c, corpus, args, end, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let after = Counters::take(&service, front.front_stats());
    let log: Vec<Sent> = logs.into_iter().flatten().collect();
    let (mut lat, answered, failed) = settle(sheet, &corpus, args, &log, deadline);
    sheet.reconcile(
        "front.received",
        after.front.received - before.front.received,
        log.len(),
    );
    sheet.reconcile(
        "front.answered",
        after.front.answered - before.front.answered,
        answered,
    );
    sheet.reconcile(
        "service.requests",
        after.service.requests - before.service.requests,
        answered,
    );
    sheet.attempted = log.len() as u64;
    sheet.failed = failed as u64;
    let qps = (log.len() - failed) as f64 / elapsed;

    if args.trace {
        after.deltas(&before, sheet);
        sheet.put("service.build_s", median_s(build), "s");
        let mut trace = Trace::default();
        let epoch = Instant::now();
        let before = Counters::take(&service, front.front_stats());
        let t0 = Instant::now();
        let end = t0 + args.window();
        let addr = front.addr();
        let outs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (corpus, service) = (&corpus, &*service);
                    s.spawn(move || {
                        let rec = RefCell::new(Recorder::new(epoch, c as u32));
                        let out = drive_traced(addr, service, c, corpus, args, end, deadline, &rec);
                        (out, rec.into_inner())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let traced_elapsed = t0.elapsed().as_secs_f64();
        let after = Counters::take(&service, front.front_stats());
        let (mut tlog, mut twins) = (Vec::new(), Vec::new());
        for ((l, t), rec) in outs {
            tlog.extend(l);
            twins.extend(t);
            trace.absorb(rec);
        }
        let (_, tanswered, tfailed) = settle(sheet, &corpus, args, &tlog, deadline);
        for (i, t) in &twins {
            let q = serving::query(&corpus, args.seed, *i);
            serving::judge(sheet, &corpus, &q, t);
        }
        sheet.reconcile(
            "front.answered (traced)",
            after.front.answered - before.front.answered,
            tanswered,
        );
        sheet.reconcile(
            "service.requests (traced)",
            after.service.requests - before.service.requests,
            tanswered + twins.len(),
        );
        let traced_qps = (tlog.len() - tfailed) as f64 / traced_elapsed;
        let mut wire = trace.difference("tcp.query", "service.search_topk");
        sheet.put("serve.wire_self_us.p50", wire.pct_us(50.0), "us");
        sheet.put("serve.wire_self_us.p99", wire.pct_us(99.0), "us");
        let mut search = trace.durations("service.search_topk");
        sheet.put("service.search_topk_us.p50", search.pct_us(50.0), "us");
        sheet.put("service.search_topk_us.p99", search.pct_us(99.0), "us");
        crate::finish_trace(sheet, args, &trace, qps, traced_qps);
    } else {
        sheet.put("setup_s", median_s(setup.clone()), "s");
        sheet.note(format!("set-ups (s): {setup:.4?}"));
        sheet.note(format!("latency deciles (us): {}", lat.deciles_us()));
        sheet.put("query_p50_us", lat.pct_us(50.0), "us");
        sheet.put("query_p90_us", lat.pct_us(90.0), "us");
        sheet.put("query_p99_us", lat.pct_us(99.0), "us");
        sheet.put("qps", qps, "1/s");
        let recall = serving::recall(&service, &corpus, args.seed, deadline);
        sheet.put("recall_at_10", recall, "ratio");
        sheet.put("peak_rss_mb", peak_rss_mb(), "MiB");
        sheet.note(format!(
            "latency samples {} ({} beyond p99), failed_frac {:.6}",
            lat.len(),
            lat.beyond(99.0),
            failed as f64 / log.len().max(1) as f64
        ));
    }
    front.shutdown();
}
