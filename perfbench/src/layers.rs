//! Per-layer figures of a traced run.
//!
//! Three sources, all outside the engine: the counters the engine already
//! exports (`dgl-obs` registry, `LockStats`, `OpStatsSnapshot`), read as
//! deltas over the timed phase; the spans the clients record around
//! their calls; and replays of the run's recorded inputs through each
//! inner layer's public entry point on the final tree. Registry
//! histograms are log2-bucketed, so every figure taken from one is a
//! `sum / count` mean, never a bucket percentile.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use dgl_client::Client;
use dgl_core::granules::overlapping_granules;
use dgl_core::{DglRTree, ObjectId, OpStatsSnapshot, ScanHit};
use dgl_geom::Rect2;
use dgl_lockmgr::{
    LockDuration, LockManager, LockManagerConfig, LockMode, LockOutcome, LockStatsSnapshot,
    RequestKind, ResourceId, TxnId,
};
use dgl_obs::{Ctr, Hist, RegistrySnapshot};
use dgl_proto::{Request, Response};
use dgl_server::{Backend, Server, ServerConfig};

use crate::client::{Outcome, ROOT};
use crate::spec::{Op, TXN_OPS};
use crate::{metric, Metric};

/// Inputs of each kind replayed through the inner layers at most.
const REPLAY_MAX: usize = 20_000;

/// The counters the engine exports.
pub struct Counters {
    obs: RegistrySnapshot,
    lock: LockStatsSnapshot,
    ops: OpStatsSnapshot,
}

impl Counters {
    pub fn take(d: &DglRTree) -> Self {
        Counters {
            obs: d.obs().snapshot(),
            lock: d.lock_manager().stats().snapshot(),
            ops: d.op_stats().snapshot(),
        }
    }

    pub fn since(after: &Counters, before: &Counters) -> Counters {
        Counters {
            obs: after.obs.since(&before.obs),
            lock: after.lock.since(&before.lock),
            ops: after.ops.since(&before.ops),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean of a registry histogram, in microseconds.
fn hist_mean_us(s: &RegistrySnapshot, h: Hist) -> f64 {
    let h = s.hist(h);
    ratio(h.sum as f64, h.count as f64) / 1e3
}

fn note(n: impl std::fmt::Display) -> String {
    format!("n={n}")
}

pub fn per_layer(
    d: &DglRTree,
    c: &Counters,
    preload: &RegistrySnapshot,
    outcomes: &[Outcome],
) -> Result<Vec<Metric>, String> {
    let commits: u64 = outcomes.iter().map(|o| o.txns).sum();
    let ops = commits * TXN_OPS as u64;
    let writes: u64 = outcomes.iter().map(|o| o.writes).sum();
    let retries: u64 = outcomes.iter().map(|o| o.retries).sum();
    let inputs: Vec<Op> = outcomes
        .iter()
        .flat_map(|o| o.inputs.iter().copied())
        .collect();
    let scans: Vec<Rect2> = inputs
        .iter()
        .filter_map(|op| match op {
            Op::Scan { query, .. } => Some(*query),
            _ => None,
        })
        .take(REPLAY_MAX)
        .collect();
    let inserts: Vec<Rect2> = inputs
        .iter()
        .filter_map(|op| match op {
            Op::Insert { rect, .. } => Some(*rect),
            _ => None,
        })
        .take(REPLAY_MAX)
        .collect();
    let mut out = Vec::new();

    // R-tree descent and the pages it reads, on the run's scan predicates.
    let (search_ns, reads) = d.with_tree(|t| {
        let r0 = t.io_stats().snapshot();
        let s = Instant::now();
        for q in &scans {
            black_box(t.search(black_box(q)));
        }
        let ns = s.elapsed().as_nanos() as f64;
        (ns, t.io_stats().snapshot().since(&r0).logical_reads)
    });
    let n_scans = scans.len() as f64;
    out.push(metric(
        "rtree.search_us",
        ratio(search_ns, n_scans) / 1e3,
        "us",
        note(scans.len()),
    ));
    out.push(metric(
        "rtree.choose_path_us",
        d.with_tree(|t| {
            let s = Instant::now();
            for r in &inserts {
                black_box(t.choose_path(black_box(*r), 0));
            }
            ratio(s.elapsed().as_nanos() as f64, inserts.len() as f64) / 1e3
        }),
        "us",
        note(inserts.len()),
    ));
    out.push(metric(
        "pager.reads_per_scan",
        ratio(reads as f64, n_scans),
        "count",
        note(scans.len()),
    ));

    // Granule computation on the same predicates (Table 3's overlap).
    let (granule_ns, lock_sets) = d.with_tree(|t| {
        let mut ns = 0u128;
        let mut sets = Vec::with_capacity(scans.len());
        for q in &scans {
            let s = Instant::now();
            let set = black_box(overlapping_granules(t, std::slice::from_ref(q)));
            ns += s.elapsed().as_nanos();
            sets.push(
                set.leaves
                    .into_iter()
                    .chain(set.externals)
                    .collect::<Vec<_>>(),
            );
        }
        (ns as f64, sets)
    });
    let granules: usize = lock_sets.iter().map(Vec::len).sum();
    out.push(metric(
        "granules.per_scan",
        ratio(granules as f64, n_scans),
        "count",
        note(scans.len()),
    ));
    out.push(metric(
        "granules.us_per_scan",
        ratio(granule_ns, n_scans) / 1e3,
        "us",
        note(scans.len()),
    ));

    // Lock-manager service time: the scans' granule lock sets through a
    // standalone manager, commit-duration S locks then one release.
    let lm = LockManager::new(LockManagerConfig::default());
    let (mut acquire_ns, mut release_ns) = (0u128, 0u128);
    for (i, set) in lock_sets.iter().enumerate() {
        let txn = TxnId(i as u64 + 1);
        let s = Instant::now();
        for pid in set {
            let got = lm.lock(
                txn,
                ResourceId::Page(*pid),
                LockMode::S,
                LockDuration::Commit,
                RequestKind::Unconditional,
            );
            if got != LockOutcome::Granted {
                return Err(format!("replayed lock on {pid} not granted: {got:?}"));
            }
        }
        acquire_ns += s.elapsed().as_nanos();
        let s = Instant::now();
        lm.release_all(txn);
        release_ns += s.elapsed().as_nanos();
    }
    out.push(metric(
        "lockmgr.acquire_ns",
        ratio(acquire_ns as f64, granules as f64),
        "ns",
        note(granules),
    ));
    out.push(metric(
        "lockmgr.release_ns",
        ratio(release_ns as f64, lock_sets.len() as f64),
        "ns",
        note(lock_sets.len()),
    ));

    // The engine's own counters over the timed phase.
    let o = &c.obs;
    let ops_f = ops as f64;
    let commits_f = commits as f64;
    out.push(metric(
        "lockmgr.requests_per_op",
        ratio(c.lock.requests as f64, ops_f),
        "count",
        note(c.lock.requests),
    ));
    out.push(metric(
        "lockmgr.waits_per_op",
        ratio(c.lock.waits as f64, ops_f),
        "count",
        note(c.lock.waits),
    ));
    out.push(metric(
        "lockmgr.wait_mean_us",
        hist_mean_us(o, Hist::LockWait),
        "us",
        note(o.hist(Hist::LockWait).count),
    ));
    out.push(metric(
        "lockmgr.deadlocks",
        c.lock.deadlocks as f64,
        "count",
        format!("global detector {}", o.ctr(Ctr::GlobalDeadlocks)),
    ));
    out.push(metric(
        "txn.retries_per_commit",
        ratio(retries as f64, commits_f),
        "count",
        note(retries),
    ));
    out.push(metric(
        "core.x_latch_mean_us",
        hist_mean_us(o, Hist::LatchHold),
        "us",
        note(o.hist(Hist::LatchHold).count),
    ));
    out.push(metric(
        "core.replans_per_write",
        ratio(c.ops.optimistic_replans as f64, writes as f64),
        "count",
        note(c.ops.optimistic_replans),
    ));
    out.push(metric(
        "core.maint_per_commit",
        ratio(o.ctr(Ctr::MaintCompleted) as f64, commits_f),
        "count",
        note(o.ctr(Ctr::MaintCompleted)),
    ));
    out.push(metric(
        "core.maint_drain_mean_us",
        hist_mean_us(o, Hist::MaintDrain),
        "us",
        note(o.hist(Hist::MaintDrain).count),
    ));
    let (hits, misses) = (o.ctr(Ctr::HashHits), o.ctr(Ctr::HashMisses));
    out.push(metric(
        "hashidx.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
        format!("hits {hits} misses {misses}"),
    ));
    // The log: no timed phase or timed set-up runs with it attached,
    // because fsync-bound times on a shared disk spread more than any
    // bound allows. These come from the run's log phase, which commits the
    // preload through the log with group commit.
    let fsyncs = preload.ctr(Ctr::WalFsyncs);
    let logged = preload.ctr(Ctr::WalGroupCommitCommits);
    out.push(metric(
        "wal.commits_per_fsync",
        ratio(logged as f64, fsyncs as f64),
        "count",
        format!("fsyncs {fsyncs}"),
    ));
    out.push(metric(
        "wal.fsync_mean_us",
        hist_mean_us(preload, Hist::WalFsync),
        "us",
        note(preload.hist(Hist::WalFsync).count),
    ));
    out.push(metric(
        "wal.bytes_per_commit",
        ratio(preload.ctr(Ctr::WalAppendedBytes) as f64, logged as f64),
        "B",
        note(logged),
    ));

    // Framing: the run's requests and their responses through the
    // protocol's encoders and decoders.
    let (encode_ns, decode_ns, messages) = replay_proto(d, &inputs);
    out.push(metric(
        "proto.encode_ns",
        ratio(encode_ns, messages as f64),
        "ns",
        note(messages),
    ));
    out.push(metric(
        "proto.decode_ns",
        ratio(decode_ns, messages as f64),
        "ns",
        note(messages),
    ));

    let (traced, untraced) = outcomes
        .iter()
        .fold((0, 0), |(t, u), o| (t + o.traced_ops, u + o.untraced_ops));
    let (t_secs, u_secs) = slice_seconds(outcomes);
    out.push(metric(
        "trace.overhead_ratio",
        ratio(ratio(traced as f64, t_secs), ratio(untraced as f64, u_secs)),
        "ratio",
        format!("traced {traced} ops, untraced {untraced} ops"),
    ));
    Ok(out)
}

/// Point reads the wire replay sends at most.
const WIRE_REPLAY_MAX: usize = 5_000;

/// The wire path: the traced slices' point reads, each in a transaction of
/// its own, sent by a `dgl-client` over loopback to a `dgl-server` started
/// on the final tree. No timed phase crosses the wire: on the reference
/// host its loopback round trips slowed tenfold for whole runs at a time.
pub fn wire_replay(db: DglRTree, outcomes: &[Outcome]) -> Result<Vec<Metric>, String> {
    let points: Vec<(u64, Rect2)> = outcomes
        .iter()
        .flat_map(|o| &o.inputs)
        .filter_map(|op| match op {
            Op::Point { oid, rect } => Some((*oid, *rect)),
            _ => None,
        })
        .take(WIRE_REPLAY_MAX)
        .collect();
    let mut server = Server::start(Backend::Single(db), ServerConfig::default(), "127.0.0.1:0")
        .map_err(|e| format!("server start: {e}"))?;
    let sent = (|| {
        let mut client = Client::connect(server.addr())?;
        let before = server.obs().snapshot();
        let (mut point_ns, mut all_ns) = (0u128, 0u128);
        for &(oid, rect) in &points {
            let t0 = Instant::now();
            let txn = client.begin()?;
            let t1 = Instant::now();
            black_box(client.read_single(txn, oid, rect)?);
            let t2 = Instant::now();
            client.commit(txn)?;
            point_ns += (t2 - t1).as_nanos();
            all_ns += t0.elapsed().as_nanos();
        }
        Ok::<_, dgl_client::ClientError>((point_ns, all_ns, server.obs().snapshot().since(&before)))
    })();
    server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    let (point_ns, all_ns, s) = sent.map_err(|e| format!("wire replay: {e}"))?;
    let n = points.len() as f64;
    let requests = s.ctr(Ctr::NetRequests);
    let served: u64 = [
        Hist::NetReqScan,
        Hist::NetReqPoint,
        Hist::NetReqWrite,
        Hist::NetReqTxn,
    ]
    .iter()
    .map(|&h| s.hist(h).sum)
    .sum();
    let bytes = s.ctr(Ctr::NetBytesIn) + s.ctr(Ctr::NetBytesOut);
    Ok(vec![
        metric(
            "client.point_rtt_us",
            ratio(point_ns as f64, n) / 1e3,
            "us",
            note(points.len()),
        ),
        metric(
            "server.point_mean_us",
            hist_mean_us(&s, Hist::NetReqPoint),
            "us",
            note(s.hist(Hist::NetReqPoint).count),
        ),
        metric(
            "net.overhead_us_per_req",
            (ratio(all_ns as f64, requests as f64) - ratio(served as f64, requests as f64)) / 1e3,
            "us",
            note(requests),
        ),
        metric(
            "net.bytes_per_op",
            ratio(bytes as f64, n),
            "B",
            "per point read with its begin and commit".to_string(),
        ),
    ])
}

/// Seconds of the timed phase spent in traced and in untraced slices,
/// taken from the end of the clients' last transaction.
fn slice_seconds(outcomes: &[Outcome]) -> (f64, f64) {
    let end_ns = outcomes.iter().map(|o| o.end_ns).max().unwrap_or(0);
    let slice = crate::client::TRACE_SLICE.as_nanos() as u64;
    let (mut traced, mut untraced) = (0u64, 0u64);
    let mut t = 0;
    while t < end_ns {
        let len = slice.min(end_ns - t);
        if (t / slice) % 2 == 1 {
            traced += len;
        } else {
            untraced += len;
        }
        t += slice;
    }
    (traced as f64 / 1e9, untraced as f64 / 1e9)
}

/// Encodes and decodes every request of the recorded transactions and the
/// response the final tree gives it. Returns total encode and decode
/// nanoseconds and the message count.
fn replay_proto(d: &DglRTree, inputs: &[Op]) -> (f64, f64, usize) {
    let txn = 1;
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for (i, op) in inputs.iter().take(REPLAY_MAX).enumerate() {
        if i % TXN_OPS == 0 {
            requests.push(Request::Begin);
            responses.push(Response::TxnBegun { txn });
            requests.push(Request::Commit { txn });
            responses.push(Response::Done);
        }
        let (req, resp) = match *op {
            Op::Insert { oid, rect } => (Request::Insert { txn, oid, rect }, Response::Done),
            Op::Delete { oid, rect } => (
                Request::Delete { txn, oid, rect },
                Response::Existed { existed: true },
            ),
            Op::Update { oid, rect } => (
                Request::Update { txn, oid, rect },
                Response::Existed { existed: true },
            ),
            Op::Point { oid, rect } => (
                Request::ReadSingle { txn, oid, rect },
                Response::Version { version: Some(1) },
            ),
            Op::Scan { query, .. } => {
                let hits = d.with_tree(|t| {
                    t.search(&query)
                        .into_iter()
                        .map(|(oid, rect, _)| ScanHit {
                            oid: ObjectId(oid.0),
                            rect,
                            version: 1,
                        })
                        .collect()
                });
                (Request::Search { txn, query }, Response::Hits { hits })
            }
        };
        requests.push(req);
        responses.push(resp);
    }
    let s = Instant::now();
    let req_bodies: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| black_box(r.encode(i as u32)))
        .collect();
    let resp_bodies: Vec<Vec<u8>> = responses
        .iter()
        .enumerate()
        .map(|(i, r)| black_box(r.encode(i as u32)))
        .collect();
    let encode_ns = s.elapsed().as_nanos() as f64;
    let s = Instant::now();
    for b in &req_bodies {
        black_box(Request::decode(black_box(b)).expect("own encoding decodes"));
    }
    for b in &resp_bodies {
        black_box(Response::decode(black_box(b)).expect("own encoding decodes"));
    }
    let decode_ns = s.elapsed().as_nanos() as f64;
    (encode_ns, decode_ns, requests.len() + responses.len())
}

/// Spans written to the trace file at most; the rest are counted only.
const SPAN_FILE_MAX: usize = 500_000;

/// Writes the spans as one JSON object per line, up to `SPAN_FILE_MAX`.
/// Returns how many were written.
pub fn write_spans(path: &Path, outcomes: &[Outcome]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    let per_client = SPAN_FILE_MAX / outcomes.len().max(1);
    let mut written = 0;
    for (c, o) in outcomes.iter().enumerate() {
        for (i, s) in o.spans.iter().enumerate().take(per_client) {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"client\": {c}, \"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"txn\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.txn, s.start_ns, s.end_ns
            )?;
            written += 1;
        }
    }
    w.flush()?;
    w.get_ref().sync_all()?;
    Ok(written)
}
