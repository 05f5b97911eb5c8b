//! One closed-loop client: it draws a transaction of [`TXN_OPS`]
//! operations, runs it to commit (again from the start when the engine
//! rolls it back), checks every answer against its model, and only then
//! draws the next one.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::conn::{Fail, InProc};
use crate::hist::Hist;
use crate::model::{check_scan, Model, Obj, Overlay};
use crate::probe;
use crate::spec::{Generator, Op, Spec, TXN_OPS};

/// In a traced run, tracing is on in every other slice of this length,
/// so traced and untraced throughput are measured over the same stretch
/// of the run.
pub const TRACE_SLICE: Duration = Duration::from_millis(500);

/// Whether the run is in a traced slice at `elapsed`.
pub fn traced_at(elapsed: Duration) -> bool {
    (elapsed.as_nanos() / TRACE_SLICE.as_nanos()) % 2 == 1
}

/// Wrong answers printed per client; the rest are only counted.
const MAX_REPORTS: u64 = 20;

/// No parent span.
pub const ROOT: u32 = u32::MAX;

/// One traced call: a transaction (parent `ROOT`) or a call inside one.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same client's list.
    pub parent: u32,
    pub txn: u64,
}

/// End-to-end figures are kept per window of this length, so that the
/// windows in which the host took the machine's CPUs away can be told
/// apart (see `main.rs`).
pub const WINDOW: Duration = Duration::from_secs(1);

/// Committed operations and latencies of one window, one histogram per
/// series; a call counts in the window it ended in.
#[derive(Default)]
pub struct Lat {
    pub ops: u64,
    pub txn: Hist,
    pub scan: Hist,
    pub point: Hist,
    pub write: Hist,
    pub commit: Hist,
}

impl Lat {
    pub fn merge(&mut self, other: &Lat) {
        self.ops += other.ops;
        self.txn.merge(&other.txn);
        self.scan.merge(&other.scan);
        self.point.merge(&other.point);
        self.write.merge(&other.write);
        self.commit.merge(&other.commit);
    }
}

/// What the clients share. They run in rounds of a fixed number of
/// transactions, which they take one at a time from a shared count, so
/// neither waits for the other to finish a quota. Between rounds they
/// meet, the probe runs once (on workloads that have it), and they stop
/// together once the run's time is up. Every run so attempts whole
/// rounds.
pub struct Rounds {
    barrier: Barrier,
    /// Transactions taken in the current round.
    taken: AtomicU64,
    round_txns: u64,
    stop: AtomicBool,
    probe: bool,
    pub tally: Mutex<ProbeTally>,
}

/// What the probes of a run found.
#[derive(Default)]
pub struct ProbeTally {
    pub runs: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Each distinct report once.
    pub reports: Vec<String>,
    /// Time spent in probes, while the clients waited.
    pub busy: Duration,
}

impl Rounds {
    /// `probe`: whether the deferred-deletion probe runs between rounds.
    pub fn new(spec: &Spec, probe: bool) -> Self {
        Rounds {
            barrier: Barrier::new(spec.clients),
            taken: AtomicU64::new(0),
            round_txns: spec.round_txns,
            stop: AtomicBool::new(false),
            probe,
            tally: Mutex::new(ProbeTally::default()),
        }
    }

    /// Takes the next transaction of the round, if any is left.
    fn take(&self) -> bool {
        self.taken.fetch_add(1, Ordering::Relaxed) < self.round_txns
    }

    /// Ends a round; returns whether the run is over.
    fn end_round(&self, start: Instant, seconds: Duration) -> bool {
        if self.barrier.wait().is_leader() {
            self.taken.store(0, Ordering::Relaxed);
            if self.probe {
                let t0 = Instant::now();
                let r = probe::run();
                let mut t = self.tally.lock().expect("probe tally");
                t.runs += 1;
                let reports = match r {
                    Ok(out) => {
                        t.attempted += out.attempted;
                        out.failed
                    }
                    Err(e) => vec![e],
                };
                t.failed += reports.len() as u64;
                for r in reports {
                    if !t.reports.contains(&r) {
                        eprintln!("PROBE: {r}");
                        t.reports.push(r);
                    }
                }
                t.busy += t0.elapsed();
            }
            self.stop
                .store(start.elapsed() >= seconds, Ordering::Relaxed);
        }
        self.barrier.wait();
        self.stop.load(Ordering::Relaxed)
    }
}

/// Everything one client measured.
pub struct Outcome {
    /// One entry per window, all made before the run starts.
    pub windows: Vec<Lat>,
    pub txns: u64,
    /// Committed inserts, deletes and updates.
    pub writes: u64,
    pub attempted: u64,
    /// Answers that disagree with the model.
    pub wrong: u64,
    /// Operations that returned an error other than a retryable rollback.
    pub errors: u64,
    pub retries: u64,
    pub skipped: u64,
    pub model: Model,
    /// Spans of the traced slices (empty when not tracing).
    pub spans: Vec<Span>,
    /// Committed operations of the traced slices, for the layer replays.
    pub inputs: Vec<Op>,
    pub traced_ops: u64,
    pub untraced_ops: u64,
    /// When the client finished its last transaction, since the start.
    pub end_ns: u64,
}

enum Attempt {
    Committed,
    Retry,
    Failed,
}

pub struct Runner<'a> {
    spec: &'a Spec,
    client: usize,
    start: Instant,
    trace: bool,
    gen: Generator,
    overlay: Overlay,
    traced: bool,
    txn_span: u32,
    attempt_writes: u64,
    /// Window of the last call's end.
    window: usize,
    out: Outcome,
}

impl<'a> Runner<'a> {
    pub fn new(
        spec: &'a Spec,
        seed: u64,
        client: usize,
        model: Model,
        start: Instant,
        trace: bool,
        windows: usize,
    ) -> Self {
        Runner {
            spec,
            client,
            start,
            trace,
            gen: Generator::new(spec, seed, client),
            overlay: Overlay::default(),
            traced: false,
            txn_span: ROOT,
            attempt_writes: 0,
            window: 0,
            out: Outcome {
                windows: (0..windows.max(1)).map(|_| Lat::default()).collect(),
                txns: 0,
                writes: 0,
                attempted: 0,
                wrong: 0,
                errors: 0,
                retries: 0,
                skipped: 0,
                model,
                spans: Vec::new(),
                inputs: Vec::new(),
                traced_ops: 0,
                untraced_ops: 0,
                end_ns: 0,
            },
        }
    }

    /// Runs whole rounds of transactions until `seconds` after `start`.
    pub fn run(mut self, conn: &mut InProc, seconds: Duration, rounds: &Rounds) -> Outcome {
        loop {
            while rounds.take() {
                self.txn(conn);
            }
            if rounds.end_round(self.start, seconds) {
                break;
            }
        }
        self.out.end_ns = self.ns_since_start(Instant::now());
        self.out
    }

    /// Draws one transaction and runs it to commit.
    fn txn(&mut self, conn: &mut InProc) {
        self.traced = self.trace && traced_at(self.start.elapsed());
        let ops = self.gen.next_txn(&self.out.model);
        self.out.attempted += TXN_OPS as u64;
        let t0 = Instant::now();
        self.txn_span = ROOT;
        if self.traced {
            self.txn_span = self.out.spans.len() as u32;
            self.out.spans.push(Span {
                name: "txn",
                start_ns: self.ns_since_start(t0),
                end_ns: 0,
                parent: ROOT,
                txn: 0,
            });
        }
        let committed = loop {
            match self.attempt(conn, &ops) {
                Attempt::Committed => break true,
                Attempt::Failed => break false,
                Attempt::Retry => self.out.retries += 1,
            }
        };
        let t1 = Instant::now();
        if self.traced {
            let end = self.ns_since_start(t1);
            self.out.spans[self.txn_span as usize].end_ns = end;
        }
        if committed {
            self.set_window(t1);
            self.record(|l| &mut l.txn, (t1 - t0).as_nanos() as u64);
            self.out.windows[self.window].ops += TXN_OPS as u64;
            self.out.txns += 1;
            self.out.writes += self.attempt_writes;
            if self.traced {
                self.out.traced_ops += TXN_OPS as u64;
                self.out.inputs.extend_from_slice(&ops);
            } else {
                self.out.untraced_ops += TXN_OPS as u64;
            }
        }
    }

    fn ns_since_start(&self, t: Instant) -> u64 {
        (t - self.start).as_nanos() as u64
    }

    /// A run that overshoots its windows counts the rest in the last one.
    fn set_window(&mut self, t: Instant) {
        let w = ((t - self.start).as_nanos() / WINDOW.as_nanos()) as usize;
        self.window = w.min(self.out.windows.len() - 1);
    }

    /// Records a latency into the current window's series `pick`.
    fn record(&mut self, pick: fn(&mut Lat) -> &mut Hist, ns: u64) {
        pick(&mut self.out.windows[self.window]).record(ns);
    }

    /// Times one call, and records its span in a traced slice.
    fn time<T>(&mut self, name: &'static str, txn: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let s = Instant::now();
        let r = f();
        let e = Instant::now();
        self.set_window(e);
        if self.traced {
            let span = Span {
                name,
                start_ns: self.ns_since_start(s),
                end_ns: self.ns_since_start(e),
                parent: self.txn_span,
                txn,
            };
            self.out.spans.push(span);
            if let Some(parent) = self.out.spans.get_mut(self.txn_span as usize) {
                parent.txn = txn;
            }
        }
        (r, (e - s).as_nanos() as u64)
    }

    fn wrong(&mut self, what: String) {
        self.out.wrong += 1;
        self.report("WRONG ANSWER", what);
    }

    fn error(&mut self, what: String) {
        self.out.errors += 1;
        self.report("FAILED OPERATION", what);
    }

    fn report(&self, kind: &str, what: String) {
        if self.out.wrong + self.out.errors <= MAX_REPORTS {
            eprintln!(
                "{kind} workload={} client={}: {what}",
                self.spec.name, self.client
            );
        }
    }

    fn attempt(&mut self, conn: &mut InProc, ops: &[Op; TXN_OPS]) -> Attempt {
        self.overlay.clear();
        self.attempt_writes = 0;
        let (r, _) = self.time("begin", 0, || conn.begin());
        let txn = match r {
            Ok(t) => t,
            Err(Fail::Retry) => return Attempt::Retry,
            Err(e) => {
                self.error(format!("begin failed: {e}"));
                return Attempt::Failed;
            }
        };
        for op in ops {
            match self.exec(conn, txn, op) {
                Ok(()) => {
                    if !matches!(op, Op::Scan { .. } | Op::Point { .. }) {
                        self.attempt_writes += 1;
                    }
                }
                Err(Fail::Retry) => {
                    self.time("abort", txn, || conn.abort(txn));
                    return Attempt::Retry;
                }
                Err(e) => {
                    self.error(format!("txn {txn}: {op:?} failed: {e}"));
                    self.time("abort", txn, || conn.abort(txn));
                    return Attempt::Failed;
                }
            }
        }
        let (r, ns) = self.time("commit", txn, || conn.commit(txn));
        match r {
            Ok(()) => {
                self.record(|l| &mut l.commit, ns);
                self.overlay.commit_into(&mut self.out.model);
                Attempt::Committed
            }
            Err(Fail::Retry) => Attempt::Retry,
            Err(e) => {
                self.error(format!("txn {txn}: commit failed: {e}"));
                Attempt::Failed
            }
        }
    }

    /// Runs one operation and checks its answer. A wrong answer is
    /// counted and the transaction goes on; an error is returned.
    fn exec(&mut self, conn: &mut InProc, txn: u64, op: &Op) -> Result<(), Fail> {
        let model = &self.out.model;
        match *op {
            Op::Insert { oid, rect } => {
                let (r, ns) = self.time("insert", txn, || conn.insert(txn, oid, rect));
                self.record(|l| &mut l.write, ns);
                match r {
                    Ok(()) => self.overlay.write(oid, Some(Obj { rect, version: 1 })),
                    Err(Fail::Duplicate) => self.out.skipped += 1,
                    Err(e) => return Err(e),
                }
            }
            Op::Delete { oid, rect } => {
                let expect = self.overlay.view(model, oid);
                let (r, ns) = self.time("delete", txn, || conn.delete(txn, oid, rect));
                self.record(|l| &mut l.write, ns);
                let existed = r?;
                if existed != expect.is_some() {
                    self.wrong(format!(
                        "txn {txn}: delete {oid} {rect:?} returned {existed}, model has {expect:?}"
                    ));
                }
                self.overlay.write(oid, None);
            }
            Op::Update { oid, rect } => {
                let expect = self.overlay.view(model, oid);
                let (r, ns) = self.time("update_single", txn, || conn.update(txn, oid, rect));
                self.record(|l| &mut l.write, ns);
                let existed = r?;
                if existed != expect.is_some() {
                    self.wrong(format!(
                        "txn {txn}: update {oid} {rect:?} returned {existed}, model has {expect:?}"
                    ));
                }
                if let Some(o) = expect {
                    let bumped = Obj {
                        rect: o.rect,
                        version: o.version + 1,
                    };
                    self.overlay.write(oid, Some(bumped));
                }
            }
            Op::Point { oid, rect } => {
                let expect = self.overlay.view(model, oid).map(|o| o.version);
                let (r, ns) = self.time("read_single", txn, || conn.read_single(txn, oid, rect));
                self.record(|l| &mut l.point, ns);
                let got = r?;
                if got != expect {
                    self.wrong(format!(
                        "txn {txn}: read_single {oid} {rect:?} returned {got:?}, model has {expect:?}"
                    ));
                }
            }
            Op::Scan { query, rescan } => {
                let (r, ns) = self.time("read_scan", txn, || conn.read_scan(txn, query));
                self.record(|l| &mut l.scan, ns);
                let mut hits = r?;
                let spec = self.spec;
                let me = self.client;
                let problems = check_scan(
                    &self.out.model,
                    &self.overlay,
                    |oid| spec.owner(oid) == me,
                    &query,
                    &hits,
                );
                if !problems.is_empty() {
                    self.wrong(format!(
                        "txn {txn}: read_scan {query:?} ({} hits): {}",
                        hits.len(),
                        problems.join("; ")
                    ));
                }
                if rescan {
                    let (r, ns) = self.time("read_scan", txn, || conn.read_scan(txn, query));
                    self.record(|l| &mut l.scan, ns);
                    let mut again = r?;
                    hits.sort_by_key(|h| h.oid);
                    again.sort_by_key(|h| h.oid);
                    if hits != again {
                        self.wrong(format!(
                            "txn {txn}: rescan of {query:?} returned {} hits, first scan {}",
                            again.len(),
                            hits.len()
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}
