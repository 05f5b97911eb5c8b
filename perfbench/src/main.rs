//! End-to-end benchmark of the DGL R-tree engine.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--protocol dgl|tree-lock]
//! ```
//!
//! One invocation runs one workload (see `spec.rs` and README.md): it
//! preloads the engine from the seed, times the set-up and the recovery
//! of the preload log, runs closed-loop clients for `--seconds`, checks
//! every answer against its own model, and prints a table followed by a
//! single JSON line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer metrics of a traced run and writes
//! its spans under `.perfbench/traces/`.

mod client;
mod conn;
mod hist;
mod layers;
mod model;
mod probe;
mod spec;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dgl_core::baseline::TreeLockRTree;
use dgl_core::{DglConfig, DglRTree, ObjectId, SyncPolicy, TransactionalRTree};
use dgl_geom::Rect2;
use dgl_lockmgr::LockManagerConfig;
use dgl_obs::RegistrySnapshot;
use dgl_rtree::RTreeConfig;

use client::{Outcome, ProbeTally, Rounds, Runner};
use conn::InProc;
use model::{Model, Obj};
use spec::{Spec, PRELOAD_BATCH};

/// Set-ups per untraced run; `setup_s` and `recover_s` are their medians.
const SETUPS: usize = 3;

/// Where the run keeps its log directories and traces, relative to the
/// directory it is started from.
const OUT_DIR: &str = ".perfbench";

/// Group-commit window of the preload log.
const GROUP_COMMIT: Duration = Duration::from_micros(50);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tree_lock: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut get = BTreeMap::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        get.insert(flag, value);
    }
    let take = |k: &str| get.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let num =
        |k: &str| -> Result<u64, String> { take(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let protocol = get.get("--protocol").map_or("dgl", |s| s.as_str());
    if !matches!(protocol, "dgl" | "tree-lock") {
        return Err(format!("--protocol {protocol}: expected dgl or tree-lock"));
    }
    Ok(Args {
        workload: take("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other}: expected 0 or 1")),
        },
        tree_lock: protocol == "tree-lock",
    })
}

/// A directory removed when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The engine of the timed phase, and of recovery into memory: the
/// default configuration, with no log attached.
fn memory_config() -> DglConfig {
    let mut cfg = log_config();
    cfg.durability.enabled = false;
    cfg
}

/// The engine that writes the preload log, so that its recovery can be
/// timed.
fn log_config() -> DglConfig {
    let mut cfg = DglConfig::default();
    cfg.durability.sync = SyncPolicy::Batch(GROUP_COMMIT);
    cfg
}

fn preload(tree: &dyn TransactionalRTree, objects: &[(u64, Rect2)]) -> Result<(), String> {
    for chunk in objects.chunks(PRELOAD_BATCH) {
        let txn = tree.begin();
        for &(oid, rect) in chunk {
            tree.insert(txn, ObjectId(oid), rect)
                .map_err(|e| format!("preload insert {oid}: {e}"))?;
        }
        tree.commit(txn)
            .map_err(|e| format!("preload commit: {e}"))?;
    }
    Ok(())
}

/// Everything the engine holds, through one full-world scan.
fn contents(tree: &dyn TransactionalRTree) -> Result<Vec<(u64, Rect2, u64)>, String> {
    let txn = tree.begin();
    let hits = tree
        .read_scan(txn, Rect2::unit())
        .map_err(|e| format!("full scan: {e}"))?;
    tree.commit(txn)
        .map_err(|e| format!("full scan commit: {e}"))?;
    let mut out: Vec<_> = hits.iter().map(|h| (h.oid.0, h.rect, h.version)).collect();
    out.sort_by_key(|&(oid, ..)| oid);
    Ok(out)
}

fn model_contents(models: &[&Model]) -> Vec<(u64, Rect2, u64)> {
    let mut out: Vec<_> = models
        .iter()
        .flat_map(|m| m.iter())
        .map(|(oid, o)| (oid, o.rect, o.version))
        .collect();
    out.sort_by_key(|&(oid, ..)| oid);
    out
}

/// Compares engine contents with the model: ids, rectangles and versions.
fn diff(what: &str, got: &[(u64, Rect2, u64)], want: &[(u64, Rect2, u64)]) -> Option<String> {
    if got == want {
        return None;
    }
    let first = got
        .iter()
        .zip(want)
        .find(|(a, b)| a != b)
        .map(|(a, b)| format!("first difference: engine {a:?}, model {b:?}"))
        .unwrap_or_default();
    Some(format!(
        "{what}: engine holds {} objects, model {}; {first}",
        got.len(),
        want.len()
    ))
}

/// The engine under test, as the set-up left it.
struct Engine {
    local: Option<DglRTree>,
    tree_lock: Option<TreeLockRTree>,
}

impl Engine {
    fn tree(&self) -> &dyn TransactionalRTree {
        match &self.tree_lock {
            Some(t) => t,
            None => self.local.as_ref().expect("an engine"),
        }
    }
}

/// Checks of the engine beside the clients' answers: how many ran, and
/// what failed.
#[derive(Default)]
struct Checks {
    run: u64,
    failed: Vec<String>,
}

impl Checks {
    fn expect(&mut self, problem: Option<String>) {
        self.run += 1;
        if let Some(p) = problem {
            eprintln!("CHECK FAILED: {p}");
            self.failed.push(p);
        }
    }
}

/// Writes the preload through a log (group commit, transactions of
/// [`PRELOAD_BATCH`]) and crashes it. Returns the registry deltas of the
/// preload, the only phase of the run that logs.
fn write_log(objects: &[(u64, Rect2)], dir: &Path) -> Result<RegistrySnapshot, String> {
    let db = DglRTree::open(dir, log_config()).map_err(|e| format!("open: {e}"))?;
    let obs0 = db.obs().snapshot();
    preload(&db, objects)?;
    db.quiesce().map_err(|e| format!("log quiesce: {e}"))?;
    let obs = db.obs().snapshot().since(&obs0);
    db.crash_wal();
    Ok(obs)
}

/// One timed recovery of the crashed log into memory, checked against
/// the preload: every acknowledged commit must have survived the crash.
/// Recovery into memory leaves the directory as it is, so every recovery
/// replays the same log.
fn recover(dir: &Path, want: &[(u64, Rect2, u64)], checks: &mut Checks) -> Result<f64, String> {
    let t0 = Instant::now();
    let db = DglRTree::recover(dir, memory_config()).map_err(|e| format!("recover: {e}"))?;
    let recover_s = t0.elapsed().as_secs_f64();
    checks.expect(diff("recovered preload", &contents(&db)?, want));
    Ok(recover_s)
}

/// One timed set-up of the timed phase's engine: created and preloaded in
/// memory, with maintenance drained. Its contents are checked afterwards.
fn set_up(
    objects: &[(u64, Rect2)],
    want: &[(u64, Rect2, u64)],
    tree_lock: bool,
    checks: &mut Checks,
) -> Result<(Engine, f64), String> {
    let t0 = Instant::now();
    let engine = if tree_lock {
        let t = TreeLockRTree::new(
            RTreeConfig::default(),
            Rect2::unit(),
            LockManagerConfig::default(),
        );
        preload(&t, objects)?;
        Engine {
            local: None,
            tree_lock: Some(t),
        }
    } else {
        let db = DglRTree::new(memory_config());
        preload(&db, objects)?;
        db.quiesce().map_err(|e| format!("preload quiesce: {e}"))?;
        Engine {
            local: Some(db),
            tree_lock: None,
        }
    };
    let setup_s = t0.elapsed().as_secs_f64();
    checks.expect(diff("preload", &contents(engine.tree())?, want));
    Ok((engine, setup_s))
}

/// What the timed phase left: the clients' outcomes, what the probes
/// found, the phase's length, and the machine's CPU ticks at its start,
/// at every window boundary it passed and at its end.
struct Timed {
    outcomes: Vec<Outcome>,
    probes: ProbeTally,
    elapsed: Duration,
    ticks: Vec<(u64, u64)>,
}

/// Runs the clients of the timed phase.
fn run_clients(spec: &Spec, args: &Args, engine: &Engine, models: Vec<Model>) -> Timed {
    let seconds = Duration::from_secs(args.seconds);
    // The last round may end well past `seconds`; its windows are made
    // before the run too.
    let windows = args.seconds as usize + 30;
    let tree = engine.tree();
    // The probe tests the DGL engine; a baseline run leaves it out.
    let rounds = Rounds::new(spec, spec.probe && !args.tree_lock);
    let rounds = &rounds;
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    let start = Instant::now();
    let (outcomes, mut ticks) = std::thread::scope(|scope| {
        // Samples the CPU ticks at each window boundary until the clients
        // are done; it sleeps in between.
        let sampler = scope.spawn(move || {
            let mut ticks = vec![cpu_ticks()];
            loop {
                let next = start + client::WINDOW * ticks.len() as u32;
                match stopped.recv_timeout(next.saturating_duration_since(Instant::now())) {
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => ticks.push(cpu_ticks()),
                    _ => return ticks,
                }
            }
        });
        let handles: Vec<_> = models
            .into_iter()
            .enumerate()
            .map(|(c, model)| {
                scope.spawn(move || {
                    let runner = Runner::new(spec, args.seed, c, model, start, args.trace, windows);
                    runner.run(&mut InProc(tree), seconds, rounds)
                })
            })
            .collect();
        let outcomes = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>();
        drop(stop);
        (outcomes, sampler.join().expect("tick sampler panicked"))
    });
    let elapsed = start.elapsed();
    ticks.push(cpu_ticks());
    let probes = std::mem::take(&mut *rounds.tally.lock().expect("probe tally"));
    Timed {
        outcomes,
        probes,
        elapsed,
        ticks,
    }
}

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Shown in the table only (sample counts and the like).
    pub note: String,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note,
    }
}

/// Median; the mean of the middle two of an even count.
fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Clock ticks of this machine's CPUs since boot, from `/proc/stat`, as
/// `(steal, all)`: `steal` counts the time the host ran something else
/// while this machine had work to run. Zero where the file cannot be read.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Windows in which the host took more than this share of the machine's
/// CPU time are left out of the end-to-end figures.
const STEAL_MAX: f64 = 0.02;

/// The host's share of the machine's CPU time between two tick samples.
fn steal_share(a: (u64, u64), b: (u64, u64)) -> f64 {
    (b.0 - a.0) as f64 / (b.1 - a.1).max(1) as f64
}

/// The windows the end-to-end figures are taken over: those in which the
/// host took at most [`STEAL_MAX`] of the CPU time, or, when fewer than a
/// quarter of the run's windows qualify, the quarter with the least. The
/// choice rests on the host's accounting alone, never on the figures, so
/// a stall of the program's own stays in them.
fn quiet_windows(steal: &[f64]) -> Vec<usize> {
    let mut by_steal: Vec<usize> = (0..steal.len()).collect();
    by_steal.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let quarter = steal.len().div_ceil(4);
    let clean = by_steal.iter().filter(|&&w| steal[w] <= STEAL_MAX).count();
    by_steal.truncate(clean.max(quarter));
    by_steal.sort_unstable();
    by_steal
}

fn end_to_end(t: &Timed, setup: &mut [f64], recover: &mut [f64], rss_mb: f64) -> Vec<Metric> {
    let window_s = client::WINDOW.as_secs_f64();
    let secs = t.elapsed.as_secs_f64();
    let steal: Vec<f64> = t
        .ticks
        .windows(2)
        .map(|p| steal_share(p[0], p[1]))
        .collect();
    let used = quiet_windows(&steal);
    let mut all = client::Lat::default();
    let mut used_s = 0.0;
    for &w in &used {
        for o in &t.outcomes {
            all.merge(&o.windows[w]);
        }
        used_s += (secs - w as f64 * window_s).clamp(0.0, window_s);
    }
    let ops = all.ops;
    let mut out = vec![
        metric(
            "setup_s",
            median(setup),
            "s",
            format!("median of {} set-ups", setup.len()),
        ),
        metric(
            "ops_per_s",
            ops as f64 / used_s,
            "ops/s",
            format!(
                "{ops} committed ops in {used_s:.3} s: {} of {} windows, host steal at most {:.1} % in each",
                used.len(),
                steal.len(),
                used.iter().map(|&w| steal[w]).fold(0.0, f64::max) * 100.0
            ),
        ),
    ];
    let series = [
        ("txn_p50_us", "txn_p99_us", &all.txn),
        ("scan_p50_us", "scan_p99_us", &all.scan),
        ("point_p50_us", "point_p99_us", &all.point),
        ("write_p50_us", "write_p99_us", &all.write),
        ("commit_p50_us", "commit_p99_us", &all.commit),
    ];
    for (p50, p99, h) in series {
        let n = format!("n={}", h.n);
        out.push(metric(p50, h.percentile_us(0.50), "us", n.clone()));
        out.push(metric(p99, h.percentile_us(0.99), "us", n));
    }
    if !recover.is_empty() {
        out.push(metric(
            "recover_s",
            median(recover),
            "s",
            format!("median of {} recoveries", recover.len()),
        ));
    }
    out.push(metric(
        "peak_rss_mb",
        rss_mb,
        "MB",
        format!(
            "at the end of set-up; {:.2} at the end of the run",
            peak_rss_mb()
        ),
    ));
    out
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(spec: &Spec, args: &Args, scratch: &Path) -> Result<(), String> {
    let objects = spec::preload_objects(spec, args.seed);
    let mut checks = Checks::default();
    let setups = if args.trace { 1 } else { SETUPS };
    let want: Vec<_> = objects.iter().map(|&(o, r)| (o, r, 1)).collect();
    let (mut recover_s, mut preload_obs) = (Vec::new(), None);
    if !args.tree_lock {
        let dir = scratch.join("log");
        preload_obs = Some(write_log(&objects, &dir)?);
        for _ in 0..setups {
            recover_s.push(recover(&dir, &want, &mut checks)?);
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {dir:?}: {e}"))?;
    }
    let (mut setup_s, mut engine) = (Vec::new(), None);
    for _ in 0..setups {
        // The previous set-up's engine goes first, so at most one is alive.
        drop(engine.take());
        let (e, t) = set_up(&objects, &want, args.tree_lock, &mut checks)?;
        setup_s.push(t);
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");
    let height = engine.local.as_ref().map(|d| d.with_tree(|t| t.height()));

    let models: Vec<Model> = (0..spec.clients)
        .map(|c| {
            let mut m = Model::new(spec::OBJECT_EXTENT);
            for &(oid, rect) in objects.iter().filter(|(o, _)| spec.owner(*o) == c) {
                m.put(oid, Obj { rect, version: 1 });
            }
            m
        })
        .collect();

    let rss_mb = peak_rss_mb();
    let before = engine.local.as_ref().map(layers::Counters::take);
    let timed = run_clients(spec, args, &engine, models);
    let (outcomes, probes) = (&timed.outcomes, &timed.probes);
    let after = engine.local.as_ref().map(layers::Counters::take);

    // End of run: the engine, quiesced, must hold exactly the model.
    let tree = engine.tree();
    if let Some(d) = &engine.local {
        checks.expect(d.quiesce().err().map(|e| format!("quiesce: {e}")));
    } else {
        tree.quiesce();
    }
    checks.expect(tree.validate().err().map(|e| format!("validate: {e}")));
    let want = model_contents(&outcomes.iter().map(|o| &o.model).collect::<Vec<_>>());
    checks.expect(
        (tree.len() != want.len())
            .then(|| format!("len() is {}, model holds {}", tree.len(), want.len())),
    );
    checks.expect(diff("end of run", &contents(tree)?, &want));

    let mut report = Vec::new();
    if args.trace {
        let d = engine
            .local
            .take()
            .ok_or("a traced run needs the DGL engine")?;
        let deltas = layers::Counters::since(
            after.as_ref().expect("counters"),
            before.as_ref().expect("counters"),
        );
        let preload_obs = preload_obs.expect("a DGL set-up logs its preload");
        report = layers::per_layer(&d, &deltas, &preload_obs, outcomes)?;
        report.extend(layers::wire_replay(d, outcomes)?);
        let path = Path::new(OUT_DIR)
            .join("traces")
            .join(format!("{}-seed{}.jsonl", spec.name, args.seed));
        let written = layers::write_spans(&path, outcomes).map_err(|e| format!("{path:?}: {e}"))?;
        let recorded: usize = outcomes.iter().map(|o| o.spans.len()).sum();
        println!(
            "{written} of {recorded} spans written to {}",
            path.display()
        );
    }
    drop(engine);

    let steal = steal_share(timed.ticks[0], timed.ticks[timed.ticks.len() - 1]);
    let mut e2e = end_to_end(&timed, &mut setup_s, &mut recover_s, rss_mb);
    let attempted = outcomes.iter().map(|o| o.attempted).sum::<u64>() + probes.attempted;
    let wrong: u64 = outcomes.iter().map(|o| o.wrong).sum();
    let errors: u64 = outcomes.iter().map(|o| o.errors).sum();
    let failed = wrong + errors + probes.failed + checks.failed.len() as u64;
    // An operation that failed with an error gave no answer to check;
    // `correct` speaks of the answers that were given.
    let correct = wrong == 0 && checks.failed.is_empty();
    let retries: u64 = outcomes.iter().map(|o| o.retries).sum();
    let skipped: u64 = outcomes.iter().map(|o| o.skipped).sum();

    println!(
        "workload {} seed {} clients {} preload {} objects, tree height {} protocol {} cores {} host steal {:.1} % of CPU time in the timed phase",
        spec.name,
        args.seed,
        spec.clients,
        objects.len(),
        height.map_or("-".to_string(), |h| h.to_string()),
        if args.tree_lock { "tree-lock" } else { "dgl" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        steal * 100.0,
    );
    println!(
        "attempted {attempted} failed {failed} (wrong answers {wrong}, errors {errors}, probe failures {}, failed checks {} of {}) retries {retries} duplicate-id skips {skipped}",
        probes.failed,
        checks.failed.len(),
        checks.run
    );
    if probes.runs > 0 {
        println!(
            "deferred-deletion probe: {} runs, {} operations checked, {} failed, {:.1} ms in all",
            probes.runs,
            probes.attempted,
            probes.failed,
            probes.busy.as_secs_f64() * 1e3
        );
    }
    let shown = if args.trace { &mut report } else { &mut e2e };
    for m in shown.iter() {
        println!(
            "  {:<26} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!("{}", json_line(correct, attempted, failed, shown));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--protocol dgl|tree-lock]"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = model::self_test() {
        eprintln!("perfbench: correctness checker self-test failed: {e}");
        return ExitCode::from(3);
    }
    let Some(spec) = spec::find(&args.workload) else {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let scratch = Scratch(Path::new(OUT_DIR).join(format!("run-{}", std::process::id())));
    match run(&spec, &args, &scratch.0) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
