//! A fixed two-client scenario that shows a fault of the deferred
//! physical deletion every time it runs.
//!
//! When a committed delete underfills its leaf, the system operation of
//! §3.7 removes the leaf (phase 1) and then re-inserts its other objects,
//! the orphans, one latch session each (phase 2). Between the phases the
//! orphans are in no node. A scan whose query falls inside another leaf's
//! granule takes its S lock there and nowhere else, so nothing it locks
//! conflicts with the system operation, and it returns without the
//! orphans: committed objects that no transaction deleted.
//!
//! Under the two-client workload this happens now and then, whenever a
//! scan slips into that window. Here the window is held open on purpose:
//! the reader first scans a point of the leaf the orphan will go back
//! into, so the system operation's re-insertion waits for the reader's
//! commit. The inputs are fixed (they do not depend on `--seed`), so the
//! scenario takes the same course in every run, and its racing scan is
//! one operation that either answers right or wrong every time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dgl_core::{DglConfig, DglRTree, ObjectId, TransactionalRTree};
use dgl_geom::Rect2;
use dgl_pager::PageId;

use crate::model::intersects;
use crate::spec::Rng;

/// Objects of the probe's tree: few enough for a tree of height 2.
const OBJECTS: u64 = 600;

/// Largest side of a probe object.
const EXTENT: f64 = 0.05;

/// Seed of the probe's objects, the same in every run.
const SEED: u64 = 0x0005_EED0_F0DE_1E7E;

/// Side of the two point-like queries.
const EPS: f64 = 1e-7;

/// How long the reader waits for the system operation to block on its
/// lock, or for the deleting commit to return, before it gives up.
const PATIENCE: Duration = Duration::from_secs(5);

/// What one probe did.
pub struct ProbeOutcome {
    /// Operations whose answers were checked.
    pub attempted: u64,
    /// Wrong answers and errors, each with its inputs.
    pub failed: Vec<String>,
}

/// The scenario, found on the fixed tree.
struct Scenario {
    /// The leaf the delete empties below its minimum.
    leaf: PageId,
    /// Objects of that leaf deleted first, so one more delete underfills it.
    trim: Vec<(u64, Rect2)>,
    /// The delete that underfills the leaf.
    victim: (u64, Rect2),
    /// An orphan of that leaf, contained in one other leaf's granule.
    orphan: (u64, Rect2),
    /// A point of that other leaf and of no other leaf: the reader's lock.
    hold: Rect2,
    /// A point of the orphan inside that other leaf and no further leaf.
    race: Rect2,
}

fn tiny(x: f64, y: f64) -> Rect2 {
    Rect2::new([x, y], [x + EPS, y + EPS])
}

/// Points on a 7x7 grid inside `r`.
fn grid(r: &Rect2) -> impl Iterator<Item = Rect2> + '_ {
    (1..8).flat_map(move |i| {
        (1..8).map(move |j| {
            let x = r.lo[0] + (r.hi[0] - r.lo[0] - EPS) * i as f64 / 8.0;
            let y = r.lo[1] + (r.hi[1] - r.lo[1] - EPS) * j as f64 / 8.0;
            tiny(x, y)
        })
    })
}

/// The first scenario, in page and entry order, that the tree's geometry
/// allows.
fn find(db: &DglRTree) -> Option<Scenario> {
    db.with_tree(|t| {
        let min = t.config().min_entries;
        // Each leaf: its page, its granule and its objects.
        type Leaf = (PageId, Rect2, Vec<(u64, Rect2)>);
        let leaves: Vec<Leaf> = t
            .pages()
            .filter(|(_, n)| n.is_leaf())
            .filter_map(|(p, n)| {
                let objs = n
                    .entries
                    .iter()
                    .filter_map(|e| e.oid().map(|o| (o.0, e.mbr())))
                    .collect();
                Some((p, n.mbr()?, objs))
            })
            .collect();
        let only = |q: &Rect2, allowed: &[PageId]| {
            leaves
                .iter()
                .all(|(p, br, _)| allowed.contains(p) || !br.intersects(q))
        };
        for (leaf, leaf_br, objs) in &leaves {
            if objs.len() <= min {
                continue;
            }
            for &(oid, rect) in objs {
                for (other, other_br, _) in &leaves {
                    let homes = leaves
                        .iter()
                        .filter(|(p, br, _)| p != leaf && br.contains(&rect))
                        .count();
                    if other == leaf || !other_br.contains(&rect) || homes != 1 {
                        continue;
                    }
                    let Some(race) = grid(&rect).find(|q| only(q, &[*leaf, *other])) else {
                        continue;
                    };
                    let Some(hold) = grid(other_br).find(|q| {
                        !q.intersects(leaf_br) && !q.intersects(&rect) && only(q, &[*other])
                    }) else {
                        continue;
                    };
                    let rest: Vec<_> = objs.iter().copied().filter(|&(o, _)| o != oid).collect();
                    let trim = rest[..objs.len() - min].to_vec();
                    let victim = rest[objs.len() - min];
                    return Some(Scenario {
                        leaf: *leaf,
                        trim,
                        victim,
                        orphan: (oid, rect),
                        hold,
                        race,
                    });
                }
            }
        }
        None
    })
}

fn commit_all(db: &DglRTree, ops: &[(u64, Rect2)], insert: bool) -> Result<(), String> {
    for chunk in ops.chunks(20) {
        let txn = db.begin();
        for &(oid, rect) in chunk {
            let r = if insert {
                db.insert(txn, ObjectId(oid), rect)
            } else {
                db.delete(txn, ObjectId(oid), rect).map(|_| ())
            };
            r.map_err(|e| format!("probe set-up on {oid}: {e}"))?;
        }
        db.commit(txn)
            .map_err(|e| format!("probe set-up commit: {e}"))?;
    }
    Ok(())
}

/// Builds the fixed tree, runs the scenario once and checks the scan that
/// races the deferred deletion. An error means the scenario could not be
/// set up at all.
pub fn run() -> Result<ProbeOutcome, String> {
    let db = DglRTree::new(DglConfig::default());
    let mut rng = Rng::new(SEED);
    let objects: Vec<(u64, Rect2)> = (0..OBJECTS).map(|o| (o, rng.rect(EXTENT))).collect();
    commit_all(&db, &objects, true)?;
    let s = find(&db).ok_or("probe: no leaf of the fixed tree fits the scenario")?;
    commit_all(&db, &s.trim, false)?;
    if !db.with_tree(|t| t.is_live(s.leaf)) {
        return Err("probe: trimming removed the leaf".into());
    }

    // What the engine must hold once the victim is deleted.
    let mut alive: Vec<(u64, Rect2)> = objects
        .iter()
        .copied()
        .filter(|&(o, _)| o != s.victim.0 && !s.trim.iter().any(|&(t, _)| t == o))
        .collect();
    alive.sort_by_key(|&(o, _)| o);
    let expect: Vec<u64> = alive
        .iter()
        .filter(|(_, r)| intersects(r, &s.race))
        .map(|&(o, _)| o)
        .collect();

    let mut failed = Vec::new();
    let deleted = AtomicBool::new(false);
    let retries0 = db.op_stats().snapshot().deferred_retries;
    let reader = |ready: std::sync::mpsc::Sender<()>| -> Result<Option<String>, String> {
        let txn = db.begin();
        let held = db.read_scan(txn, s.hold);
        let _ = ready.send(());
        held.map_err(|e| format!("probe hold scan: {e}"))?;
        // Wait until the deletion's re-insertion waits on the reader's
        // lock (or has finished without needing it).
        let t0 = Instant::now();
        while db.op_stats().snapshot().deferred_retries == retries0
            && !deleted.load(Ordering::Acquire)
        {
            if t0.elapsed() > PATIENCE {
                let _ = db.abort(txn);
                return Err("probe: the deferred deletion neither waited nor finished".into());
            }
            std::thread::sleep(Duration::from_micros(20));
        }
        let answer = match db.read_scan(txn, s.race) {
            Ok(hits) => {
                let mut got: Vec<u64> = hits.iter().map(|h| h.oid.0).collect();
                got.sort_unstable();
                (got != expect).then(|| {
                    format!(
                        "probe: read_scan {:?} returned objects {got:?}, committed are {expect:?}; \
                         object {} {:?} was an orphan of the deferred deletion of object {} (leaf {:?})",
                        s.race, s.orphan.0, s.orphan.1, s.victim.0, s.leaf
                    )
                })
            }
            // Refused (say, as a deadlock victim): no answer to check.
            Err(e) if e.is_retryable() => None,
            Err(e) => Some(format!("probe: read_scan {:?} failed: {e}", s.race)),
        };
        let _ = db.commit(txn);
        Ok(answer)
    };
    let answer = std::thread::scope(|scope| {
        let (ready, held) = std::sync::mpsc::channel();
        let r = scope.spawn(|| reader(ready));
        // The delete starts once the reader holds its lock.
        let _ = held.recv();
        let txn = db.begin();
        let (oid, rect) = s.victim;
        let d = db
            .delete(txn, ObjectId(oid), rect)
            .and_then(|_| db.commit(txn));
        deleted.store(true, Ordering::Release);
        let answer = r.join().expect("probe reader panicked");
        d.map_err(|e| format!("probe delete of {oid}: {e}"))?;
        answer
    })?;
    failed.extend(answer);

    // Afterwards the engine must hold exactly the objects not deleted.
    db.quiesce().map_err(|e| format!("probe quiesce: {e}"))?;
    db.validate().map_err(|e| format!("probe validate: {e}"))?;
    let txn = db.begin();
    let all = db
        .read_scan(txn, Rect2::unit())
        .map_err(|e| format!("probe full scan: {e}"))?;
    db.commit(txn)
        .map_err(|e| format!("probe full scan commit: {e}"))?;
    let mut held: Vec<(u64, Rect2)> = all.iter().map(|h| (h.oid.0, h.rect)).collect();
    held.sort_by_key(|&(o, _)| o);
    if held != alive || db.len() != alive.len() {
        failed.push(format!(
            "probe: the engine holds {} objects (len() {}) after the deletion, not the {} committed",
            held.len(),
            db.len(),
            alive.len()
        ));
    }
    Ok(ProbeOutcome {
        // The racing scan and the final contents.
        attempted: 2,
        failed,
    })
}

#[cfg(test)]
mod tests {
    /// The probe's inputs are fixed, so it must take the same course on
    /// every run: a run whose failure count changed would make the
    /// workload's share of failed operations differ between runs.
    #[test]
    fn probe_answers_the_same_way_every_time() {
        let first = super::run().expect("probe set-up");
        assert_eq!(first.attempted, 2);
        for _ in 0..20 {
            let again = super::run().expect("probe set-up");
            assert_eq!(again.attempted, first.attempted);
            assert_eq!(again.failed, first.failed);
        }
    }
}
