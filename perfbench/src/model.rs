//! The benchmark's own model of what the engine must answer.
//!
//! Each client keeps the objects it committed (its share of the preload
//! included) in a map plus a coarse grid for brute-force region queries,
//! and an overlay of the writes of its open transaction. Nothing here
//! calls into the engine: geometry is re-implemented so that a fault in
//! the engine's own rectangle code cannot hide itself.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use dgl_core::ScanHit;
use dgl_geom::Rect2;

use crate::spec::Rng;

/// Grid cells per side of the unit world.
const GRID: usize = 64;

/// An object as the model knows it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obj {
    pub rect: Rect2,
    pub version: u64,
}

/// Closed-interval intersection, as the paper's region search defines it.
pub fn intersects(a: &Rect2, b: &Rect2) -> bool {
    a.lo[0] <= b.hi[0] && b.lo[0] <= a.hi[0] && a.lo[1] <= b.hi[1] && b.lo[1] <= a.hi[1]
}

/// Multiplicative hashing for the benchmark's own object ids: the model
/// sits on every client's hot path, and its keys come from the seed, not
/// from outside the program.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;
pub type IdSet = HashSet<u64, BuildHasherDefault<IdHasher>>;

fn cell(v: f64) -> usize {
    ((v * GRID as f64) as isize).clamp(0, GRID as isize - 1) as usize
}

/// Committed objects of one client (or, merged, of the whole run).
pub struct Model {
    objs: IdMap<(Obj, usize)>,
    ids: Vec<u64>,
    /// Objects bucketed by the cell of their lower corner.
    grid: Vec<Vec<(u64, Rect2)>>,
    /// Largest object side; a query reaches this far back into the grid.
    max_extent: f64,
}

impl Model {
    pub fn new(max_extent: f64) -> Self {
        Model {
            objs: IdMap::default(),
            ids: Vec::new(),
            grid: vec![Vec::new(); GRID * GRID],
            max_extent,
        }
    }

    fn cell_of(rect: &Rect2) -> usize {
        cell(rect.lo[0]) * GRID + cell(rect.lo[1])
    }

    pub fn get(&self, oid: u64) -> Option<Obj> {
        self.objs.get(&oid).map(|(o, _)| *o)
    }

    /// Inserts or replaces `oid`.
    pub fn put(&mut self, oid: u64, obj: Obj) {
        if let Some((old, _)) = self.objs.get(&oid) {
            assert_eq!(old.rect, obj.rect, "the model never moves an object");
            self.objs.get_mut(&oid).expect("present").0 = obj;
            return;
        }
        self.objs.insert(oid, (obj, self.ids.len()));
        self.ids.push(oid);
        self.grid[Self::cell_of(&obj.rect)].push((oid, obj.rect));
    }

    pub fn remove(&mut self, oid: u64) -> Option<Obj> {
        let (obj, pos) = self.objs.remove(&oid)?;
        self.ids.swap_remove(pos);
        if let Some(&moved) = self.ids.get(pos) {
            self.objs.get_mut(&moved).expect("indexed id").1 = pos;
        }
        let bucket = &mut self.grid[Self::cell_of(&obj.rect)];
        let at = bucket
            .iter()
            .position(|&(o, _)| o == oid)
            .expect("gridded id");
        bucket.swap_remove(at);
        Some(obj)
    }

    /// A uniformly chosen committed object.
    pub fn pick(&self, rng: &mut Rng) -> Option<(u64, Rect2)> {
        if self.ids.is_empty() {
            return None;
        }
        let oid = self.ids[rng.below(self.ids.len() as u64) as usize];
        Some((oid, self.objs[&oid].0.rect))
    }

    /// Brute force over the grid cells `query` can reach.
    pub fn query(&self, query: &Rect2) -> Vec<u64> {
        let (x0, x1) = (cell(query.lo[0] - self.max_extent), cell(query.hi[0]));
        let (y0, y1) = (cell(query.lo[1] - self.max_extent), cell(query.hi[1]));
        let mut out = Vec::new();
        for x in x0..=x1 {
            for y in y0..=y1 {
                for &(oid, rect) in &self.grid[x * GRID + y] {
                    if intersects(&rect, query) {
                        out.push(oid);
                    }
                }
            }
        }
        out
    }

    pub fn iter(&self) -> impl Iterator<Item = (u64, Obj)> + '_ {
        self.objs.iter().map(|(&oid, (o, _))| (oid, *o))
    }
}

/// The writes of one open transaction, newest last.
#[derive(Default)]
pub struct Overlay {
    writes: Vec<(u64, Option<Obj>)>,
}

impl Overlay {
    /// What `oid` must read as inside the transaction.
    pub fn view(&self, model: &Model, oid: u64) -> Option<Obj> {
        match self.writes.iter().rev().find(|(o, _)| *o == oid) {
            Some((_, w)) => *w,
            None => model.get(oid),
        }
    }

    pub fn write(&mut self, oid: u64, obj: Option<Obj>) {
        self.writes.push((oid, obj));
    }

    pub fn clear(&mut self) {
        self.writes.clear();
    }

    /// Folds a committed transaction into the model.
    pub fn commit_into(&mut self, model: &mut Model) {
        for (oid, w) in self.writes.drain(..) {
            match w {
                Some(obj) => model.put(oid, obj),
                None => {
                    model.remove(oid);
                }
            }
        }
    }
}

/// Checks one scan's hits. `own` tells which ids the model is complete
/// for: for those the hits must equal the model exactly; every other hit
/// must at least intersect the query. Returns one line per wrong answer.
pub fn check_scan(
    model: &Model,
    overlay: &Overlay,
    own: impl Fn(u64) -> bool,
    query: &Rect2,
    hits: &[ScanHit],
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut seen = IdSet::with_capacity_and_hasher(hits.len(), Default::default());
    for h in hits {
        let oid = h.oid.0;
        if !intersects(&h.rect, query) {
            problems.push(format!("hit {oid} {:?} misses the query", h.rect));
        }
        if !seen.insert(oid) {
            problems.push(format!("hit {oid} returned twice"));
        }
        if own(oid) {
            match overlay.view(model, oid) {
                None => problems.push(format!("phantom hit {oid} {:?}", h.rect)),
                Some(o) if o.rect != h.rect || o.version != h.version => problems.push(format!(
                    "hit {oid} reads {:?} v{}, model has {:?} v{}",
                    h.rect, h.version, o.rect, o.version
                )),
                Some(_) => {}
            }
        }
    }
    let mut expected = model.query(query);
    expected.extend(overlay.writes.iter().map(|(oid, _)| *oid));
    for oid in expected {
        let visible = overlay
            .view(model, oid)
            .is_some_and(|o| intersects(&o.rect, query));
        if visible && !seen.contains(&oid) {
            problems.push(format!("dropped hit {oid}"));
            seen.insert(oid);
        }
    }
    problems
}

/// Plants a dropped hit and a phantom hit into an otherwise correct scan
/// and checks that the checker reports exactly those two.
pub fn self_test() -> Result<(), String> {
    let mut model = Model::new(0.01);
    let obj = |x: f64| Obj {
        rect: Rect2::new([x, 0.5], [x + 0.005, 0.505]),
        version: 1,
    };
    let hit = |oid: u64, o: Obj| ScanHit {
        oid: dgl_core::ObjectId(oid),
        rect: o.rect,
        version: o.version,
    };
    model.put(1, obj(0.40));
    model.put(2, obj(0.45));
    model.put(3, obj(0.90));
    let query = Rect2::new([0.38, 0.48], [0.50, 0.52]);
    let overlay = Overlay::default();
    let correct = [hit(1, obj(0.40)), hit(2, obj(0.45))];
    let found = check_scan(&model, &overlay, |_| true, &query, &correct);
    if !found.is_empty() {
        return Err(format!("checker flags a correct scan: {found:?}"));
    }
    // Object 2 dropped, object 9 (never inserted) returned.
    let planted = [hit(1, obj(0.40)), hit(9, obj(0.42))];
    let found = check_scan(&model, &overlay, |_| true, &query, &planted);
    let dropped = found.iter().any(|p| p.starts_with("dropped hit 2"));
    let phantom = found.iter().any(|p| p.starts_with("phantom hit 9"));
    if found.len() != 2 || !dropped || !phantom {
        return Err(format!("checker missed a planted wrong answer: {found:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_reports_planted_dropped_and_phantom_hits() {
        self_test().unwrap();
    }

    #[test]
    fn grid_query_equals_a_linear_scan() {
        let mut rng = Rng::new(7);
        let mut model = Model::new(0.01);
        for oid in 0..2_000 {
            let rect = rng.rect(0.01);
            model.put(oid, Obj { rect, version: 1 });
        }
        for oid in (0..2_000).step_by(3) {
            model.remove(oid);
        }
        for _ in 0..200 {
            let q = rng.rect(0.2);
            let mut fast = model.query(&q);
            fast.sort_unstable();
            let mut slow: Vec<u64> = model
                .iter()
                .filter(|(_, o)| intersects(&o.rect, &q))
                .map(|(oid, _)| oid)
                .collect();
            slow.sort_unstable();
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn a_delete_earlier_in_the_transaction_reads_as_absent() {
        let mut model = Model::new(0.01);
        let o = Obj {
            rect: Rect2::new([0.1, 0.1], [0.105, 0.105]),
            version: 1,
        };
        model.put(5, o);
        let mut overlay = Overlay::default();
        overlay.write(5, None);
        assert_eq!(overlay.view(&model, 5), None);
        let q = Rect2::new([0.0, 0.0], [0.2, 0.2]);
        assert!(check_scan(&model, &overlay, |_| true, &q, &[]).is_empty());
        overlay.commit_into(&mut model);
        assert_eq!(model.iter().count(), 0);
    }
}
