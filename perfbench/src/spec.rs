//! Workload definitions and the seeded operation generator.
//!
//! Everything a run sends to the engine is drawn here from `--seed`: the
//! preload objects and every client's transactions. A client's next
//! transaction depends only on the seed and on that client's own
//! committed objects, so the inputs repeat exactly for a given seed
//! whatever the interleaving of the clients.

use dgl_geom::Rect2;

use crate::model::Model;

/// Operations per transaction.
pub const TXN_OPS: usize = 4;

/// Inserts committed per preload transaction.
pub const PRELOAD_BATCH: usize = 20;

/// Object ids at or above this are drawn by clients during the timed
/// phase; below it are preload ids.
pub const FRESH_BASE: u64 = 1 << 40;

/// Relative weights of the operation kinds in a transaction.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub insert: u32,
    pub delete: u32,
    pub update: u32,
    pub point: u32,
    pub scan: u32,
    /// Largest side of a scan query, as a share of the unit world.
    pub scan_extent: f64,
}

/// One in this many scans is repeated in the same transaction.
pub const RESCAN_EVERY: u64 = 8;

/// Largest side of an object rectangle.
pub const OBJECT_EXTENT: f64 = 0.01;

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub clients: usize,
    pub mix: Mix,
    /// Objects inserted before the timed phase.
    pub preload: usize,
    /// Transactions per round, of all clients together.
    pub round_txns: u64,
    /// Whether the deferred-deletion probe (`probe.rs`) runs once per round.
    pub probe: bool,
}

/// The two-client workload draws no deletes: while one client's commit
/// re-inserts the orphans of a physical deletion, the other client's
/// scans can miss them, now and then (see `probe.rs`). The probe shows
/// that fault once per round, the same way every time; deletes drawn from
/// the seed would show it in some runs and not in others.
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "read-1c",
        clients: 1,
        mix: Mix {
            insert: 4,
            delete: 3,
            update: 3,
            point: 35,
            scan: 55,
            scan_extent: 0.06,
        },
        preload: 32_000,
        round_txns: 2_000,
        probe: false,
    },
    Spec {
        name: "mixed-2c",
        clients: 2,
        mix: Mix {
            insert: 2,
            delete: 0,
            update: 23,
            point: 40,
            scan: 35,
            scan_extent: 0.03,
        },
        preload: 64_000,
        round_txns: 8_000,
        probe: true,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// Which client owns (and alone writes and point-reads) object `oid`.
    pub fn owner(&self, oid: u64) -> usize {
        if oid < FRESH_BASE {
            (oid % self.clients as u64) as usize
        } else {
            ((oid >> 40) - 1) as usize
        }
    }
}

/// One operation of a transaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Insert { oid: u64, rect: Rect2 },
    Delete { oid: u64, rect: Rect2 },
    Update { oid: u64, rect: Rect2 },
    Point { oid: u64, rect: Rect2 },
    Scan { query: Rect2, rescan: bool },
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A rectangle with sides uniform in `[0, extent]`, inside the unit
    /// world.
    pub fn rect(&mut self, extent: f64) -> Rect2 {
        let w = self.unit() * extent;
        let h = self.unit() * extent;
        let x = self.unit() * (1.0 - w);
        let y = self.unit() * (1.0 - h);
        Rect2::new([x, y], [x + w, y + h])
    }
}

/// Mixes a workload name and a stream number into the run seed, so every
/// workload and every client draws from its own stream.
pub fn stream_seed(seed: u64, workload: &str, stream: u64) -> u64 {
    let mut h = seed ^ 0xD6E8_FEB8_6659_FD93;
    for b in workload.bytes().chain(stream.to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    Rng::new(h).next_u64()
}

/// The preload: ids `0..n`, rectangles drawn from the seed.
pub fn preload_objects(spec: &Spec, seed: u64) -> Vec<(u64, Rect2)> {
    let mut rng = Rng::new(stream_seed(seed, spec.name, u64::MAX));
    (0..spec.preload as u64)
        .map(|oid| (oid, rng.rect(OBJECT_EXTENT)))
        .collect()
}

/// One client's transaction stream.
pub struct Generator {
    rng: Rng,
    mix: Mix,
    next_oid: u64,
}

impl Generator {
    pub fn new(spec: &Spec, seed: u64, client: usize) -> Self {
        Generator {
            rng: Rng::new(stream_seed(seed, spec.name, client as u64)),
            mix: spec.mix,
            next_oid: (client as u64 + 1) << 40,
        }
    }

    /// Draws the next transaction against the client's committed objects.
    pub fn next_txn(&mut self, model: &Model) -> [Op; TXN_OPS] {
        std::array::from_fn(|_| self.next_op(model))
    }

    fn next_op(&mut self, model: &Model) -> Op {
        let m = self.mix;
        let total = m.insert + m.delete + m.update + m.point + m.scan;
        let mut roll = self.rng.below(total as u64) as u32;
        if roll < m.scan {
            let query = self.rng.rect(m.scan_extent);
            let rescan = self.rng.below(RESCAN_EVERY) == 0;
            return Op::Scan { query, rescan };
        }
        roll -= m.scan;
        if roll >= m.insert {
            // With no object of its own left, a client inserts instead.
            if let Some((oid, rect)) = model.pick(&mut self.rng) {
                roll -= m.insert;
                return if roll < m.delete {
                    Op::Delete { oid, rect }
                } else if roll < m.delete + m.update {
                    Op::Update { oid, rect }
                } else {
                    Op::Point { oid, rect }
                };
            }
        }
        let oid = self.next_oid;
        self.next_oid += 1;
        Op::Insert {
            oid,
            rect: self.rng.rect(OBJECT_EXTENT),
        }
    }
}
