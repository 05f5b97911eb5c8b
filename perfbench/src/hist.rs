//! Fixed-size latency histogram: log-linear buckets, 64 per power of two
//! (at most 1.6 % wide), from 64 ns to about 17 s. Its memory is fixed
//! when it is made, whatever the throughput of the run.

/// Sub-buckets per power of two.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;

/// Values below `1 << MIN_EXP` ns share the first power of two.
const MIN_EXP: u32 = 6;

/// Values at or above `1 << MAX_EXP` ns fall in the last bucket.
const MAX_EXP: u32 = 34;

const BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize * SUB;

pub struct Hist {
    counts: Box<[u32]>,
    pub n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            n: 0,
        }
    }
}

fn bucket(ns: u64) -> usize {
    let v = ns.clamp(1 << MIN_EXP, (1 << MAX_EXP) - 1);
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
    (exp - MIN_EXP) as usize * SUB + sub
}

/// The lowest value of bucket `b` and its width, in nanoseconds.
fn bounds(b: usize) -> (f64, f64) {
    let exp = (b / SUB) as u32 + MIN_EXP;
    let width = (1u64 << (exp - SUB_BITS)) as f64;
    ((1u64 << exp) as f64 + (b % SUB) as f64 * width, width)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile in microseconds, placed inside its bucket
    /// by its rank among the bucket's samples; 0 for an empty histogram.
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if below + c >= rank {
                let (lo, width) = bounds(b);
                let within = (rank - below) as f64 - 0.5;
                return (lo + width * within / c as f64) / 1e3;
            }
            below += c;
        }
        unreachable!("rank {rank} is within n {}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_land_within_a_bucket_of_the_exact_value() {
        let mut h = Hist::default();
        let values: Vec<u64> = (1..=10_000).map(|i| 200 + i * 37).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.5, 0.99] {
            let exact = values[(q * values.len() as f64).ceil() as usize - 1] as f64 / 1e3;
            let got = h.percentile_us(q);
            assert!(
                (got - exact).abs() / exact < 0.016,
                "q {q}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn buckets_cover_the_range_in_order() {
        let mut last = 0;
        for ns in [1, 64, 65, 127, 128, 1_000, 1 << 20, (1 << 34) - 1, u64::MAX] {
            let b = bucket(ns);
            assert!(b >= last && b < BUCKETS, "{ns} -> {b}");
            let (lo, width) = bounds(b);
            if (64..(1 << 34)).contains(&ns) {
                assert!(
                    lo <= ns as f64 && (ns as f64) < lo + width,
                    "{ns} not in bucket {b}"
                );
            }
            last = b;
        }
    }
}
