//! Mergeable single-pass sketches for out-of-core profiling.
//!
//! Each statistic Algorithm 1 needs is rewritten as a small state
//! machine with two operations — `update` over one chunk of rows and
//! `merge` with another sketch of the same column — so a table can be
//! profiled one chunk at a time with memory proportional to the sketch,
//! not the data. Every operation here is *deterministic*: no RNG, no
//! hash seeds, no data-dependent branching on pointer values. Chunks
//! are merged in fixed chunk order by the driver, so the profile is
//! byte-identical at any `CATDB_THREADS`.
//!
//! The sketches:
//!
//! - [`DistinctSketch`] — a k-minimum-values (KMV) distinct counter
//!   over FNV-1a hashes of rendered values, retaining the `K = 1024`
//!   smallest-hash values *with their exact occurrence counts*. A value
//!   retained in the merged sketch was retained in every chunk sketch
//!   where it appeared (the union's k-th smallest hash is ≤ each
//!   part's), so retained counts are exact — columns with fewer than K
//!   distinct values get exact distinct counts, value lists, and top
//!   frequencies; beyond that the estimate `(K-1)·2⁶⁴ / h_K` has
//!   relative standard error ≈ 1/√(K−1) ≈ 3.1%. The retained set
//!   doubles as a deterministic min-hash sample of the distinct values.
//! - [`QuantileSketch`] — a KLL-style compactor hierarchy with
//!   *alternating-parity* (not coin-flip) compaction, giving rank error
//!   ≈ log₂(n/k)/(2k) — far inside the ±0.05 rank bound the tests pin
//!   for the median.
//! - [`MomentSketch`] — streaming count/mean/M2/min/max via Welford
//!   updates and Chan's parallel merge (numerically stable, unlike
//!   naive sum-of-squares).
//! - [`PairMoments`] — the bivariate analogue over co-present rows of
//!   a numeric column pair, yielding |Pearson| with the same guard
//!   semantics as the exact path.

use catdb_table::{Column, ValueDict};
use std::collections::BTreeMap;

/// Values retained by the KMV distinct sketch: distinct counts up to
/// this are exact, beyond it the relative error is ≈ 1/√(K−1) ≈ 3.1%.
pub const DISTINCT_K: usize = 1024;

/// Compactor capacity of the quantile sketch: a level is halved into
/// the next once it holds `2 × QUANTILE_K` items.
pub const QUANTILE_K: usize = 512;

/// FNV-1a over the value bytes, finished with a splitmix64-style
/// avalanche. Raw FNV-1a diffuses too weakly for order statistics —
/// similar short strings cluster, which biases the KMV estimator's
/// k-th smallest hash — so the finalizer mixes every input bit into
/// every output bit before the hash is used as a uniform draw.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

// ---------------------------------------------------------------------------
// Distinct values: k-minimum-values with exact retained counts.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct KmvEntry {
    value: String,
    count: u64,
}

/// KMV distinct counter keyed by value hash (ascending), retaining the
/// `k` smallest-hash values with their occurrence counts.
#[derive(Debug, Clone)]
pub struct DistinctSketch {
    k: usize,
    entries: BTreeMap<u64, KmvEntry>,
    /// Whether any entry was ever evicted (true ⇒ estimates, not exact).
    saturated: bool,
}

impl DistinctSketch {
    pub fn new(k: usize) -> DistinctSketch {
        DistinctSketch { k: k.max(2), entries: BTreeMap::new(), saturated: false }
    }

    /// Record `count` occurrences of `value`.
    pub fn insert(&mut self, value: &str, count: u64) {
        let h = fnv1a(value.as_bytes());
        if let Some(e) = self.entries.get_mut(&h) {
            // Same hash: almost always the same value; on a genuine
            // collision keep the lexicographically smaller value so the
            // outcome is independent of insertion order.
            if value < e.value.as_str() {
                e.value = value.to_string();
            }
            e.count += count;
            return;
        }
        if self.entries.len() < self.k {
            self.entries.insert(h, KmvEntry { value: value.to_string(), count });
        } else if h < *self.entries.keys().next_back().expect("non-empty at capacity") {
            self.entries.pop_last();
            self.entries.insert(h, KmvEntry { value: value.to_string(), count });
            self.saturated = true;
        } else {
            self.saturated = true;
        }
    }

    /// Merge another sketch of the same column (any order, same result).
    pub fn merge(&mut self, other: &DistinctSketch) {
        self.saturated |= other.saturated;
        for (h, e) in &other.entries {
            if let Some(mine) = self.entries.get_mut(h) {
                if e.value.as_str() < mine.value.as_str() {
                    mine.value = e.value.clone();
                }
                mine.count += e.count;
            } else {
                self.entries.insert(*h, e.clone());
            }
        }
        while self.entries.len() > self.k {
            self.entries.pop_last();
            self.saturated = true;
        }
    }

    /// Whether the sketch still holds *every* distinct value seen.
    pub fn is_exact(&self) -> bool {
        !self.saturated
    }

    /// Estimated number of distinct values (exact while unsaturated).
    pub fn estimate(&self) -> usize {
        if !self.saturated {
            return self.entries.len();
        }
        let kth = *self.entries.keys().next_back().expect("saturated sketch is non-empty");
        let est = (self.k as f64 - 1.0) * (u64::MAX as f64 + 1.0) / (kth as f64 + 1.0);
        (est as usize).max(self.entries.len())
    }

    /// Retained `(value, count)` pairs sorted by value — the same order
    /// [`ValueDict`] yields, so exact-cardinality columns produce the
    /// identical value list.
    pub fn sorted_values(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> =
            self.entries.values().map(|e| (e.value.clone(), e.count)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Deterministic min-hash sample: the values of the `n` smallest
    /// hashes, in hash order (a uniform sample of the distinct set).
    pub fn sample(&self, n: usize) -> Vec<String> {
        self.entries.values().take(n).map(|e| e.value.clone()).collect()
    }

    /// Largest retained occurrence count (exact top-value frequency
    /// while unsaturated; a lower bound afterwards).
    pub fn max_count(&self) -> u64 {
        self.entries.values().map(|e| e.count).max().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Quantiles: deterministic KLL-style compactor hierarchy.
// ---------------------------------------------------------------------------

/// Quantile sketch: level `i` holds items of weight `2^i`; a level at
/// capacity is sorted and every other item is promoted. The parity of
/// each compaction alternates via a counter instead of a coin flip, so
/// identical input orders give identical sketches.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    k: usize,
    levels: Vec<Vec<f64>>,
    compactions: u64,
    count: u64,
}

impl QuantileSketch {
    pub fn new(k: usize) -> QuantileSketch {
        QuantileSketch { k: k.max(8), levels: vec![Vec::new()], compactions: 0, count: 0 }
    }

    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.levels[0].push(v);
        self.compact_from(0);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    fn compact_from(&mut self, start: usize) {
        let cap = 2 * self.k;
        let mut l = start;
        while l < self.levels.len() && self.levels[l].len() >= cap {
            self.levels[l].sort_by(|a, b| a.total_cmp(b));
            let keep_parity = (self.compactions % 2) as usize;
            self.compactions += 1;
            let promoted: Vec<f64> = self.levels[l]
                .iter()
                .copied()
                .enumerate()
                .filter_map(|(i, v)| (i % 2 == keep_parity).then_some(v))
                .collect();
            self.levels[l].clear();
            if self.levels.len() == l + 1 {
                self.levels.push(Vec::new());
            }
            self.levels[l + 1].extend(promoted);
            l += 1;
        }
    }

    pub fn merge(&mut self, other: &QuantileSketch) {
        self.count += other.count;
        self.compactions += other.compactions;
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
        }
        for (l, items) in other.levels.iter().enumerate() {
            self.levels[l].extend_from_slice(items);
        }
        self.compact_from(0);
        // Levels above the first may have overflowed without level 0
        // tripping the cascade.
        for l in 1..self.levels.len() {
            self.compact_from(l);
        }
    }

    /// Value at rank `q` ∈ [0, 1] (0.5 = median), or `None` when empty.
    pub fn query(&self, q: f64) -> Option<f64> {
        let mut weighted: Vec<(f64, u64)> = Vec::new();
        for (l, items) in self.levels.iter().enumerate() {
            let w = 1u64 << l;
            weighted.extend(items.iter().map(|&v| (v, w)));
        }
        if weighted.is_empty() {
            return None;
        }
        weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: u64 = weighted.iter().map(|&(_, w)| w).sum();
        let target = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cum = 0u64;
        for &(v, w) in &weighted {
            cum += w;
            if cum as f64 >= target {
                return Some(v);
            }
        }
        weighted.last().map(|&(v, _)| v)
    }
}

// ---------------------------------------------------------------------------
// Streaming moments: Welford updates, Chan merges.
// ---------------------------------------------------------------------------

/// Count / mean / M2 / min / max of a numeric stream.
#[derive(Debug, Clone, Copy)]
pub struct MomentSketch {
    pub n: u64,
    pub mean: f64,
    pub m2: f64,
    pub min: f64,
    pub max: f64,
}

impl Default for MomentSketch {
    fn default() -> Self {
        MomentSketch { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

impl MomentSketch {
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn merge(&mut self, other: &MomentSketch) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let tot = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / tot;
        self.m2 += other.m2 + delta * delta * n1 * n2 / tot;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Population standard deviation (matching the exact profiler).
    pub fn std(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }
}

/// Bivariate co-moments over co-present rows of two numeric columns.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairMoments {
    pub n: u64,
    mx: f64,
    my: f64,
    cxx: f64,
    cyy: f64,
    cxy: f64,
}

impl PairMoments {
    /// Accumulate one chunk of the two columns' value streams.
    pub fn update(&mut self, xs: &[Option<f64>], ys: &[Option<f64>]) {
        for (x, y) in xs.iter().zip(ys) {
            let (Some(x), Some(y)) = (x, y) else { continue };
            self.n += 1;
            let n = self.n as f64;
            let dx = x - self.mx;
            self.mx += dx / n;
            let dy = y - self.my;
            self.my += dy / n;
            self.cxx += dx * (x - self.mx);
            self.cyy += dy * (y - self.my);
            self.cxy += dx * (y - self.my);
        }
    }

    pub fn merge(&mut self, other: &PairMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let tot = n1 + n2;
        let dx = other.mx - self.mx;
        let dy = other.my - self.my;
        self.mx += dx * n2 / tot;
        self.my += dy * n2 / tot;
        self.cxx += other.cxx + dx * dx * n1 * n2 / tot;
        self.cyy += other.cyy + dy * dy * n1 * n2 / tot;
        self.cxy += other.cxy + dx * dy * n1 * n2 / tot;
        self.n += other.n;
    }

    /// |Pearson| with the exact path's guards: 0 below 3 co-present
    /// rows or when either column is (numerically) constant.
    pub fn pearson_abs(&self) -> f64 {
        if self.n < 3 || self.cxx < 1e-12 || self.cyy < 1e-12 {
            return 0.0;
        }
        (self.cxy / (self.cxx.sqrt() * self.cyy.sqrt())).abs()
    }
}

// ---------------------------------------------------------------------------
// Per-column composite sketch.
// ---------------------------------------------------------------------------

/// Everything Algorithm 1 needs about one column, accumulated one chunk
/// at a time.
#[derive(Debug, Clone)]
pub struct ColumnSketch {
    pub rows: u64,
    pub non_null: u64,
    pub distinct: DistinctSketch,
    pub moments: MomentSketch,
    pub quantiles: QuantileSketch,
    /// Microseconds spent updating this sketch (summed across chunks).
    pub micros: u64,
}

impl Default for ColumnSketch {
    fn default() -> Self {
        ColumnSketch {
            rows: 0,
            non_null: 0,
            distinct: DistinctSketch::new(DISTINCT_K),
            moments: MomentSketch::default(),
            quantiles: QuantileSketch::new(QUANTILE_K),
            micros: 0,
        }
    }
}

impl ColumnSketch {
    /// Fold one chunk of the column in. The chunk's values are rendered
    /// once through a throwaway [`ValueDict`] (each distinct value per
    /// chunk, not each cell), deliberately bypassing the global dict
    /// cache so per-chunk dictionaries are dropped immediately and
    /// resident memory stays O(chunk).
    pub fn update(&mut self, col: &Column) {
        self.rows += col.len() as u64;
        let dict = ValueDict::build(col);
        self.non_null += dict.non_null() as u64;
        for (value, &count) in dict.values().zip(dict.counts()) {
            self.distinct.insert(value, count as u64);
        }
        if col.dtype().is_numeric() {
            for x in col.to_f64_vec().into_iter().flatten() {
                self.moments.push(x);
                self.quantiles.push(x);
            }
        }
    }

    pub fn merge(&mut self, other: &ColumnSketch) {
        self.rows += other.rows;
        self.non_null += other.non_null;
        self.distinct.merge(&other.distinct);
        self.moments.merge(&other.moments);
        self.quantiles.merge(&other.quantiles);
        self.micros += other.micros;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmv_is_exact_below_capacity() {
        let mut s = DistinctSketch::new(64);
        for i in 0..50 {
            s.insert(&format!("v{i}"), 2);
        }
        for i in 0..25 {
            s.insert(&format!("v{i}"), 1);
        }
        assert!(s.is_exact());
        assert_eq!(s.estimate(), 50);
        assert_eq!(s.max_count(), 3);
        let sorted = s.sorted_values();
        assert_eq!(sorted.len(), 50);
        assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(sorted.iter().filter(|(_, c)| *c == 3).count(), 25);
    }

    #[test]
    fn kmv_estimate_within_bounds_beyond_capacity() {
        let mut s = DistinctSketch::new(DISTINCT_K);
        let n = 50_000usize;
        for i in 0..n {
            s.insert(&format!("value-{i}"), 1);
        }
        assert!(!s.is_exact());
        let est = s.estimate() as f64;
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.10, "KMV estimate {est} strays {rel:.3} from {n}");
    }

    #[test]
    fn kmv_merge_is_partition_invariant() {
        let values: Vec<String> = (0..5000).map(|i| format!("x{}", i % 1700)).collect();
        let whole = {
            let mut s = DistinctSketch::new(256);
            for v in &values {
                s.insert(v, 1);
            }
            s
        };
        for parts in [2usize, 7, 32] {
            let mut merged = DistinctSketch::new(256);
            for part in values.chunks(values.len().div_ceil(parts)) {
                let mut s = DistinctSketch::new(256);
                for v in part {
                    s.insert(v, 1);
                }
                merged.merge(&s);
            }
            assert_eq!(merged.estimate(), whole.estimate(), "parts={parts}");
            assert_eq!(merged.sorted_values(), whole.sorted_values(), "parts={parts}");
        }
    }

    #[test]
    fn quantile_median_is_close_on_skewed_data() {
        let mut q = QuantileSketch::new(QUANTILE_K);
        let n = 100_000;
        let mut vals: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % n) as f64).collect();
        for &v in &vals {
            q.push(v * v); // skewed
        }
        vals.sort_by(|a, b| a.total_cmp(b));
        let med = q.query(0.5).unwrap();
        // Rank of the sketch median in the exact sorted data must be
        // within 5% of 0.5.
        let rank = vals.iter().filter(|&&v| v * v <= med).count() as f64 / n as f64;
        assert!((rank - 0.5).abs() < 0.05, "median rank {rank} too far from 0.5");
    }

    #[test]
    fn moments_match_naive_and_merge_exactly() {
        let xs: Vec<f64> = (0..999).map(|i| (i as f64).sin() * 100.0).collect();
        let mut whole = MomentSketch::default();
        for &x in &xs {
            whole.push(x);
        }
        let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((whole.mean - naive_mean).abs() < 1e-9);

        let mut merged = MomentSketch::default();
        for part in xs.chunks(100) {
            let mut m = MomentSketch::default();
            for &x in part {
                m.push(x);
            }
            merged.merge(&m);
        }
        assert_eq!(merged.n, whole.n);
        assert!((merged.mean - whole.mean).abs() < 1e-9);
        assert!((merged.std() - whole.std()).abs() < 1e-9);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
    }

    #[test]
    fn pair_moments_match_exact_pearson() {
        let xs: Vec<Option<f64>> = (0..500).map(|i| (i % 7 != 0).then_some(i as f64)).collect();
        let ys: Vec<Option<f64>> = (0..500)
            .map(|i| (i % 11 != 0).then(|| 2.5 * i as f64 + ((i * i) % 97) as f64))
            .collect();
        let mut whole = PairMoments::default();
        whole.update(&xs, &ys);
        let mut merged = PairMoments::default();
        for (xc, yc) in xs.chunks(64).zip(ys.chunks(64)) {
            let mut p = PairMoments::default();
            p.update(xc, yc);
            merged.merge(&p);
        }
        assert_eq!(merged.n, whole.n);
        assert!((merged.pearson_abs() - whole.pearson_abs()).abs() < 1e-9);
        assert!(whole.pearson_abs() > 0.9);
    }
}
