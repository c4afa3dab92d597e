//! CART decision trees for classification (Gini) and regression (variance
//! reduction), with capped threshold candidates and optional feature
//! subsampling so the trees double as random-forest base learners.
//!
//! Split search is exact: a sorted scan, bit-identical to the seed
//! implementation. A fit that scans every feature at every node
//! (`feature_subsample: None`: single trees and boosting stages) sorts
//! each feature's rows once, stably under `total_cmp`, into a
//! feature-major presort. A node owns the same contiguous range of every
//! feature's list, and a split stably partitions each range into left rows
//! then right rows. A child's rows keep their parent's relative order, so
//! the partitioned range equals a stable sort of the child's rows: ties
//! stay in the order the regression scan sums them in, and the trees are
//! the ones per-node sorting grows. Boosting builds the presort of rows
//! `0..n` once per ensemble ([`split_index`]) and every stage partitions a
//! copy of it. Forests sample √d features per node, where d partitions per
//! split cost more than k orderings, so a forest builds one [`RankTable`]
//! instead: each feature's dense rank per row. A node orders a sampled
//! feature's rows by counting ranks or by sorting `u64` rank keys, stably
//! by position, which is exactly a stable sort of the values; at a
//! classification node a feature with few distinct values is scanned from
//! a (rank, class) histogram without ordering its rows at all. Regression
//! scans in two passes ([`Builder::reg_split`]): O(1) approximate gains
//! filter the cuts, and the exact SSE loop runs only for the cuts that a
//! proven error bound ([`gain_error_bound`]) leaves able to win.

use crate::estimator::{
    check_finite, validate_classification, validate_regression, Classifier, ClassifierModel,
    Regressor, RegressorModel, Result,
};
use crate::matrix::{ColMajor, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Span wrapping the growth of one tree, single or inside an ensemble.
pub const SPAN_TREE_FIT: &str = "tree_fit";
/// Counter: regression cuts the approximate gains scored.
pub const COUNTER_SPLIT_CANDIDATES: &str = "ml.split_candidates";
/// Counter: regression cuts the exact SSE loop verified.
pub const COUNTER_SPLIT_EXACT: &str = "ml.split_exact";

/// Hyper-parameters shared by classification and regression trees.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    pub max_depth: usize,
    pub min_samples_leaf: usize,
    /// Cap on candidate thresholds per feature per node (quantile-strided).
    pub max_thresholds: usize,
    /// Features sampled per split; `None` = all (single trees),
    /// `Some(k)` for forests.
    pub feature_subsample: Option<usize>,
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 10,
            min_samples_leaf: 1,
            max_thresholds: 32,
            feature_subsample: None,
            seed: 0,
        }
    }
}

enum Node {
    ClassLeaf(Vec<f64>),
    RegLeaf(f64),
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

enum Target<'a> {
    Class { y: &'a [usize], n_classes: usize },
    Reg { y: &'a [f64] },
}

impl Target<'_> {
    /// Impurity × count for the rows (so parent − children differences are
    /// comparable without re-normalizing): Gini for classes, SSE for
    /// regression.
    fn weighted_impurity(&self, rows: &[usize]) -> f64 {
        match self {
            Target::Class { y, n_classes } => {
                let mut counts = vec![0usize; *n_classes];
                for &r in rows {
                    counts[y[r]] += 1;
                }
                gini_weighted(&counts, rows.len())
            }
            Target::Reg { y } => {
                if rows.is_empty() {
                    return 0.0;
                }
                let mean = mean(y, rows);
                rows.iter().map(|&r| (y[r] - mean).powi(2)).sum()
            }
        }
    }

    fn leaf(&self, rows: &[usize]) -> Node {
        match self {
            Target::Class { y, n_classes } => {
                let mut counts = vec![0.0; *n_classes];
                for &r in rows {
                    counts[y[r]] += 1.0;
                }
                let total: f64 = counts.iter().sum();
                if total > 0.0 {
                    for c in &mut counts {
                        *c /= total;
                    }
                }
                Node::ClassLeaf(counts)
            }
            Target::Reg { y } => Node::RegLeaf(mean(y, rows)),
        }
    }

    fn is_pure(&self, rows: &[usize]) -> bool {
        match self {
            Target::Class { y, .. } => rows.windows(2).all(|w| y[w[0]] == y[w[1]]),
            Target::Reg { y } => rows.windows(2).all(|w| (y[w[0]] - y[w[1]]).abs() < 1e-12),
        }
    }
}

/// Mean of `y` over `rows` (0 for none), summed in `rows` order: a
/// regression leaf's value and the centre of its node's impurity.
fn mean(y: &[f64], rows: &[usize]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|&r| y[r]).sum::<f64>() / rows.len() as f64
}

fn gini_weighted(counts: &[usize], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n_f = n as f64;
    let sum_sq: f64 = counts.iter().map(|&c| (c as f64).powi(2)).sum();
    n_f * (1.0 - sum_sq / (n_f * n_f))
}

/// [`gini_weighted`] of the complement counts (`parent − left`) without
/// materializing them. Identical arithmetic to calling `gini_weighted`
/// on the right-side counts, since the differences are exact integers.
fn gini_weighted_rest(parent: &[usize], left: &[usize], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n_f = n as f64;
    let sum_sq: f64 = parent.iter().zip(left).map(|(&p, &l)| ((p - l) as f64).powi(2)).sum();
    n_f * (1.0 - sum_sq / (n_f * n_f))
}

/// Whether a cut's `gain` beats the best so far (`best`, first wins on
/// ties) and clears the `1e-12` floor every split search applies.
fn improves<T>(best: &Option<(f64, usize, T)>, gain: f64) -> bool {
    best.as_ref().is_none_or(|b| gain > b.0) && gain > 1e-12
}

/// The threshold of an exact cut between adjacent distinct values
/// `a < b` of a node: their midpoint when that is finite and below `b`,
/// else `a`. The midpoint of adjacent floats can round up to `b` (as for
/// `a = 1 + 2⁻⁵²`), and `a + b` can overflow; either way `value <=
/// threshold` would send every row left. Rounding is monotone, so the
/// result always lies in `a ≤ t < b`.
fn split_threshold(a: f64, b: f64) -> f64 {
    let mid = (a + b) / 2.0;
    if mid.is_finite() && mid < b {
        mid
    } else {
        a
    }
}

/// Collect the positions where the ascending `(value, row)` list `vals`
/// steps to a larger value into `boundaries`. Returns `false` when the
/// feature is constant at this node (no candidates).
fn candidate_boundaries(vals: &[(f64, usize)], boundaries: &mut Vec<usize>) -> bool {
    if vals[0].0 == vals[vals.len() - 1].0 {
        return false;
    }
    boundaries.clear();
    for i in 1..vals.len() {
        if vals[i].0 > vals[i - 1].0 {
            boundaries.push(i);
        }
    }
    true
}

/// The exact child SSE of a regression cut: the targets of the sorted
/// `vals` before `cut` go left, whose running sum in that order is
/// `left_sum`. Each side takes its mean, then sums its squared deviations
/// from its own first row. Exact regression fits are reproducible bit for
/// bit because this order never changes.
fn child_sse(y: &[f64], vals: &[(f64, usize)], cut: usize, left_sum: f64) -> f64 {
    let left_mean = left_sum / cut as f64;
    let mut left_sse = 0.0f64;
    for &(_, r) in &vals[..cut] {
        left_sse += (y[r] - left_mean).powi(2);
    }
    let mut right_sum = 0.0f64;
    for &(_, r) in &vals[cut..] {
        right_sum += y[r];
    }
    let right_mean = right_sum / (vals.len() - cut) as f64;
    let mut right_sse = 0.0f64;
    for &(_, r) in &vals[cut..] {
        right_sse += (y[r] - right_mean).powi(2);
    }
    left_sse + right_sse
}

/// A bound `B` on |approximate gain − exact gain| for every cut of a
/// regression node of `n ≥ 2` rows with computed impurity `parent` (`P`)
/// and targets of magnitude at most `max_abs` (`M`); infinite when the
/// analysis does not apply.
///
/// Notation (Higham, *Accuracy and Stability of Numerical Algorithms*,
/// ch. 2–3): unit roundoff `u = 2⁻⁵³`, `γₖ = ku/(1 − ku)`, and
/// `g = γ_{n+2}`. Every `+ − × /` rounds as `fl(a∘b) = (a∘b)(1 + δ)`,
/// `|δ| ≤ u`, and a product of `k` such factors is `1 + θₖ`, `|θₖ| ≤ γₖ`,
/// so a sum of `m` terms `aᵢ`, added in any order, is off by at most
/// `γ_{m−1} Σ|aᵢ|` (§4.2; adding to an exact `0.0` does not round).
/// Take a side of `m` rows with targets `tᵢ`, true mean `μ`, true SSE
/// `S = Σ(tᵢ − μ)²`, shift `c` (the node mean that `P` was computed
/// around), `wᵢ = tᵢ − c` exactly, `Q_s = Σwᵢ²` and `W = Σwᵢ`, so that
/// `S = Q_s − W²/m ≤ Q_s`. Let `Q` be `Q_s` summed over both sides.
///
/// * **Exact loop** ([`child_sse`]). The mean is off by
///   `|m̂ − μ| ≤ γ_m Σ|tᵢ|/m ≤ γ_n M`. Each squared deviation carries
///   `θ₃` (the subtraction enters squared) and the sum `θ_{m−1}`, and
///   `Σ(tᵢ − m̂)² = S + m(m̂ − μ)²`, so the side is off by at most
///   `(1 + g) m γ_n² M² + g S`. Both sides together:
///   `E = (1 + g) n g² M² + g Q`.
/// * **Filter** (`zᵢ = fl(tᵢ − c)`, sums `Ẑ` of `zᵢ` and `Q̂` of
///   `fl(zᵢ²)`, SSE `fl(Q̂ − fl(Ẑ²)/m)`). `|Ẑ − W| ≤ γ_m Σ|wᵢ|` and
///   `|Q̂ − Q_s| ≤ γ_{m+2} Q_s`. By Cauchy–Schwarz `Σ|wᵢ| ≤ √(m Q_s)`, so
///   `|Ẑ² − W²|/m ≤ γ_m (2 + γ_m) Q_s`. With the rounding of the square,
///   the division and the subtraction, the side is off by at most
///   `4.1 g Q_s`, once `g ≤ 1/32` and `u ≤ g/4` (true for `n ≥ 2`).
///
/// Adding the two sides' SSEs and subtracting from `P` rounds three more
/// times in each pass. Summing everything, with `Q ≤ Q̂/(1 − g) ≤
/// 1.04 P` (the node's `Q̂` in row order is `P` itself), the two gains
/// differ by at most `7 g P + 1.05 n g² M²`. The returned `B` more than
/// doubles both terms, which also covers the rounding in evaluating `B`.
///
/// The `M²` term is the exact loop's: with targets like `10¹⁵ + small
/// integers` its mean is off by many ulps of `10¹⁵`, while the shifted
/// filter stays accurate. Sums formed as `total − prefix` would carry the
/// whole node's rounding error into a small right side; the filter adds
/// up only a side's own rows, so each side carries only its own.
///
/// Side conditions, each met by returning an infinite `B` (every cut then
/// runs the exact loop): `g ≤ 1/32` (n below about 2.7·10¹⁴); no overflow,
/// since every partial sum of the exact loop is at most `4.3 n M²`, so
/// `8 n M²` must be finite; a finite `P`. Underflow breaks the relative
/// model only for products and quotients (a sum whose result is
/// subnormal is exact); each adds at most `2⁻¹⁰⁷⁵` absolutely, scaled by
/// at most `5M + 1` on the way to a gain, which the last term covers.
/// A cut whose approximate gain overflows is never filtered out.
fn gain_error_bound(n: usize, parent: f64, max_abs: f64) -> f64 {
    let n = n as f64;
    let nu = (n + 2.0) * (f64::EPSILON / 2.0);
    if nu > 1.0 / 33.0 || !(8.0 * n * max_abs * max_abs).is_finite() || !parent.is_finite() {
        return f64::INFINITY;
    }
    let g = nu / (1.0 - nu);
    16.0 * g * parent
        + 4.0 * n * g * g * max_abs * max_abs
        + (n + 4.0) * (max_abs + 1.0) * f64::MIN_POSITIVE
}

/// `(Σz, Σz²)` over the targets of `vals` shifted by `shift`
/// (`z = y − shift`), in four interleaved lanes so the additions overlap.
/// The filter's error bound holds for any order of summation.
fn shifted_sums(y: &[f64], vals: &[(f64, usize)], shift: f64) -> (f64, f64) {
    let mut sum = [0.0f64; 4];
    let mut sumsq = [0.0f64; 4];
    let chunks = vals.chunks_exact(4);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (lane, &(_, r)) in chunk.iter().enumerate() {
            let z = y[r] - shift;
            sum[lane] += z;
            sumsq[lane] += z * z;
        }
    }
    for (lane, &(_, r)) in rest.iter().enumerate() {
        let z = y[r] - shift;
        sum[lane] += z;
        sumsq[lane] += z * z;
    }
    ((sum[0] + sum[1]) + (sum[2] + sum[3]), (sumsq[0] + sumsq[1]) + (sumsq[2] + sumsq[3]))
}

/// The sum of per-rank `(Σz, Σz²)` pairs: one run of a feature's rows.
fn add_sums(sums: &[(f64, f64)]) -> (f64, f64) {
    sums.iter().fold((0.0, 0.0), |(s, q), &(a, b)| (s + a, q + b))
}

/// A regression cut scored by the filter pass: its feature, the cut
/// (sorted rows `..cut` go left) and the approximate gain.
struct Cut {
    feature: usize,
    cut: usize,
    approx: f64,
}

/// Fill in the approximate gains of one feature's `cuts`, in cut order,
/// from the `(Σz, Σz²)` of the runs of rows they separate (`runs[i]` ends
/// at cut `i`; one more run follows the last cut) at a node of `n` rows.
/// A cut's left sums add up the runs before it and its right sums the
/// runs after it, from the last row, so each side carries only its own
/// rounding error.
fn approx_gains(cuts: &mut [Cut], runs: &[(f64, f64)], n: usize, parent_impurity: f64) {
    if cuts.is_empty() {
        return;
    }
    let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
    for (c, &(s, q)) in cuts.iter_mut().zip(runs) {
        sum += s;
        sumsq += q;
        c.approx = sumsq - sum * sum / c.cut as f64; // left SSE for now
    }
    let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
    for (c, &(s, q)) in cuts.iter_mut().rev().zip(runs[1..].iter().rev()) {
        sum += s;
        sumsq += q;
        let right = sumsq - sum * sum / (n - c.cut) as f64;
        c.approx = parent_impurity - (c.approx + right);
    }
}

/// The classification split search at one node: Gini gains of each
/// feature's cuts (boundaries between distinct values, strided to at
/// most `max_thresholds`), keeping the first largest. Left class counts
/// grow as a scan walks the node in value order; they are exact
/// integers, so the gains equal those of recounting each side.
struct ClassScan<'a> {
    y: &'a [usize],
    /// The node's class counts, and its rows' labels in `rows` order.
    counts: Vec<usize>,
    labels: Vec<u32>,
    impurity: f64,
    min_leaf: usize,
    max_thresholds: usize,
    left: Vec<usize>,
    boundaries: Vec<usize>,
    rank_cuts: Vec<RankCut>,
    /// Row counts per (rank, class) of the feature being scanned.
    hist: Vec<u32>,
    best: Option<(f64, usize, f64)>,
}

impl<'a> ClassScan<'a> {
    fn new(
        y: &'a [usize],
        n_classes: usize,
        rows: &[usize],
        impurity: f64,
        cfg: &TreeConfig,
    ) -> Self {
        let mut counts = vec![0usize; n_classes];
        let mut labels = Vec::with_capacity(rows.len());
        for &r in rows {
            counts[y[r]] += 1;
            labels.push(y[r] as u32);
        }
        ClassScan {
            y,
            counts,
            labels,
            impurity,
            min_leaf: cfg.min_samples_leaf,
            max_thresholds: cfg.max_thresholds,
            left: vec![0; n_classes],
            boundaries: Vec::new(),
            rank_cuts: Vec::new(),
            hist: Vec::new(),
            best: None,
        }
    }

    /// Score the cut of feature `f` that sends the `cut` rows counted in
    /// `left` left, between its adjacent values `a < b`.
    fn offer(&mut self, f: usize, cut: usize, a: f64, b: f64) {
        let n = self.labels.len();
        if cut < self.min_leaf || n - cut < self.min_leaf {
            return;
        }
        let child =
            gini_weighted(&self.left, cut) + gini_weighted_rest(&self.counts, &self.left, n - cut);
        let gain = self.impurity - child;
        if improves(&self.best, gain) {
            self.best = Some((gain, f, split_threshold(a, b)));
        }
    }

    /// Scan feature `f` over the node's sorted `(value, row)` pairs.
    fn sorted(&mut self, f: usize, vals: &[(f64, usize)]) {
        if !candidate_boundaries(vals, &mut self.boundaries) {
            return; // constant feature at this node
        }
        let stride = (self.boundaries.len() / self.max_thresholds).max(1);
        self.left.fill(0);
        let mut pos = 0usize;
        for i in (0..self.boundaries.len()).step_by(stride) {
            let cut = self.boundaries[i];
            while pos < cut {
                self.left[self.y[vals[pos].1]] += 1;
                pos += 1;
            }
            self.offer(f, cut, vals[cut - 1].0, vals[cut].0);
        }
    }

    /// Scan feature `f` without ordering the node's rows: one pass counts
    /// them per (rank, class), and the cuts walk the ranks present. They
    /// are the cuts [`ClassScan::sorted`] finds, at the same positions,
    /// with the same left counts and the same neighbouring values.
    fn ranks(&mut self, table: &RankTable, f: usize, rows: &[usize]) {
        let (ranks, values) = (table.ranks(f), table.values(f));
        let nc = self.counts.len();
        self.hist.clear();
        self.hist.resize(values.len() * nc, 0);
        for (&r, &label) in rows.iter().zip(&self.labels) {
            self.hist[ranks[r] as usize * nc + label as usize] += 1;
        }
        let hist = &self.hist;
        let count = |k: usize| hist[k * nc..(k + 1) * nc].iter().sum::<u32>() as usize;
        rank_boundaries(values, count, &mut self.rank_cuts);
        let stride = (self.rank_cuts.len() / self.max_thresholds).max(1);
        self.left.fill(0);
        let mut next = 0usize; // first rank not yet counted left
        for i in (0..self.rank_cuts.len()).step_by(stride) {
            let RankCut { cut, below, above } = self.rank_cuts[i];
            for slot in self.hist[next * nc..above * nc].chunks_exact(nc) {
                for (acc, &c) in self.left.iter_mut().zip(slot) {
                    *acc += c as usize;
                }
            }
            next = above;
            self.offer(f, cut, values[below], values[above]);
        }
    }
}

/// Fill `vals` with feature `f`'s `(value, row)` pairs over `rows` by a
/// gather and a stable sort: the order every exact fit's node sequences
/// must equal.
#[cfg(test)]
fn sort_values(x: &Matrix, f: usize, rows: &[usize], vals: &mut Vec<(f64, usize)>) {
    vals.clear();
    vals.extend(rows.iter().map(|&r| (x.get(r, f), r)));
    vals.sort_by(|a, b| a.0.total_cmp(&b.0));
}

/// Stable per-feature sorts of a fit's rows under `total_cmp`, as row
/// ids, feature-major (`order[f * n..(f + 1) * n]`), beside a
/// column-major copy of the values they sort. Boosting builds one over
/// rows `0..n` per ensemble and shares it read-only by every stage.
pub(crate) struct Presort {
    cols: ColMajor,
    order: Vec<u32>,
}

impl Presort {
    fn build(x: &Matrix, rows: &[usize]) -> Presort {
        let cols = ColMajor::from_matrix(x);
        let mut order = Vec::with_capacity(rows.len() * x.cols());
        for f in 0..x.cols() {
            let col = cols.col(f);
            let start = order.len();
            order.extend(rows.iter().map(|&r| r as u32));
            order[start..].sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
        }
        Presort { cols, order }
    }
}

/// Per-feature dense ranks of every row of a matrix under `total_cmp`,
/// feature-major (`ranks[f * n + r]`), beside each feature's distinct
/// values in ascending order. Equal bit patterns share a rank, so `-0.0`
/// and `0.0` get two. A forest builds one per fit and shares it
/// read-only by every tree: 4 bytes per cell plus 8 per distinct value.
pub(crate) struct RankTable {
    n: usize,
    ranks: Vec<u32>,
    values: Vec<f64>,
    /// Feature `f`'s distinct values are `values[starts[f]..starts[f + 1]]`.
    starts: Vec<usize>,
}

/// A cut found by walking a feature's ranks at a node: the `cut` rows
/// ranked below `above` go left, and `below` is the largest rank among
/// them.
#[derive(Clone, Copy)]
struct RankCut {
    cut: usize,
    below: usize,
    above: usize,
}

impl RankTable {
    fn build(x: &Matrix) -> RankTable {
        let (n, d) = (x.rows(), x.cols());
        let n32 = u32::try_from(n).expect("a rank table holds fewer than 2³² rows");
        let mut ranks = vec![0u32; n * d];
        let mut values: Vec<f64> = Vec::new();
        let mut starts = Vec::with_capacity(d + 1);
        let mut col = vec![0.0f64; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        for f in 0..d {
            let out = &mut ranks[f * n..(f + 1) * n];
            for (r, v) in col.iter_mut().enumerate() {
                *v = x.get(r, f);
            }
            order.clear();
            order.extend(0..n32);
            order.sort_unstable_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
            let start = values.len();
            starts.push(start);
            for &r in &order {
                let v = col[r as usize];
                if values.len() == start || values[values.len() - 1].to_bits() != v.to_bits() {
                    values.push(v);
                }
                out[r as usize] = (values.len() - 1 - start) as u32;
            }
        }
        starts.push(values.len());
        RankTable { n, ranks, values, starts }
    }

    fn ranks(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.n..(f + 1) * self.n]
    }

    fn values(&self, f: usize) -> &[f64] {
        &self.values[self.starts[f]..self.starts[f + 1]]
    }

    /// Whether feature `f` has few enough distinct values, for a node of
    /// `len` rows, that a pass over its ranks costs no more than the
    /// node's rows: the node is then ordered by counting ranks, and
    /// scanned from per-rank histograms where the target allows.
    fn few_values(&self, f: usize, len: usize) -> bool {
        self.values(f).len() <= len
    }

    /// Fill `seq.vals` with feature `f`'s `(value, row)` pairs over
    /// `rows`, ascending by rank and stable by position in `rows`, which
    /// is exactly a stable sort of the values under `total_cmp`.
    fn node_values(&self, f: usize, rows: &[usize], seq: &mut Sequence) {
        if self.few_values(f, rows.len()) {
            self.counting_sort(f, rows, seq);
        } else {
            self.key_sort(f, rows, seq);
        }
    }

    /// [`RankTable::node_values`] by a counting sort over the ranks:
    /// `O(len + distinct values)`.
    fn counting_sort(&self, f: usize, rows: &[usize], seq: &mut Sequence) {
        let (ranks, values) = (self.ranks(f), self.values(f));
        let next = &mut seq.scratch;
        next.clear();
        next.resize(values.len() + 1, 0);
        for &r in rows {
            next[ranks[r] as usize + 1] += 1;
        }
        for k in 1..next.len() {
            next[k] += next[k - 1];
        }
        seq.vals.clear();
        seq.vals.resize(rows.len(), (0.0, 0));
        for &r in rows {
            let k = ranks[r] as usize;
            seq.vals[next[k] as usize] = (values[k], r);
            next[k] += 1;
        }
    }

    /// [`RankTable::node_values`] by sorting the keys `rank << 32 |
    /// position`, which are distinct, so any sort is stable by position.
    fn key_sort(&self, f: usize, rows: &[usize], seq: &mut Sequence) {
        let (ranks, values) = (self.ranks(f), self.values(f));
        assert!(rows.len() <= 1 << 32, "a node holds at most 2³² rows");
        let keys = &mut seq.scratch;
        keys.clear();
        keys.extend(rows.iter().enumerate().map(|(i, &r)| u64::from(ranks[r]) << 32 | i as u64));
        keys.sort_unstable();
        seq.vals.clear();
        seq.vals.extend(
            keys.iter().map(|&k| (values[(k >> 32) as usize], rows[(k & 0xFFFF_FFFF) as usize])),
        );
    }
}

/// Collect into `cuts` the cuts of a feature at a node from its row
/// count per rank (`count(k)`, `values` the feature's distinct values):
/// one where the next present rank's value is IEEE-greater than the last
/// present one, so `-0.0` and `0.0` fall on the same side, as in
/// [`candidate_boundaries`] over the node's sorted rows.
fn rank_boundaries(values: &[f64], count: impl Fn(usize) -> usize, cuts: &mut Vec<RankCut>) {
    cuts.clear();
    let (mut pos, mut last) = (0usize, None::<usize>);
    for (k, &v) in values.iter().enumerate() {
        let c = count(k);
        if c == 0 {
            continue;
        }
        if let Some(below) = last.filter(|&p| v > values[p]) {
            cuts.push(RankCut { cut: pos, below, above: k });
        }
        pos += c;
        last = Some(k);
    }
}

/// A node's `(value, row)` pairs for one feature, ascending under
/// `total_cmp` and stable by position in the node's rows, plus the
/// scratch a rank table orders them in.
#[derive(Default)]
struct Sequence {
    vals: Vec<(f64, usize)>,
    scratch: Vec<u64>,
}

/// What a fit builds once from `x` and every tree of an ensemble reads:
/// the presort of the fit's rows when every node scans every feature
/// (single trees, boosting stages), else a rank table (forest trees,
/// which sample features per node).
pub(crate) enum SplitIndex {
    Presort(Presort),
    Ranks(RankTable),
}

impl SplitIndex {
    /// The index a fit of `cfg` over `rows` reads. A presort covers
    /// exactly `rows`; a rank table covers every row of `x`.
    fn build(x: &Matrix, rows: &[usize], cfg: &TreeConfig) -> SplitIndex {
        match cfg.feature_subsample {
            None => SplitIndex::Presort(Presort::build(x, rows)),
            Some(_) => SplitIndex::Ranks(RankTable::build(x)),
        }
    }
}

/// The index an ensemble of `cfg` trees over rows `0..n` of `x` shares.
pub(crate) fn split_index(x: &Matrix, cfg: &TreeConfig) -> SplitIndex {
    SplitIndex::build(x, &(0..x.rows()).collect::<Vec<_>>(), cfg)
}

/// A fit's presort order, partitioned in place as the tree grows: the
/// node whose rows start at offset `lo` owns `lo..lo + len` of every
/// feature's list.
struct Partitioned<'a> {
    cols: &'a ColMajor,
    order: &'a mut [u32],
    /// Length of each feature's list (the rows of the fit).
    n: usize,
    /// Marks of the rows going left at the current split, by row id.
    goes_left: Vec<bool>,
    scratch: Vec<u32>,
}

impl<'a> Partitioned<'a> {
    fn new(cols: &'a ColMajor, order: &'a mut [u32], n: usize) -> Self {
        Partitioned { cols, order, n, goes_left: vec![false; cols.rows()], scratch: vec![0; n] }
    }

    fn list(&self, f: usize, lo: usize, len: usize) -> &[u32] {
        let start = f * self.n + lo;
        &self.order[start..start + len]
    }

    /// Stably move the `left` rows of the node at `lo..lo + len` ahead of
    /// its other rows in every feature's list.
    fn split(&mut self, lo: usize, len: usize, left: &[usize]) {
        for &r in left {
            self.goes_left[r] = true;
        }
        // Branch-free: each row is written to both destinations and only
        // the matching cursor advances (`kept` never passes `i`), so rows
        // in no particular order cost no branch mispredictions.
        for list in self.order.chunks_exact_mut(self.n) {
            let node = &mut list[lo..lo + len];
            let (mut kept, mut moved) = (0, 0);
            for i in 0..len {
                let r = node[i];
                let goes_left = self.goes_left[r as usize];
                node[kept] = r;
                self.scratch[moved] = r;
                kept += usize::from(goes_left);
                moved += usize::from(!goes_left);
            }
            node[kept..].copy_from_slice(&self.scratch[..moved]);
        }
        for &r in left {
            self.goes_left[r] = false;
        }
    }
}

/// Where a fit's nodes find their rows in value order: a fit's view of
/// its [`SplitIndex`].
enum NodeOrder<'a> {
    /// The fit's presort, partitioned as the tree grows.
    Presort(Partitioned<'a>),
    /// A shared rank table; each node orders the features it samples.
    Ranks(&'a RankTable),
    /// A gather-and-sort of each node's rows: the oracle the other exact
    /// orders are tested against.
    #[cfg(test)]
    Sort,
}

struct Builder<'a> {
    x: &'a Matrix,
    target: Target<'a>,
    cfg: &'a TreeConfig,
    rng: StdRng,
    order: NodeOrder<'a>,
    /// Regression cuts scored by the filter pass.
    split_candidates: u64,
    /// Regression cuts the verify pass ran the exact loop for.
    split_exact: u64,
}

impl<'a> Builder<'a> {
    fn new(x: &'a Matrix, target: Target<'a>, cfg: &'a TreeConfig, order: NodeOrder<'a>) -> Self {
        Builder {
            x,
            target,
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            order,
            split_candidates: 0,
            split_exact: 0,
        }
    }

    fn fit(&mut self, rows: Vec<usize>) -> Node {
        self.build(rows, 0, 0)
    }

    /// Whether a node of `len` rows at `depth` may split; every other node
    /// becomes a leaf without looking at its features.
    fn may_split(&self, len: usize, depth: usize) -> bool {
        depth < self.cfg.max_depth && len >= 2 * self.cfg.min_samples_leaf
    }

    /// Fill `seq.vals` with feature `f`'s `(value, row)` pairs at the
    /// node, ascending under `total_cmp` and stable by position in `rows`
    /// (tied rows keep `rows` order, the order the SSE scan sums them
    /// in): the node's range `lo..` of the presort, or the rank table's
    /// ordering of `rows`.
    fn node_values(&self, f: usize, rows: &[usize], lo: usize, seq: &mut Sequence) {
        match &self.order {
            NodeOrder::Presort(sorted) => {
                let col = sorted.cols.col(f);
                let list = sorted.list(f, lo, rows.len());
                seq.vals.clear();
                seq.vals.extend(list.iter().map(|&r| (col[r as usize], r as usize)));
            }
            NodeOrder::Ranks(table) => table.node_values(f, rows, seq),
            #[cfg(test)]
            NodeOrder::Sort => sort_values(self.x, f, rows, &mut seq.vals),
        }
    }

    /// Route the node's `rows` by `value <= threshold` on `feature`,
    /// reading the values column by column where the fit keeps them so.
    fn partition(&self, rows: Vec<usize>, f: usize, threshold: f64) -> (Vec<usize>, Vec<usize>) {
        match &self.order {
            NodeOrder::Presort(sorted) => {
                let col = sorted.cols.col(f);
                rows.into_iter().partition(|&r| col[r] <= threshold)
            }
            NodeOrder::Ranks(table) => {
                let (ranks, values) = (table.ranks(f), table.values(f));
                rows.into_iter().partition(|&r| values[ranks[r] as usize] <= threshold)
            }
            #[cfg(test)]
            NodeOrder::Sort => rows.into_iter().partition(|&r| self.x.get(r, f) <= threshold),
        }
    }

    /// The best regression cut at the node as `(gain, feature, threshold)`,
    /// the one an exhaustive scan in `features` order with a strict `>`
    /// picks, in two passes.
    ///
    /// * **Filter** ([`Builder::score_cuts`]). Every cut gets an O(1)
    ///   approximate gain `P − Σ (Σz² − (Σz)²/k)` over both sides, from
    ///   sums of the shifted targets `z`. With `B` the bound on
    ///   |approximate − exact gain|, the floor is the largest approximate
    ///   gain minus `B`: some cut's exact gain reaches it.
    /// * **Verify.** Re-gather only the features with a live cut (`approx
    ///   + B` at least the floor and above `1e-12`, or a non-finite
    ///   approximation) and run the exact loop ([`child_sse`], same
    ///   running `left_sum`) for those cuts alone, in scan order.
    ///
    /// The exhaustive scan keeps the first cut with the largest exact
    /// gain above `1e-12`. That cut is live: its approximate gain plus
    /// `B` reaches its exact gain, which is at least the floor, and
    /// rounding is monotone, so the float comparisons agree. Every cut
    /// before it gains strictly less, so the verify pass keeps the same
    /// cut with the same gain bits.
    fn reg_split(
        &mut self,
        y: &[f64],
        features: &[usize],
        rows: &[usize],
        lo: usize,
        parent_impurity: f64,
    ) -> Option<(f64, usize, f64)> {
        let max_abs = rows.iter().fold(0.0f64, |m, &r| m.max(y[r].abs()));
        let bound = gain_error_bound(rows.len(), parent_impurity, max_abs);
        let mut seq = Sequence::default();
        let cuts = self.score_cuts(y, features, rows, lo, parent_impurity, &mut seq);
        let top = cuts
            .iter()
            .map(|c| c.approx)
            .filter(|a| a.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        let floor = top - bound;
        let live = |c: &Cut| {
            !c.approx.is_finite() || (c.approx + bound >= floor && c.approx + bound > 1e-12)
        };
        self.split_candidates += cuts.len() as u64;
        let mut best: Option<(f64, usize, f64)> = None;
        for group in cuts.chunk_by(|a, b| a.feature == b.feature) {
            if !group.iter().any(live) {
                continue;
            }
            let f = group[0].feature;
            self.node_values(f, rows, lo, &mut seq);
            let vals = &seq.vals;
            let (mut pos, mut left_sum) = (0usize, 0.0f64);
            for c in group.iter().filter(|c| live(c)) {
                while pos < c.cut {
                    left_sum += y[vals[pos].1];
                    pos += 1;
                }
                self.split_exact += 1;
                let gain = parent_impurity - child_sse(y, vals, c.cut, left_sum);
                if improves(&best, gain) {
                    best = Some((gain, f, split_threshold(vals[c.cut - 1].0, vals[c.cut].0)));
                }
            }
        }
        best
    }

    /// The filter pass of [`Builder::reg_split`]: every candidate cut of
    /// every feature in `features`, in scan order, with its approximate
    /// gain. The targets are shifted by the node mean, the centre
    /// `parent_impurity` was computed around, as [`gain_error_bound`]
    /// requires. Per feature, one pass sums each run of rows between
    /// consecutive cuts: over the sorted rows ([`shifted_sums`]), or, for
    /// a feature with few distinct values in a rank table, over per-rank
    /// sums taken in one pass over the node's rows, which skips ordering
    /// them. The bound holds for any order of summation, and each run
    /// still adds up only its own rows ([`approx_gains`]).
    fn score_cuts(
        &self,
        y: &[f64],
        features: &[usize],
        rows: &[usize],
        lo: usize,
        parent_impurity: f64,
        seq: &mut Sequence,
    ) -> Vec<Cut> {
        let n = rows.len();
        let min_leaf = self.cfg.min_samples_leaf;
        let keeps = |cut: usize| cut >= min_leaf && n - cut >= min_leaf;
        let shift = mean(y, rows);
        let mut boundaries: Vec<usize> = Vec::new();
        let mut rank_cuts: Vec<RankCut> = Vec::new();
        // The node's shifted targets in `rows` order, and per-rank
        // (count, Σz, Σz²), for the rank path.
        let mut z: Vec<f64> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut sums: Vec<(f64, f64)> = Vec::new();
        let mut runs: Vec<(f64, f64)> = Vec::new();
        let mut cuts: Vec<Cut> = Vec::new();
        for &f in features {
            let first = cuts.len();
            runs.clear();
            match &self.order {
                NodeOrder::Ranks(table) if table.few_values(f, n) => {
                    if z.is_empty() {
                        z.extend(rows.iter().map(|&r| y[r] - shift));
                    }
                    let (ranks, values) = (table.ranks(f), table.values(f));
                    counts.clear();
                    counts.resize(values.len(), 0);
                    sums.clear();
                    sums.resize(values.len(), (0.0, 0.0));
                    for (&r, &z) in rows.iter().zip(&z) {
                        let k = ranks[r] as usize;
                        counts[k] += 1;
                        sums[k].0 += z;
                        sums[k].1 += z * z;
                    }
                    rank_boundaries(values, |k| counts[k] as usize, &mut rank_cuts);
                    let stride = (rank_cuts.len() / self.cfg.max_thresholds).max(1);
                    let mut start = 0;
                    for c in rank_cuts.iter().step_by(stride).filter(|c| keeps(c.cut)) {
                        cuts.push(Cut { feature: f, cut: c.cut, approx: 0.0 });
                        runs.push(add_sums(&sums[start..c.above]));
                        start = c.above;
                    }
                    runs.push(add_sums(&sums[start..]));
                }
                _ => {
                    self.node_values(f, rows, lo, seq);
                    let vals = &seq.vals;
                    if !candidate_boundaries(vals, &mut boundaries) {
                        continue; // constant feature at this node
                    }
                    let stride = (boundaries.len() / self.cfg.max_thresholds).max(1);
                    let mut start = 0;
                    for &cut in boundaries.iter().step_by(stride).filter(|&&cut| keeps(cut)) {
                        cuts.push(Cut { feature: f, cut, approx: 0.0 });
                        runs.push(shifted_sums(y, &vals[start..cut], shift));
                        start = cut;
                    }
                    if cuts.len() > first {
                        runs.push(shifted_sums(y, &vals[start..], shift));
                    }
                }
            }
            approx_gains(&mut cuts[first..], &runs, n, parent_impurity);
        }
        cuts
    }

    /// The exhaustive regression scan [`Builder::reg_split`] replaced: the
    /// exact loop at every cut. Tests check the two agree at every node.
    #[cfg(test)]
    fn exhaustive_reg_split(
        &self,
        y: &[f64],
        features: &[usize],
        rows: &[usize],
        lo: usize,
        parent_impurity: f64,
    ) -> Option<(f64, usize, f64)> {
        let mut best: Option<(f64, usize, f64)> = None;
        let mut seq = Sequence::default();
        let mut boundaries: Vec<usize> = Vec::new();
        for &f in features {
            self.node_values(f, rows, lo, &mut seq);
            let vals = &seq.vals;
            if !candidate_boundaries(vals, &mut boundaries) {
                continue;
            }
            let stride = (boundaries.len() / self.cfg.max_thresholds).max(1);
            let mut pos = 0usize;
            let mut left_sum = 0.0f64;
            for &cut in boundaries.iter().step_by(stride) {
                while pos < cut {
                    left_sum += y[vals[pos].1];
                    pos += 1;
                }
                if cut < self.cfg.min_samples_leaf || vals.len() - cut < self.cfg.min_samples_leaf {
                    continue;
                }
                let gain = parent_impurity - child_sse(y, vals, cut, left_sum);
                if improves(&best, gain) {
                    best = Some((gain, f, split_threshold(vals[cut - 1].0, vals[cut].0)));
                }
            }
        }
        best
    }

    /// The best classification cut at the node as `(gain, feature,
    /// threshold)`: the first largest Gini gain above `1e-12` over the
    /// cuts of `features`, in order. A feature with few distinct values in
    /// a rank table is scanned from a (rank, class) histogram
    /// ([`ClassScan::ranks`]); every other feature from its sorted rows.
    fn class_split(
        &self,
        y: &[usize],
        n_classes: usize,
        features: &[usize],
        rows: &[usize],
        lo: usize,
        parent_impurity: f64,
    ) -> Option<(f64, usize, f64)> {
        let mut scan = ClassScan::new(y, n_classes, rows, parent_impurity, self.cfg);
        let mut seq = Sequence::default();
        for &f in features {
            match &self.order {
                NodeOrder::Ranks(table) if table.few_values(f, rows.len()) => {
                    scan.ranks(table, f, rows)
                }
                _ => {
                    self.node_values(f, rows, lo, &mut seq);
                    scan.sorted(f, &seq.vals);
                }
            }
        }
        scan.best
    }

    /// [`Builder::class_split`] over a fresh sort of every feature: the
    /// oracle tests check the rank histograms and orders against.
    #[cfg(test)]
    fn sorted_class_split(
        &self,
        y: &[usize],
        n_classes: usize,
        features: &[usize],
        rows: &[usize],
        parent_impurity: f64,
    ) -> Option<(f64, usize, f64)> {
        let mut scan = ClassScan::new(y, n_classes, rows, parent_impurity, self.cfg);
        let mut vals = Vec::new();
        for &f in features {
            sort_values(self.x, f, rows, &mut vals);
            scan.sorted(f, &vals);
        }
        scan.best
    }

    /// Check at a node of a rank-table fit that both ways the table
    /// orders each sampled feature's rows, the counting sort and the key
    /// sort, give exactly a fresh stable sort: value bits, rows and order.
    #[cfg(test)]
    fn check_rank_orders(&self, features: &[usize], rows: &[usize]) {
        let NodeOrder::Ranks(table) = &self.order else { return };
        let bits = |vals: &[(f64, usize)]| -> Vec<(u64, usize)> {
            vals.iter().map(|&(v, r)| (v.to_bits(), r)).collect()
        };
        let (mut seq, mut oracle) = (Sequence::default(), Vec::new());
        for &f in features {
            sort_values(self.x, f, rows, &mut oracle);
            table.counting_sort(f, rows, &mut seq);
            assert_eq!(bits(&seq.vals), bits(&oracle), "counting sort of feature {f}");
            table.key_sort(f, rows, &mut seq);
            assert_eq!(bits(&seq.vals), bits(&oracle), "key sort of feature {f}");
        }
    }

    /// Recursion over the node's `rows`, which start at offset `lo`
    /// of every presorted list when the fit has one.
    fn build(&mut self, rows: Vec<usize>, depth: usize, lo: usize) -> Node {
        if !self.may_split(rows.len(), depth) || self.target.is_pure(&rows) {
            return self.target.leaf(&rows);
        }
        let parent_impurity = self.target.weighted_impurity(&rows);
        if parent_impurity <= 1e-12 {
            return self.target.leaf(&rows);
        }

        let d = self.x.cols();
        let mut features: Vec<usize> = (0..d).collect();
        if let Some(k) = self.cfg.feature_subsample {
            features.shuffle(&mut self.rng);
            features.truncate(k.max(1).min(d));
        }

        // Candidate scan. Split positions are boundaries between distinct
        // sorted values, strided to at most max_thresholds. Rather than
        // materializing left/right row sets and recomputing impurity from
        // scratch per candidate (O(n) each), the scan walks the sorted
        // order once: classification keeps incremental class counts
        // (`class_split`); regression filters the cuts first and runs its
        // exact loop for the few that can win (`reg_split`).
        #[cfg(test)]
        self.check_rank_orders(&features, &rows);
        let best = match self.target {
            Target::Class { y, n_classes } => {
                let best = self.class_split(y, n_classes, &features, &rows, lo, parent_impurity);
                #[cfg(test)]
                assert_eq!(
                    split_bits(best),
                    split_bits(self.sorted_class_split(
                        y,
                        n_classes,
                        &features,
                        &rows,
                        parent_impurity
                    )),
                    "classification scan diverged from the scan over fresh sorts"
                );
                best
            }
            Target::Reg { y } => {
                let best = self.reg_split(y, &features, &rows, lo, parent_impurity);
                #[cfg(test)]
                assert_eq!(
                    split_bits(best),
                    split_bits(self.exhaustive_reg_split(y, &features, &rows, lo, parent_impurity)),
                    "pruned regression scan diverged from the exhaustive scan"
                );
                best
            }
        };

        let Some((_, feature, threshold)) = best else {
            return self.target.leaf(&rows);
        };
        let len = rows.len();
        let (left_rows, right_rows) = self.partition(rows, feature, threshold);
        if left_rows.is_empty() || right_rows.is_empty() {
            // Cannot happen: a cut lies between adjacent distinct values
            // `a < b` of the node and `split_threshold` keeps `a ≤ t < b`,
            // so rows valued `a` go left and rows valued `b` go right. Kept
            // as a defensive fallback.
            let all: Vec<usize> = left_rows.into_iter().chain(right_rows).collect();
            return self.target.leaf(&all);
        }
        // Children that cannot split never read the lists.
        if self.may_split(left_rows.len(), depth + 1) || self.may_split(right_rows.len(), depth + 1)
        {
            if let NodeOrder::Presort(sorted) = &mut self.order {
                sorted.split(lo, len, &left_rows);
            }
        }
        let right_lo = lo + left_rows.len();
        let left = Box::new(self.build(left_rows, depth + 1, lo));
        let right = Box::new(self.build(right_rows, depth + 1, right_lo));
        Node::Split { feature, threshold, left, right }
    }
}

fn descend<'n>(mut node: &'n Node, row: &[f64]) -> &'n Node {
    loop {
        match node {
            Node::Split { feature, threshold, left, right } => {
                node = if row[*feature] <= *threshold { left } else { right };
            }
            _ => return node,
        }
    }
}

/// Decision-tree classifier.
#[derive(Debug, Clone, Default)]
pub struct DecisionTreeClassifier {
    pub config: TreeConfig,
}

pub(crate) struct TreeClassifierModel {
    root: Node,
    n_classes: usize,
}

impl Classifier for DecisionTreeClassifier {
    fn fit(&self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<Box<dyn ClassifierModel>> {
        validate_classification(x, y, n_classes)?;
        Ok(Box::new(fit_class_tree(x, y, n_classes, &self.config)))
    }
}

/// Flush the per-fit counters into the trace layer: in regression, the
/// cuts the filter scored against those the exact loop verified (the
/// prune ratio).
fn flush_counters(builder: &Builder) {
    for (name, count) in [
        (COUNTER_SPLIT_CANDIDATES, builder.split_candidates),
        (COUNTER_SPLIT_EXACT, builder.split_exact),
    ] {
        if count > 0 {
            catdb_trace::add_counter(name, count as f64);
        }
    }
}

/// A split search result as comparable bits: `(gain, feature, threshold)`.
#[cfg(test)]
fn split_bits(best: Option<(f64, usize, f64)>) -> Option<(u64, usize, u64)> {
    best.map(|(gain, f, threshold)| (gain.to_bits(), f, threshold.to_bits()))
}

/// Internal fit that skips validation (forests validate once up front).
pub(crate) fn fit_class_tree(
    x: &Matrix,
    y: &[usize],
    n_classes: usize,
    cfg: &TreeConfig,
) -> TreeClassifierModel {
    fit_class_tree_on(x, y, (0..x.rows()).collect(), n_classes, cfg, None)
}

/// Internal fit over a row subset (for bagging), reading `index` when
/// given: an ensemble's [`split_index`] for `cfg`.
pub(crate) fn fit_class_tree_on(
    x: &Matrix,
    y: &[usize],
    rows: Vec<usize>,
    n_classes: usize,
    cfg: &TreeConfig,
    index: Option<&SplitIndex>,
) -> TreeClassifierModel {
    let target = Target::Class { y, n_classes };
    let root = grow(x, target, rows, cfg, index, &mut Vec::new());
    TreeClassifierModel { root, n_classes }
}

/// Grow one tree over `rows` from `index`, or from an index of its own
/// when none is given. A presort index must cover exactly `rows`; the
/// tree partitions a copy of its order made in `lists`.
fn grow(
    x: &Matrix,
    target: Target,
    rows: Vec<usize>,
    cfg: &TreeConfig,
    index: Option<&SplitIndex>,
    lists: &mut Vec<u32>,
) -> Node {
    let _span = catdb_trace::span(SPAN_TREE_FIT);
    let local;
    let index = match index {
        Some(shared) => shared,
        None => {
            local = SplitIndex::build(x, &rows, cfg);
            &local
        }
    };
    let order = match index {
        SplitIndex::Presort(presort) => {
            debug_assert_eq!(presort.order.len(), rows.len() * x.cols());
            lists.clear();
            lists.extend_from_slice(&presort.order);
            NodeOrder::Presort(Partitioned::new(&presort.cols, lists, rows.len()))
        }
        SplitIndex::Ranks(table) => NodeOrder::Ranks(table),
    };
    let mut builder = Builder::new(x, target, cfg, order);
    let root = builder.fit(rows);
    flush_counters(&builder);
    root
}

impl ClassifierModel for TreeClassifierModel {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<Vec<f64>>> {
        check_finite(x, "prediction features")?;
        Ok((0..x.rows())
            .map(|r| match descend(&self.root, x.row(r)) {
                Node::ClassLeaf(p) => p.clone(),
                _ => vec![1.0 / self.n_classes as f64; self.n_classes],
            })
            .collect())
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

impl TreeClassifierModel {
    /// Add each row's leaf distribution into `acc` (`n_classes` slots per
    /// row, row-major) without the finite check; forests validate once.
    pub(crate) fn add_proba(&self, x: &Matrix, acc: &mut [f64]) {
        let uniform = 1.0 / self.n_classes as f64;
        for (r, out) in acc.chunks_exact_mut(self.n_classes).enumerate() {
            match descend(&self.root, x.row(r)) {
                Node::ClassLeaf(p) => {
                    for (a, v) in out.iter_mut().zip(p) {
                        *a += v;
                    }
                }
                _ => {
                    for a in out.iter_mut() {
                        *a += uniform;
                    }
                }
            }
        }
    }
}

/// Decision-tree regressor.
#[derive(Debug, Clone, Default)]
pub struct DecisionTreeRegressor {
    pub config: TreeConfig,
}

pub(crate) struct TreeRegressorModel {
    root: Node,
}

impl Regressor for DecisionTreeRegressor {
    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Box<dyn RegressorModel>> {
        validate_regression(x, y)?;
        Ok(Box::new(fit_reg_tree(x, y, (0..x.rows()).collect(), &self.config, None)))
    }
}

/// Internal regression-tree fit over a row subset, reading `index` when
/// given: an ensemble's [`split_index`] for `cfg`.
pub(crate) fn fit_reg_tree(
    x: &Matrix,
    y: &[f64],
    rows: Vec<usize>,
    cfg: &TreeConfig,
    index: Option<&SplitIndex>,
) -> TreeRegressorModel {
    TreeRegressorModel { root: grow(x, Target::Reg { y }, rows, cfg, index, &mut Vec::new()) }
}

/// One boosting stage: a regression tree over rows `0..n` from the
/// ensemble's `index`. It partitions a copy of the ensemble's presort
/// made in `lists`, a buffer the caller reuses across rounds.
pub(crate) fn fit_reg_stage(
    x: &Matrix,
    y: &[f64],
    cfg: &TreeConfig,
    index: &SplitIndex,
    lists: &mut Vec<u32>,
) -> TreeRegressorModel {
    let rows = (0..x.rows()).collect();
    TreeRegressorModel { root: grow(x, Target::Reg { y }, rows, cfg, Some(index), lists) }
}

impl RegressorModel for TreeRegressorModel {
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        check_finite(x, "prediction features")?;
        Ok((0..x.rows())
            .map(|r| match descend(&self.root, x.row(r)) {
                Node::RegLeaf(v) => *v,
                _ => 0.0,
            })
            .collect())
    }
}

impl TreeRegressorModel {
    /// Prediction without the finite check (hot path inside boosting, where
    /// the ensemble validated inputs once).
    pub(crate) fn predict_unchecked(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows())
            .map(|r| match descend(&self.root, x.row(r)) {
                Node::RegLeaf(v) => *v,
                _ => 0.0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2};
    use rand::Rng;

    fn xor_data() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                let a = i as f64 / 8.0;
                let b = j as f64 / 8.0;
                rows.push(vec![a, b]);
                y.push(((a > 0.5) ^ (b > 0.5)) as usize);
            }
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn tree_learns_xor() {
        let (x, y) = xor_data();
        let model = DecisionTreeClassifier::default().fit(&x, &y, 2).unwrap();
        let pred = model.predict(&x).unwrap();
        assert!(accuracy(&y, &pred) > 0.95);
    }

    #[test]
    fn depth_one_tree_cannot_learn_xor() {
        let (x, y) = xor_data();
        let cfg = TreeConfig { max_depth: 1, ..Default::default() };
        let model = DecisionTreeClassifier { config: cfg }.fit(&x, &y, 2).unwrap();
        let pred = model.predict(&x).unwrap();
        let acc = accuracy(&y, &pred);
        assert!(acc < 0.8, "xor should not be separable at depth 1, got {acc}");
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let x = Matrix::from_rows(&rows);
        let model = DecisionTreeRegressor::default().fit(&x, &y).unwrap();
        let pred = model.predict(&x).unwrap();
        assert!(r2(&y, &pred) > 0.99);
    }

    #[test]
    fn probabilities_reflect_leaf_distribution() {
        // One feature, mixed labels on the left.
        let x = Matrix::from_rows(&[vec![0.0], vec![0.0], vec![0.0], vec![10.0]]);
        let y = vec![0, 0, 1, 1];
        let cfg = TreeConfig { max_depth: 1, min_samples_leaf: 1, ..Default::default() };
        let model = DecisionTreeClassifier { config: cfg }.fit(&x, &y, 2).unwrap();
        let proba = model.predict_proba(&x).unwrap();
        assert!((proba[0][0] - 2.0 / 3.0).abs() < 1e-9);
        assert!((proba[3][1] - 1.0).abs() < 1e-9);
    }

    /// Tie-heavy matrix, by column: small integers, 0/1 flags or ±0.0.
    fn tie_matrix(cells: &[u8], d: usize) -> Matrix {
        let n = cells.len() / d;
        let data = cells[..n * d]
            .iter()
            .enumerate()
            .map(|(i, &b)| match i % d % 3 {
                0 => f64::from(b % 5),
                1 => f64::from(b % 2),
                _ => [-0.0, 0.0, 1.0][usize::from(b % 3)],
            })
            .collect();
        Matrix::from_vec(n, d, data)
    }

    /// A fresh stable sort of `rows` by feature `f`, as (value bits, row).
    fn stable_sort(x: &Matrix, rows: &[usize], f: usize) -> Vec<(u64, usize)> {
        let mut vals = Vec::new();
        sort_values(x, f, rows, &mut vals);
        vals.into_iter().map(|(v, r)| (v.to_bits(), r)).collect()
    }

    /// Split `rows` at random down to depth 4, checking at every node that
    /// each feature's partitioned range is a fresh stable sort of its rows.
    fn check_ranges(
        sorted: &mut Partitioned,
        x: &Matrix,
        rows: Vec<usize>,
        lo: usize,
        depth: usize,
        rng: &mut StdRng,
    ) {
        for f in 0..x.cols() {
            let got: Vec<(u64, usize)> = sorted
                .list(f, lo, rows.len())
                .iter()
                .map(|&r| (x.get(r as usize, f).to_bits(), r as usize))
                .collect();
            assert_eq!(got, stable_sort(x, &rows, f), "feature {f} at depth {depth}");
        }
        if depth == 4 || rows.len() < 2 {
            return;
        }
        let goes_left: Vec<bool> = (0..x.rows()).map(|_| rng.gen_bool(0.5)).collect();
        let (left, right): (Vec<usize>, Vec<usize>) = rows.iter().partition(|&&r| goes_left[r]);
        sorted.split(lo, rows.len(), &left);
        let right_lo = lo + left.len();
        check_ranges(sorted, x, left, lo, depth + 1, rng);
        check_ranges(sorted, x, right, right_lo, depth + 1, rng);
    }

    /// The leaf each row of `x` lands in, as bit patterns.
    fn leaf_bits(root: &Node, x: &Matrix) -> Vec<Vec<u64>> {
        (0..x.rows())
            .map(|r| match descend(root, x.row(r)) {
                Node::ClassLeaf(p) => p.iter().map(|v| v.to_bits()).collect(),
                Node::RegLeaf(v) => vec![v.to_bits()],
                Node::Split { .. } => unreachable!("descend stops at leaves"),
            })
            .collect()
    }

    /// Grow with a sort per node, whatever the config's subsampling.
    fn grow_per_node(x: &Matrix, target: Target, rows: Vec<usize>, cfg: &TreeConfig) -> Node {
        Builder::new(x, target, cfg, NodeOrder::Sort).fit(rows)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The presort invariant behind bit-identical exact fits: a stable
        /// partition of a stably sorted parent is a stable sort of the
        /// child, tie order included, so presorted trees equal trees that
        /// sort at every node (regression sums ties in that order).
        #[test]
        fn partitioned_presort_matches_per_node_sorts(
            cells in proptest::prop::collection::vec(0u8..30, 20..400),
            seed in 0u64..u64::MAX,
            bootstrap in 0u8..2,
            min_samples_leaf in 1usize..4,
            max_thresholds in 1usize..12,
        ) {
            let x = tie_matrix(&cells, 5);
            let n = x.rows();
            let mut rng = StdRng::seed_from_u64(seed);
            let rows: Vec<usize> = if bootstrap == 1 {
                (0..n).map(|_| rng.gen_range(0..n)).collect()
            } else {
                (0..n).collect()
            };
            // Targets spread over many magnitudes, so sums depend on order.
            let y_reg: Vec<f64> =
                (0..n).map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(0..12))).collect();
            let y_class: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3)).collect();

            let Presort { cols, mut order } = Presort::build(&x, &rows);
            let mut sorted = Partitioned::new(&cols, &mut order, rows.len());
            check_ranges(&mut sorted, &x, rows.clone(), 0, 0, &mut rng);

            let cfg = TreeConfig { max_depth: 5, min_samples_leaf, max_thresholds, ..Default::default() };
            let reg = grow(&x, Target::Reg { y: &y_reg }, rows.clone(), &cfg, None, &mut Vec::new());
            let oracle = grow_per_node(&x, Target::Reg { y: &y_reg }, rows.clone(), &cfg);
            proptest::prop_assert_eq!(leaf_bits(&reg, &x), leaf_bits(&oracle, &x));
            if bootstrap == 0 {
                let shared = split_index(&x, &cfg);
                let stage = fit_reg_stage(&x, &y_reg, &cfg, &shared, &mut Vec::new());
                proptest::prop_assert_eq!(leaf_bits(&stage.root, &x), leaf_bits(&oracle, &x));
            }
            let target = Target::Class { y: &y_class, n_classes: 3 };
            let class = grow(&x, target, rows.clone(), &cfg, None, &mut Vec::new());
            let oracle = grow_per_node(&x, Target::Class { y: &y_class, n_classes: 3 }, rows, &cfg);
            proptest::prop_assert_eq!(leaf_bits(&class, &x), leaf_bits(&oracle, &x));
        }
    }

    /// Columns built to make regression cuts tie or nearly tie: small
    /// integers, an exact duplicate of them, a near duplicate (`+1e-9` on
    /// some rows), ±0.0, a constant column and a continuous one.
    fn near_tie_matrix(n: usize, rng: &mut StdRng) -> Matrix {
        let mut data = Vec::with_capacity(n * 6);
        for _ in 0..n {
            let a = f64::from(rng.gen_range(0u8..6));
            let near = a + f64::from(rng.gen_range(0u8..2)) * 1e-9;
            let z = [-0.0, 0.0][rng.gen_range(0usize..2)];
            data.extend([a, a, near, z, 2.5, rng.gen_range(-1.0..1.0)]);
        }
        Matrix::from_vec(n, 6, data)
    }

    /// Targets whose gains are hard to approximate: huge offsets plus
    /// small integers, many magnitudes, small integers (exact gain ties),
    /// or constant runs of ±0.0 and 1.
    fn hard_targets(kind: u8, x: &Matrix, rng: &mut StdRng) -> Vec<f64> {
        (0..x.rows())
            .map(|r| match kind {
                0 => 1e9 + f64::from(rng.gen_range(0u8..5)),
                1 => 1e15 + f64::from(rng.gen_range(0u8..8)),
                2 => -1e15 + 3.0 * x.get(r, 0) + f64::from(rng.gen_range(0u8..2)),
                3 => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(0..12)),
                4 => f64::from(rng.gen_range(0u8..3)),
                _ => [-0.0, 0.0, 1.0][(r / 7 + usize::from(x.get(r, 0) > 2.0)) % 3],
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Under `cfg(test)` every exact regression node also runs the
        /// exhaustive scan and asserts the pruned scan picked the same
        /// `(gain bits, feature, threshold)`; these fits drive that check
        /// through single trees, boosting stages on a shared presort and
        /// forest trees on bootstrap rows.
        #[test]
        fn pruned_regression_scan_matches_exhaustive_scan(
            seed in 0u64..u64::MAX,
            n in 2usize..260,
            kind in 0u8..6,
            min_samples_leaf in 1usize..4,
            max_thresholds in 1usize..40,
            subsample in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = near_tie_matrix(n, &mut rng);
            let y = hard_targets(kind, &x, &mut rng);
            let cfg = TreeConfig { max_depth: 8, min_samples_leaf, max_thresholds, ..Default::default() };
            fit_reg_tree(&x, &y, (0..n).collect(), &cfg, None);
            let shared = split_index(&x, &cfg);
            fit_reg_stage(&x, &y, &cfg, &shared, &mut Vec::new());
            let forest = TreeConfig { feature_subsample: Some(subsample + 1), seed, ..cfg };
            let bootstrap: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            fit_reg_tree(&x, &y, bootstrap, &forest, None);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The lemma behind the filter: at a node, every cut's approximate
        /// gain lies within `gain_error_bound` of the exact loop's gain,
        /// whether the runs are summed over sorted rows or, through a rank
        /// table on bootstrap rows, per rank.
        #[test]
        fn approximate_gains_lie_within_the_bound(
            seed in 0u64..u64::MAX,
            n in 2usize..260,
            kind in 0u8..6,
            max_thresholds in 1usize..40,
            ranked in 0u8..2,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = near_tie_matrix(n, &mut rng);
            let y = hard_targets(kind, &x, &mut rng);
            let table = RankTable::build(&x);
            let (rows, order): (Vec<usize>, _) = if ranked == 1 {
                ((0..n).map(|_| rng.gen_range(0..n)).collect(), NodeOrder::Ranks(&table))
            } else {
                ((0..n).collect(), NodeOrder::Sort)
            };
            let cfg = TreeConfig { max_thresholds, ..Default::default() };
            let builder = Builder::new(&x, Target::Reg { y: &y }, &cfg, order);
            let parent = builder.target.weighted_impurity(&rows);
            let max_abs = y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let bound = gain_error_bound(n, parent, max_abs);
            let features: Vec<usize> = (0..x.cols()).collect();
            let mut seq = Sequence::default();
            for c in builder.score_cuts(&y, &features, &rows, 0, parent, &mut seq) {
                builder.node_values(c.feature, &rows, 0, &mut seq);
                let vals = &seq.vals;
                let left_sum = vals[..c.cut].iter().fold(0.0, |s, &(_, r)| s + y[r]);
                let exact = parent - child_sse(&y, vals, c.cut, left_sum);
                proptest::prop_assert!(
                    (c.approx - exact).abs() <= bound,
                    "cut {} of feature {}: approx {} exact {} bound {bound}",
                    c.cut, c.feature, c.approx, exact
                );
            }
        }
    }

    /// Columns for the rank path: small integers, a 0/1 flag, ±0.0 and 1,
    /// a three-way one-hot block, an all-distinct column and integers
    /// drawn from twice the row count.
    fn rank_matrix(n: usize, rng: &mut StdRng) -> Matrix {
        let mut data = Vec::with_capacity(n * 8);
        for i in 0..n {
            let hot = rng.gen_range(0..3usize);
            data.extend([
                f64::from(rng.gen_range(0u8..5)),
                f64::from(rng.gen_range(0u8..2)),
                [-0.0, 0.0, 1.0][rng.gen_range(0usize..3)],
                (hot == 0) as usize as f64,
                (hot == 1) as usize as f64,
                (hot == 2) as usize as f64,
                i as f64 + rng.gen_range(0.0..0.5),
                rng.gen_range(0..2 * n) as f64,
            ]);
        }
        Matrix::from_vec(n, 8, data)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Forest trees on bootstrap rows through a shared rank table.
        /// Under `cfg(test)` every node checks that both ways the table
        /// orders a sampled feature, the counting sort and the key sort,
        /// equal a fresh stable sort (value bits, row ids and order), and
        /// that its split equals the scan over fresh sorts (classification)
        /// or the exhaustive scan (regression). The fits must also predict
        /// bit-equal to fits that sort at every node.
        #[test]
        fn rank_table_fits_match_per_node_sorts(
            seed in 0u64..u64::MAX,
            n in 2usize..300,
            kind in 0u8..6,
            min_samples_leaf in 1usize..4,
            max_thresholds in 1usize..20,
            subsample in 1usize..9,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = rank_matrix(n, &mut rng);
            let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let y_reg = hard_targets(kind, &x, &mut rng);
            let y_class: Vec<usize> =
                (0..n).map(|r| (x.get(r, 0) as usize + rng.gen_range(0..2usize)) % 3).collect();
            let cfg = TreeConfig {
                max_depth: 8,
                min_samples_leaf,
                max_thresholds,
                feature_subsample: Some(subsample),
                seed,
            };
            let index = split_index(&x, &cfg);
            proptest::prop_assert!(matches!(index, SplitIndex::Ranks(_)));
            let target = Target::Reg { y: &y_reg };
            let reg = grow(&x, target, rows.clone(), &cfg, Some(&index), &mut Vec::new());
            let oracle = grow_per_node(&x, Target::Reg { y: &y_reg }, rows.clone(), &cfg);
            proptest::prop_assert_eq!(leaf_bits(&reg, &x), leaf_bits(&oracle, &x));
            let target = Target::Class { y: &y_class, n_classes: 3 };
            let class = grow(&x, target, rows.clone(), &cfg, Some(&index), &mut Vec::new());
            let oracle = grow_per_node(&x, Target::Class { y: &y_class, n_classes: 3 }, rows, &cfg);
            proptest::prop_assert_eq!(leaf_bits(&class, &x), leaf_bits(&oracle, &x));
        }
    }

    /// A cut between adjacent floats, or between floats whose sum
    /// overflows, still separates the rows: the threshold falls back to
    /// the lower value instead of a midpoint that sends every row left.
    #[test]
    fn cuts_between_adjacent_or_huge_values_split_the_rows() {
        assert_eq!(split_threshold(1.0, 2.0), 1.5);
        let adjacent = 1.0 + f64::EPSILON;
        for (a, b) in [(adjacent, f64::from_bits(adjacent.to_bits() + 1)), (1e308, 1.7e308)] {
            assert_eq!(split_threshold(a, b), a, "{a} {b}");
            let x = Matrix::from_rows(&[vec![a], vec![a], vec![a], vec![b], vec![b], vec![b]]);
            let labels = vec![0, 0, 0, 1, 1, 1];
            let targets: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
            // Presorted single trees, then forest-style trees on a rank table.
            for feature_subsample in [None, Some(1)] {
                let config = TreeConfig { feature_subsample, ..Default::default() };
                let clf = DecisionTreeClassifier { config: config.clone() };
                assert_eq!(clf.fit(&x, &labels, 2).unwrap().predict(&x).unwrap(), labels);
                let reg = DecisionTreeRegressor { config };
                assert_eq!(reg.fit(&x, &targets).unwrap().predict(&x).unwrap(), targets);
            }
        }
    }

    /// A fit's filter counters: every exact evaluation is a scored
    /// candidate, and on well separated data few candidates reach the
    /// exact loop.
    #[test]
    fn filter_sends_few_cuts_to_the_exact_loop_on_separated_data() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 400;
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![i as f64, rng.gen(), rng.gen(), rng.gen()]).collect();
        let y: Vec<f64> =
            (0..n).map(|i| (i / 100) as f64 * 10.0 + rng.gen_range(-0.1..0.1)).collect();
        let x = Matrix::from_rows(&rows);
        let cfg = TreeConfig { max_depth: 3, ..Default::default() };
        let mut builder = Builder::new(&x, Target::Reg { y: &y }, &cfg, NodeOrder::Sort);
        let root = builder.fit((0..n).collect());
        fn splits(node: &Node) -> u64 {
            match node {
                Node::Split { left, right, .. } => 1 + splits(left) + splits(right),
                _ => 0,
            }
        }
        // Depth 3 with noisy targets: every searched node splits.
        assert_eq!(splits(&root), 7);
        assert!(builder.split_exact <= builder.split_candidates);
        assert!(builder.split_candidates >= 7 * 4 * 32, "{}", builder.split_candidates);
        assert!(
            builder.split_exact >= 7 && builder.split_exact <= 2 * 7,
            "{}",
            builder.split_exact
        );

        let sink = std::sync::Arc::new(catdb_trace::TraceSink::new());
        {
            let _guard = catdb_trace::install(sink.clone());
            DecisionTreeRegressor { config: cfg.clone() }.fit(&x, &y).unwrap();
            let labels: Vec<usize> = y.iter().map(|&v| (v > 15.0) as usize).collect();
            DecisionTreeClassifier::default().fit(&x, &labels, 2).unwrap();
        }
        let counters = sink.snapshot().counters;
        assert_eq!(counters[COUNTER_SPLIT_CANDIDATES], builder.split_candidates as f64);
        assert_eq!(counters[COUNTER_SPLIT_EXACT], builder.split_exact as f64);
    }

    #[test]
    fn constant_features_yield_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]);
        let y = vec![0, 1, 0, 1];
        let model = DecisionTreeClassifier::default().fit(&x, &y, 2).unwrap();
        let proba = model.predict_proba(&x).unwrap();
        assert!((proba[0][0] - 0.5).abs() < 1e-9);
    }
}
