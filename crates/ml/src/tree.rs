//! CART decision trees for classification (Gini) and regression (variance
//! reduction), with capped threshold candidates and optional feature
//! subsampling so the trees double as random-forest base learners.
//!
//! Two split-search strategies share the same tree structure:
//!
//! * [`SplitMode::Exact`] — the original sorted-scan search, bit-identical
//!   to the seed implementation. A fit that scans every feature at every
//!   node (`feature_subsample: None`: single trees and boosting stages)
//!   sorts each feature's rows once, stably under `total_cmp`, into a
//!   feature-major presort. A node owns the same contiguous range of every
//!   feature's list, and a split stably partitions each range into left
//!   rows then right rows. A child's rows keep their parent's relative
//!   order, so the partitioned range equals a stable sort of the child's
//!   rows: ties stay in the order the regression scan sums them in, and
//!   the trees are the ones per-node sorting grows. Boosting builds the
//!   presort of rows `0..n` once per ensemble ([`presort_for`]) and every
//!   stage partitions a copy of it. Forests sample √d features per node,
//!   where d partitions per split cost more than k sorts, so they keep
//!   sorting per node; classification sorts there are unstable, since
//!   tied keys have equal bits and class counts are integers. Regression
//!   scans in two passes ([`Builder::reg_split`]): O(1) approximate gains
//!   filter the cuts, and the exact SSE loop runs only for the cuts that
//!   a proven error bound ([`gain_error_bound`]) leaves able to win.
//! * [`SplitMode::Binned`] — LightGBM-style histogram search over a shared
//!   [`BinnedDataset`]: per-node histograms of (count, class counts |
//!   sum, sum-of-squares) are accumulated in one pass over `u8` codes, and
//!   each sibling's histogram is derived as parent − scanned-child instead
//!   of rescanned.

use crate::binned::{BinnedDataset, MAX_BINS};
use crate::estimator::{
    check_finite, validate_classification, validate_regression, Classifier, ClassifierModel,
    Regressor, RegressorModel, Result,
};
use crate::matrix::{ColMajor, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

/// Split-search strategy for tree training.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SplitMode {
    /// Sorted-scan threshold search (bit-identical to the seed trees).
    #[default]
    Exact,
    /// Histogram search over quantized features (`2..=256` bins).
    Binned { bins: usize },
}

impl SplitMode {
    /// Parse `exact`, `binned`, or `binned:<bins>` (bins in `2..=256`).
    pub fn parse(s: &str) -> std::result::Result<SplitMode, String> {
        match s {
            "exact" => Ok(SplitMode::Exact),
            "binned" => Ok(SplitMode::Binned { bins: MAX_BINS }),
            other => match other.strip_prefix("binned:") {
                Some(n) => {
                    let bins: usize = n.parse().map_err(|_| format!("invalid bin count `{n}`"))?;
                    if !(2..=MAX_BINS).contains(&bins) {
                        return Err(format!("bins must be in 2..=256, got {bins}"));
                    }
                    Ok(SplitMode::Binned { bins })
                }
                None => Err(format!(
                    "unknown split mode `{other}` (expected `exact`, `binned`, or \
                     `binned:<bins>`)"
                )),
            },
        }
    }
}

impl fmt::Display for SplitMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitMode::Exact => write!(f, "exact"),
            SplitMode::Binned { bins } => write!(f, "binned:{bins}"),
        }
    }
}

/// Hyper-parameters shared by classification and regression trees.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    pub max_depth: usize,
    pub min_samples_leaf: usize,
    /// Cap on candidate thresholds per feature per node (quantile-strided;
    /// exact mode only — binned mode considers every bin edge).
    pub max_thresholds: usize,
    /// Features sampled per split; `None` = all (single trees),
    /// `Some(k)` for forests.
    pub feature_subsample: Option<usize>,
    pub seed: u64,
    /// Split-search strategy.
    pub split_mode: SplitMode,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 10,
            min_samples_leaf: 1,
            max_thresholds: 32,
            feature_subsample: None,
            seed: 0,
            split_mode: SplitMode::Exact,
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

/// A regression cut scored by the filter pass: its feature, the cut
/// (sorted rows `..cut` go left) and the approximate gain.
struct Cut {
    feature: usize,
    cut: usize,
    approx: f64,
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

/// The presort an exact fit without feature subsampling reads (`None`
/// for every other config), like [`binned_for`] for the quantization.
pub(crate) fn presort_for(x: &Matrix, cfg: &TreeConfig) -> Option<Presort> {
    presorted(cfg).then(|| Presort::build(x, &(0..x.rows()).collect::<Vec<_>>()))
}

/// Whether a fit grows from a partitioned presort instead of sorting
/// per node.
fn presorted(cfg: &TreeConfig) -> bool {
    cfg.split_mode == SplitMode::Exact && cfg.feature_subsample.is_none()
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

/// Flattened per-node histogram over all features of a [`BinnedDataset`]:
/// classification keeps per-(bin, class) counts, regression keeps per-bin
/// (count, Σy, Σy²). Sibling histograms subtract exactly (u32 counts are
/// exact; the f64 sums are deterministic but not order-identical to a
/// rescan, which binned mode accepts).
enum Hist {
    Class(Vec<u32>),
    Reg { count: Vec<u32>, sum: Vec<f64>, sumsq: Vec<f64> },
}

impl Hist {
    /// In-place `self −= child`, turning a parent histogram into the
    /// sibling of the scanned child.
    fn subtract(&mut self, child: &Hist) {
        match (self, child) {
            (Hist::Class(p), Hist::Class(c)) => {
                for (a, b) in p.iter_mut().zip(c) {
                    *a -= b;
                }
            }
            (Hist::Reg { count, sum, sumsq }, Hist::Reg { count: cc, sum: cs, sumsq: cq }) => {
                for (a, b) in count.iter_mut().zip(cc) {
                    *a -= b;
                }
                for (a, b) in sum.iter_mut().zip(cs) {
                    *a -= b;
                }
                for (a, b) in sumsq.iter_mut().zip(cq) {
                    *a -= b;
                }
            }
            _ => unreachable!("histogram kind mismatch"),
        }
    }
}

/// Allocate a zeroed histogram covering `bins` bins of the given target
/// kind (classification scales by the class count).
fn empty_hist(target: &Target, bins: usize) -> Hist {
    match target {
        Target::Class { n_classes, .. } => Hist::Class(vec![0; bins * n_classes]),
        Target::Reg { .. } => {
            Hist::Reg { count: vec![0; bins], sum: vec![0.0; bins], sumsq: vec![0.0; bins] }
        }
    }
}

/// `(base, width)` of feature `f`'s element range inside a flattened
/// histogram (element units, i.e. already scaled by the class count).
fn feature_range(target: &Target, b: &BinnedDataset, f: usize) -> (usize, usize) {
    let scale = match target {
        Target::Class { n_classes, .. } => *n_classes,
        Target::Reg { .. } => 1,
    };
    (b.bin_offset(f) * scale, b.n_bins(f) * scale)
}

/// Per-node training payload gathered once per histogram scan, so every
/// feature pass streams flat arrays (row index, label | target value)
/// instead of re-chasing `rows → y` through two indirections per feature.
enum NodePayload {
    Class(Vec<u32>),
    Reg(Vec<f64>),
}

/// Accumulate one feature's codes into `hist` starting at element offset
/// `base`. This is the monomorphic hot loop of binned training: one `u8`
/// gather plus one indexed add per row.
fn scan_feature(
    codes: &[u8],
    idx: &[u32],
    payload: &NodePayload,
    n_classes: usize,
    base: usize,
    hist: &mut Hist,
) {
    match (hist, payload) {
        (Hist::Class(h), NodePayload::Class(labels)) => {
            for (&r, &lab) in idx.iter().zip(labels) {
                h[base + codes[r as usize] as usize * n_classes + lab as usize] += 1;
            }
        }
        (Hist::Reg { count, sum, sumsq }, NodePayload::Reg(vals)) => {
            for (&r, &v) in idx.iter().zip(vals) {
                let bin = base + codes[r as usize] as usize;
                count[bin] += 1;
                sum[bin] += v;
                sumsq[bin] += v * v;
            }
        }
        _ => unreachable!("histogram kind mismatch"),
    }
}

/// Row-count × feature-count product above which a node's histogram scan
/// fans out per-feature on the shared runtime (each feature's bin range is
/// an independent output slice, so the merge is a plain input-ordered
/// concatenation and the result is identical at any thread count).
const PARALLEL_SCAN_CELLS: usize = 1 << 15;

struct Builder<'a> {
    x: &'a Matrix,
    target: Target<'a>,
    cfg: &'a TreeConfig,
    rng: StdRng,
    binned: Option<&'a BinnedDataset>,
    /// Exact fits without feature subsampling read their sorted lists here.
    sorted: Option<Partitioned<'a>>,
    hist_builds: u64,
    hist_subtractions: u64,
    /// Regression cuts scored by the filter pass.
    split_candidates: u64,
    /// Regression cuts the verify pass ran the exact loop for.
    split_exact: u64,
}

impl<'a> Builder<'a> {
    fn new(
        x: &'a Matrix,
        target: Target<'a>,
        cfg: &'a TreeConfig,
        binned: Option<&'a BinnedDataset>,
        sorted: Option<Partitioned<'a>>,
    ) -> Self {
        Builder {
            x,
            target,
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            binned,
            sorted,
            hist_builds: 0,
            hist_subtractions: 0,
            split_candidates: 0,
            split_exact: 0,
        }
    }

    fn fit(&mut self, rows: Vec<usize>) -> Node {
        match self.binned {
            Some(_) => self.build_binned(rows, 0, None),
            None => self.build(rows, 0, 0),
        }
    }

    /// Whether a node of `len` rows at `depth` may split; every other node
    /// becomes a leaf without looking at its features.
    fn may_split(&self, len: usize, depth: usize) -> bool {
        depth < self.cfg.max_depth && len >= 2 * self.cfg.min_samples_leaf
    }

    /// Fill `vals` with feature `f`'s `(value, row)` pairs at the node,
    /// ascending under `total_cmp`: the node's range `lo..` of the
    /// presort, or a sort of `rows`. Regression sorts stably, so tied
    /// rows keep `rows` order, the order the SSE scan sums them in.
    /// Classification may sort unstably: tied keys have equal bits and
    /// the class counts at a cut between distinct values do not depend
    /// on tie order.
    fn node_values(&self, f: usize, rows: &[usize], lo: usize, vals: &mut Vec<(f64, usize)>) {
        vals.clear();
        if let Some(sorted) = &self.sorted {
            let col = sorted.cols.col(f);
            let list = sorted.list(f, lo, rows.len());
            vals.extend(list.iter().map(|&r| (col[r as usize], r as usize)));
            return;
        }
        vals.extend(rows.iter().map(|&r| (self.x.get(r, f), r)));
        match self.target {
            Target::Class { .. } => vals.sort_unstable_by(|a, b| a.0.total_cmp(&b.0)),
            Target::Reg { .. } => vals.sort_by(|a, b| a.0.total_cmp(&b.0)),
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
        let mut vals: Vec<(f64, usize)> = Vec::with_capacity(rows.len());
        let cuts = self.score_cuts(y, features, rows, lo, parent_impurity, &mut vals);
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
            self.node_values(f, rows, lo, &mut vals);
            let (mut pos, mut left_sum) = (0usize, 0.0f64);
            for c in group.iter().filter(|c| live(c)) {
                while pos < c.cut {
                    left_sum += y[vals[pos].1];
                    pos += 1;
                }
                self.split_exact += 1;
                let gain = parent_impurity - child_sse(y, &vals, c.cut, left_sum);
                if best.as_ref().is_none_or(|b| gain > b.0) && gain > 1e-12 {
                    let threshold = (vals[c.cut - 1].0 + vals[c.cut].0) / 2.0;
                    best = Some((gain, f, threshold));
                }
            }
        }
        best
    }

    /// The filter pass of [`Builder::reg_split`]: every candidate cut of
    /// every feature in `features`, in scan order, with its approximate
    /// gain. The targets are shifted by the node mean, the centre
    /// `parent_impurity` was computed around, as [`gain_error_bound`]
    /// requires. One pass sums each run of rows between consecutive cuts
    /// ([`shifted_sums`]); a cut's left sums then add up the runs before
    /// it and its right sums the runs after it, from the last row, so each
    /// side carries only its own rounding error.
    fn score_cuts(
        &self,
        y: &[f64],
        features: &[usize],
        rows: &[usize],
        lo: usize,
        parent_impurity: f64,
        vals: &mut Vec<(f64, usize)>,
    ) -> Vec<Cut> {
        let n = rows.len();
        let min_leaf = self.cfg.min_samples_leaf;
        let shift = mean(y, rows);
        let mut boundaries: Vec<usize> = Vec::new();
        let mut runs: Vec<(f64, f64)> = Vec::new();
        let mut cuts: Vec<Cut> = Vec::new();
        for &f in features {
            self.node_values(f, rows, lo, vals);
            if !candidate_boundaries(vals, &mut boundaries) {
                continue; // constant feature at this node
            }
            let stride = (boundaries.len() / self.cfg.max_thresholds).max(1);
            let first = cuts.len();
            cuts.extend(
                boundaries
                    .iter()
                    .step_by(stride)
                    .filter(|&&cut| cut >= min_leaf && n - cut >= min_leaf)
                    .map(|&cut| Cut { feature: f, cut, approx: 0.0 }),
            );
            let feature_cuts = &mut cuts[first..];
            if feature_cuts.is_empty() {
                continue;
            }
            runs.clear();
            let mut start = 0;
            for c in feature_cuts.iter() {
                runs.push(shifted_sums(y, &vals[start..c.cut], shift));
                start = c.cut;
            }
            runs.push(shifted_sums(y, &vals[start..], shift));
            let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
            for (c, &(s, q)) in feature_cuts.iter_mut().zip(&runs) {
                sum += s;
                sumsq += q;
                c.approx = sumsq - sum * sum / c.cut as f64; // left SSE for now
            }
            let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
            for (c, &(s, q)) in feature_cuts.iter_mut().rev().zip(runs[1..].iter().rev()) {
                sum += s;
                sumsq += q;
                let right = sumsq - sum * sum / (n - c.cut) as f64;
                c.approx = parent_impurity - (c.approx + right);
            }
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
        let mut vals: Vec<(f64, usize)> = Vec::with_capacity(rows.len());
        let mut boundaries: Vec<usize> = Vec::new();
        for &f in features {
            self.node_values(f, rows, lo, &mut vals);
            if !candidate_boundaries(&vals, &mut boundaries) {
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
                let gain = parent_impurity - child_sse(y, &vals, cut, left_sum);
                if best.as_ref().is_none_or(|b| gain > b.0) && gain > 1e-12 {
                    let threshold = (vals[cut - 1].0 + vals[cut].0) / 2.0;
                    best = Some((gain, f, threshold));
                }
            }
        }
        best
    }

    /// Build the full-feature histogram for a node in one pass over the u8
    /// codes. Large nodes fan out per feature on the runtime pool; each
    /// feature's bins land in a disjoint slice, so the input-ordered merge
    /// is a plain copy and the result is identical at any thread count.
    fn scan_hist(&mut self, rows: &[usize]) -> Hist {
        self.hist_builds += 1;
        let b = self.binned.expect("binned scan without dataset");
        let target = &self.target;
        // Gather the node's row indices and targets into flat arrays once;
        // the d feature passes then stream them sequentially.
        let idx: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
        let (payload, n_classes) = match target {
            Target::Class { y, n_classes } => {
                (NodePayload::Class(rows.iter().map(|&r| y[r] as u32).collect()), *n_classes)
            }
            Target::Reg { y } => (NodePayload::Reg(rows.iter().map(|&r| y[r]).collect()), 1),
        };
        let mut hist = empty_hist(target, b.total_bins());
        if rows.len() * b.cols() >= PARALLEL_SCAN_CELLS && b.cols() > 1 {
            let feats: Vec<usize> = (0..b.cols()).collect();
            let limit = catdb_runtime::pool_size().saturating_add(1);
            let parts = catdb_runtime::parallel_map(limit, &feats, |_, &f| {
                let mut part = empty_hist(target, b.n_bins(f));
                scan_feature(b.col_codes(f), &idx, &payload, n_classes, 0, &mut part);
                part
            });
            for (f, part) in parts.into_iter().enumerate() {
                let (base, width) = feature_range(target, b, f);
                match (&mut hist, part) {
                    (Hist::Class(h), Hist::Class(p)) => {
                        h[base..base + width].copy_from_slice(&p);
                    }
                    (
                        Hist::Reg { count, sum, sumsq },
                        Hist::Reg { count: pc, sum: ps, sumsq: pq },
                    ) => {
                        count[base..base + width].copy_from_slice(&pc);
                        sum[base..base + width].copy_from_slice(&ps);
                        sumsq[base..base + width].copy_from_slice(&pq);
                    }
                    _ => unreachable!("histogram kind mismatch"),
                }
            }
        } else {
            for f in 0..b.cols() {
                let (base, _) = feature_range(target, b, f);
                scan_feature(b.col_codes(f), &idx, &payload, n_classes, base, &mut hist);
            }
        }
        hist
    }

    /// Histogram-based recursion: `hist`, when present, was derived by the
    /// parent (scan of the smaller sibling + subtraction), so each level
    /// scans the raw codes at most once for the smaller half of its rows.
    fn build_binned(&mut self, rows: Vec<usize>, depth: usize, hist: Option<Hist>) -> Node {
        if !self.may_split(rows.len(), depth) {
            return self.target.leaf(&rows);
        }
        // One pass over the node's labels covers purity + parent impurity
        // (the exact path pays three passes here; with full-feature
        // histogram scans per node the savings are material).
        let parent_class_counts: Option<Vec<usize>> = match &self.target {
            Target::Class { y, n_classes } => {
                let mut counts = vec![0usize; *n_classes];
                for &r in &rows {
                    counts[y[r]] += 1;
                }
                if counts.iter().filter(|&&c| c > 0).count() <= 1 {
                    return self.target.leaf(&rows);
                }
                Some(counts)
            }
            Target::Reg { .. } => {
                if self.target.is_pure(&rows) {
                    return self.target.leaf(&rows);
                }
                None
            }
        };
        let parent_impurity = match &parent_class_counts {
            Some(counts) => gini_weighted(counts, rows.len()),
            None => self.target.weighted_impurity(&rows),
        };
        if parent_impurity <= 1e-12 {
            return self.target.leaf(&rows);
        }
        let binned = self.binned.expect("binned build without dataset");

        let d = self.x.cols();
        let mut features: Vec<usize> = (0..d).collect();
        if let Some(k) = self.cfg.feature_subsample {
            features.shuffle(&mut self.rng);
            features.truncate(k.max(1).min(d));
        }

        let hist = match hist {
            Some(h) => h,
            None => self.scan_hist(&rows),
        };

        // Cumulative left-to-right sweep over each feature's bins: split at
        // bin b sends codes ≤ b left, which is exactly `value ≤ edges[b]`.
        let mut best: Option<(f64, usize, usize)> = None; // (gain, feature, bin)
        match (&hist, &self.target) {
            (Hist::Class(h), Target::Class { n_classes, .. }) => {
                let nc = *n_classes;
                let parent_counts =
                    parent_class_counts.as_ref().expect("class counts computed above");
                let mut left_counts = vec![0usize; nc];
                for &f in &features {
                    let nb = binned.n_bins(f);
                    if nb < 2 {
                        continue; // constant feature
                    }
                    let base = binned.bin_offset(f) * nc;
                    left_counts.fill(0);
                    let mut left_n = 0usize;
                    for b in 0..nb - 1 {
                        let slot = &h[base + b * nc..base + (b + 1) * nc];
                        for (acc, &v) in left_counts.iter_mut().zip(slot) {
                            *acc += v as usize;
                            left_n += v as usize;
                        }
                        let right_n = rows.len() - left_n;
                        if left_n < self.cfg.min_samples_leaf.max(1)
                            || right_n < self.cfg.min_samples_leaf.max(1)
                        {
                            continue;
                        }
                        let child = gini_weighted(&left_counts, left_n)
                            + gini_weighted_rest(parent_counts, &left_counts, right_n);
                        let gain = parent_impurity - child;
                        if best.as_ref().is_none_or(|x| gain > x.0) && gain > 1e-12 {
                            best = Some((gain, f, b));
                        }
                    }
                }
            }
            (Hist::Reg { count, sum, sumsq }, Target::Reg { .. }) => {
                for &f in &features {
                    let nb = binned.n_bins(f);
                    if nb < 2 {
                        continue;
                    }
                    let base = binned.bin_offset(f);
                    let bins = base..base + nb;
                    let total_n: u32 = count[bins.clone()].iter().sum();
                    let total_sum: f64 = sum[bins.clone()].iter().sum();
                    let total_sumsq: f64 = sumsq[bins].iter().sum();
                    let mut left_n = 0u32;
                    let mut left_sum = 0.0f64;
                    let mut left_sumsq = 0.0f64;
                    for b in 0..nb - 1 {
                        left_n += count[base + b];
                        left_sum += sum[base + b];
                        left_sumsq += sumsq[base + b];
                        let right_n = total_n - left_n;
                        if (left_n as usize) < self.cfg.min_samples_leaf.max(1)
                            || (right_n as usize) < self.cfg.min_samples_leaf.max(1)
                        {
                            continue;
                        }
                        let left_sse = left_sumsq - left_sum * left_sum / left_n as f64;
                        let right_sum = total_sum - left_sum;
                        let right_sse =
                            (total_sumsq - left_sumsq) - right_sum * right_sum / right_n as f64;
                        let child = left_sse + right_sse;
                        let gain = parent_impurity - child;
                        if best.as_ref().is_none_or(|x| gain > x.0) && gain > 1e-12 {
                            best = Some((gain, f, b));
                        }
                    }
                }
            }
            _ => unreachable!("histogram kind mismatch"),
        }

        let Some((_, feature, bin)) = best else {
            return self.target.leaf(&rows);
        };
        let threshold = binned.edges(feature)[bin];
        let codes = binned.col_codes(feature);
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
            rows.into_iter().partition(|&r| codes[r] as usize <= bin);
        if left_rows.is_empty() || right_rows.is_empty() {
            // Histogram counts guarantee both sides are non-empty; keep the
            // exact path's defensive fallback anyway.
            let all: Vec<usize> = left_rows.into_iter().chain(right_rows).collect();
            return self.target.leaf(&all);
        }

        // Subtraction trick: scan only the smaller child, derive the larger
        // sibling as parent − child.
        let scan_left = left_rows.len() <= right_rows.len();
        let small = if scan_left { &left_rows } else { &right_rows };
        let small_hist = self.scan_hist(small);
        let mut large_hist = hist;
        large_hist.subtract(&small_hist);
        self.hist_subtractions += 1;
        let (left_hist, right_hist) =
            if scan_left { (small_hist, large_hist) } else { (large_hist, small_hist) };

        let left = Box::new(self.build_binned(left_rows, depth + 1, Some(left_hist)));
        let right = Box::new(self.build_binned(right_rows, depth + 1, Some(right_hist)));
        Node::Split { feature, threshold, left, right }
    }

    /// Exact recursion over the node's `rows`, which start at offset `lo`
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
        // order once: classification keeps incremental class counts (the
        // counts are exact integers, so the Gini floats are bit-identical
        // to the recomputing version); regression filters the cuts first
        // and runs its exact loop for the few that can win (`reg_split`).
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        let mut vals: Vec<(f64, usize)> = Vec::with_capacity(rows.len());
        let mut boundaries: Vec<usize> = Vec::new();
        match &self.target {
            Target::Class { y, n_classes } => {
                let mut parent_counts = vec![0usize; *n_classes];
                for &r in &rows {
                    parent_counts[y[r]] += 1;
                }
                let mut left_counts = vec![0usize; *n_classes];
                for &f in &features {
                    self.node_values(f, &rows, lo, &mut vals);
                    if !candidate_boundaries(&vals, &mut boundaries) {
                        continue; // constant feature at this node
                    }
                    let stride = (boundaries.len() / self.cfg.max_thresholds).max(1);
                    left_counts.fill(0);
                    let mut pos = 0usize;
                    for &cut in boundaries.iter().step_by(stride) {
                        while pos < cut {
                            left_counts[y[vals[pos].1]] += 1;
                            pos += 1;
                        }
                        if cut < self.cfg.min_samples_leaf
                            || vals.len() - cut < self.cfg.min_samples_leaf
                        {
                            continue;
                        }
                        let child = gini_weighted(&left_counts, cut)
                            + gini_weighted_rest(&parent_counts, &left_counts, vals.len() - cut);
                        let gain = parent_impurity - child;
                        if best.as_ref().is_none_or(|b| gain > b.0) && gain > 1e-12 {
                            let threshold = (vals[cut - 1].0 + vals[cut].0) / 2.0;
                            best = Some((gain, f, threshold));
                        }
                    }
                }
            }
            Target::Reg { y } => {
                let y = *y; // the fit's slice, not a borrow of `self`
                best = self.reg_split(y, &features, &rows, lo, parent_impurity);
                #[cfg(test)]
                assert_eq!(
                    split_bits(best),
                    split_bits(self.exhaustive_reg_split(y, &features, &rows, lo, parent_impurity)),
                    "pruned regression scan diverged from the exhaustive scan"
                );
            }
        }

        let Some((_, feature, threshold)) = best else {
            return self.target.leaf(&rows);
        };
        let len = rows.len();
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
            rows.into_iter().partition(|&r| self.x.get(r, feature) <= threshold);
        if left_rows.is_empty() || right_rows.is_empty() {
            // Should not happen given boundary selection; fall back to a leaf
            // out of an abundance of caution.
            let all: Vec<usize> = left_rows.into_iter().chain(right_rows).collect();
            return self.target.leaf(&all);
        }
        // Children that cannot split never read the lists.
        if self.may_split(left_rows.len(), depth + 1) || self.may_split(right_rows.len(), depth + 1)
        {
            if let Some(sorted) = &mut self.sorted {
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
    fn name(&self) -> &'static str {
        "decision_tree"
    }

    fn fit(&self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<Box<dyn ClassifierModel>> {
        validate_classification(x, y, n_classes)?;
        Ok(Box::new(fit_class_tree(x, y, n_classes, &self.config)))
    }
}

/// Build the quantized view a config asks for (`None` in exact mode).
/// Ensemble fits call this once and share the result across every tree.
pub(crate) fn binned_for(x: &Matrix, cfg: &TreeConfig) -> Option<BinnedDataset> {
    match cfg.split_mode {
        SplitMode::Binned { bins } => Some(BinnedDataset::build(x, bins)),
        SplitMode::Exact => None,
    }
}

/// Flush the per-fit counters into the trace layer: histogram work in
/// binned mode, and in exact regression the cuts the filter scored
/// against those the exact loop verified (the prune ratio).
fn flush_counters(builder: &Builder) {
    for (name, count) in [
        ("ml.hist_builds", builder.hist_builds),
        ("ml.hist_subtractions", builder.hist_subtractions),
        ("ml.split_candidates", builder.split_candidates),
        ("ml.split_exact", builder.split_exact),
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
    let local = binned_for(x, cfg);
    fit_class_tree_on(x, y, (0..x.rows()).collect(), n_classes, cfg, local.as_ref())
}

/// Internal fit over a row subset (for bagging). `binned` must be the
/// quantization of `x` when the config selects binned mode; it is ignored
/// in exact mode.
pub(crate) fn fit_class_tree_on(
    x: &Matrix,
    y: &[usize],
    rows: Vec<usize>,
    n_classes: usize,
    cfg: &TreeConfig,
    binned: Option<&BinnedDataset>,
) -> TreeClassifierModel {
    let target = Target::Class { y, n_classes };
    let root = grow(x, target, rows, cfg, binned, None, &mut Vec::new());
    TreeClassifierModel { root, n_classes }
}

/// Grow one tree over `rows`. An exact fit without feature subsampling
/// partitions a presort: a copy of `presort`'s order made in `lists` when
/// given (it must then cover exactly `rows`, i.e. `0..n`), otherwise a
/// fresh presort of `rows`.
fn grow(
    x: &Matrix,
    target: Target,
    rows: Vec<usize>,
    cfg: &TreeConfig,
    binned: Option<&BinnedDataset>,
    presort: Option<&Presort>,
    lists: &mut Vec<u32>,
) -> Node {
    let _span = catdb_trace::span("tree_fit");
    let binned = match cfg.split_mode {
        SplitMode::Binned { .. } => binned,
        SplitMode::Exact => None,
    };
    let mut local = None;
    let sorted = if presorted(cfg) {
        let (cols, order): (&ColMajor, &mut [u32]) = match presort {
            Some(shared) => {
                debug_assert_eq!(shared.order.len(), rows.len() * x.cols());
                lists.clear();
                lists.extend_from_slice(&shared.order);
                (&shared.cols, lists)
            }
            None => {
                let own = local.insert(Presort::build(x, &rows));
                (&own.cols, &mut own.order)
            }
        };
        Some(Partitioned::new(cols, order, rows.len()))
    } else {
        None
    };
    let mut builder = Builder::new(x, target, cfg, binned, sorted);
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

/// Decision-tree regressor.
#[derive(Debug, Clone, Default)]
pub struct DecisionTreeRegressor {
    pub config: TreeConfig,
}

pub(crate) struct TreeRegressorModel {
    root: Node,
}

impl Regressor for DecisionTreeRegressor {
    fn name(&self) -> &'static str {
        "decision_tree"
    }

    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Box<dyn RegressorModel>> {
        validate_regression(x, y)?;
        let local = binned_for(x, &self.config);
        Ok(Box::new(fit_reg_tree(x, y, (0..x.rows()).collect(), &self.config, local.as_ref())))
    }
}

/// Internal regression-tree fit over a row subset. `binned` must be the
/// quantization of `x` when the config selects binned mode.
pub(crate) fn fit_reg_tree(
    x: &Matrix,
    y: &[f64],
    rows: Vec<usize>,
    cfg: &TreeConfig,
    binned: Option<&BinnedDataset>,
) -> TreeRegressorModel {
    TreeRegressorModel {
        root: grow(x, Target::Reg { y }, rows, cfg, binned, None, &mut Vec::new()),
    }
}

/// One boosting stage: a regression tree over rows `0..n`. In exact mode
/// it partitions a copy of the ensemble's `presort` made in `lists`, a
/// buffer the caller reuses across rounds.
pub(crate) fn fit_reg_stage(
    x: &Matrix,
    y: &[f64],
    cfg: &TreeConfig,
    binned: Option<&BinnedDataset>,
    presort: Option<&Presort>,
    lists: &mut Vec<u32>,
) -> TreeRegressorModel {
    let rows = (0..x.rows()).collect();
    TreeRegressorModel { root: grow(x, Target::Reg { y }, rows, cfg, binned, presort, lists) }
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
        let mut vals: Vec<(f64, usize)> = rows.iter().map(|&r| (x.get(r, f), r)).collect();
        vals.sort_by(|a, b| a.0.total_cmp(&b.0));
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
        Builder::new(x, target, cfg, None, None).fit(rows)
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
            let reg = grow(&x, Target::Reg { y: &y_reg }, rows.clone(), &cfg, None, None, &mut Vec::new());
            let oracle = grow_per_node(&x, Target::Reg { y: &y_reg }, rows.clone(), &cfg);
            proptest::prop_assert_eq!(leaf_bits(&reg, &x), leaf_bits(&oracle, &x));
            if bootstrap == 0 {
                let shared = presort_for(&x, &cfg);
                let stage = fit_reg_stage(&x, &y_reg, &cfg, None, shared.as_ref(), &mut Vec::new());
                proptest::prop_assert_eq!(leaf_bits(&stage.root, &x), leaf_bits(&oracle, &x));
            }
            let target = Target::Class { y: &y_class, n_classes: 3 };
            let class = grow(&x, target, rows.clone(), &cfg, None, None, &mut Vec::new());
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
            let shared = presort_for(&x, &cfg);
            fit_reg_stage(&x, &y, &cfg, None, shared.as_ref(), &mut Vec::new());
            let forest = TreeConfig { feature_subsample: Some(subsample + 1), seed, ..cfg };
            let bootstrap: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            fit_reg_tree(&x, &y, bootstrap, &forest, None);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The lemma behind the filter: at a node, every cut's approximate
        /// gain lies within `gain_error_bound` of the exact loop's gain.
        #[test]
        fn approximate_gains_lie_within_the_bound(
            seed in 0u64..u64::MAX,
            n in 2usize..260,
            kind in 0u8..6,
            max_thresholds in 1usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = near_tie_matrix(n, &mut rng);
            let y = hard_targets(kind, &x, &mut rng);
            let rows: Vec<usize> = (0..n).collect();
            let cfg = TreeConfig { max_thresholds, ..Default::default() };
            let builder = Builder::new(&x, Target::Reg { y: &y }, &cfg, None, None);
            let parent = builder.target.weighted_impurity(&rows);
            let max_abs = y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let bound = gain_error_bound(n, parent, max_abs);
            let features: Vec<usize> = (0..x.cols()).collect();
            let mut vals = Vec::new();
            for c in builder.score_cuts(&y, &features, &rows, 0, parent, &mut vals) {
                builder.node_values(c.feature, &rows, 0, &mut vals);
                let left_sum = vals[..c.cut].iter().fold(0.0, |s, &(_, r)| s + y[r]);
                let exact = parent - child_sse(&y, &vals, c.cut, left_sum);
                proptest::prop_assert!(
                    (c.approx - exact).abs() <= bound,
                    "cut {} of feature {}: approx {} exact {} bound {bound}",
                    c.cut, c.feature, c.approx, exact
                );
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
        let mut builder = Builder::new(&x, Target::Reg { y: &y }, &cfg, None, None);
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
        assert_eq!(counters["ml.split_candidates"], builder.split_candidates as f64);
        assert_eq!(counters["ml.split_exact"], builder.split_exact as f64);
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
