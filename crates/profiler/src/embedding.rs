//! Column embeddings (Algorithm 1, lines 7–9).
//!
//! The paper sidesteps expensive exact dependency discovery by embedding
//! each column into a 300-dimensional vector and estimating inclusion
//! dependencies, similarities, and correlations from the embeddings —
//! "faster processing (a few seconds) with minor degradation in accuracy".
//!
//! The embedding here is a feature-hashed bag of values: every distinct
//! rendered value hashes to a deterministic ±1 pattern over the 300
//! dimensions; a column's embedding is the L2-normalized sum over its
//! distinct values. Columns sharing many values end up with high cosine
//! similarity, and a column whose value set is contained in another's has
//! high cosine *and* a smaller distinct count — the inclusion signal.

use crate::wide::wide_kernel;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Embedding dimensionality (matches the paper's "vectors of length 300").
pub const EMBEDDING_DIM: usize = 300;

/// Deterministic ±1 pattern for a value, spread over `k` dimensions.
fn value_signature(value: &str) -> impl Iterator<Item = (usize, f64)> + '_ {
    // Derive k pseudo-random (dimension, sign) pairs from the value hash.
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    let mut state = h.finish() | 1;
    (0..8).map(move |_| {
        // xorshift64* step
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let r = state.wrapping_mul(0x2545F4914F6CDD1D);
        let dim = (r >> 8) as usize % EMBEDDING_DIM;
        let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
        (dim, sign)
    })
}

/// An L2-normalized column embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnEmbedding {
    v: Vec<f64>,
}

impl ColumnEmbedding {
    /// Embed a column from its distinct rendered values.
    pub fn from_distinct_values<'a>(values: impl Iterator<Item = &'a str>) -> ColumnEmbedding {
        let mut v = vec![0.0; EMBEDDING_DIM];
        for value in values {
            for (dim, sign) in value_signature(value) {
                v[dim] += sign;
            }
        }
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for x in &mut v {
                *x /= norm;
            }
        }
        ColumnEmbedding { v }
    }

    /// Cosine similarity (both embeddings are unit length, so this is just
    /// the dot product).
    pub fn cosine(&self, other: &ColumnEmbedding) -> f64 {
        self.v.iter().zip(&other.v).map(|(a, b)| a * b).sum()
    }

    /// [`cosine`](Self::cosine) against each of a block's `K` embeddings
    /// in one sweep over the dimensions. Each partner keeps its own
    /// accumulator, seeded and fed exactly as `cosine`'s `sum` (from
    /// `-0.0`, in dimension order), so every result is bit-identical to
    /// the single-partner call; the `K` independent add chains overlap,
    /// and each dimension's `K` partner values are one contiguous read.
    #[inline(always)]
    pub(crate) fn cosines<const K: usize>(&self, block: &EmbeddingBlock<K>) -> [f64; K] {
        let mut acc = [-0.0f64; K];
        for (&a, lanes) in self.v.iter().zip(&block.dims) {
            for (s, &b) in acc.iter_mut().zip(lanes) {
                *s += a * b;
            }
        }
        acc
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.v
    }
}

/// `K` embeddings interleaved dimension by dimension, the partner side
/// of [`ColumnEmbedding::cosines`].
pub(crate) struct EmbeddingBlock<const K: usize> {
    /// `dims[d][k]` is dimension `d` of member `k`.
    dims: Vec<[f64; K]>,
}

impl<const K: usize> EmbeddingBlock<K> {
    pub(crate) fn new(members: [&ColumnEmbedding; K]) -> EmbeddingBlock<K> {
        EmbeddingBlock {
            dims: (0..EMBEDDING_DIM).map(|d| std::array::from_fn(|k| members[k].v[d])).collect(),
        }
    }
}

wide_kernel! {
    /// [`ColumnEmbedding::cosines`] of `x` against `block` at `tier`'s
    /// width, bit-identical at every tier.
    pub(crate) fn cosines_at<const K: usize>(
        x: &ColumnEmbedding,
        block: &EmbeddingBlock<K>,
    ) -> [f64; K] = ColumnEmbedding::cosines
}

/// Estimated inclusion dependency: does `small`'s value set appear to be
/// contained in `big`'s? High when cos(small, big) is large relative to
/// what containment predicts given the distinct-count ratio.
pub fn inclusion_score(
    small: &ColumnEmbedding,
    big: &ColumnEmbedding,
    small_distinct: usize,
    big_distinct: usize,
) -> f64 {
    inclusion_score_from_cosine(small.cosine(big), small_distinct, big_distinct)
}

/// [`inclusion_score`] given the pair's precomputed cosine, which is
/// symmetric bit for bit — the profiler's pairwise pass computes one dot
/// per unordered pair and scores both inclusion directions from it.
pub(crate) fn inclusion_score_from_cosine(
    cosine: f64,
    small_distinct: usize,
    big_distinct: usize,
) -> f64 {
    if small_distinct == 0 || big_distinct == 0 || small_distinct > big_distinct {
        return 0.0;
    }
    // If small ⊆ big, the expected cosine is ≈ sqrt(|small| / |big|)
    // (shared mass over the larger set's norm). Score = observed/expected.
    let expected = (small_distinct as f64 / big_distinct as f64).sqrt();
    (cosine / expected).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PAIR_BLOCK;
    use crate::wide::Tier;
    use proptest::prelude::*;

    fn embed(values: &[&str]) -> ColumnEmbedding {
        ColumnEmbedding::from_distinct_values(values.iter().copied())
    }

    #[test]
    fn identical_value_sets_have_cosine_one() {
        let a = embed(&["x", "y", "z"]);
        let b = embed(&["z", "y", "x"]);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_value_sets_have_low_cosine() {
        let a = embed(
            &(0..50)
                .map(|i| format!("a{i}"))
                .collect::<Vec<_>>()
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>(),
        );
        let b = embed(
            &(0..50)
                .map(|i| format!("b{i}"))
                .collect::<Vec<_>>()
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>(),
        );
        assert!(a.cosine(&b).abs() < 0.3);
    }

    #[test]
    fn overlap_increases_similarity_monotonically() {
        let base: Vec<String> = (0..40).map(|i| format!("v{i}")).collect();
        let a = ColumnEmbedding::from_distinct_values(base.iter().map(|s| s.as_str()));
        let half: Vec<&str> = base[..20].iter().map(|s| s.as_str()).chain(["q1", "q2"]).collect();
        let none: Vec<&str> = vec!["w1", "w2", "w3"];
        let sim_half = a.cosine(&ColumnEmbedding::from_distinct_values(half.into_iter()));
        let sim_none = a.cosine(&ColumnEmbedding::from_distinct_values(none.into_iter()));
        assert!(sim_half > sim_none + 0.2, "half {sim_half} none {sim_none}");
    }

    #[test]
    fn inclusion_detects_subset() {
        let big_vals: Vec<String> = (0..100).map(|i| format!("id{i}")).collect();
        let small_vals: Vec<&str> = big_vals[..20].iter().map(|s| s.as_str()).collect();
        let big = ColumnEmbedding::from_distinct_values(big_vals.iter().map(|s| s.as_str()));
        let small = ColumnEmbedding::from_distinct_values(small_vals.iter().copied());
        let score_in = inclusion_score(&small, &big, 20, 100);
        assert!(score_in > 0.8, "inclusion score {score_in}");

        let other_vals: Vec<String> = (0..20).map(|i| format!("zz{i}")).collect();
        let other = ColumnEmbedding::from_distinct_values(other_vals.iter().map(|s| s.as_str()));
        let score_out = inclusion_score(&other, &big, 20, 100);
        assert!(score_out < 0.5, "non-inclusion score {score_out}");
    }

    #[test]
    fn interleaved_cosines_match_per_call_cosine_bit_for_bit() {
        // Empty, single-value and overlapping value sets; 7 members fill
        // one block of 4 and pad a second by repeating the last member.
        let embs: Vec<ColumnEmbedding> = (0..7)
            .map(|c| {
                let vals: Vec<String> = (0..c * 9).map(|i| format!("v{}", i % (c + 4))).collect();
                ColumnEmbedding::from_distinct_values(vals.iter().map(|s| s.as_str()))
            })
            .collect();
        for x in &embs {
            for start in [0, 4] {
                let block =
                    EmbeddingBlock::<4>::new(std::array::from_fn(|k| &embs[(start + k).min(6)]));
                for (k, &dot) in x.cosines(&block).iter().enumerate() {
                    let other = &embs[(start + k).min(6)];
                    assert_eq!(dot.to_bits(), x.cosine(other).to_bits());
                    assert_eq!(dot.to_bits(), other.cosine(x).to_bits(), "cosine is symmetric");
                    for (small, big) in [(3, 10), (10, 3), (0, 5), (7, 7)] {
                        assert_eq!(
                            inclusion_score_from_cosine(dot, small, big).to_bits(),
                            inclusion_score(x, other, small, big).to_bits()
                        );
                    }
                }
            }
        }
    }

    /// A coordinate: `±0.0`, a multiple of `1/√n` as normalised sums of
    /// `±1` hold, or any value in `[-1, 1]`.
    fn coordinate() -> BoxedStrategy<f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            (-8i32..9, 1u32..400).prop_map(|(k, n)| k as f64 / (n as f64).sqrt()),
            -1.0f64..1.0,
        ]
        .boxed()
    }

    /// An all-zero embedding, one of a value set, or raw coordinates.
    fn embedding() -> BoxedStrategy<ColumnEmbedding> {
        prop_oneof![
            Just(ColumnEmbedding { v: vec![0.0; EMBEDDING_DIM] }),
            prop::collection::vec(0u32..60, 0..40).prop_map(|ids| {
                let vals: Vec<String> = ids.iter().map(|i| format!("v{i}")).collect();
                ColumnEmbedding::from_distinct_values(vals.iter().map(|s| s.as_str()))
            }),
            prop::collection::vec(coordinate(), EMBEDDING_DIM..EMBEDDING_DIM + 1)
                .prop_map(|v| ColumnEmbedding { v }),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every tier's cosines equal the scalar kernel's and `cosine`'s
        /// bit for bit, over blocks of the profile's width with a short,
        /// padded last block.
        #[test]
        fn cosines_match_the_scalar_kernels_at_every_tier(
            embs in prop::collection::vec(embedding(), 1..2 * PAIR_BLOCK + 3),
        ) {
            let last = embs.len() - 1;
            for start in (0..embs.len()).step_by(PAIR_BLOCK) {
                let member = |k: usize| &embs[(start + k).min(last)];
                let block = EmbeddingBlock::<PAIR_BLOCK>::new(std::array::from_fn(member));
                for x in &embs {
                    let scalar = x.cosines(&block);
                    for (k, dot) in scalar.iter().enumerate() {
                        prop_assert_eq!(dot.to_bits(), x.cosine(member(k)).to_bits());
                    }
                    for tier in Tier::all() {
                        let got = cosines_at(tier, x, &block).map(f64::to_bits);
                        prop_assert_eq!(got, scalar.map(f64::to_bits), "{:?}", tier);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_embedding_is_zero_and_harmless() {
        let e = embed(&[]);
        assert!(e.cosine(&embed(&["x"])).abs() < 1e-9);
        assert_eq!(inclusion_score(&e, &e, 0, 0), 0.0);
    }
}
