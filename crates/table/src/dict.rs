//! Lazily built, cached per-column value dictionaries.
//!
//! Profiling, encoding, dedup, and cleaning all need a column's distinct
//! rendered values, in sorted order, with a count each. A [`ValueDict`]
//! holds them for one column content: the distinct renders sorted by
//! bytes (the order a `BTreeSet<String>` iterates in) and stored back to
//! back in one string arena with `u32` offsets, a compact `u32` code per
//! row, and per-value occurrence counts. Downstream code then works on
//! integer codes and borrowed `&str` renders.
//!
//! A build is one pass of interning, then one sort of the distinct
//! renders by their bytes:
//! - Int, Float and Bool rows go through the typed sort of
//!   [`crate::numeric`]: `(key, row)` pairs are sorted, each run of equal
//!   keys becomes one value rendered once into the arena in value order,
//!   and NaN payloads merge into one value. When the renders' `str` order
//!   is the value order (a column of one sign and one integer-part
//!   width), the codes need no remap.
//! - Str rows are interned through std's keyed (randomly seeded) hash
//!   map, which resists collision flooding by the values a tenant's CSV
//!   chooses.
//! - The distinct renders are ordered by the same stable prefix-then-bytes
//!   sort, which is exactly `String`'s order.
//!
//! Dictionaries are shared behind `Arc` through a global cache keyed by
//! the column's [`column_fingerprint`]: a [`catdb_runtime::Lru`] that
//! weighs each dictionary by its heap bytes and keeps the most recently
//! used ones within a 6 MiB budget. Content addressing doubles as
//! invalidation: mutating a column changes its fingerprint, so the stale
//! entry simply stops being found and ages out. A caller that already
//! holds the fingerprint (the profiler hashes every column once per
//! table) passes it to [`column_dict_with_fingerprint`] instead of
//! hashing again. Hits
//! and misses are reported through `catdb-trace` counters
//! ([`COUNTER_DICT_HITS`] / [`COUNTER_DICT_MISSES`]) so the hit ratio
//! shows up in run traces.

use crate::column::Column;
use crate::fingerprint::column_fingerprint;
use crate::numeric::{distinct_runs, FloatKey, Renders, SortKey};
use catdb_runtime::Lru;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Per-row code marking a missing value.
pub const NULL_CODE: u32 = u32::MAX;

/// Counter name for dictionary cache hits.
pub const COUNTER_DICT_HITS: &str = "dict.hits";
/// Counter name for dictionary cache misses (dictionary builds).
pub const COUNTER_DICT_MISSES: &str = "dict.misses";

/// Interned view of one column: sorted distinct rendered values, a code
/// per row, and per-value counts. The arena's `u32` offsets cap a column
/// at 4 GiB of distinct text, far above a daemon frame (16 MiB) or a
/// spill page (65,536 rows).
#[derive(Debug, Clone, PartialEq)]
pub struct ValueDict {
    /// Distinct non-null rendered values, sorted ascending, back to back.
    arena: String,
    /// Value `i` is `arena[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Occurrences of each distinct value, in value order.
    counts: Vec<usize>,
    /// Per-row code into the values; [`NULL_CODE`] for missing entries.
    codes: Vec<u32>,
    /// Number of non-null rows (`counts` sums to this).
    non_null: usize,
}

impl ValueDict {
    /// Build a dictionary for `col`, rendering each distinct raw value
    /// exactly once. Prefer [`column_dict`], which consults the cache.
    pub fn build(col: &Column) -> ValueDict {
        let interned = match col {
            Column::Int(v) => Interned::by_sorting(v, |&x| x),
            Column::Float(v) => Interned::by_sorting(v, |&x| FloatKey::of(x)),
            Column::Bool(v) => Interned::by_sorting(v, |&x| x),
            Column::Str(v) => Interned::by_hashing(v),
        };
        interned.into_sorted()
    }

    /// [`ValueDict::build`] of a string column given as its rows, so a
    /// slice of a column is interned without copying it into one.
    pub fn build_strs(rows: &[Option<String>]) -> ValueDict {
        Interned::by_hashing(rows).into_sorted()
    }

    /// Distinct non-null rendered values, sorted ascending.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &str> + DoubleEndedIterator + Clone {
        self.offsets.windows(2).map(|w| &self.arena[w[0] as usize..w[1] as usize])
    }

    /// Rendered value of a non-null code. Panics on [`NULL_CODE`] or a
    /// code past [`ValueDict::n_distinct`], as slice indexing does.
    pub fn value(&self, code: u32) -> &str {
        let i = code as usize;
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Occurrence count of each distinct value, parallel to `values()`.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Per-row codes; [`NULL_CODE`] marks missing entries.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of distinct non-null values.
    pub fn n_distinct(&self) -> usize {
        self.counts.len()
    }

    /// Number of non-null rows.
    pub fn non_null(&self) -> usize {
        self.non_null
    }

    /// Code of a rendered value, if present.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        let (mut lo, mut hi) = (0, self.n_distinct() as u32);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.value(mid).cmp(value) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Highest occurrence count among the distinct values (0 if empty).
    pub fn max_count(&self) -> usize {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Bytes this dictionary holds on the heap, itself included: what the
    /// cache weighs it by.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<ValueDict>()
            + self.arena.capacity()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.counts.capacity() * std::mem::size_of::<usize>()
            + self.codes.capacity() * std::mem::size_of::<u32>()
    }
}

/// A column interned in provisional order: a code per row and each
/// provisional value rendered once.
struct Interned {
    codes: Vec<u32>,
    renders: Renders,
}

impl Interned {
    /// Intern typed rows through one sort of `(key, row)` pairs, in value
    /// order (see [`crate::numeric`]).
    fn by_sorting<T: Copy, K: SortKey>(rows: &[Option<T>], key: impl Fn(&T) -> K) -> Interned {
        let mut keyed: Vec<(K, u32)> = rows
            .iter()
            .enumerate()
            .filter_map(|(r, x)| x.as_ref().map(|x| (key(x), r as u32)))
            .collect();
        keyed.sort_unstable_by_key(|&(k, _)| k);
        let mut codes = vec![NULL_CODE; rows.len()];
        let renders = distinct_runs(
            &keyed,
            |&(k, _)| k,
            |code, run| {
                for &(_, r) in run {
                    codes[r as usize] = code;
                }
            },
        );
        Interned { codes, renders }
    }

    /// Intern string rows through std's randomly keyed hash map, in
    /// first-seen order.
    fn by_hashing(rows: &[Option<String>]) -> Interned {
        let mut codes = vec![NULL_CODE; rows.len()];
        let mut renders = Renders::new();
        let mut by_value: HashMap<&str, u32> = HashMap::new();
        for (r, row) in rows.iter().enumerate() {
            let Some(s) = row else { continue };
            let code = *by_value.entry(s.as_str()).or_insert_with(|| {
                renders.arena.push_str(s);
                renders.push_value(0)
            });
            renders.counts[code as usize] += 1;
            codes[r] = code;
        }
        Interned { codes, renders }
    }

    /// Order the (distinct) provisional values by render and remap the
    /// per-row codes to that order, unless it is already the provisional
    /// one.
    fn into_sorted(self) -> ValueDict {
        let Interned { mut codes, renders } = self;
        let non_null = renders.counts.iter().sum();
        let order = renders.str_order();
        if order.iter().enumerate().all(|(rank, &i)| rank as u32 == i) {
            let Renders { arena, offsets, counts } = renders;
            return ValueDict { arena, offsets, counts, codes, non_null };
        }
        let mut sorted = Renders::new();
        sorted.arena.reserve(renders.arena.len());
        let mut remap: Vec<u32> = vec![0; order.len()];
        for &i in &order {
            sorted.arena.push_str(renders.get(i));
            remap[i as usize] = sorted.push_value(renders.counts[i as usize]);
        }
        for c in codes.iter_mut().filter(|c| **c != NULL_CODE) {
            *c = remap[*c as usize];
        }
        let Renders { arena, offsets, counts } = sorted;
        ValueDict { arena, offsets, counts, codes, non_null }
    }
}

/// Bytes of dictionaries the cache retains: the smallest budget that
/// keeps every hit of one `paper_runs` operation (DESIGN "Caches").
const CACHE_BUDGET: usize = 6 << 20;
/// Most dictionaries the cache holds: each weighs at least this share of
/// the budget, so a daemon's stream of small fresh tables cannot fill
/// the budget with thousands of dictionaries never read again.
const CACHE_SLOTS: usize = 256;

fn cache() -> &'static Mutex<Lru<u128, Arc<ValueDict>>> {
    static CACHE: OnceLock<Mutex<Lru<u128, Arc<ValueDict>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Lru::new(CACHE_BUDGET)))
}

/// Dictionary for `col`, served from the global content-addressed cache
/// when the same column content has been seen before in this process.
pub fn column_dict(col: &Column) -> Arc<ValueDict> {
    column_dict_with_fingerprint(col, column_fingerprint(col))
}

/// [`column_dict`] for a caller that already holds the column's
/// [`column_fingerprint`], which must be `fingerprint`.
pub fn column_dict_with_fingerprint(col: &Column, fingerprint: u128) -> Arc<ValueDict> {
    debug_assert_eq!(fingerprint, column_fingerprint(col));
    if let Some(dict) = cache().lock().unwrap().get(&fingerprint).cloned() {
        catdb_trace::add_counter(COUNTER_DICT_HITS, 1.0);
        return dict;
    }
    catdb_trace::add_counter(COUNTER_DICT_MISSES, 1.0);
    let dict = Arc::new(ValueDict::build(col));
    let weight = dict.heap_bytes().max(CACHE_BUDGET / CACHE_SLOTS);
    // Evicted dictionaries drop after the lock is released.
    let _evicted = cache().lock().unwrap().insert(fingerprint, dict.clone(), weight);
    dict
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The two-pass build this module replaced: provisional codes through
    /// a hash map keyed by the typed value, then a sort of the rendered
    /// `String`s. Returns `(values, counts, codes, non_null)`.
    fn oracle_build(col: &Column) -> (Vec<String>, Vec<usize>, Vec<u32>, usize) {
        fn provisional<'a, T: 'a, K: std::hash::Hash + Eq>(
            rows: impl Iterator<Item = &'a Option<T>>,
            key: impl Fn(&'a T) -> K,
            render: impl Fn(&'a T) -> String,
        ) -> (Vec<u32>, Vec<String>, Vec<usize>) {
            let mut by_key: HashMap<K, u32> = HashMap::new();
            let (mut rendered, mut counts, mut codes) = (Vec::new(), Vec::new(), Vec::new());
            for row in rows {
                match row {
                    None => codes.push(NULL_CODE),
                    Some(v) => {
                        let next = rendered.len() as u32;
                        let code = *by_key.entry(key(v)).or_insert_with(|| {
                            rendered.push(render(v));
                            counts.push(0);
                            next
                        });
                        counts[code as usize] += 1;
                        codes.push(code);
                    }
                }
            }
            (codes, rendered, counts)
        }
        let (tmp_codes, mut rendered, tmp_counts) = match col {
            Column::Int(v) => provisional(v.iter(), |x| *x, |x| x.to_string()),
            Column::Bool(v) => provisional(v.iter(), |x| *x, |x| x.to_string()),
            Column::Str(v) => provisional(v.iter(), |x| x.as_str(), |x| x.clone()),
            Column::Float(v) => {
                provisional(v.iter(), |x| x.to_bits(), |x| crate::Value::Float(*x).render())
            }
        };
        let mut order: Vec<u32> = (0..rendered.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| rendered[a as usize].cmp(&rendered[b as usize]));
        let mut values: Vec<String> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut remap: Vec<u32> = vec![0; rendered.len()];
        for &tmp in &order {
            let render = std::mem::take(&mut rendered[tmp as usize]);
            if values.last() != Some(&render) {
                values.push(render);
                counts.push(0);
            }
            remap[tmp as usize] = (values.len() - 1) as u32;
            counts[values.len() - 1] += tmp_counts[tmp as usize];
        }
        let codes = tmp_codes
            .iter()
            .map(|&c| if c == NULL_CODE { NULL_CODE } else { remap[c as usize] })
            .collect();
        let non_null = counts.iter().sum();
        (values, counts, codes, non_null)
    }

    fn rows<T: Clone + 'static>(
        value: impl Strategy<Value = T> + 'static,
    ) -> BoxedStrategy<Vec<Option<T>>> {
        let cell = prop_oneof![Just(None), value.prop_map(Some)];
        prop::collection::vec(cell, 0..40).boxed()
    }

    fn int_values() -> BoxedStrategy<i64> {
        prop_oneof![
            -12i64..12,
            // Nine- and ten-digit renders share their first 8 bytes.
            1_234_567_800i64..1_234_567_899,
            123_456_780i64..123_456_789,
            i64::MIN..i64::MAX,
            Just(i64::MIN),
            Just(i64::MAX),
        ]
        .boxed()
    }

    fn float_values() -> BoxedStrategy<f64> {
        let quiet_nan = f64::NAN.to_bits();
        prop_oneof![
            (-8i64..8).prop_map(|k| k as f64 / 4.0),
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            // NaNs with assorted payloads and signs all render `NaN`.
            (0u64..1 << 51).prop_map(move |p| f64::from_bits(quiet_nan | p)),
            (0u64..1 << 51).prop_map(move |p| f64::from_bits((quiet_nan | p) | 1 << 63)),
            (1u64..1 << 20).prop_map(|p| f64::from_bits(0x7ff0_0000_0000_0000 | p)),
            (0u64..u64::MAX).prop_map(f64::from_bits),
            // Renders that agree on their first 8 bytes.
            (0i64..64).prop_map(|k| 1234.5678 + k as f64 * 1e-7),
            (0i64..64).prop_map(|k| 1e15 + k as f64),
        ]
        .boxed()
    }

    fn str_values() -> BoxedStrategy<String> {
        prop_oneof![
            "[ab]{0,2}",
            "abcdefgh[a-c]{0,3}",
            "abcdefg[gh]{0,2}",
            "[a-z ]{0,12}",
            "x_y[0-9]{1,2}",
            Just("é".to_string()),
            Just("e\u{301}".to_string()),
            Just(String::new()),
        ]
        .boxed()
    }

    fn columns() -> BoxedStrategy<Column> {
        prop_oneof![
            rows(int_values()).prop_map(Column::Int),
            rows(float_values()).prop_map(Column::Float),
            rows(str_values()).prop_map(Column::Str),
            rows(prop_oneof![Just(true), Just(false)]).prop_map(Column::Bool),
            Just(Column::Int(vec![])),
            Just(Column::Float(vec![None; 5])),
            Just(Column::Str(vec![None; 3])),
            Just(Column::Bool(vec![None])),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn build_matches_the_two_pass_oracle(col in columns()) {
            let dict = ValueDict::build(&col);
            let (values, counts, codes, non_null) = oracle_build(&col);
            prop_assert_eq!(dict.values().collect::<Vec<_>>(), values);
            prop_assert_eq!(dict.counts(), &counts[..]);
            prop_assert_eq!(dict.codes(), &codes[..]);
            prop_assert_eq!(dict.non_null(), non_null);
            for (code, value) in dict.values().enumerate() {
                prop_assert_eq!(dict.code_of(value), Some(code as u32));
            }
        }
    }

    #[test]
    fn values_match_btreeset_order_and_counts_match_occurrences() {
        let col = Column::Str(vec![
            Some("pear".into()),
            Some("apple".into()),
            None,
            Some("pear".into()),
            Some("apple".into()),
            Some("apple".into()),
        ]);
        let dict = ValueDict::build(&col);
        let set: BTreeSet<String> =
            col.iter_values().filter(|v| !v.is_null()).map(|v| v.render()).collect();
        assert_eq!(
            dict.values().collect::<Vec<_>>(),
            set.iter().map(String::as_str).collect::<Vec<_>>()
        );
        assert_eq!(dict.counts(), &[3, 2]); // apple ×3, pear ×2
        assert_eq!(dict.non_null(), 5);
        assert_eq!(dict.max_count(), 3);
        assert_eq!(dict.codes(), &[1, 0, NULL_CODE, 1, 0, 0]);
    }

    #[test]
    fn codes_round_trip_through_values() {
        let col = Column::from_i64(vec![30, 1, 30, 2]);
        let dict = ValueDict::build(&col);
        for (i, &code) in dict.codes().iter().enumerate() {
            assert_eq!(dict.value(code), col.get(i).render());
            assert_eq!(dict.code_of(dict.value(code)), Some(code));
        }
        // Lexicographic, not numeric, order — same as rendered BTreeSet.
        assert_eq!(dict.values().collect::<Vec<_>>(), ["1", "2", "30"]);
        assert_eq!(dict.code_of("3"), None);
    }

    #[test]
    fn float_renders_merge_nan_payloads() {
        let quiet = f64::NAN;
        let payload = f64::from_bits(quiet.to_bits() ^ 1);
        assert!(payload.is_nan());
        let col = Column::Float(vec![Some(quiet), Some(payload), Some(1.0)]);
        let dict = ValueDict::build(&col);
        assert_eq!(dict.values().collect::<Vec<_>>(), ["1.0", "NaN"]);
        assert_eq!(dict.counts(), &[1, 2]);
        assert_eq!(dict.codes(), &[1, 1, 0]);
    }

    #[test]
    fn cache_serves_equal_content_and_misses_after_mutation() {
        let col = Column::from_i64(vec![7, 8, 7]);
        let a = column_dict(&col);
        let b = column_dict(&col.clone());
        assert!(Arc::ptr_eq(&a, &b), "equal content must share one cached dict");
        let mut changed = col.clone();
        changed.set(0, crate::Value::Int(9)).unwrap();
        let c = column_dict(&changed);
        assert_eq!(c.values().collect::<Vec<_>>(), ["7", "8", "9"]);
    }

    #[test]
    fn all_null_and_empty_columns() {
        let dict = ValueDict::build(&Column::Int(vec![None, None]));
        assert_eq!(dict.n_distinct(), 0);
        assert_eq!(dict.non_null(), 0);
        assert_eq!(dict.codes(), &[NULL_CODE, NULL_CODE]);
        let empty = ValueDict::build(&Column::Int(vec![]));
        assert_eq!(empty.n_distinct(), 0);
        assert!(empty.codes().is_empty());
    }
}
