//! Lazily built, cached per-column value dictionaries.
//!
//! Profiling, encoding, dedup, and cleaning all used to re-render every
//! cell to a fresh `String` and re-hash it on every pass. A [`ValueDict`]
//! does that work once per distinct *column content*: it interns the
//! distinct rendered values (sorted, so consumers that previously built a
//! `BTreeSet<String>` see the exact same order), stores a compact `u32`
//! code per row, and keeps per-value occurrence counts. Downstream code
//! then works on integer codes.
//!
//! Dictionaries are shared behind `Arc` through a global cache keyed by
//! the column's [`column_fingerprint`]. Content addressing doubles as
//! invalidation: mutating a column changes its fingerprint, so the stale
//! entry simply stops being found. Hits and misses are reported through
//! `catdb-trace` counters ([`COUNTER_DICT_HITS`] / [`COUNTER_DICT_MISSES`])
//! so the hit ratio shows up in run traces.

use crate::column::Column;
use crate::fingerprint::column_fingerprint;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Per-row code marking a missing value.
pub const NULL_CODE: u32 = u32::MAX;

/// Counter name for dictionary cache hits.
pub const COUNTER_DICT_HITS: &str = "dict.hits";
/// Counter name for dictionary cache misses (dictionary builds).
pub const COUNTER_DICT_MISSES: &str = "dict.misses";

/// Interned view of one column: sorted distinct rendered values, a code
/// per row, and per-value counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueDict {
    /// Distinct non-null rendered values, sorted ascending (the same
    /// order a `BTreeSet<String>` over the renders would iterate in).
    values: Vec<String>,
    /// Occurrences of each distinct value, parallel to `values`.
    counts: Vec<usize>,
    /// Per-row code into `values`; [`NULL_CODE`] for missing entries.
    codes: Vec<u32>,
    /// Number of non-null rows (`counts` sums to this).
    non_null: usize,
}

impl ValueDict {
    /// Build a dictionary for `col`, rendering each distinct raw value
    /// exactly once. Prefer [`column_dict`], which consults the cache.
    pub fn build(col: &Column) -> ValueDict {
        // Pass 1: map each row to a provisional code via the *typed*
        // value (no rendering), counting occurrences as we go.
        let (tmp_codes, mut rendered, tmp_counts) = match col {
            Column::Int(v) => provisional_codes(v.iter(), |x| *x, |x| x.to_string()),
            Column::Bool(v) => provisional_codes(v.iter(), |x| *x, |x| x.to_string()),
            Column::Str(v) => provisional_codes(v.iter(), |x| x.as_str(), |x| x.clone()),
            // Floats are keyed by raw bits, so bitwise-distinct values
            // that render identically (NaN payloads) are merged by the
            // string sort below.
            Column::Float(v) => {
                provisional_codes(v.iter(), |x| x.to_bits(), |x| crate::Value::Float(*x).render())
            }
        };

        // Pass 2: sort the distinct renders, merging provisional codes
        // whose renders collide, and remap the per-row codes. Each render
        // is visited once, so it moves into `values` instead of being
        // cloned.
        let mut order: Vec<u32> = (0..rendered.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| rendered[a as usize].cmp(&rendered[b as usize]));
        let mut values: Vec<String> = Vec::with_capacity(rendered.len());
        let mut counts: Vec<usize> = Vec::with_capacity(rendered.len());
        let mut remap: Vec<u32> = vec![0; rendered.len()];
        for &tmp in &order {
            let render = std::mem::take(&mut rendered[tmp as usize]);
            if values.last() != Some(&render) {
                values.push(render);
                counts.push(0);
            }
            let final_code = (values.len() - 1) as u32;
            remap[tmp as usize] = final_code;
            counts[final_code as usize] += tmp_counts[tmp as usize];
        }
        let codes: Vec<u32> = tmp_codes
            .iter()
            .map(|&c| if c == NULL_CODE { NULL_CODE } else { remap[c as usize] })
            .collect();
        let non_null = counts.iter().sum();
        ValueDict { values, counts, codes, non_null }
    }

    /// Distinct non-null rendered values, sorted ascending.
    pub fn values(&self) -> &[String] {
        &self.values
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
        self.values.len()
    }

    /// Number of non-null rows.
    pub fn non_null(&self) -> usize {
        self.non_null
    }

    /// Rendered value for a code (`None` for [`NULL_CODE`]).
    pub fn value_of(&self, code: u32) -> Option<&str> {
        self.values.get(code as usize).map(String::as_str)
    }

    /// Code of a rendered value, if present.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.values.binary_search_by(|v| v.as_str().cmp(value)).ok().map(|i| i as u32)
    }

    /// Highest occurrence count among the distinct values (0 if empty).
    pub fn max_count(&self) -> usize {
        self.counts.iter().copied().max().unwrap_or(0)
    }
}

/// Pass 1 of the build: per-row provisional codes keyed by the typed
/// value, rendering each distinct value exactly once on first sight.
fn provisional_codes<'a, T, K, KF, RF>(
    rows: impl Iterator<Item = &'a Option<T>>,
    key: KF,
    render: RF,
) -> (Vec<u32>, Vec<String>, Vec<usize>)
where
    T: 'a,
    K: std::hash::Hash + Eq,
    KF: Fn(&'a T) -> K,
    RF: Fn(&'a T) -> String,
{
    let mut by_key: HashMap<K, u32> = HashMap::new();
    let mut rendered: Vec<String> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    let mut codes: Vec<u32> = Vec::new();
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

const CACHE_CAP: usize = 512;

fn cache() -> &'static Mutex<HashMap<u128, Arc<ValueDict>>> {
    static CACHE: OnceLock<Mutex<HashMap<u128, Arc<ValueDict>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Dictionary for `col`, served from the global content-addressed cache
/// when the same column content has been seen before in this process.
pub fn column_dict(col: &Column) -> Arc<ValueDict> {
    let fp = column_fingerprint(col);
    if let Some(dict) = cache().lock().unwrap().get(&fp) {
        catdb_trace::add_counter(COUNTER_DICT_HITS, 1.0);
        return dict.clone();
    }
    catdb_trace::add_counter(COUNTER_DICT_MISSES, 1.0);
    let dict = Arc::new(ValueDict::build(col));
    let mut cache = cache().lock().unwrap();
    if cache.len() >= CACHE_CAP {
        // Crude but sufficient: content-addressed entries are cheap to
        // rebuild, so wholesale eviction beats bookkeeping an LRU.
        cache.clear();
    }
    cache.insert(fp, dict.clone());
    dict
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

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
        assert_eq!(dict.values().to_vec(), set.into_iter().collect::<Vec<_>>());
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
            assert_eq!(dict.value_of(code).unwrap(), col.get(i).render());
            assert_eq!(dict.code_of(dict.value_of(code).unwrap()), Some(code));
        }
        // Lexicographic, not numeric, order — same as rendered BTreeSet.
        assert_eq!(dict.values(), &["1", "2", "30"]);
    }

    #[test]
    fn float_renders_merge_nan_payloads() {
        let quiet = f64::NAN;
        let payload = f64::from_bits(quiet.to_bits() ^ 1);
        assert!(payload.is_nan());
        let col = Column::Float(vec![Some(quiet), Some(payload), Some(1.0)]);
        let dict = ValueDict::build(&col);
        assert_eq!(dict.values(), &["1.0", "NaN"]);
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
        assert_eq!(c.values(), &["7", "8", "9"]);
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
