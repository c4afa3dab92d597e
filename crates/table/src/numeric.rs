//! One sort of a typed column: its distinct values in value order, each
//! rendered once, and the order of those renders as strings.
//!
//! Both the value dictionary ([`crate::ValueDict`]) of an Int, Float or
//! Bool column and the profiler's [`NumericSummary`] read a column this
//! way:
//! - The present values are sorted once by a total-order key: the `i64`
//!   itself, `false < true`, or a float's `f64::total_cmp` order as a
//!   `u64` ([`FloatKey`]). Each run of equal keys is one distinct value,
//!   rendered exactly once into an arena, in value order. Sorting rather
//!   than hashing keeps the pass `O(n log n)` whatever the values are.
//! - NaN payloads are distinct keys that all render `NaN`. They sit at
//!   the two ends of the key order (negative payloads first, positive
//!   last) and merge into one value, placed after every other value.
//! - The renders are then ordered as `str` orders them, by an 8-byte
//!   big-endian prefix and then the full bytes, in a **stable** sort
//!   seeded with the value order. Within one sign and one integer-part
//!   width, a fixed-point shortest decimal (or an integer) already sorts
//!   in value order, so the seed is a handful of runs (negative ones
//!   descending) that the sort only merges. The renders are distinct, so
//!   any correct sort gives the same order; the seed decides only the
//!   speed.

use crate::column::Column;
use crate::shortest::{write_float, write_int};

/// A typed value's sort key: equal keys are equal values, and key order
/// is value order.
pub(crate) trait SortKey: Ord + Copy {
    /// Append the value's render, as `Value::render` shows it.
    fn render(self, out: &mut String);

    /// Whether the value is a NaN, whose payloads merge into one value.
    fn is_nan(self) -> bool {
        false
    }
}

impl SortKey for i64 {
    fn render(self, out: &mut String) {
        write_int(out, self).expect("writing to a String never fails");
    }
}

impl SortKey for bool {
    fn render(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }
}

/// An `f64` keyed by `f64::total_cmp` order as a `u64`: negative values
/// have every bit flipped, the rest only the sign bit. Equal keys are
/// equal bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct FloatKey(u64);

impl FloatKey {
    pub(crate) fn of(x: f64) -> FloatKey {
        let bits = x.to_bits();
        FloatKey(if bits >> 63 == 1 { !bits } else { bits | 1 << 63 })
    }

    fn value(self) -> f64 {
        f64::from_bits(if self.0 >> 63 == 1 { self.0 & !(1 << 63) } else { !self.0 })
    }
}

impl SortKey for FloatKey {
    fn render(self, out: &mut String) {
        write_float(out, self.value()).expect("writing to a String never fails");
    }

    fn is_nan(self) -> bool {
        self.value().is_nan()
    }
}

/// Distinct renders back to back in one string arena with `u32`
/// offsets, and an occurrence count each. The offsets cap a column at
/// 4 GiB of distinct text, far above a daemon frame (16 MiB) or a spill
/// page (65,536 rows).
#[derive(Debug)]
pub(crate) struct Renders {
    pub(crate) arena: String,
    /// Value `i` is `arena[offsets[i]..offsets[i + 1]]`.
    pub(crate) offsets: Vec<u32>,
    pub(crate) counts: Vec<usize>,
}

impl Renders {
    pub(crate) fn new() -> Renders {
        Renders { arena: String::new(), offsets: vec![0], counts: Vec::new() }
    }

    /// Close the value just rendered into the arena; returns its index.
    pub(crate) fn push_value(&mut self, count: usize) -> u32 {
        let end = u32::try_from(self.arena.len())
            .expect("a column's distinct values exceed 4 GiB of text");
        self.offsets.push(end);
        self.counts.push(count);
        (self.counts.len() - 1) as u32
    }

    pub(crate) fn get(&self, i: u32) -> &str {
        let i = i as usize;
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// Indices of the (distinct) renders in `str` order: a stable sort
    /// seeded with the current order. The prefix decides most
    /// comparisons; equal prefixes fall back to the full bytes.
    pub(crate) fn str_order(&self) -> Vec<u32> {
        let mut keyed: Vec<(u64, u32)> =
            (0..self.len() as u32).map(|i| (prefix_key(self.get(i)), i)).collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| self.get(a.1).cmp(self.get(b.1))));
        keyed.into_iter().map(|(_, i)| i).collect()
    }
}

/// The first 8 bytes of `s`, big-endian, zero-padded: comparing two
/// prefixes orders the strings as `str` does, or ties.
fn prefix_key(s: &str) -> u64 {
    let mut prefix = [0u8; 8];
    let head = &s.as_bytes()[..s.len().min(8)];
    prefix[..head.len()].copy_from_slice(head);
    u64::from_be_bytes(prefix)
}

/// Render each distinct value of `sorted` (ascending by `key`) once, in
/// value order, and hand every run of its elements to `on_run` with the
/// value's index. The NaN runs at both ends share one index, the last.
pub(crate) fn distinct_runs<E, K: SortKey>(
    sorted: &[E],
    key: impl Fn(&E) -> K,
    mut on_run: impl FnMut(u32, &[E]),
) -> Renders {
    let below = sorted.iter().take_while(|e| key(e).is_nan()).count();
    let above = sorted[below..].iter().rev().take_while(|e| key(e).is_nan()).count();
    let (low_nans, rest) = sorted.split_at(below);
    let (numbers, high_nans) = rest.split_at(rest.len() - above);
    let mut out = Renders::new();
    for run in numbers.chunk_by(|a, b| key(a) == key(b)) {
        key(&run[0]).render(&mut out.arena);
        on_run(out.push_value(run.len()), run);
    }
    if below + above > 0 {
        out.arena.push_str("NaN");
        let code = out.push_value(below + above);
        on_run(code, low_nans);
        on_run(code, high_nans);
    }
    out
}

/// The present values of an Int or Float column, sorted.
#[derive(Debug)]
enum Sorted {
    Int(Vec<i64>),
    Float(Vec<FloatKey>),
}

/// What the exact profiler reads of a numeric column, from one sort of
/// its present values and without per-row codes: the distinct renders
/// (rendered once each, in value order) with their counts, their `str`
/// order, and the sorted values themselves for the column's statistics.
/// Its renders, counts and order are those of the column's
/// [`crate::ValueDict`].
#[derive(Debug)]
pub struct NumericSummary {
    renders: Renders,
    /// `order[r]` is the value index of the `r`-th smallest render.
    order: Vec<u32>,
    sorted: Sorted,
}

impl NumericSummary {
    /// Summarise an Int or Float column; `None` for any other type.
    pub fn of(col: &Column) -> Option<NumericSummary> {
        let (renders, sorted) = match col {
            Column::Int(v) => {
                let mut keys: Vec<i64> = v.iter().flatten().copied().collect();
                keys.sort_unstable();
                (distinct_runs(&keys, |&k| k, |_, _| {}), Sorted::Int(keys))
            }
            Column::Float(v) => {
                let mut keys: Vec<FloatKey> =
                    v.iter().flatten().map(|&x| FloatKey::of(x)).collect();
                keys.sort_unstable();
                (distinct_runs(&keys, |&k| k, |_, _| {}), Sorted::Float(keys))
            }
            Column::Str(_) | Column::Bool(_) => return None,
        };
        let order = renders.str_order();
        Some(NumericSummary { renders, order, sorted })
    }

    /// Number of distinct non-null values.
    pub fn n_distinct(&self) -> usize {
        self.renders.len()
    }

    /// Number of non-null rows.
    pub fn non_null(&self) -> usize {
        match &self.sorted {
            Sorted::Int(v) => v.len(),
            Sorted::Float(v) => v.len(),
        }
    }

    /// Highest occurrence count among the distinct values (0 if empty).
    pub fn max_count(&self) -> usize {
        self.renders.counts.iter().copied().max().unwrap_or(0)
    }

    /// Distinct renders in value order (NaN last).
    pub fn renders(&self) -> impl ExactSizeIterator<Item = &str> + Clone {
        (0..self.renders.len() as u32).map(|i| self.renders.get(i))
    }

    /// Distinct renders sorted ascending, as `ValueDict::values` yields
    /// them.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &str> + Clone {
        self.order.iter().map(|&i| self.renders.get(i))
    }

    /// The render of rank `rank` in [`NumericSummary::values`].
    pub fn value(&self, rank: u32) -> &str {
        self.renders.get(self.order[rank as usize])
    }

    /// The present values as `f64`, ascending in `f64::total_cmp` order
    /// (an `i64` converts as `as f64` does), each as often as it occurs.
    pub fn into_sorted_values(self) -> Vec<f64> {
        match self.sorted {
            // Both collect in place: the element types share a layout.
            Sorted::Int(v) => v.into_iter().map(|x| x as f64).collect(),
            Sorted::Float(v) => v.into_iter().map(FloatKey::value).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn float_keys_order_as_total_cmp_and_round_trip() {
        let xs = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            1e300,
            -1e-300,
            1.5,
        ];
        for &a in &xs {
            assert_eq!(FloatKey::of(a).value().to_bits(), a.to_bits());
            for &b in &xs {
                assert_eq!(FloatKey::of(a).cmp(&FloatKey::of(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn nan_payloads_merge_into_one_value_after_the_numbers() {
        let quiet = f64::NAN.to_bits();
        let col = Column::Float(vec![
            Some(f64::from_bits(quiet | 1 << 63)),
            Some(2.5),
            None,
            Some(f64::from_bits(quiet | 7)),
            Some(-1.0),
            Some(f64::NAN),
        ]);
        let s = NumericSummary::of(&col).unwrap();
        assert_eq!(s.renders().collect::<Vec<_>>(), ["-1.0", "2.5", "NaN"]);
        assert_eq!(s.values().collect::<Vec<_>>(), ["-1.0", "2.5", "NaN"]);
        assert_eq!((s.n_distinct(), s.non_null(), s.max_count()), (3, 5, 3));
        let sorted = s.into_sorted_values();
        assert!(sorted[0].is_nan() && sorted[0].is_sign_negative());
        assert_eq!(&sorted[1..3], &[-1.0, 2.5]);
        assert!(sorted[3..].iter().all(|x| x.is_nan() && x.is_sign_positive()));
    }

    #[test]
    fn renders_sort_as_strings_across_signs_and_widths() {
        let col = Column::from_i64(vec![-100, 7, 30, -9, 1_000, -11, 2]);
        let s = NumericSummary::of(&col).unwrap();
        assert_eq!(s.renders().collect::<Vec<_>>(), ["-100", "-11", "-9", "2", "7", "30", "1000"]);
        assert_eq!(s.values().collect::<Vec<_>>(), ["-100", "-11", "-9", "1000", "2", "30", "7"]);
        assert_eq!(s.value(3), "1000");
        assert!(NumericSummary::of(&Column::Bool(vec![Some(true)])).is_none());
        let empty = NumericSummary::of(&Column::Float(vec![None; 3])).unwrap();
        assert_eq!((empty.n_distinct(), empty.non_null(), empty.max_count()), (0, 0, 0));
    }

    proptest! {
        #[test]
        fn sorted_values_match_a_total_cmp_sort(
            xs in prop::collection::vec(
                prop_oneof![Just(None), (0u64..u64::MAX).prop_map(|b| Some(f64::from_bits(b)))],
                0..200,
            )
        ) {
            let mut want: Vec<f64> = xs.iter().flatten().copied().collect();
            want.sort_by(f64::total_cmp);
            let got = NumericSummary::of(&Column::Float(xs)).unwrap().into_sorted_values();
            prop_assert_eq!(
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
