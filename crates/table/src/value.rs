//! Scalar values and physical data types.
//!
//! The engine distinguishes *physical* data types (how a value is stored:
//! integer, float, string, boolean) from *feature* types (how an ML pipeline
//! should treat a column: categorical, numerical, sentence, list, ...). The
//! latter live in the data catalog (see `catdb-catalog`); this module only
//! covers physical storage.

use crate::shortest::write_float;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Physical data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    Int,
    Float,
    Str,
    Bool,
}

impl DataType {
    /// Human-readable name, used in schemas, prompts, and error messages.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "string",
            DataType::Bool => "bool",
        }
    }

    /// Whether values of this type are orderable numbers.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single scalar cell value. `Null` is the universal missing marker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Physical type of this value, or `None` for nulls (which fit any type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Numeric view of the value: ints and floats convert, bools map to 0/1,
    /// parseable numeric strings convert, everything else is `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(s) => s.trim().parse::<f64>().ok(),
            Value::Null => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render the value the way it would appear in a CSV cell.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(v) => v.to_string(),
            Value::Float(v) => format_float(*v),
            Value::Str(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
        }
    }

    /// Total ordering used for sorting and distinct counting: nulls first,
    /// then by type tag, then by value; float NaNs sort last among floats.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 3,
                Value::Str(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

/// Float text that round-trips: shortest digits, `.0` on integral values.
fn format_float(v: f64) -> String {
    let mut s = String::new();
    write_float(&mut s, v).expect("String formatting never fails");
    s
}

impl fmt::Display for Value {
    /// Identical text to [`Value::render`], but written directly to the
    /// formatter — no intermediate `String` per cell.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write_float(f, *v),
            Value::Str(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_type_tags() {
        assert_eq!(Value::Int(3).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn numeric_coercion() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Str(" 2.5 ".into()).as_f64(), Some(2.5));
        assert_eq!(Value::Str("abc".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn rendering_round_trips_ints_and_floats() {
        assert_eq!(Value::Int(-7).render(), "-7");
        assert_eq!(Value::Float(2.0).render(), "2.0");
        assert_eq!(Value::Float(2.5).render(), "2.5");
        assert_eq!(Value::Null.render(), "");
    }

    #[test]
    fn display_matches_render_for_every_shape() {
        let vals = [
            Value::Null,
            Value::Int(-7),
            Value::Bool(true),
            Value::Str("free text".into()),
            Value::Float(2.0),
            Value::Float(2.5),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(1e18),
            Value::Float(1.0000000000000002),
        ];
        for v in vals {
            assert_eq!(v.to_string(), v.render(), "Display/render diverged for {v:?}");
        }
    }

    /// The float writer before the shortest-digits writer replaced it:
    /// core's `Display`, with `.0` on integral values.
    fn oracle_write_float(v: f64) -> String {
        if v.is_nan() {
            "NaN".to_string()
        } else if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.1}")
        } else if v.is_finite() && v == v.trunc() {
            format!("{v}.0")
        } else {
            format!("{v}")
        }
    }

    fn assert_matches_oracle(v: f64) {
        let got = Value::Float(v).render();
        assert_eq!(got, oracle_write_float(v), "bits {:#018x}", v.to_bits());
        assert_eq!(Value::Float(v).to_string(), got);
    }

    #[test]
    fn float_writer_matches_core_on_random_bit_patterns() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_f10a7);
        for _ in 0..1_000_000 {
            assert_matches_oracle(f64::from_bits(rng.gen::<u64>()));
        }
    }

    #[test]
    fn float_writer_matches_core_on_edge_classes() {
        let next_up = |v: f64| f64::from_bits(v.to_bits() + 1);
        let next_down = |v: f64| f64::from_bits(v.to_bits() - 1);
        let mut edges = vec![
            0.0,
            f64::MIN_POSITIVE,
            next_down(f64::MIN_POSITIVE),
            next_up(f64::MIN_POSITIVE),
            f64::MAX,
            next_down(f64::MAX),
            f64::EPSILON,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(f64::NAN.to_bits() ^ 1),
            1e15,
            1e16,
            1e21,
            1e22,
            1e23,
            5e-324,
            0.1 + 0.2,
            1.0000000000000002,
        ];
        // Subnormals: the smallest ones, powers of two, and the largest.
        for bits in (1..64).chain((0..52).map(|k| 1u64 << k)).chain([(1u64 << 52) - 1]) {
            edges.push(f64::from_bits(bits));
        }
        // 2^k and 10^k, each with its neighbours one ulp away.
        for k in -1074i64..=1023 {
            let bits = if k < -1022 { 1u64 << (k + 1074) } else { ((k + 1023) as u64) << 52 };
            let p = f64::from_bits(bits);
            edges.extend([p, next_up(p), next_down(p)]);
        }
        for k in -323..=308 {
            let p: f64 = format!("1e{k}").parse().unwrap();
            edges.extend([p, next_up(p), next_down(p)]);
        }
        // Integers around the integral-branch boundary and where
        // integral doubles stop being consecutive.
        for centre in [1e15, 2f64.powi(53), 1e16, 1e21] {
            let mut lo = centre;
            let mut hi = centre;
            for _ in 0..64 {
                edges.extend([lo, hi]);
                lo = next_down(lo);
                hi = next_up(hi);
            }
            for d in -64i64..=64 {
                edges.push(centre + d as f64);
            }
        }
        // Exact dyadic fractions where the shortest digits cut an exact
        // ...5 tie: core rounds those up, not to even.
        edges.push(f64::from_bits(0x42e7_a6d3_3538_c974)); // 208042203924043.625
        for base in [1e13, 2f64.powi(47), 2f64.powi(49), 1e15 - 7.0] {
            for j in 0..64 {
                edges.push(base + j as f64 / 64.0);
            }
        }
        for v in edges {
            assert_matches_oracle(v);
            assert_matches_oracle(-v);
        }
    }

    #[test]
    fn float_writer_matches_core_on_short_decimal_strings() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc5f);
        for _ in 0..200_000 {
            // CSV-like cells: a few integer digits, a few fraction
            // digits, sometimes an exponent.
            let int = rng.gen_range(0u64..1_000_000);
            let frac_digits = rng.gen_range(0usize..8);
            let frac = rng.gen_range(0u64..10u64.pow(frac_digits as u32).max(1));
            let mut text = format!("{int}.{frac:0frac_digits$}");
            if rng.gen_range(0u32..4) == 0 {
                text.push_str(&format!("e{}", rng.gen_range(-30i32..30)));
            }
            let v: f64 = text.parse().unwrap();
            assert_matches_oracle(v);
            assert_matches_oracle(-v);
        }
    }

    #[test]
    fn total_ordering_is_consistent() {
        let mut vals = [
            Value::Str("b".into()),
            Value::Null,
            Value::Int(2),
            Value::Float(1.5),
            Value::Bool(false),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(false));
        // numeric cross-type comparison: 1.5 < 2
        assert_eq!(Value::Float(1.5).total_cmp(&Value::Int(2)), Ordering::Less);
    }
}
