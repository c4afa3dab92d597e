//! Multi-table datasets.
//!
//! Seven of the paper's twenty datasets are multi-table (IMDB: 7 tables,
//! Airline: 19, Financial: 8, Accidents: 3, Yelp: 4). CatDB materializes
//! prepared data by "joining multi-table datasets into a single table"
//! (Section 3.2); this module models the relational schema and performs
//! that consolidation with left joins from a designated fact table.

use catdb_table::{Table, TableError};

/// A foreign-key edge: `fact.fk_column → dim.key_column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relationship {
    pub from_table: String,
    pub from_column: String,
    pub to_table: String,
    pub to_column: String,
}

/// A dataset of several related tables.
#[derive(Debug, Clone)]
pub struct MultiTableDataset {
    pub name: String,
    /// The table holding the target column; joins start here.
    pub fact_table: String,
    pub tables: Vec<(String, Table)>,
    pub relationships: Vec<Relationship>,
}

impl MultiTableDataset {
    /// Single-table convenience constructor.
    pub fn single(name: impl Into<String>, table: Table) -> MultiTableDataset {
        let name = name.into();
        MultiTableDataset {
            fact_table: name.clone(),
            tables: vec![(name.clone(), table)],
            relationships: Vec::new(),
            name,
        }
    }

    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Consolidate into one table: start from the fact table and left-join
    /// every related table (transitively, breadth-first). Dimension columns
    /// are prefixed with the dimension table's name on clashes. The fact
    /// table is copied once; each join consumes the table joined so far.
    pub fn materialize(&self) -> Result<Table, TableError> {
        let mut result = self
            .table(&self.fact_table)
            .ok_or_else(|| {
                TableError::Invalid(format!("fact table '{}' missing", self.fact_table))
            })?
            .clone();
        let mut joined = vec![self.fact_table.clone()];
        // Breadth-first over relationships until no new table can join.
        loop {
            let next = self.relationships.iter().find(|r| {
                joined.contains(&r.from_table)
                    && !joined.contains(&r.to_table)
                    && result.schema().contains(&r.from_column)
            });
            let Some(rel) = next else { break };
            let dim = self
                .table(&rel.to_table)
                .ok_or_else(|| TableError::Invalid(format!("table '{}' missing", rel.to_table)))?;
            result = result.left_join(
                dim,
                &rel.from_column,
                &rel.to_column,
                &format!("{}_", rel.to_table),
            )?;
            joined.push(rel.to_table.clone());
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_table::{Column, Value};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn star_dataset() -> MultiTableDataset {
        let orders = Table::from_columns(vec![
            ("order_id", Column::from_i64(vec![1, 2, 3])),
            ("cust_id", Column::from_i64(vec![10, 20, 10])),
            ("prod_id", Column::from_i64(vec![100, 100, 200])),
            ("label", Column::from_strings(vec!["y", "n", "y"])),
        ])
        .unwrap();
        let customers = Table::from_columns(vec![
            ("id", Column::from_i64(vec![10, 20])),
            ("region", Column::from_strings(vec!["east", "west"])),
        ])
        .unwrap();
        let products = Table::from_columns(vec![
            ("id", Column::from_i64(vec![100, 200])),
            ("price", Column::from_f64(vec![9.99, 5.0])),
        ])
        .unwrap();
        MultiTableDataset {
            name: "shop".into(),
            fact_table: "orders".into(),
            tables: vec![
                ("orders".into(), orders),
                ("customers".into(), customers),
                ("products".into(), products),
            ],
            relationships: vec![
                Relationship {
                    from_table: "orders".into(),
                    from_column: "cust_id".into(),
                    to_table: "customers".into(),
                    to_column: "id".into(),
                },
                Relationship {
                    from_table: "orders".into(),
                    from_column: "prod_id".into(),
                    to_table: "products".into(),
                    to_column: "id".into(),
                },
            ],
        }
    }

    #[test]
    fn materialize_joins_all_dimensions() {
        let ds = star_dataset();
        let flat = ds.materialize().unwrap();
        assert_eq!(flat.n_rows(), 3);
        assert!(flat.schema().contains("region"));
        assert!(flat.schema().contains("price"));
        assert_eq!(flat.value(2, "region").unwrap(), Value::Str("east".into()));
        assert_eq!(flat.value(1, "price").unwrap(), Value::Float(9.99));
    }

    #[test]
    fn missing_fk_rows_survive_left_join() {
        let mut ds = star_dataset();
        // Point one order at a customer that doesn't exist.
        if let Some((_, orders)) = ds.tables.iter_mut().find(|(n, _)| n == "orders") {
            orders.column_mut("cust_id").unwrap().set(0, Value::Int(999)).unwrap();
        }
        let flat = ds.materialize().unwrap();
        assert_eq!(flat.n_rows(), 3);
        assert_eq!(flat.value(0, "region").unwrap(), Value::Null);
    }

    #[test]
    fn single_table_materializes_to_itself() {
        let t = Table::from_columns(vec![("a", Column::from_i64(vec![1]))]).unwrap();
        let ds = MultiTableDataset::single("solo", t.clone());
        assert_eq!(ds.materialize().unwrap(), t);
        assert_eq!(ds.n_tables(), 1);
    }

    #[test]
    fn transitive_joins_follow_chains() {
        // a → b → c chain.
        let a = Table::from_columns(vec![
            ("k", Column::from_i64(vec![1])),
            ("b_id", Column::from_i64(vec![5])),
        ])
        .unwrap();
        let b = Table::from_columns(vec![
            ("id", Column::from_i64(vec![5])),
            ("c_id", Column::from_i64(vec![7])),
        ])
        .unwrap();
        let c = Table::from_columns(vec![
            ("id", Column::from_i64(vec![7])),
            ("deep", Column::from_strings(vec!["found"])),
        ])
        .unwrap();
        let ds = MultiTableDataset {
            name: "chain".into(),
            fact_table: "a".into(),
            tables: vec![("a".into(), a), ("b".into(), b), ("c".into(), c)],
            relationships: vec![
                Relationship {
                    from_table: "a".into(),
                    from_column: "b_id".into(),
                    to_table: "b".into(),
                    to_column: "id".into(),
                },
                Relationship {
                    from_table: "b".into(),
                    from_column: "c_id".into(),
                    to_table: "c".into(),
                    to_column: "id".into(),
                },
            ],
        };
        let flat = ds.materialize().unwrap();
        assert_eq!(flat.value(0, "deep").unwrap(), Value::Str("found".into()));
    }

    /// The per-join left join `materialize` replaced: it copies the table
    /// joined so far, hashes keys as rendered strings and fills each
    /// dimension column cell by cell through `Value`.
    fn oracle_join(
        left: &Table,
        right: &Table,
        left_key: &str,
        right_key: &str,
        right_prefix: &str,
    ) -> Result<Table, TableError> {
        let lk = left.column(left_key)?;
        let rk = right.column(right_key)?;
        if lk.dtype() != rk.dtype() {
            return Err(TableError::InvalidJoinKey(format!(
                "key type mismatch: {} vs {}",
                lk.dtype(),
                rk.dtype()
            )));
        }
        let mut index: HashMap<String, Vec<usize>> = HashMap::new();
        for i in 0..right.n_rows() {
            if !rk.is_null_at(i) {
                index.entry(rk.get(i).render()).or_default().push(i);
            }
        }
        let mut left_rows: Vec<usize> = Vec::new();
        let mut right_rows: Vec<Option<usize>> = Vec::new();
        for i in 0..left.n_rows() {
            let matches = if lk.is_null_at(i) { None } else { index.get(&lk.get(i).render()) };
            match matches {
                Some(rs) => {
                    for &r in rs {
                        left_rows.push(i);
                        right_rows.push(Some(r));
                    }
                }
                None => {
                    left_rows.push(i);
                    right_rows.push(None);
                }
            }
        }
        let mut out = left.take(&left_rows)?;
        for (field, col) in right.iter_columns() {
            if field.name == right_key {
                continue;
            }
            let out_name = if out.schema().contains(&field.name) {
                format!("{right_prefix}{}", field.name)
            } else {
                field.name.clone()
            };
            let mut new_col = Column::with_capacity(col.dtype(), right_rows.len());
            for r in &right_rows {
                match r {
                    Some(r) => new_col.push(col.get(*r))?,
                    None => new_col.push_null(),
                }
            }
            out.add_column(out_name, new_col)?;
        }
        Ok(out)
    }

    fn oracle_materialize(ds: &MultiTableDataset) -> Result<Table, TableError> {
        let mut result = ds.table(&ds.fact_table).expect("fact table").clone();
        let mut joined = vec![ds.fact_table.clone()];
        while let Some(rel) = ds.relationships.iter().find(|r| {
            joined.contains(&r.from_table)
                && !joined.contains(&r.to_table)
                && result.schema().contains(&r.from_column)
        }) {
            let dim = ds.table(&rel.to_table).expect("dimension table");
            let prefix = format!("{}_", rel.to_table);
            result = oracle_join(&result, dim, &rel.from_column, &rel.to_column, &prefix)?;
            joined.push(rel.to_table.clone());
        }
        Ok(result)
    }

    /// Draws small numbers from a fixed list of picks, cycling.
    struct Picks<'a> {
        picks: &'a [usize],
        at: usize,
    }

    impl Picks<'_> {
        fn next(&mut self, n: usize) -> usize {
            let p = self.picks[self.at % self.picks.len()];
            self.at += 1;
            p % n
        }

        /// A key drawn from a domain of six, null one time in eight, or
        /// (when `missing`) sometimes outside the domain.
        fn key(&mut self, missing: bool) -> Option<usize> {
            match self.next(8) {
                0 => None,
                7 if missing => Some(6 + self.next(3)),
                _ => Some(self.next(6)),
            }
        }
    }

    /// A key column of `dtype` 0..4 (int, string, bool, float). The float
    /// domain holds `0.0` and `-0.0`, and `NaN`, which match only by
    /// render.
    fn key_column(dtype: usize, keys: &[Option<usize>]) -> Column {
        const FLOATS: [f64; 6] = [0.0, -0.0, 0.5, 1e300, f64::NAN, 2.25];
        match dtype {
            0 => Column::Int(keys.iter().map(|k| k.map(|k| k as i64 - 2)).collect()),
            1 => Column::Str(keys.iter().map(|k| k.map(|k| format!("k{k}"))).collect()),
            2 => Column::Bool(keys.iter().map(|k| k.map(|k| k % 2 == 0)).collect()),
            _ => Column::Float(keys.iter().map(|k| k.map(|k| FLOATS[k % 6])).collect()),
        }
    }

    /// Payload columns whose names clash with the fact
    /// table's, with each other across dimensions, and with the names the
    /// prefix makes.
    fn payload(picks: &mut Picks<'_>, n_rows: usize, cols: &mut Vec<(String, Column)>) {
        const NAMES: [&str; 6] = ["label", "v", "w", "d0_v", "fk_d2", "id"];
        for name in NAMES {
            if picks.next(3) != 0 || cols.iter().any(|(n, _)| n == name) {
                continue;
            }
            let col = if picks.next(2) == 0 {
                Column::Int((0..n_rows).map(|_| picks.key(false).map(|k| k as i64)).collect())
            } else {
                Column::Str(
                    (0..n_rows).map(|_| picks.key(false).map(|k| format!("s{k}"))).collect(),
                )
            };
            cols.push((name.to_string(), col));
        }
    }

    /// A random star, chain or mix: dimension `d{i}` hangs off the fact
    /// table or an earlier dimension through an `fk_d{i}` column, whose
    /// key type matches the dimension's key 19 times in 20.
    fn random_dataset(picks: &[usize]) -> MultiTableDataset {
        let mut picks = Picks { picks, at: 0 };
        let n_dims = 1 + picks.next(4);
        let parents: Vec<usize> = (0..n_dims).map(|i| picks.next(i + 1)).collect();
        let key_types: Vec<usize> = (0..n_dims).map(|_| picks.next(4)).collect();
        let mut tables = Vec::new();
        let mut relationships = Vec::new();
        for t in 0..=n_dims {
            // Table 0 is the fact table; table t > 0 is dimension d{t-1}.
            let name = if t == 0 { "fact".to_string() } else { format!("d{}", t - 1) };
            let n_rows = picks.next(if t == 0 { 12 } else { 9 });
            let mut cols: Vec<(String, Column)> = Vec::new();
            if t > 0 {
                let keys: Vec<Option<usize>> = (0..n_rows).map(|_| picks.key(false)).collect();
                cols.push(("id".into(), key_column(key_types[t - 1], &keys)));
            }
            for (child, &parent) in parents.iter().enumerate() {
                if parent != t {
                    continue;
                }
                let fk = format!("fk_d{child}");
                let keys: Vec<Option<usize>> = (0..n_rows).map(|_| picks.key(true)).collect();
                let dtype = if picks.next(10) == 0 { picks.next(4) } else { key_types[child] };
                cols.push((fk.clone(), key_column(dtype, &keys)));
                relationships.push(Relationship {
                    from_table: name.clone(),
                    from_column: fk,
                    to_table: format!("d{child}"),
                    to_column: "id".into(),
                });
            }
            payload(&mut picks, n_rows, &mut cols);
            tables.push((name, Table::from_columns(cols).unwrap()));
        }
        MultiTableDataset {
            name: "random".into(),
            fact_table: "fact".into(),
            tables,
            relationships,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn materialize_matches_the_per_join_oracle(
            picks in prop::collection::vec(0usize..10_000, 1..400),
        ) {
            let ds = random_dataset(&picks);
            let got = format!("{:?}", ds.materialize());
            let want = format!("{:?}", oracle_materialize(&ds));
            prop_assert_eq!(got, want);
        }
    }
}
