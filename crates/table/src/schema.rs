//! Table schemas: ordered, named, typed fields with O(1) name lookup.

use crate::error::{Result, TableError};
use crate::value::DataType;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A named, typed column descriptor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    pub name: String,
    pub dtype: DataType,
}

impl Field {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Field {
        Field { name: name.into(), dtype }
    }
}

/// An ordered collection of fields. Field names are unique.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<Field>,
    #[serde(skip)]
    index: HashMap<String, usize>,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.fields == other.fields
    }
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Result<Schema> {
        let mut index = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if index.insert(f.name.clone(), i).is_some() {
                return Err(TableError::DuplicateColumn(f.name.clone()));
            }
        }
        Ok(Schema { fields, index })
    }

    /// Rebuild the name index (needed after deserialization, which skips it).
    pub fn rebuild_index(&mut self) {
        self.index = self.fields.iter().enumerate().map(|(i, f)| (f.name.clone(), i)).collect();
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Position of the field named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// All field names, in schema order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Change the dtype of the field at `idx`; its name and position stay.
    pub(crate) fn set_dtype(&mut self, idx: usize, dtype: DataType) {
        self.fields[idx].dtype = dtype;
    }

    /// Append a field; errors on a duplicate name.
    pub fn push(&mut self, field: Field) -> Result<()> {
        if self.index.contains_key(&field.name) {
            return Err(TableError::DuplicateColumn(field.name));
        }
        self.index.insert(field.name.clone(), self.fields.len());
        self.fields.push(field);
        Ok(())
    }

    /// Remove the field named `name`; errors if absent. Later fields move
    /// up one position; the other names are not re-hashed.
    pub fn remove(&mut self, name: &str) -> Result<Field> {
        let idx =
            self.index.remove(name).ok_or_else(|| TableError::ColumnNotFound(name.to_string()))?;
        for pos in self.index.values_mut() {
            if *pos > idx {
                *pos -= 1;
            }
        }
        Ok(self.fields.remove(idx))
    }

    /// Rename a field in place; errors if the old name is absent or the new
    /// name already exists.
    pub fn rename(&mut self, old: &str, new: impl Into<String>) -> Result<()> {
        let new = new.into();
        if self.contains(&new) {
            return Err(TableError::DuplicateColumn(new));
        }
        let idx = self.index_of(old).ok_or_else(|| TableError::ColumnNotFound(old.to_string()))?;
        self.fields[idx].name = new;
        self.rebuild_index();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
            Field::new("c", DataType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_and_order() {
        let s = abc();
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.names(), vec!["a", "b", "c"]);
        assert!(s.contains("c"));
        assert!(!s.contains("z"));
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::new(vec![Field::new("a", DataType::Int), Field::new("a", DataType::Str)]);
        assert!(matches!(r, Err(TableError::DuplicateColumn(_))));
        let mut s = abc();
        assert!(s.push(Field::new("a", DataType::Bool)).is_err());
    }

    #[test]
    fn remove_and_rename_keep_index_consistent() {
        let mut s = abc();
        s.remove("a").unwrap();
        assert_eq!(s.index_of("b"), Some(0));
        assert_eq!(s.index_of("c"), Some(1));
        assert!(!s.contains("a"));
        s.rename("c", "z").unwrap();
        assert!(s.contains("z"));
        assert!(!s.contains("c"));
        assert!(s.rename("z", "b").is_err());
        assert!(s.rename("missing", "q").is_err());
    }

    #[test]
    fn replacing_a_column_with_a_new_dtype_keeps_order_and_lookup() {
        let mut t = crate::Table::from_columns(vec![
            ("a", crate::Column::from_i64(vec![1, 2])),
            ("b", crate::Column::from_strings(vec!["x", "y"])),
            ("c", crate::Column::from_f64(vec![0.5, 1.5])),
        ])
        .unwrap();
        t.replace_column("b", crate::Column::from_f64(vec![3.0, 4.0])).unwrap();
        let s = t.schema();
        assert_eq!(s.names(), vec!["a", "b", "c"]);
        assert_eq!(s.field(1), &Field::new("b", DataType::Float));
        assert_eq!(
            (s.index_of("a"), s.index_of("b"), s.index_of("c")),
            (Some(0), Some(1), Some(2))
        );
        assert_eq!(t.column("b").unwrap().dtype(), DataType::Float);
    }
}
