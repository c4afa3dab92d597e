//! The data catalog: dataset-level metadata plus per-column profiles,
//! persistable as JSON (the paper stores profiling output in an offline
//! catalog keyed by dataset).

use catdb_ml::TaskKind;
use catdb_profiler::{ColumnProfile, DataProfile};
use serde::{Deserialize, Serialize};

/// One catalogued dataset: identity, task, target, and profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CatalogEntry {
    pub dataset_name: String,
    pub target: String,
    /// Task label (`TaskKind::label()`), kept as a string for stable JSON.
    pub task: String,
    pub profile: DataProfile,
    /// Source file metadata encoded into prompts (Figure 3's CSV reader).
    pub format: String,
    pub delimiter: String,
    /// Optional free-text user description (Table 1's optional item).
    pub user_description: Option<String>,
}

impl CatalogEntry {
    pub fn new(
        dataset_name: impl Into<String>,
        target: impl Into<String>,
        task: TaskKind,
        profile: DataProfile,
    ) -> CatalogEntry {
        CatalogEntry {
            dataset_name: dataset_name.into(),
            target: target.into(),
            task: task.label().to_string(),
            profile,
            format: "csv".into(),
            delimiter: ",".into(),
            user_description: None,
        }
    }

    pub fn task_kind(&self) -> TaskKind {
        TaskKind::parse(&self.task).unwrap_or(TaskKind::BinaryClassification)
    }

    pub fn column(&self, name: &str) -> Option<&ColumnProfile> {
        self.profile.column(name)
    }

    /// Feature columns (everything except the target), in profile order.
    pub fn feature_columns(&self) -> impl Iterator<Item = &ColumnProfile> {
        self.profile.columns.iter().filter(move |c| c.name != self.target)
    }
}

/// A collection of catalog entries with JSON persistence.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DataCatalog {
    entries: Vec<CatalogEntry>,
}

impl DataCatalog {
    pub fn new() -> DataCatalog {
        DataCatalog::default()
    }

    /// Insert or replace an entry (keyed by dataset name).
    pub fn upsert(&mut self, entry: CatalogEntry) {
        if let Some(existing) =
            self.entries.iter_mut().find(|e| e.dataset_name == entry.dataset_name)
        {
            *existing = entry;
        } else {
            self.entries.push(entry);
        }
    }

    pub fn get(&self, dataset: &str) -> Option<&CatalogEntry> {
        self.entries.iter().find(|e| e.dataset_name == dataset)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn datasets(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.dataset_name.as_str())
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("catalog serializes")
    }

    pub fn from_json(json: &str) -> Result<DataCatalog, serde_json::Error> {
        let mut catalog: DataCatalog = serde_json::from_str(json)?;
        // Schema indexes are skipped during (de)serialization elsewhere;
        // nothing to rebuild here, but keep the hook for future fields.
        catalog.entries.shrink_to_fit();
        Ok(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_profiler::{profile_table, ProfileOptions};
    use catdb_table::{Column, Table};

    fn sample_entry() -> CatalogEntry {
        let t = Table::from_columns(vec![
            ("x", Column::from_f64(vec![1.0, 2.0, 3.0])),
            ("y", Column::from_strings(vec!["a", "b", "a"])),
        ])
        .unwrap();
        let profile = profile_table("toy", &t, &ProfileOptions::default());
        CatalogEntry::new("toy", "y", TaskKind::BinaryClassification, profile)
    }

    #[test]
    fn upsert_replaces_by_name() {
        let mut catalog = DataCatalog::new();
        catalog.upsert(sample_entry());
        catalog.upsert(sample_entry());
        assert_eq!(catalog.len(), 1);
        assert!(catalog.get("toy").is_some());
        assert!(catalog.get("other").is_none());
    }

    #[test]
    fn json_round_trip() {
        let mut catalog = DataCatalog::new();
        catalog.upsert(sample_entry());
        let json = catalog.to_json();
        let back = DataCatalog::from_json(&json).unwrap();
        assert_eq!(back.len(), 1);
        let entry = back.get("toy").unwrap();
        assert_eq!(entry.target, "y");
        assert_eq!(entry.task_kind(), TaskKind::BinaryClassification);
        assert_eq!(entry.profile.columns.len(), 2);
    }

    #[test]
    fn feature_columns_exclude_target() {
        let entry = sample_entry();
        let names: Vec<&str> = entry.feature_columns().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["x"]);
    }
}
