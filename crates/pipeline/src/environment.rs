//! Simulated execution environment: the "basic, pre-installed environment"
//! the paper runs pipelines in, plus the package index the CatDB knowledge
//! base installs from when a pipeline hits a missing-package error.

use crate::ast::{EncodeSpec, ModelAlgo, OutlierSpec, Step};
use crate::errors::{ErrorKind, PipelineError};
use std::collections::{HashMap, HashSet};

/// Packages pre-installed in every pipeline environment (the "basic,
/// pre-installed environment" — the sklearn-equivalent toolbox).
pub const PREINSTALLED: &[&str] =
    &["tabular", "preprocessing", "models", "text_features", "outlier_tools"];

/// Packages the (simulated) index can install on demand (the xgboost /
/// tabpfn / imblearn equivalents the KB installs when pipelines need
/// them).
pub const INSTALLABLE: &[&str] = &["boosting", "tabpfn", "imbalanced"];

/// A mutable package environment. Each generation session gets a fresh one;
/// the knowledge base mutates it when it repairs KB-class errors.
#[derive(Debug, Clone)]
pub struct Environment {
    installed: HashMap<String, String>, // name → version
    index: HashMap<String, String>,     // name → latest version
}

impl Default for Environment {
    fn default() -> Self {
        let mut installed = HashMap::new();
        for p in PREINSTALLED {
            installed.insert(p.to_string(), "1.2.0".to_string());
        }
        let mut index = HashMap::new();
        for p in PREINSTALLED.iter().chain(INSTALLABLE) {
            index.insert(p.to_string(), "1.2.0".to_string());
        }
        Environment { installed, index }
    }
}

impl Environment {
    pub fn is_installed(&self, package: &str) -> bool {
        self.installed.contains_key(package)
    }

    /// Install a package from the index; `Err` when the package does not
    /// exist (a hallucinated dependency the KB cannot fix locally).
    pub fn install(&mut self, package: &str) -> Result<(), PipelineError> {
        match self.index.get(package) {
            Some(version) => {
                self.installed.insert(package.to_string(), version.clone());
                Ok(())
            }
            None => Err(PipelineError::new(
                ErrorKind::MissingPackage,
                format!("package '{package}' not found in index"),
            )),
        }
    }

    /// Reinstall at the index version (resolves version-pin mismatches).
    pub fn reinstall_latest(&mut self, package: &str) -> Result<(), PipelineError> {
        self.install(package)
    }

    /// Resolve a `require "pkg"` or `require "pkg==version"` declaration.
    pub fn resolve_requirement(&self, requirement: &str) -> Result<(), PipelineError> {
        let (name, pinned) = match requirement.split_once("==") {
            Some((n, v)) => (n, Some(v)),
            None => (requirement, None),
        };
        match self.installed.get(name) {
            None => Err(PipelineError::new(
                ErrorKind::MissingPackage,
                format!("No module named '{name}'"),
            )),
            Some(version) => match pinned {
                Some(pin) if pin != version => Err(PipelineError::new(
                    ErrorKind::PackageVersionMismatch,
                    format!("package '{name}' {version} installed but {pin} required"),
                )),
                _ => Ok(()),
            },
        }
    }
}

/// The package a step "imports". `None` needs nothing beyond the language.
pub fn step_package(step: &Step) -> Option<&'static str> {
    match step {
        Step::Require { .. } => None,
        Step::Impute { .. }
        | Step::Scale { .. }
        | Step::Drop { .. }
        | Step::DropHighMissing { .. }
        | Step::DropConstant
        | Step::Dedup { .. }
        | Step::DropNullRows
        | Step::SelectTopK { .. } => Some("preprocessing"),
        Step::Encode { method, .. } => match method {
            EncodeSpec::KHot { .. } | EncodeSpec::Hash { .. } => Some("text_features"),
            _ => Some("preprocessing"),
        },
        Step::Outliers { method, .. } => match method {
            OutlierSpec::Lof { .. } => Some("outlier_tools"),
            _ => Some("preprocessing"),
        },
        Step::Augment { .. } | Step::Rebalance { .. } => Some("imbalanced"),
        Step::Model(spec) => match spec.algo {
            ModelAlgo::GradientBoosting => Some("boosting"),
            ModelAlgo::TabPfn => Some("tabpfn"),
            _ => Some("models"),
        },
    }
}

/// All optional (non-preinstalled) packages a program needs, in order.
pub fn required_packages(steps: &[Step]) -> Vec<&'static str> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for step in steps {
        if let Some(pkg) = step_package(step) {
            if !PREINSTALLED.contains(&pkg) && seen.insert(pkg) {
                out.push(pkg);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ColumnRef, ModelFamily, ModelSpec};

    #[test]
    fn preinstalled_resolve_and_missing_fail() {
        let env = Environment::default();
        assert!(env.resolve_requirement("models").is_ok());
        let err = env.resolve_requirement("tabpfn").unwrap_err();
        assert_eq!(err.kind, ErrorKind::MissingPackage);
    }

    #[test]
    fn install_from_index_fixes_missing() {
        let mut env = Environment::default();
        env.install("tabpfn").unwrap();
        assert!(env.resolve_requirement("tabpfn").is_ok());
        assert!(env.install("hallucinated_pkg").is_err());
    }

    #[test]
    fn version_pin_mismatch_detected_and_fixed_by_reinstall() {
        let mut env = Environment::default();
        let err = env.resolve_requirement("models==0.9.0").unwrap_err();
        assert_eq!(err.kind, ErrorKind::PackageVersionMismatch);
        env.reinstall_latest("models").unwrap();
        assert!(env.resolve_requirement("models==1.2.0").is_ok());
    }

    #[test]
    fn step_package_mapping() {
        let model = Step::Model(ModelSpec {
            family: ModelFamily::Classifier,
            algo: ModelAlgo::TabPfn,
            target: "y".into(),
            params: vec![],
        });
        assert_eq!(step_package(&model), Some("tabpfn"));
        let khot = Step::Encode {
            column: ColumnRef::All,
            method: EncodeSpec::KHot { separator: ",".into() },
        };
        assert_eq!(step_package(&khot), Some("text_features"));
        assert_eq!(required_packages(&[model, khot]), vec!["tabpfn"]);
    }
}
