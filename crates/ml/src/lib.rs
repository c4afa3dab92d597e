//! # catdb-ml — from-scratch machine learning substrate
//!
//! Re-implements the modelling and preprocessing surface the CatDB paper's
//! generated pipelines use (scikit-learn in the original system):
//!
//! * **Estimators** — logistic regression, ridge regression, CART decision
//!   trees, random forests, gradient boosting, k-NN, Gaussian naive Bayes,
//!   and a TabPFN surrogate with the real TabPFN's hard input limits.
//! * **Transforms** — imputation, scaling, one-hot / ordinal / k-hot /
//!   hashed encodings, outlier removal (IQR, z-score, LOF), deduplication,
//!   SMOTE/ADASYN/SMOGN augmentation, top-k feature selection.
//! * **Metrics** — accuracy, macro-F1, binary & macro-OVR AUC, R², RMSE,
//!   log loss.
//!
//! Estimators fail loudly on NaNs and string features, which is the
//! substrate CatDB's error-management loop is built on.

pub mod augment;
pub mod boosting;
mod dist;
pub mod encode;
pub mod estimator;
pub mod featurize;
pub mod forest;
pub mod impute;
pub mod knn;
pub mod linear;
pub mod matrix;
pub mod metrics;
pub mod naive_bayes;
pub mod rows;
pub mod scale;
pub mod select;
pub mod tabpfn;
pub mod transform;
mod tree;

pub use augment::{AugmentMethod, Augmenter};
pub use boosting::{BoostConfig, GradientBoostingClassifier, GradientBoostingRegressor};
pub use encode::{FeatureHasher, KHotEncoder, OneHotEncoder, OrdinalEncoder};
pub use estimator::{argmax, Classifier, ClassifierModel, MlError, Regressor, RegressorModel};
pub use featurize::{featurize, regression_target, LabelEncoder, TaskKind};
pub use forest::{ForestConfig, RandomForestClassifier, RandomForestRegressor};
pub use impute::{ImputeStrategy, Imputer};
pub use knn::{KnnClassifier, KnnConfig, KnnRegressor};
pub use linear::{LogisticRegression, RidgeRegression};
pub use matrix::{ColMajor, Matrix};
pub use naive_bayes::GaussianNb;
pub use rows::{
    ColumnDropper, ConstantColumnDropper, Deduplicator, HighMissingDropper, NullRowDropper,
    OutlierMethod, OutlierRemover,
};
pub use scale::{ScaleMethod, Scaler};
pub use select::TopKSelector;
pub use tabpfn::{TabPfnSurrogate, TABPFN_MAX_CLASSES, TABPFN_MAX_FEATURES, TABPFN_MAX_SAMPLES};
pub use transform::{Transform, TransformError};
pub use tree::{
    DecisionTreeClassifier, DecisionTreeRegressor, TreeConfig, COUNTER_SPLIT_CANDIDATES,
    COUNTER_SPLIT_EXACT, SPAN_TREE_FIT,
};
