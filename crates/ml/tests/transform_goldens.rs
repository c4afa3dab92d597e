//! Golden outputs for every transform configuration the pipeline DSL can
//! reach. Each case fits one transform on a fixed train table, applies it
//! to train (and to test unless it is train-only), and pins an FNV-1a hash
//! of both tables rendered as CSV. The hashes were captured before the
//! transforms moved to in-place application; any change to a transform's
//! arithmetic, row set or column order moves them.

use catdb_ml::{
    AugmentMethod, Augmenter, ColumnDropper, ConstantColumnDropper, Deduplicator, FeatureHasher,
    HighMissingDropper, ImputeStrategy, Imputer, KHotEncoder, NullRowDropper, OneHotEncoder,
    OrdinalEncoder, OutlierMethod, OutlierRemover, ScaleMethod, Scaler, TopKSelector, Transform,
};
use catdb_table::{to_csv_string, Column, Table, Value};

/// Deterministic LCG stream in [0, 1).
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    }
}

/// A mixed table: floats with nulls and one far outlier, ints with nulls,
/// a messy categorical, a list feature, a constant and an imbalanced
/// string label. `dups` appends exact and near duplicates of early rows.
fn table(n: usize, seed: u64, unseen: bool, dups: bool) -> Table {
    let mut next = lcg(seed);
    let cats = ["red", "blue", "green", "Red "];
    let items = ["py", "java", "c++", "go", "sql"];
    let mut num = Vec::new();
    let mut cnt = Vec::new();
    let mut cat = Vec::new();
    let mut skills = Vec::new();
    let mut konst = Vec::new();
    let mut label = Vec::new();
    for i in 0..n {
        let x = next() * 40.0 - 10.0;
        num.push(if i % 7 == 3 {
            None
        } else if i == 5 {
            Some(250.0)
        } else {
            Some(x)
        });
        cnt.push(if i % 5 == 1 { None } else { Some((next() * 30.0) as i64) });
        let c = if unseen && i % 4 == 0 { "purple" } else { cats[(next() * 4.0) as usize] };
        cat.push(if i % 9 == 2 { None } else { Some(c.to_string()) });
        let a = items[(next() * 5.0) as usize];
        let b = if unseen && i % 3 == 0 { "rust" } else { items[(next() * 5.0) as usize] };
        skills.push(Some(if i % 2 == 0 { format!("{a}, {b}") } else { a.to_string() }));
        konst.push(Some(7i64));
        label.push(Some(if x > 18.0 { "b" } else { "a" }.to_string()));
    }
    if dups {
        for i in 0..4 {
            num.push(num[i]);
            cnt.push(cnt[i]);
            // Row 0's copy differs only in case and padding.
            cat.push(if i == 0 {
                cat[i].as_ref().map(|c| format!(" {} ", c.to_uppercase()))
            } else {
                cat[i].clone()
            });
            skills.push(skills[i].clone());
            konst.push(konst[i]);
            label.push(label[i].clone());
        }
    }
    Table::from_columns(vec![
        ("num", Column::Float(num)),
        ("cnt", Column::Int(cnt)),
        ("cat", Column::Str(cat)),
        ("skills", Column::Str(skills)),
        ("konst", Column::Int(konst)),
        ("label", Column::Str(label)),
    ])
    .unwrap()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fit on train, apply to train and (unless train-only) test; hash both.
fn run(t: &mut dyn Transform, train: &Table, test: &Table) -> u64 {
    t.fit(train).unwrap();
    let (mut tr, mut te) = (train.clone(), test.clone());
    t.apply(&mut tr).unwrap();
    if !t.train_only() {
        t.apply(&mut te).unwrap();
    }
    fnv1a(format!("{}\n--\n{}", to_csv_string(&tr), to_csv_string(&te)).as_bytes())
}

fn cases() -> Vec<(&'static str, Box<dyn Transform>)> {
    vec![
        ("onehot", Box::new(OneHotEncoder::new("cat"))),
        ("ordinal", Box::new(OrdinalEncoder::new("cat"))),
        ("khot", Box::new(KHotEncoder::new("skills", ","))),
        ("hash", Box::new(FeatureHasher::new("cat", 4))),
        ("scale_standard", Box::new(Scaler::new("num", ScaleMethod::Standard))),
        ("scale_minmax", Box::new(Scaler::new("num", ScaleMethod::MinMax))),
        ("scale_decimal", Box::new(Scaler::new("num", ScaleMethod::Decimal))),
        ("impute_mean", Box::new(Imputer::new("num", ImputeStrategy::Mean))),
        ("impute_median", Box::new(Imputer::new("cnt", ImputeStrategy::Median))),
        ("impute_most_frequent", Box::new(Imputer::new("cat", ImputeStrategy::MostFrequent))),
        (
            "impute_constant_num",
            Box::new(Imputer::new("num", ImputeStrategy::Constant(Value::Float(-1.5)))),
        ),
        (
            "impute_constant_str",
            Box::new(Imputer::new("cat", ImputeStrategy::Constant(Value::Str("zz".into())))),
        ),
        ("outliers_iqr", Box::new(OutlierRemover::new(vec![], OutlierMethod::Iqr(1.5)))),
        ("outliers_zscore", Box::new(OutlierRemover::new(vec![], OutlierMethod::ZScore(1.5)))),
        (
            "outliers_lof",
            Box::new(OutlierRemover::new(vec![], OutlierMethod::Lof { k: 5, factor: 1.5 })),
        ),
        ("dedup_exact", Box::new(Deduplicator { approximate: false })),
        ("dedup_approximate", Box::new(Deduplicator { approximate: true })),
        ("drop_null_rows", Box::new(NullRowDropper)),
        ("drop_column", Box::new(ColumnDropper { column: "skills".into() })),
        ("drop_high_missing", Box::new(HighMissingDropper::new(0.15))),
        ("drop_constant", Box::new(ConstantColumnDropper::default())),
        ("select_top_k", Box::new(TopKSelector::new("label", 3))),
        ("augment_smote", Box::new(Augmenter::new("label", AugmentMethod::Smote))),
        ("augment_adasyn", Box::new(Augmenter::new("label", AugmentMethod::Adasyn))),
    ]
}

const GOLDEN: &[(&str, u64)] = &[
    ("onehot", 0x921c3152f71be601),
    ("ordinal", 0xee7f03932b6e8cc9),
    ("khot", 0xb861c8e2d0c28943),
    ("hash", 0xc9dcff36f7a36a7c),
    ("scale_standard", 0x0a3c3ac348f49824),
    ("scale_minmax", 0x482e2f1b6023df4b),
    ("scale_decimal", 0x7d274f52f3f2eff9),
    ("impute_mean", 0x67518c4fd0db8e58),
    ("impute_median", 0x04b591767370bf7a),
    ("impute_most_frequent", 0x82aa01819423e996),
    ("impute_constant_num", 0xfd1b463d1ed8ddad),
    ("impute_constant_str", 0x66466bae811d51c6),
    ("outliers_iqr", 0x69c870f86c5fd8fe),
    ("outliers_zscore", 0x15b0a2aa7c29f373),
    ("outliers_lof", 0x92dbd0a72fd1a3bc),
    ("dedup_exact", 0x946dfbc782570d41),
    ("dedup_approximate", 0x7f107b128026d58d),
    ("drop_null_rows", 0x44febbb5424b8f93),
    ("drop_column", 0x50a4a6b8dad393c0),
    ("drop_high_missing", 0x798fcad8a23398b1),
    ("drop_constant", 0x73a91af953502852),
    ("select_top_k", 0xcaaa94e6056fad1f),
    ("augment_smote", 0x3faa1f548b039284),
    ("augment_adasyn", 0xfee01507c81c38f2),
];

#[test]
fn every_transform_matches_its_golden() {
    let train = table(60, 0x9E37_79B9_7F4A_7C15, false, true);
    let test = table(20, 0x2545_F491_4F6C_DD1D, true, false);
    let mut got = Vec::new();
    for (name, mut t) in cases() {
        got.push((name, run(t.as_mut(), &train, &test)));
    }
    let listing: String = got.iter().map(|(n, h)| format!("    (\"{n}\", {h:#018x}),\n")).collect();
    let want: Vec<(&str, u64)> = GOLDEN.to_vec();
    assert_eq!(got, want, "transform outputs drifted; now:\n{listing}");
}
