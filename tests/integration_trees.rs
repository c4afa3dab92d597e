//! Golden tests for exact tree training.
//!
//! Trees, forests and boosting must reproduce the seed predictions bit
//! for bit, at any thread count: the FNV hashes below were each captured
//! before a rewrite of the split search (presort, pruned regression scan,
//! rank-coded forests), and no later change may move them.

use catdb_ml::{
    BoostConfig, Classifier, DecisionTreeClassifier, DecisionTreeRegressor, ForestConfig,
    GradientBoostingClassifier, GradientBoostingRegressor, KnnClassifier, KnnConfig, Matrix,
    RandomForestClassifier, RandomForestRegressor, Regressor, TreeConfig,
};

/// Deterministic synthetic dataset shared by the golden tests: the same
/// LCG stream the hashes were captured from.
fn lcg_data(n: usize, d: usize) -> (Matrix, Vec<usize>, Vec<f64>) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    };
    let rows: Vec<Vec<f64>> =
        (0..n).map(|_| (0..d).map(|_| next() * 8.0 - 4.0).collect()).collect();
    let y_class: Vec<usize> =
        rows.iter().map(|r| ((r[0] + r[1] * 0.5 - r[2]).sin() > 0.1) as usize).collect();
    let y_reg: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 + (r[1] * r[2]).cos()).collect();
    (Matrix::from_rows(&rows), y_class, y_reg)
}

/// FNV-1a over the f64 bit patterns of a prediction stream.
fn hash_f64s(vals: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in vals {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

// Golden prediction hashes captured on the seed ML code.
const GOLDEN_FOREST_CLASS: u64 = 0x326d0d318f88d957;
const GOLDEN_FOREST_REG: u64 = 0x212e3b082d131c04;
const GOLDEN_BOOST_CLASS: u64 = 0xe7e5e2ad7c6a85d4;
const GOLDEN_TREE_CLASS: u64 = 0xd8a6d159c35d8df8;
const GOLDEN_KNN_CLASS: u64 = 0x22cf7cbb5562efac;

#[test]
fn exact_mode_is_bit_identical_to_seed_goldens_at_any_thread_count() {
    let (x, yc, yr) = lcg_data(400, 10);
    for threads in [1usize, 2, 8] {
        let cfg = ForestConfig { n_trees: 12, seed: 99, n_threads: threads, ..Default::default() };
        let m = RandomForestClassifier { config: cfg }.fit(&x, &yc, 2).unwrap();
        let h = hash_f64s(m.predict_proba(&x).unwrap().into_iter().flatten());
        assert_eq!(h, GOLDEN_FOREST_CLASS, "forest classifier drifted at n_threads={threads}");

        let cfg = ForestConfig { n_trees: 12, seed: 99, n_threads: threads, ..Default::default() };
        let m = RandomForestRegressor { config: cfg }.fit(&x, &yr).unwrap();
        let h = hash_f64s(m.predict(&x).unwrap());
        assert_eq!(h, GOLDEN_FOREST_REG, "forest regressor drifted at n_threads={threads}");
    }

    let m = GradientBoostingClassifier {
        config: BoostConfig { n_rounds: 15, seed: 11, ..Default::default() },
    }
    .fit(&x, &yc, 2)
    .unwrap();
    let h = hash_f64s(m.predict_proba(&x).unwrap().into_iter().flatten());
    assert_eq!(h, GOLDEN_BOOST_CLASS, "gradient boosting drifted");

    let m = DecisionTreeClassifier { config: TreeConfig { max_depth: 8, ..Default::default() } }
        .fit(&x, &yc, 2)
        .unwrap();
    let h = hash_f64s(m.predict_proba(&x).unwrap().into_iter().flatten());
    assert_eq!(h, GOLDEN_TREE_CLASS, "decision tree drifted");

    let m = KnnClassifier { config: KnnConfig { k: 5 } }.fit(&x, &yc, 2).unwrap();
    let h = hash_f64s(m.predict_proba(&x).unwrap().into_iter().flatten());
    assert_eq!(h, GOLDEN_KNN_CLASS, "k-NN drifted");
}

/// Tie-heavy synthetic dataset: an integer column, a ±0.0 column and a
/// four-way one-hot block, so most split candidates sit between runs of
/// equal values and regression sums depend on the order ties are visited.
/// Returns the matrix, 3-class labels and a regression target.
fn tie_heavy_data(n: usize) -> (Matrix, Vec<usize>, Vec<f64>) {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |k: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % k
    };
    let mut rows = Vec::with_capacity(n);
    let mut y_class = Vec::with_capacity(n);
    let mut y_reg = Vec::with_capacity(n);
    for _ in 0..n {
        let a = next(7) as f64 - 3.0;
        let z = [-0.0, 0.0, 0.0, 1.0][next(4) as usize];
        let cat = next(4) as usize;
        let noise = next(5);
        let mut row = vec![a, z];
        row.extend((0..4).map(|c| (c == cat) as usize as f64));
        rows.push(row);
        y_class.push((a.abs() as usize + cat + (noise == 0) as usize) % 3);
        y_reg.push(a * 1.5 + cat as f64 - z + noise as f64 * 0.25);
    }
    (Matrix::from_rows(&rows), y_class, y_reg)
}

// Golden prediction hashes on the tie-heavy data, captured before exact
// fits moved from per-node sorts to a partitioned presort.
const GOLDEN_TIES_BOOST_REG: u64 = 0x4e857efcc0bd407;
const GOLDEN_TIES_TREE_REG: u64 = 0x7bb9623d769a6ad2;
const GOLDEN_TIES_BOOST_CLASS3: u64 = 0xd3dfd801becb4e02;

#[test]
fn exact_mode_is_bit_identical_to_goldens_on_tie_heavy_data() {
    let (x, yc, yr) = tie_heavy_data(300);
    let m = GradientBoostingRegressor {
        config: BoostConfig { n_rounds: 20, seed: 5, ..Default::default() },
    }
    .fit(&x, &yr)
    .unwrap();
    let h = hash_f64s(m.predict(&x).unwrap());
    assert_eq!(h, GOLDEN_TIES_BOOST_REG, "gradient boosting regressor drifted");

    let m = DecisionTreeRegressor { config: TreeConfig { max_depth: 8, ..Default::default() } }
        .fit(&x, &yr)
        .unwrap();
    let h = hash_f64s(m.predict(&x).unwrap());
    assert_eq!(h, GOLDEN_TIES_TREE_REG, "decision tree regressor drifted");

    let m = GradientBoostingClassifier {
        config: BoostConfig { n_rounds: 20, seed: 5, ..Default::default() },
    }
    .fit(&x, &yc, 3)
    .unwrap();
    let h = hash_f64s(m.predict_proba(&x).unwrap().into_iter().flatten());
    assert_eq!(h, GOLDEN_TIES_BOOST_CLASS3, "3-class gradient boosting drifted");
}

// Golden prediction hashes of forests on the tie-heavy data, captured
// before forest nodes moved from per-node sorts to a shared rank table.
const GOLDEN_TIES_FOREST_CLASS3: u64 = 0xeedc80b09a09fa5;
const GOLDEN_TIES_FOREST_REG: u64 = 0xb26ace1b1329fc2a;

#[test]
fn forests_are_bit_identical_to_goldens_on_tie_heavy_data_at_any_thread_count() {
    let (x, yc, yr) = tie_heavy_data(300);
    for threads in [1usize, 8] {
        let cfg = ForestConfig { n_trees: 12, seed: 17, n_threads: threads, ..Default::default() };
        let m = RandomForestClassifier { config: cfg.clone() }.fit(&x, &yc, 3).unwrap();
        let h = hash_f64s(m.predict_proba(&x).unwrap().into_iter().flatten());
        assert_eq!(h, GOLDEN_TIES_FOREST_CLASS3, "3-class forest drifted: {h:#x}");

        let m = RandomForestRegressor { config: cfg }.fit(&x, &yr).unwrap();
        let h = hash_f64s(m.predict(&x).unwrap());
        assert_eq!(h, GOLDEN_TIES_FOREST_REG, "forest regressor drifted: {h:#x}");
    }
}

/// Large-offset, near-tie regression data: an integer column, an exact
/// duplicate of it, a near duplicate (offset by 1e-9 on half the rows), a
/// ±0.0 column and a continuous column, with targets `offset + small
/// integers`. The split gains are tiny next to the squared targets, so a
/// fit that added the targets in another order would grow other trees.
fn offset_near_tie_data(n: usize, offset: f64) -> (Matrix, Vec<f64>) {
    let mut state = 0xD1B5_4A32_D192_ED03u64;
    let mut next = move |k: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % k
    };
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let a = next(9) as f64;
        let near = a + next(2) as f64 * 1e-9;
        let z = [-0.0, 0.0][next(2) as usize];
        let c = next(1000) as f64 / 7.0;
        rows.push(vec![a, a, near, z, c]);
        y.push(offset + (a as u64 * 3 + next(4)) as f64);
    }
    (Matrix::from_rows(&rows), y)
}

// Golden prediction hashes on large-offset, near-tie data, captured
// before the regression split scan was pruned.
const GOLDEN_OFFSET_BOOST_REG: u64 = 0x2aa36c2edd6dc560;
const GOLDEN_OFFSET_TREE_REG: u64 = 0x5f7529b3d3eb766b;

#[test]
fn exact_mode_is_bit_identical_to_goldens_on_large_offset_near_ties() {
    let (x, y) = offset_near_tie_data(300, 1e9);
    let m = GradientBoostingRegressor {
        config: BoostConfig { n_rounds: 20, seed: 5, ..Default::default() },
    }
    .fit(&x, &y)
    .unwrap();
    let h = hash_f64s(m.predict(&x).unwrap());
    assert_eq!(h, GOLDEN_OFFSET_BOOST_REG, "gradient boosting regressor drifted: {h:#x}");

    let (x, y) = offset_near_tie_data(300, 1e15);
    let cfg = TreeConfig { max_depth: 12, min_samples_leaf: 1, ..Default::default() };
    let m = DecisionTreeRegressor { config: cfg }.fit(&x, &y).unwrap();
    let h = hash_f64s(m.predict(&x).unwrap());
    assert_eq!(h, GOLDEN_OFFSET_TREE_REG, "decision tree regressor drifted: {h:#x}");
}
