//! Thread-count invariance: the shared work-stealing runtime and the
//! concurrent LLM scheduler must never leak scheduling order into
//! results. Profiling the same table, training the same model, and
//! generating the same chain pipeline with the same seed must produce
//! byte-identical output for every thread/concurrency value — with or
//! without a warm completion cache.

use catdb_catalog::CatalogEntry;
use catdb_core::{generate_chain_source, CatDbConfig, PromptOptions};
use catdb_llm::{ModelProfile, SimLlm};
use catdb_ml::{Classifier, ForestConfig, Matrix, RandomForestClassifier};
use catdb_profiler::{profile_table, ProfileOptions};
use catdb_sched::CompletionCache;
use catdb_table::{read_csv_str, to_csv_string, Column, CsvOptions, Table};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn profiling_is_byte_identical_across_thread_counts(
        ints in prop::collection::vec(-50i64..50, 8..40),
        cats in prop::collection::vec(
            prop_oneof![Just("a"), Just("b"), Just("c"), Just("dd")],
            8..40,
        ),
    ) {
        let n = ints.len().min(cats.len());
        let ints: Vec<Option<i64>> =
            (0..n).map(|i| if i % 5 == 0 { None } else { Some(ints[i]) }).collect();
        let floats: Vec<Option<f64>> = (0..n)
            .map(|i| if i % 7 == 0 { None } else { Some(i as f64 * 0.5 - 3.0) })
            .collect();
        let table = Table::from_columns(vec![
            ("num", Column::Int(ints)),
            ("cat", Column::Str(cats[..n].iter().map(|s| Some(s.to_string())).collect())),
            ("f", Column::Float(floats)),
        ])
        .unwrap();
        let mut jsons = Vec::new();
        for &threads in &[1usize, 2, 8] {
            let opts = ProfileOptions { n_threads: threads, ..Default::default() };
            let mut profile = profile_table("prop", &table, &opts);
            // Wall-clock is the only field allowed to differ.
            profile.elapsed_seconds = 0.0;
            jsons.push(serde_json::to_string(&profile).unwrap());
        }
        prop_assert_eq!(&jsons[0], &jsons[1], "1 vs 2 threads");
        prop_assert_eq!(&jsons[0], &jsons[2], "1 vs 8 threads");
    }

    #[test]
    fn forest_predictions_identical_across_thread_counts(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 60;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen::<f64>() * 4.0, rng.gen::<f64>() * 4.0])
            .collect();
        let y: Vec<usize> = rows.iter().map(|r| (r[0] + r[1] > 4.0) as usize).collect();
        let x = Matrix::from_rows(&rows);
        let mut probas = Vec::new();
        for &threads in &[1usize, 2, 8] {
            let cfg = ForestConfig { n_trees: 10, n_threads: threads, seed, ..Default::default() };
            let model = RandomForestClassifier { config: cfg }.fit(&x, &y, 2).unwrap();
            probas.push(model.predict_proba(&x).unwrap());
        }
        // Exact float equality: same trees, same order, same arithmetic.
        prop_assert_eq!(&probas[0], &probas[1], "1 vs 2 threads");
        prop_assert_eq!(&probas[0], &probas[2], "1 vs 8 threads");
    }
}

#[test]
fn csv_parse_identical_across_thread_counts() {
    // Enough rows to span several 4096-record materialization chunks,
    // seasoned with everything that could leak scheduling order: quoted
    // embedded newlines, CRLF endings, blank lines, null markers, and a
    // late type contradiction that degrades a column discovered in one
    // chunk but re-rendered globally.
    let mut csv = String::from("id,score,city,note\r\n");
    for i in 0..10_000 {
        let id = if i == 9_500 { "oops".to_string() } else { i.to_string() };
        let score = if i % 50 == 0 { "NA".to_string() } else { format!("{}.{}", i % 100, i % 10) };
        let city = if i % 5 == 0 { "\"San Jose, CA\"" } else { "Berlin" };
        let note =
            if i % 97 == 0 { format!("\"line one\nline {i}\"") } else { format!("note {i}") };
        csv.push_str(&format!("{id},{score},{city},{note}\r\n"));
        if i % 211 == 0 {
            csv.push('\n'); // interior blank line, skipped by the scanner
        }
    }
    let parse = |n_threads: usize| {
        read_csv_str(&csv, &CsvOptions { n_threads, ..Default::default() }).expect("valid csv")
    };
    let base = parse(1);
    assert_eq!(base.n_rows(), 10_000);
    for threads in [2usize, 8] {
        let t = parse(threads);
        assert_eq!(t, base, "{threads} threads diverged");
        assert_eq!(to_csv_string(&t), to_csv_string(&base), "{threads} threads render diverged");
    }
}

/// A catalog entry for the chain-generation determinism tests.
fn chain_entry() -> CatalogEntry {
    let g =
        catdb_data::generate("cmc", &catdb_data::GenOptions { max_rows: 400, scale: 1.0, seed: 5 })
            .expect("known dataset");
    let flat = g.dataset.materialize().expect("materialize");
    let profile = profile_table("cmc", &flat, &ProfileOptions::default());
    CatalogEntry::new("cmc", g.target.clone(), g.task, profile)
}

fn chain_cfg(concurrency: usize) -> CatDbConfig {
    CatDbConfig {
        prompt: PromptOptions { beta: 3, ..Default::default() },
        llm_concurrency: concurrency,
        ..Default::default()
    }
}

#[test]
fn chain_output_identical_across_llm_concurrency() {
    let entry = chain_entry();
    let mut sources = Vec::new();
    for concurrency in [1usize, 2, 8] {
        let llm = SimLlm::new(ModelProfile::gemini_1_5_pro(), 11);
        sources.push(generate_chain_source(&entry, &llm, &chain_cfg(concurrency)).expect("chain"));
    }
    assert_eq!(sources[0], sources[1], "concurrency 1 vs 2");
    assert_eq!(sources[0], sources[2], "concurrency 1 vs 8");
}

#[test]
fn chain_output_identical_with_shared_warm_cache() {
    let entry = chain_entry();
    let llm = SimLlm::new(ModelProfile::gemini_1_5_pro(), 11);
    let cache = Arc::new(CompletionCache::new(1024));
    let run = |concurrency: usize| {
        let cfg = CatDbConfig { llm_cache: Some(cache.clone()), ..chain_cfg(concurrency) };
        generate_chain_source(&entry, &llm, &cfg).expect("chain")
    };
    let cold = run(2);
    let cold_calls = llm.call_count();
    assert!(cold_calls > 0);
    for concurrency in [1usize, 2, 8] {
        assert_eq!(run(concurrency), cold, "warm run at concurrency {concurrency}");
    }
    assert_eq!(llm.call_count(), cold_calls, "warm runs must not reach upstream");
}

#[test]
fn chain_output_identical_with_warm_disk_cache() {
    let entry = chain_entry();
    let path =
        std::env::temp_dir().join(format!("catdb-determinism-cache-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let llm = SimLlm::new(ModelProfile::gemini_1_5_pro(), 11);
    let run = |concurrency: usize| {
        // A fresh CompletionCache instance per run: every warm run
        // exercises the JSON-lines load path, exactly like a second CLI
        // invocation sharing the same --llm-cache file.
        let cache = Arc::new(CompletionCache::persistent(&path, 4096));
        let cfg = CatDbConfig { llm_cache: Some(cache), ..chain_cfg(concurrency) };
        generate_chain_source(&entry, &llm, &cfg).expect("chain")
    };
    let cold = run(2);
    let cold_calls = llm.call_count();
    assert!(cold_calls > 0);
    for concurrency in [1usize, 2, 8] {
        assert_eq!(run(concurrency), cold, "warm run at concurrency {concurrency}");
    }
    assert_eq!(llm.call_count(), cold_calls, "warm runs must not reach upstream");
    let _ = std::fs::remove_file(&path);
}
