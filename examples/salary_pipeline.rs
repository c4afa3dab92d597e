//! The paper's Figure 1 / Figure 3 / Figure 5 running example: the Salary
//! dataset with a mixed-representation Gender column, a composite Address
//! ("7050 CA"), a list-valued Skills column, and duration-phrase
//! Experience — walked through profiling, catalog refinement, prompt
//! construction, and pipeline generation, printing each artifact.
//!
//! Run with: `cargo run --release --example salary_pipeline`

use catdb_catalog::{refine_dataset, CatalogEntry, RefineOptions};
use catdb_core::{generate_pipeline, CatDbConfig, PromptBuilder, PromptOptions};
use catdb_llm::{ModelProfile, SimLlm};
use catdb_ml::TaskKind;
use catdb_profiler::{profile_table, ProfileOptions};
use catdb_table::{Column, Table};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

fn salary_table(n: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let genders = ["Male", "male", "M", "Female", "F", "female"];
    let states = ["CA", "TX", "NY"];
    let skills_pool = ["Python", "Java", "C++", "SQL", "Go"];
    let exp = ["1 year", "12 Months", "two years", "2 years", "3 years", "36 months"];

    let mut gender = Vec::new();
    let mut address = Vec::new();
    let mut skills = Vec::new();
    let mut experience = Vec::new();
    let mut salary = Vec::new();
    for _ in 0..n {
        let level = rng.gen_range(0..3usize); // latent seniority
        gender.push(genders[rng.gen_range(0..genders.len())].to_string());
        address.push(format!(
            "{} {}",
            7000 + rng.gen_range(0..20) * 7,
            states[rng.gen_range(0..3usize)]
        ));
        let k = 1 + rng.gen_range(0..3usize);
        let mut items: Vec<&str> = Vec::new();
        for _ in 0..k {
            let s = skills_pool[(level + rng.gen_range(0..2usize)) % skills_pool.len()];
            if !items.contains(&s) {
                items.push(s);
            }
        }
        skills.push(items.join(", "));
        experience.push(exp[(level * 2 + rng.gen_range(0..2usize)) % exp.len()].to_string());
        salary.push(60_000.0 + 20_000.0 * level as f64 + rng.gen_range(-5_000.0..5_000.0));
    }
    Table::from_columns(vec![
        ("gender", Column::from_strings(gender)),
        ("address", Column::from_strings(address)),
        ("skills", Column::from_strings(skills)),
        ("experience", Column::from_strings(experience)),
        ("salary", Column::from_f64(salary)),
    ])
    .expect("valid table")
}

fn main() {
    let table = salary_table(600, 7);
    let llm = SimLlm::new(ModelProfile::gemini_1_5_pro(), 7);

    // --- Profiling (Algorithm 1) ---
    let profile = profile_table("salary", &table, &ProfileOptions::default());
    println!("=== Data profile ===");
    for col in &profile.columns {
        println!(
            "  {:<12} {:<8} feature={:<12} distinct={:<4} missing={:.0}%",
            col.name,
            col.data_type.name(),
            col.feature_type.label(),
            col.distinct_count,
            col.missing_percentage * 100.0
        );
    }

    // --- Catalog refinement (Section 3.2, Figures 4–5) ---
    let (prepared, refined_profile, report) = refine_dataset(
        "salary",
        table,
        &profile,
        &ProfileOptions::default(),
        "salary",
        &llm,
        &RefineOptions::default(),
    );
    println!("\n=== Catalog refinement ===");
    for r in &report.refinements {
        println!(
            "  {:<12} {:>4} → {:<4} {:?}",
            r.column, r.distinct_before, r.distinct_after, r.action
        );
    }
    println!("  prepared table now has {} columns", prepared.n_cols());

    // --- Prompt construction (Algorithm 3, Figure 3) ---
    let entry = CatalogEntry::new("salary", "salary", TaskKind::Regression, refined_profile);
    let builder = PromptBuilder::new(&entry, PromptOptions::default());
    let prompt = builder.single_prompt();
    println!("\n=== Constructed prompt ({} tokens) ===\n{}", prompt.token_len(), prompt.user);

    // --- Pipeline generation + validation (Algorithm 4) ---
    let (train, test) = prepared.train_test_split(0.7, 7).expect("split");
    let outcome = generate_pipeline(&entry, &train, &test, &llm, &CatDbConfig::default());
    println!("=== Generated pipeline ===\n{}", outcome.source);
    match &outcome.evaluation {
        Some(eval) => println!("Execution: {:?} (test)", eval.test),
        None => println!("Generation did not converge: {:?}", outcome.traces),
    }
    if !outcome.traces.is_empty() {
        println!("\nErrors handled along the way:");
        for t in &outcome.traces {
            println!("  attempt {}: {} → {:?}", t.attempt, t.kind.code(), t.fixed_by);
        }
    }
}
