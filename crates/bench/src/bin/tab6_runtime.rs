//! Table 6 — runtime comparison on the six cleaning datasets: the
//! *pipeline execution* time of CatDB's generated pipeline (original vs
//! refined data), CAAFE's fixed-model pipeline, AIDE, AutoGen, and the
//! cleaning + augmentation workflow.
//!
//! Paper shape: CatDB's lean generated pipelines run an order of
//! magnitude faster than CAAFE-style stacks; cleaning workflows are the
//! slowest because of their search loops.

use catdb_baselines::{
    run_aide, run_autogen, run_caafe, AideConfig, AutoGenConfig, CaafeConfig, CaafeModel,
};
use catdb_bench::{prepare, render_table, save_results, traced, BenchArgs};
use catdb_clean::{saga, SagaConfig};
use catdb_data::generate;
use catdb_ml::{AugmentMethod, Augmenter, TaskKind, Transform};
use serde_json::json;
use std::time::Instant;

const CLEANING_DATASETS: [&str; 6] = ["eu-it", "wifi", "etailing", "survey", "utility", "yelp"];

fn secs(v: f64) -> String {
    format!("{v:.3}")
}

fn main() {
    let args = BenchArgs::parse();
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for name in CLEANING_DATASETS {
        let g = generate(name, &args.gen_options()).expect("known dataset");
        let spec = args.spec("gemini-1.5-pro", args.run.seed);
        let llm = spec.llm();
        let llm = &*llm;
        let p = prepare(&g, &spec, llm);

        // CatDB pipeline execution time (local work: validation + runs).
        let (orig, orig_trace) =
            traced(|| spec.generate(&p.raw_entry, &p.raw_train, &p.raw_test, llm, None));
        let (refined, refined_trace) =
            traced(|| spec.generate(&p.entry, &p.train, &p.test, llm, None));

        let caafe =
            run_caafe(&p.raw_train, &p.raw_test, &p.target, p.task, llm, &CaafeConfig::default());
        let caafe_rf = run_caafe(
            &p.raw_train,
            &p.raw_test,
            &p.target,
            p.task,
            llm,
            &CaafeConfig { model: CaafeModel::RandomForest, ..Default::default() },
        );
        let aide =
            run_aide(&p.raw_train, &p.raw_test, &p.target, p.task, llm, &AideConfig::default());
        let autogen = run_autogen(
            &p.raw_train,
            &p.raw_test,
            &p.target,
            p.task,
            llm,
            &AutoGenConfig::default(),
        );

        // Cleaning + augmentation workflow timing.
        let clean_start = Instant::now();
        let clean_elapsed = match saga(&p.raw_train, &p.target, p.task, &SagaConfig::default()) {
            Ok(result) => {
                let aug_start = Instant::now();
                let method = if p.task == TaskKind::Regression {
                    AugmentMethod::Smogn
                } else {
                    AugmentMethod::Adasyn
                };
                let mut aug = Augmenter::new(p.target.clone(), method);
                let mut augmented = result.cleaned;
                let _ = aug.fit(&augmented).and_then(|()| aug.apply(&mut augmented));
                Some((result.elapsed_seconds, aug_start.elapsed().as_secs_f64()))
            }
            Err(_) => None,
        };
        let _ = clean_start;

        let fail_cell = |success: bool, v: f64| {
            if success {
                secs(v)
            } else {
                "N/A".to_string()
            }
        };
        // Paper Table 6 reports pipeline *execution* time, excluding
        // generation: the last execute_pipeline span in the trace is the
        // final (successful) full run.
        let exec_time = |o: &catdb_core::GenerationOutcome, t: &catdb_trace::Trace| {
            if o.success {
                t.last_span_seconds(catdb_pipeline::SPAN_EXECUTE_PIPELINE).unwrap_or(f64::NAN)
            } else {
                f64::NAN
            }
        };
        rows.push(vec![
            name.to_string(),
            secs(exec_time(&orig, &orig_trace)),
            secs(exec_time(&refined, &refined_trace)),
            fail_cell(caafe.success, caafe.elapsed_seconds),
            fail_cell(caafe_rf.success, caafe_rf.elapsed_seconds),
            fail_cell(aide.success, aide.elapsed_seconds),
            fail_cell(autogen.success, autogen.elapsed_seconds),
            match clean_elapsed {
                Some((c, a)) => format!("{} + {}", secs(c), secs(a)),
                None => "N/A".to_string(),
            },
        ]);
        records.push(json!({
            "dataset": name,
            "catdb_original": exec_time(&orig, &orig_trace),
            "catdb_refined": exec_time(&refined, &refined_trace),
            "catdb_refined_op_micros": refined_trace.pipeline_micros_total(),
            "caafe_tabpfn": if caafe.success { Some(caafe.elapsed_seconds) } else { None },
            "caafe_rforest": if caafe_rf.success { Some(caafe_rf.elapsed_seconds) } else { None },
            "aide": if aide.success { Some(aide.elapsed_seconds) } else { None },
            "autogen": if autogen.success { Some(autogen.elapsed_seconds) } else { None },
            "cleaning_plus_aug": clean_elapsed.map(|(c, a)| c + a),
        }));
    }
    println!(
        "{}",
        render_table(
            "Table 6: Pipeline runtime on the six cleaning datasets [s]",
            &[
                "dataset",
                "catdb orig",
                "catdb refined",
                "caafe tabpfn",
                "caafe rf",
                "aide",
                "autogen",
                "cleaning + aug",
            ],
            &rows,
        )
    );
    save_results("tab6_runtime", &json!({ "records": records }));
}
