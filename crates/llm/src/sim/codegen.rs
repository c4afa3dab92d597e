//! Pipeline code generation — the heart of the LLM simulator.
//!
//! Given the parsed prompt (schema lines **S**, rule lines **R**, dataset
//! attributes), the simulator writes a pipeline-DSL program the way an LLM
//! would: it only acts on columns it *saw* (attention decays past the
//! budget — Figure 10c), honours each rule with the profile's
//! instruction-following probability, takes initiative on obviously needed
//! steps, and occasionally injects the semantic / syntax / environment
//! faults whose frequencies define the paper's error-trace dataset
//! (Table 2, Figure 8).

use crate::profile::ModelProfile;
use crate::prompt::{ColumnInfo, PromptSpec};
use rand::rngs::StdRng;
use rand::Rng;

/// Which part of the pipeline this call generates (chain stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenStage {
    Full,
    Preprocessing,
    FeatureEngineering,
    ModelSelection,
}

fn is_numeric_col(c: &ColumnInfo) -> bool {
    matches!(c.feature.as_deref(), Some("numerical"))
        || (c.feature.is_none() && matches!(c.dtype.as_deref(), Some("int") | Some("float")))
}

fn is_stringy_col(c: &ColumnInfo) -> bool {
    matches!(c.feature.as_deref(), Some("categorical") | Some("sentence") | Some("list"))
        && matches!(c.dtype.as_deref(), Some("string") | None)
        || (c.feature.is_none() && c.dtype.as_deref() == Some("string"))
}

fn guess_target(spec: &PromptSpec) -> Option<String> {
    if let Some(t) = &spec.dataset.target {
        return Some(t.clone());
    }
    // LLM heuristic: a column named like a label, else the last column.
    for hint in ["target", "label", "class", "y", "outcome"] {
        if let Some(c) = spec.columns.iter().find(|c| c.name.eq_ignore_ascii_case(hint)) {
            return Some(c.name.clone());
        }
    }
    spec.columns.last().map(|c| c.name.clone())
}

/// Decide the model algorithm: rule-guided but open-ended (the paper's
/// rules "guide the LLM towards considering certain primitives" without
/// dictating the model).
fn choose_algo(
    classification: bool,
    profile: &ModelProfile,
    rng: &mut StdRng,
    prefer: Option<&str>,
) -> &'static str {
    if let Some(p) = prefer {
        // An explicit preference in the rules is almost always honoured.
        if rng.gen::<f64>() < 0.95 {
            return match p {
                "random_forest" => "random_forest",
                "gradient_boosting" => "gradient_boosting",
                "logistic" => "logistic",
                "ridge" => "ridge",
                "decision_tree" => "decision_tree",
                "knn" => "knn",
                _ => "random_forest",
            };
        }
    }
    // Quality biases the draw toward stronger learners.
    let q = profile.quality;
    let r: f64 = rng.gen();
    if classification {
        if r < 0.45 + 0.2 * q {
            "random_forest"
        } else if r < 0.65 + 0.25 * q {
            "gradient_boosting"
        } else if r < 0.85 {
            "logistic"
        } else if r < 0.95 {
            "decision_tree"
        } else {
            "knn"
        }
    } else if r < 0.45 + 0.2 * q {
        "random_forest"
    } else if r < 0.65 + 0.25 * q {
        "gradient_boosting"
    } else if r < 0.9 {
        "ridge"
    } else {
        "decision_tree"
    }
}

/// Packages needed by a body of step lines (textual scan — the simulator
/// reasons about its own output the way an LLM would, imperfectly).
fn needed_packages(lines: &[String]) -> Vec<&'static str> {
    let mut out = Vec::new();
    let text = lines.join("\n");
    if text.contains("method khot") || text.contains("method hash") {
        out.push("text_features");
    }
    if text.contains("method lof") {
        out.push("outlier_tools");
    }
    if text.contains("augment method") || text.contains("rebalance target") {
        out.push("imbalanced");
    }
    if text.contains("gradient_boosting") {
        out.push("boosting");
    }
    if text.contains(" tabpfn ") {
        out.push("tabpfn");
    }
    out
}

/// Extract the step lines of an existing `<CODE>` block (chain stages
/// extend the previous stage's program).
fn body_of(code: &str) -> Vec<String> {
    code.lines()
        .map(|l| l.trim())
        .filter(|l| {
            !l.is_empty()
                && *l != "pipeline {"
                && *l != "}"
                && !l.starts_with('#')
                && !l.starts_with("require ")
        })
        .map(|l| format!("  {l}"))
        .collect()
}

/// Generate pipeline text for the requested stage.
pub fn generate(
    spec: &PromptSpec,
    profile: &ModelProfile,
    rng: &mut StdRng,
    stage: GenStage,
) -> String {
    // Attention pass: which schema lines and rules did the model "see"?
    let visible: Vec<&ColumnInfo> = spec
        .columns
        .iter()
        .filter(|c| rng.gen::<f64>() < profile.attention_at(c.token_pos))
        .collect();
    let honored = |name: &str, rng: &mut StdRng| -> bool {
        spec.rules.iter().any(|r| {
            r.name == name
                && rng.gen::<f64>()
                    < profile.instruction_following * profile.attention_at(r.token_pos)
        })
    };

    let target = guess_target(spec).unwrap_or_else(|| "target".to_string());
    let classification = spec
        .dataset
        .task
        .as_deref()
        .map(|t| t.contains("class") || t.contains("binary") || t.contains("multi"))
        .unwrap_or_else(|| {
            // Guess from the target column's metadata.
            spec.column(&target).map(|c| !is_numeric_col(c)).unwrap_or(true)
        });

    let mut pre: Vec<String> = Vec::new();
    let mut fe: Vec<String> = Vec::new();
    let mut model: Vec<String> = Vec::new();

    // ---- Pre-processing ----
    if matches!(stage, GenStage::Full | GenStage::Preprocessing) {
        if honored("drop_high_missing", rng) {
            pre.push("  drop_high_missing threshold 0.9;".to_string());
        }
        if honored("drop_constant", rng) {
            pre.push("  drop_constant;".to_string());
        }
        if honored("deduplicate", rng) {
            pre.push("  dedup approx;".to_string());
        }
        // Imputation: per-column when the prompt exposed missing ratios,
        // otherwise blanket wildcards if a rule asks or initiative fires.
        let mut any_specific = false;
        for col in &visible {
            if col.name == target {
                continue;
            }
            if let Some(missing) = col.missing {
                if missing > 0.0 {
                    any_specific = true;
                    if is_numeric_col(col) {
                        let strat = if rng.gen::<f64>() < 0.5 { "mean" } else { "median" };
                        pre.push(format!("  impute \"{}\" strategy {strat};", col.name));
                    } else {
                        pre.push(format!("  impute \"{}\" strategy most_frequent;", col.name));
                    }
                }
            }
        }
        if !any_specific {
            let wants = honored("impute_missing", rng) || rng.gen::<f64>() < profile.initiative;
            if wants {
                pre.push("  impute * strategy median;".to_string());
                pre.push("  impute * strategy most_frequent;".to_string());
            }
        }
        if honored("outlier_removal", rng) {
            let method = match rng.gen_range(0..3) {
                0 => "iqr factor 1.5",
                1 => "zscore factor 3",
                _ => "lof k 10 factor 4",
            };
            pre.push(format!("  outliers * method {method};"));
        }
        if honored("rebalance", rng) {
            if classification {
                pre.push(format!("  rebalance target \"{target}\";"));
            } else {
                pre.push(format!("  augment method smogn target \"{target}\";"));
            }
        } else if honored("augmentation", rng) {
            let m = if classification { "adasyn" } else { "smogn" };
            pre.push(format!("  augment method {m} target \"{target}\";"));
        }
    }

    // ---- Feature engineering ----
    if matches!(stage, GenStage::Full | GenStage::FeatureEngineering) {
        let mut encoded_any = false;
        for col in &visible {
            if col.name == target || !is_stringy_col(col) {
                continue;
            }
            encoded_any = true;
            match col.feature.as_deref() {
                Some("list") => {
                    let sep = col.separator.clone().unwrap_or_else(|| ",".to_string());
                    fe.push(format!("  encode \"{}\" method khot sep \"{sep}\";", col.name));
                }
                Some("sentence") => {
                    fe.push(format!("  encode \"{}\" method hash buckets 24;", col.name));
                }
                Some("categorical") | None => {
                    let distinct =
                        col.distinct_count.or(col.values.as_ref().map(|v| v.len())).unwrap_or(8);
                    if distinct > 60 {
                        fe.push(format!("  encode \"{}\" method hash buckets 32;", col.name));
                    } else if rng.gen::<f64>() < 0.85 {
                        fe.push(format!("  encode \"{}\" method onehot;", col.name));
                    } else {
                        fe.push(format!("  encode \"{}\" method ordinal;", col.name));
                    }
                }
                _ => {
                    fe.push(format!("  encode \"{}\" method onehot;", col.name));
                }
            }
        }
        if !encoded_any
            && (honored("encode_categorical", rng) || rng.gen::<f64>() < profile.initiative)
        {
            // No per-column knowledge (e.g. schema truncated): blanket
            // encode everything textual.
            fe.push("  encode * method onehot;".to_string());
        }
        let outlier_guided = spec.rules.iter().any(|r| r.name == "outlier_removal");
        if honored("normalize", rng) {
            // With outlier guidance in the prompt, clipped min-max is the
            // robust choice (out-of-range inference values get contained).
            let method =
                if outlier_guided || rng.gen::<f64>() < 0.4 { "minmax" } else { "standard" };
            fe.push(format!("  scale * method {method};"));
        } else if outlier_guided && rng.gen::<f64>() < profile.initiative {
            fe.push("  scale * method minmax;".to_string());
        }
        if let Some(rule) = spec.rules.iter().find(|r| r.name == "feature_selection") {
            if rng.gen::<f64>()
                < profile.instruction_following * profile.attention_at(rule.token_pos)
            {
                let k = rule.attr("k").and_then(|s| s.parse::<usize>().ok()).unwrap_or(20);
                fe.push(format!("  select_topk {k} target \"{target}\";"));
            }
        }
    }

    // ---- Model selection ----
    if matches!(stage, GenStage::Full | GenStage::ModelSelection) {
        let prefer =
            spec.rule("model_selection").and_then(|r| r.attr("prefer").map(|s| s.to_string()));
        let algo = choose_algo(classification, profile, rng, prefer.as_deref());
        let family = if classification { "classifier" } else { "regressor" };
        let trees = (30.0 + 90.0 * profile.quality * rng.gen::<f64>()).round();
        let depth = (6.0 + 10.0 * rng.gen::<f64>()).round();
        let params = match algo {
            "random_forest" => format!(" trees {trees} depth {depth}"),
            "gradient_boosting" => format!(" rounds {} depth 4", (trees * 0.8).round()),
            "decision_tree" => format!(" depth {depth}"),
            "knn" => format!(" k {}", rng.gen_range(3..12)),
            "ridge" => " l2 1".to_string(),
            _ => String::new(),
        };
        model.push(format!("  model {family} {algo} target \"{target}\"{params};"));
    }

    // Assemble: previous chain code first, then the new stage's lines.
    let mut body: Vec<String> = Vec::new();
    if let Some(code) = &spec.code {
        body.extend(body_of(code));
    }
    body.extend(pre);
    body.extend(fe);
    body.extend(model);

    // Requires for everything the body uses.
    let mut requires: Vec<String> =
        needed_packages(&body).into_iter().map(|p| format!("  require \"{p}\";")).collect();

    // ---- Environment faults (KB class) ----
    if !requires.is_empty() && rng.gen::<f64>() < profile.env_fault_rate {
        if rng.gen::<f64>() < 0.6 {
            // Forget one dependency declaration AND the implicit import:
            // keep the step; the executor raises MissingPackage.
            let drop = rng.gen_range(0..requires.len());
            requires.remove(drop);
        } else {
            // Pin a stale version.
            let idx = rng.gen_range(0..requires.len());
            requires[idx] = requires[idx].replace("\";", "==0.9.0\";");
        }
    } else if rng.gen::<f64>() < profile.env_fault_rate * 0.3 {
        // Hallucinate a dependency that does not exist at all.
        requires.push("  require \"auto_feature_magic\";".to_string());
    }

    let mut lines = Vec::with_capacity(requires.len() + body.len() + 2);
    lines.push("pipeline {".to_string());
    lines.extend(requires);
    lines.extend(body);
    lines.push("}".to_string());

    // ---- Semantic faults (RE class) ----
    let sem_rate = profile.semantic_fault_rate * (1.0 + 0.5 * spec.truncated as u8 as f64);
    if rng.gen::<f64>() < sem_rate {
        apply_semantic_fault(&mut lines, &target, rng);
    }

    let mut text = lines.join("\n");
    text.push('\n');

    // ---- Syntax faults (SE class) ----
    if rng.gen::<f64>() < profile.syntax_fault_rate {
        text = apply_syntax_fault(text, rng);
    }
    text
}

/// Mutate the program with one plausible LLM semantic mistake.
fn apply_semantic_fault(lines: &mut Vec<String>, target: &str, rng: &mut StdRng) {
    for _ in 0..8 {
        match rng.gen_range(0..6) {
            // Hallucinate a column: mangle a referenced column name.
            0 => {
                let idx = lines.iter().position(|l| {
                    (l.contains("impute \"") || l.contains("encode \"") || l.contains("scale \""))
                        && l.contains('"')
                });
                if let Some(i) = idx {
                    if let Some(start) = lines[i].find('"') {
                        if let Some(len) = lines[i][start + 1..].find('"') {
                            let name = lines[i][start + 1..start + 1 + len].to_string();
                            lines[i] = lines[i].replacen(&name, &format!("{name}_id"), 1);
                            return;
                        }
                    }
                }
            }
            // Skip an imputation step.
            1 => {
                if let Some(i) = lines.iter().position(|l| l.trim_start().starts_with("impute")) {
                    lines.remove(i);
                    return;
                }
            }
            // Skip an encoding step.
            2 => {
                if let Some(i) = lines.iter().position(|l| l.trim_start().starts_with("encode")) {
                    lines.remove(i);
                    return;
                }
            }
            // Wrong model family.
            3 => {
                if let Some(i) = lines.iter().position(|l| l.contains("model classifier")) {
                    lines[i] = lines[i]
                        .replace("model classifier", "model regressor")
                        .replace("logistic", "ridge")
                        .replace("gaussian_nb", "ridge")
                        .replace("tabpfn", "ridge");
                    return;
                }
                if let Some(i) = lines.iter().position(|l| l.contains("model regressor")) {
                    lines[i] = lines[i]
                        .replace("model regressor", "model classifier")
                        .replace("ridge", "logistic");
                    return;
                }
            }
            // Wrong target name.
            4 => {
                if let Some(i) = lines.iter().position(|l| l.contains(&format!("\"{target}\""))) {
                    lines[i] =
                        lines[i].replace(&format!("\"{target}\""), &format!("\"{target}_column\""));
                    return;
                }
            }
            // Numeric strategy on a categorical column.
            _ => {
                if let Some(i) = lines.iter().position(|l| l.contains("strategy most_frequent")) {
                    lines[i] = lines[i].replace("strategy most_frequent", "strategy mean");
                    return;
                }
            }
        }
    }
    // Fallback if no mutation applied: drop the last body line.
    if lines.len() > 2 {
        let i = lines.len() - 2;
        lines.remove(i);
    }
}

/// Corrupt the program text with one plausible LLM syntax mistake.
fn apply_syntax_fault(text: String, rng: &mut StdRng) -> String {
    match rng.gen_range(0..5) {
        // Prose before the code block.
        0 => format!("Here is the generated pipeline for your dataset:\n{text}"),
        // Drop the final closing brace.
        1 => text.trim_end().trim_end_matches('}').to_string(),
        // Remove one semicolon.
        2 => {
            if let Some(pos) = text.find(';') {
                let mut t = text;
                t.remove(pos);
                t
            } else {
                text
            }
        }
        // Misspell a keyword.
        3 => text.replacen("impute", "imputate", 1).replacen("encode", "encodee", 1),
        // Unterminated string: drop one closing quote.
        _ => {
            if let Some(pos) = text.rfind("\";") {
                let mut t = text;
                t.remove(pos);
                t
            } else {
                text
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::Prompt;
    use rand::SeedableRng;

    fn spec_for(user: &str) -> PromptSpec {
        PromptSpec::parse(&Prompt::new("", user), 100_000)
    }

    fn reliable_profile() -> ModelProfile {
        ModelProfile {
            semantic_fault_rate: 0.0,
            syntax_fault_rate: 0.0,
            env_fault_rate: 0.0,
            instruction_following: 1.0,
            ..ModelProfile::gpt_4o()
        }
    }

    const SALARY_PROMPT: &str = r#"<TASK>pipeline_generation</TASK>
<DATASET name="salary" rows="1000" target="income" task="regression" />
<SCHEMA>
col name="age" type="float" feature="numerical" missing="0.1" min="20" max="60"
col name="gender" type="string" feature="categorical" missing="0" distinct_count="2" values="Male|Female"
col name="skills" type="string" feature="list" sep="," distinct="0.9"
col name="income" type="float" feature="numerical" missing="0"
</SCHEMA>
<RULES>
rule preprocessing impute_missing
rule fe encode_categorical
rule model model_selection
</RULES>
"#;

    #[test]
    fn generates_complete_pipeline_for_clean_profile() {
        let spec = spec_for(SALARY_PROMPT);
        let mut rng = StdRng::seed_from_u64(7);
        let text = generate(&spec, &reliable_profile(), &mut rng, GenStage::Full);
        assert!(text.starts_with("pipeline {"), "{text}");
        assert!(text.contains("impute \"age\""), "{text}");
        assert!(text.contains("encode \"gender\" method"), "{text}");
        assert!(text.contains("encode \"skills\" method khot sep \",\";"), "{text}");
        assert!(text.contains("model regressor"), "{text}");
        assert!(text.contains("target \"income\""), "{text}");
        // khot needs text_features.
        assert!(text.contains("require \"text_features\";"), "{text}");
    }

    #[test]
    fn chain_stages_split_the_work() {
        let spec = spec_for(SALARY_PROMPT);
        let mut rng = StdRng::seed_from_u64(7);
        let pre = generate(&spec, &reliable_profile(), &mut rng, GenStage::Preprocessing);
        assert!(pre.contains("impute"));
        assert!(!pre.contains("model "));

        // FE stage receives the preprocessing code and extends it.
        let fe_prompt = format!(
            "<TASK>feature_engineering</TASK>\n<DATASET target=\"income\" task=\"regression\" />\n<SCHEMA>\ncol name=\"gender\" type=\"string\" feature=\"categorical\" values=\"Male|Female\"\n</SCHEMA>\n<CODE>\n{pre}</CODE>\n"
        );
        let spec_fe = spec_for(&fe_prompt);
        let fe = generate(&spec_fe, &reliable_profile(), &mut rng, GenStage::FeatureEngineering);
        assert!(fe.contains("impute"), "prior code preserved: {fe}");
        assert!(fe.contains("encode \"gender\""), "{fe}");
        assert!(!fe.contains("model "));
    }

    #[test]
    fn fault_free_profile_emits_parseable_structure() {
        let spec = spec_for(SALARY_PROMPT);
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let text = generate(&spec, &reliable_profile(), &mut rng, GenStage::Full);
            assert!(text.starts_with("pipeline {\n"));
            assert!(text.trim_end().ends_with('}'));
            assert_eq!(text.matches("model ").count(), 1);
        }
    }

    #[test]
    fn semantic_faults_fire_at_configured_rate() {
        let spec = spec_for(SALARY_PROMPT);
        let mut profile = reliable_profile();
        profile.semantic_fault_rate = 1.0;
        let mut rng = StdRng::seed_from_u64(3);
        let clean =
            generate(&spec, &reliable_profile(), &mut StdRng::seed_from_u64(3), GenStage::Full);
        let faulty = generate(&spec, &profile, &mut rng, GenStage::Full);
        assert_ne!(clean, faulty);
    }

    #[test]
    fn syntax_fault_corrupts_text() {
        let spec = spec_for(SALARY_PROMPT);
        let mut profile = reliable_profile();
        profile.syntax_fault_rate = 1.0;
        let mut any_corrupt = false;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let text = generate(&spec, &profile, &mut rng, GenStage::Full);
            let balanced = text.contains("pipeline {") && text.trim_end().ends_with('}');
            let clean_prefix = text.starts_with("pipeline {");
            if !balanced || !clean_prefix || text.contains("imputate") {
                any_corrupt = true;
            }
        }
        assert!(any_corrupt);
    }

    #[test]
    fn missing_metadata_can_skip_imputation() {
        // No missing ratios, no impute rule, zero initiative → no imputes.
        let prompt = r#"<TASK>pipeline_generation</TASK>
<DATASET target="y" task="binary_classification" />
<SCHEMA>
col name="a" type="float"
col name="b" type="string"
col name="y" type="string"
</SCHEMA>
"#;
        let spec = spec_for(prompt);
        let mut profile = reliable_profile();
        profile.initiative = 0.0;
        let mut rng = StdRng::seed_from_u64(1);
        let text = generate(&spec, &profile, &mut rng, GenStage::Full);
        assert!(!text.contains("impute"), "{text}");
    }
}
