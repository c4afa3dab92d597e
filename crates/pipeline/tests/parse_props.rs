//! Property tests for the DSL parser: it never panics, whatever the text,
//! and every program it accepts re-parses from its canonical rendering to
//! an equal [`Program`].
//!
//! The proptest shim does not shrink; a failing case was minimised by hand
//! into a fixed test in `parser.rs` (`overflowing_number_literals_are_malformed`).

use catdb_pipeline::{parse, Program};
use proptest::prelude::*;

/// Words the grammar knows: step keywords, their sub-keywords and values,
/// plus near misses.
const WORDS: &[&str] = &[
    "require",
    "impute",
    "scale",
    "encode",
    "drop",
    "drop_high_missing",
    "drop_constant",
    "dedup",
    "drop_null_rows",
    "outliers",
    "augment",
    "rebalance",
    "select_topk",
    "model",
    "strategy",
    "method",
    "target",
    "threshold",
    "factor",
    "sep",
    "buckets",
    "k",
    "mean",
    "median",
    "most_frequent",
    "constant",
    "standard",
    "minmax",
    "onehot",
    "khot",
    "hash",
    "iqr",
    "zscore",
    "lof",
    "exact",
    "approx",
    "smote",
    "smogn",
    "classifier",
    "regressor",
    "random_forest",
    "knn",
    "ridge",
    "trees",
    "normalize",
    "pipeline",
    "{",
    "}",
    "#",
    "e",
    "inf",
    "nan",
];

/// Well-formed step lines; `{s}`, `{n}` and `{c}` are filled with a quoted
/// string, a number literal and a column reference.
const TEMPLATES: &[&str] = &[
    "require {s};",
    "impute {c} strategy median;",
    "impute {c} strategy most_frequent;",
    "impute {c} strategy constant {n};",
    "impute {c} strategy constant {s};",
    "scale {c} method decimal;",
    "encode {c} method ordinal;",
    "encode {c} method khot sep {s};",
    "encode {c} method hash buckets {n};",
    "drop {s};",
    "drop_high_missing threshold {n};",
    "drop_constant;",
    "dedup exact;",
    "drop_null_rows;",
    "outliers {c} method zscore factor {n};",
    "outliers {c} method lof k {n} factor {n};",
    "augment method smote target {s};",
    "rebalance target {s};",
    "select_topk {n} target {s};",
    "model classifier gradient_boosting target {s} rounds {n} depth {n};",
    "model regressor ridge target {s} l2 {n};",
    "model classifier tabpfn target {s};",
];

/// Number literals: signs (a leading `+` is not part of the grammar),
/// fractions and exponents, including ones that overflow to infinity.
fn number() -> impl Strategy<Value = String> {
    (0..4usize, 0..100_000u32, 0..1000u32, 0..4usize, -420..420i32).prop_map(
        |(sign, int, frac, form, exp)| {
            let sign = ["", "-", "+", ""][sign];
            match form {
                0 => format!("{sign}{int}"),
                1 => format!("{sign}{int}.{frac}"),
                2 => format!("{sign}.{frac}e{exp}"),
                _ => format!("{sign}{int}E{exp}"),
            }
        },
    )
}

/// A number literal that parses to a finite value.
fn finite_number() -> impl Strategy<Value = String> {
    (0..3usize, 0..100_000u32, 0..1000u32, -300..300i32).prop_map(|(form, int, frac, exp)| {
        match form {
            0 => format!("{int}"),
            1 => format!("-{int}.{frac}"),
            _ => format!("{int}.{frac}e{exp}"),
        }
    })
}

/// Quoted strings whose bodies hold characters the tokenizer treats
/// specially outside quotes.
fn quoted() -> impl Strategy<Value = String> {
    "[a-z #*;{},.\u{e9}-]{0,6}".prop_map(|body| format!("\"{body}\""))
}

fn token() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..WORDS.len()).prop_map(|i| WORDS[i].to_string()),
        quoted(),
        number(),
        Just("*".to_string()),
        Just(";".to_string()),
        Just("\"unterminated".to_string()),
        "[ -~]{1,3}",
    ]
}

fn soup_line() -> impl Strategy<Value = String> {
    (prop::collection::vec(token(), 0..8), 0..3usize).prop_map(|(tokens, glue)| {
        let line = tokens.join([" ", "", "  "][glue]);
        // Most soup ends like a statement so it reaches the step grammar.
        if glue == 1 {
            line
        } else {
            format!("{line};")
        }
    })
}

/// A step line from `TEMPLATES`, its numbers drawn from `numbers`.
fn step_line(numbers: impl Strategy<Value = String>) -> impl Strategy<Value = String> {
    (
        0..TEMPLATES.len(),
        prop::collection::vec(quoted(), 3),
        prop::collection::vec(numbers, 3),
        0..2usize,
    )
        .prop_map(|(t, strings, numbers, star)| {
            let column = if star == 0 { "*".to_string() } else { strings[2].clone() };
            let mut line = TEMPLATES[t].replace("{c}", &column);
            for n in &numbers {
                line = line.replacen("{n}", n, 1);
            }
            for s in &strings {
                line = line.replacen("{s}", s, 1);
            }
            line
        })
}

fn wrap(lines: Vec<String>) -> String {
    let mut text = String::from("pipeline {\n");
    for line in lines {
        text.push_str("  ");
        text.push_str(&line);
        text.push('\n');
    }
    text.push_str("}\n");
    text
}

/// Programs mixing soup, template steps with any number literal, comments
/// and blank lines.
fn mixed_program() -> impl Strategy<Value = String> {
    let line = prop_oneof![
        soup_line(),
        step_line(number()),
        step_line(number()),
        Just("# comment".to_string()),
        Just(String::new()),
    ];
    prop::collection::vec(line, 0..8).prop_map(wrap)
}

fn valid_program() -> impl Strategy<Value = String> {
    prop::collection::vec(step_line(finite_number()), 0..10).prop_map(wrap)
}

/// The round-trip property for an accepted program.
fn assert_round_trips(source: &str, program: &Program) {
    let rendered = program.render();
    match parse(&rendered) {
        Ok(again) => assert_eq!(&again, program, "source:\n{source}\nrendered:\n{rendered}"),
        Err(e) => {
            panic!("rendering does not re-parse: {e}\nsource:\n{source}\nrendered:\n{rendered}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_on_arbitrary_text(text in "[ -~\n\t\u{e9}\u{3b1}-\u{3c9}]{0,160}") {
        let _ = parse(&text);
        let _ = parse(&format!("pipeline {{\n{text}\n}}\n"));
    }

    #[test]
    fn accepted_token_soup_round_trips(source in mixed_program()) {
        if let Ok(program) = parse(&source) {
            assert_round_trips(&source, &program);
        }
    }

    #[test]
    fn valid_programs_parse_and_round_trip(source in valid_program()) {
        match parse(&source) {
            Ok(program) => assert_round_trips(&source, &program),
            Err(e) => panic!("valid program rejected: {e}\n{source}"),
        }
    }
}
