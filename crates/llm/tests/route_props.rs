//! Property tests for the `--route` spec parser: it never panics, whatever
//! the text, and every spec it accepts renders a canonical form that
//! re-parses to the same per-role models and limits.
//!
//! The proptest shim does not shrink; a failing case is minimised by hand
//! into a fixed test in `route.rs`.

use catdb_llm::{ModelProfile, Role, RouteSpec};
use proptest::prelude::*;

/// Pieces of the route grammar: roles, model names and aliases, the
/// separators, limit suffixes (valid, zero, negative, overflowing and
/// malformed) and whitespace, plus near misses.
const TOKENS: &[&str] = &[
    "refine",
    "generate",
    "select",
    "fix",
    "Refine",
    "gpt-4o",
    "gemini-1.5-pro",
    "llama3.1-70b",
    "gpt-4o-mini",
    "gemini",
    "llama",
    "mini",
    "mistral",
    "=",
    "==",
    ":",
    ":0",
    ":1",
    ":7",
    ":64",
    ":-1",
    ":+2",
    ":x",
    ":18446744073709551616",
    ",",
    ",,",
    " ",
    "\t",
    "\n",
    "é",
    "\u{0}",
];

const ROLES: &[&str] = &["refine", "generate", "select", "fix"];
const MODELS: &[&str] =
    &["gpt-4o", "gemini-1.5-pro", "llama3.1-70b", "gpt-4o-mini", "gemini", "llama", "mini"];
const PADDING: &[&str] = &["", " ", "  ", "\t"];

fn token_soup(picks: &[usize]) -> String {
    picks.iter().map(|&i| TOKENS[i % TOKENS.len()]).collect()
}

/// `role=model[:N]` entries joined by commas, each piece padded with
/// whitespace. Roles may repeat, which the parser must reject.
fn entries(picks: &[(usize, usize, usize, usize)]) -> String {
    picks
        .iter()
        .map(|&(role, model, limit, pad)| {
            let pad = PADDING[pad % PADDING.len()];
            let limit = match limit % 4 {
                0 => String::new(),
                n => format!("{pad}:{pad}{}", n * 3 - 2),
            };
            format!(
                "{pad}{}{pad}={pad}{}{limit}{pad}",
                ROLES[role % ROLES.len()],
                MODELS[model % MODELS.len()]
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Parse, and for an accepted spec check that its canonical rendering
/// re-parses to the same resolved table and limits and renders the same.
fn check_round_trip(text: &str, default: &ModelProfile) {
    let Ok(spec) = RouteSpec::parse(text) else {
        return;
    };
    let canonical = spec.canonical(default);
    let again = RouteSpec::parse(&canonical)
        .unwrap_or_else(|e| panic!("canonical {canonical:?} of {text:?} does not parse: {e}"));
    assert_eq!(again.resolve(default), spec.resolve(default), "{text:?} -> {canonical:?}");
    for role in Role::ALL {
        assert_eq!(again.limit(role), spec.limit(role), "{role:?} in {text:?} -> {canonical:?}");
    }
    assert_eq!(again.canonical(default), canonical, "{text:?}");
}

fn default_model(pick: usize) -> ModelProfile {
    let models = ModelProfile::known_models();
    models[pick % models.len()].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_on_arbitrary_text(
        bytes in prop::collection::vec(0u8..=255, 0..64),
        pick in 0usize..4,
    ) {
        check_round_trip(&String::from_utf8_lossy(&bytes), &default_model(pick));
    }

    #[test]
    fn parse_never_panics_on_token_soup(
        picks in prop::collection::vec(0usize..1000, 0..24),
        pick in 0usize..4,
    ) {
        check_round_trip(&token_soup(&picks), &default_model(pick));
    }

    #[test]
    fn accepted_specs_round_trip_through_canonical(
        picks in prop::collection::vec((0usize..4, 0usize..7, 0usize..4, 0usize..4), 1..6),
        pick in 0usize..4,
    ) {
        let text = entries(&picks);
        let default = default_model(pick);
        let mut roles: Vec<usize> = picks.iter().map(|p| p.0 % ROLES.len()).collect();
        roles.sort_unstable();
        roles.dedup();
        // Distinct roles always parse; a repeated role never does.
        prop_assert_eq!(RouteSpec::parse(&text).is_ok(), roles.len() == picks.len(), "{:?}", text);
        check_round_trip(&text, &default);
    }
}
