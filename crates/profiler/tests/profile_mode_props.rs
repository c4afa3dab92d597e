//! Property tests for the `--profile-mode` spec parser: it never panics,
//! whatever the text, and every spec it accepts renders (`Display`) a form
//! that re-parses to the same mode.
//!
//! The proptest shim does not shrink; a failing case is minimised by hand
//! into a fixed test at the end of this file.

use catdb_profiler::ProfileMode;
use catdb_table::DEFAULT_CHUNK_ROWS;
use proptest::prelude::*;

/// Pieces of the mode grammar: both mode names, the separator, chunk
/// counts (valid, zero, signed, padded, at and past `usize::MAX`,
/// malformed) and whitespace, plus near misses.
const TOKENS: &[&str] = &[
    "exact",
    "sketch",
    "Sketch",
    "EXACT",
    "binned",
    ":",
    "::",
    "0",
    "1",
    "64",
    "007",
    "+2",
    "-1",
    "1e3",
    "18446744073709551615",
    "18446744073709551616",
    " ",
    "\t",
    "\n",
    "é",
    "\u{0}",
];

fn token_soup(picks: &[usize]) -> String {
    picks.iter().map(|&i| TOKENS[i % TOKENS.len()]).collect()
}

/// Parse, and for an accepted spec check that its rendering re-parses to
/// the same mode and renders the same again.
fn check_round_trip(text: &str) {
    let Ok(mode) = ProfileMode::parse(text) else {
        return;
    };
    let shown = mode.to_string();
    let again = ProfileMode::parse(&shown)
        .unwrap_or_else(|e| panic!("{shown:?} (from {text:?}) does not parse: {e}"));
    assert_eq!(again, mode, "{text:?} -> {shown:?}");
    assert_eq!(again.to_string(), shown, "{text:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_on_arbitrary_text(bytes in prop::collection::vec(0u8..=255, 0..48)) {
        check_round_trip(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_token_soup(picks in prop::collection::vec(0usize..1000, 0..8)) {
        check_round_trip(&token_soup(&picks));
    }

    #[test]
    fn every_sketch_chunk_count_round_trips(
        raw in 1usize..usize::MAX,
        shift in 0u32..usize::BITS,
        pad in 0usize..4,
    ) {
        // Chunk counts of every magnitude, from 1 to near `usize::MAX`.
        let chunk_rows = (raw >> shift).max(1);
        let text = format!("sketch:{}{chunk_rows}", "0".repeat(pad));
        prop_assert_eq!(ProfileMode::parse(&text), Ok(ProfileMode::Sketch { chunk_rows }));
        check_round_trip(&text);
    }
}

#[test]
fn bare_names_parse_to_their_defaults_and_render_canonically() {
    assert_eq!(ProfileMode::parse("exact"), Ok(ProfileMode::Exact));
    assert_eq!(ProfileMode::Exact.to_string(), "exact");
    let sketch = ProfileMode::parse("sketch").unwrap();
    assert_eq!(sketch, ProfileMode::Sketch { chunk_rows: DEFAULT_CHUNK_ROWS });
    assert_eq!(sketch.to_string(), format!("sketch:{DEFAULT_CHUNK_ROWS}"));
    check_round_trip("sketch");
}

#[test]
fn malformed_specs_are_errors_not_panics() {
    for bad in [
        "",
        "sketch:",
        "sketch:0",
        "sketch:-1",
        "sketch:1e3",
        "sketch: 64",
        "sketch:18446744073709551616",
        "Sketch",
        " exact",
        "binned",
        "exact:1",
    ] {
        assert!(ProfileMode::parse(bad).is_err(), "{bad:?} parsed");
    }
    // A leading `+` is what `usize::from_str` accepts; it renders without.
    assert_eq!(ProfileMode::parse("sketch:+2"), Ok(ProfileMode::Sketch { chunk_rows: 2 }));
    check_round_trip("sketch:+2");
}
