//! Parser for the pipeline DSL.
//!
//! The parser plays the role of Python's `ast` module in the original
//! system: it turns LLM-emitted pipeline text into a validated [`Program`]
//! or a *syntax-class* [`PipelineError`] with a line number. Typical LLM
//! syntax failures — prose left around the code block, a missing
//! semicolon, unbalanced braces, unterminated strings, invented keywords —
//! map to the corresponding [`ErrorKind`]s.

use crate::ast::*;
use crate::errors::{ErrorKind, PipelineError};
use catdb_ml::{AugmentMethod, ScaleMethod};

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Num(f64),
    Star,
    Semi,
}

fn tokenize_line(line: &str, line_no: usize) -> Result<Vec<Token>, PipelineError> {
    let mut tokens = Vec::new();
    let mut chars = line.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '#' => break, // comment to end of line
            c if c.is_whitespace() => {
                chars.next();
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                let mut closed = false;
                for ch in chars.by_ref() {
                    if ch == '"' {
                        closed = true;
                        break;
                    }
                    s.push(ch);
                }
                if !closed {
                    return Err(PipelineError::new(
                        ErrorKind::UnterminatedString,
                        format!("unterminated string literal: \"{s}"),
                    )
                    .at_line(line_no));
                }
                tokens.push(Token::Str(s));
            }
            '*' => {
                chars.next();
                tokens.push(Token::Star);
            }
            ';' => {
                chars.next();
                tokens.push(Token::Semi);
            }
            c if c.is_ascii_digit() || c == '-' || c == '.' => {
                let mut s = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_ascii_digit() || ch == '.' || ch == '-' || ch == 'e' || ch == 'E' {
                        s.push(ch);
                        chars.next();
                    } else {
                        break;
                    }
                }
                // A literal that overflows to infinity would render as
                // `inf`, which does not parse back, so it is malformed too.
                let num = s.parse::<f64>().ok().filter(|n| n.is_finite()).ok_or_else(|| {
                    PipelineError::new(
                        ErrorKind::UnknownKeyword,
                        format!("malformed number literal '{s}'"),
                    )
                    .at_line(line_no)
                })?;
                tokens.push(Token::Num(num));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut s = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_alphanumeric() || ch == '_' {
                        s.push(ch);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(s));
            }
            other => {
                return Err(PipelineError::new(
                    ErrorKind::StrayProse,
                    format!("unexpected character '{other}'"),
                )
                .at_line(line_no));
            }
        }
    }
    Ok(tokens)
}

/// Cursor over one line's tokens with step-grammar helpers.
struct Cursor<'a> {
    tokens: &'a [Token],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Option<&'a Token> {
        let t = self.tokens.get(self.pos);
        self.pos += 1;
        t
    }

    fn err(&self, kind: ErrorKind, msg: impl Into<String>) -> PipelineError {
        PipelineError::new(kind, msg).at_line(self.line)
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), PipelineError> {
        match self.next() {
            Some(Token::Ident(s)) if s == kw => Ok(()),
            other => Err(self.err(
                ErrorKind::UnknownKeyword,
                format!("expected keyword '{kw}', found {other:?}"),
            )),
        }
    }

    fn expect_string(&mut self, what: &str) -> Result<String, PipelineError> {
        match self.next() {
            Some(Token::Str(s)) => Ok(s.clone()),
            other => Err(self.err(
                ErrorKind::UnknownKeyword,
                format!("expected quoted {what}, found {other:?}"),
            )),
        }
    }

    fn expect_number(&mut self, what: &str) -> Result<f64, PipelineError> {
        match self.next() {
            Some(Token::Num(n)) => Ok(*n),
            other => Err(self.err(
                ErrorKind::UnknownKeyword,
                format!("expected numeric {what}, found {other:?}"),
            )),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, PipelineError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s.clone()),
            other => {
                Err(self
                    .err(ErrorKind::UnknownKeyword, format!("expected {what}, found {other:?}")))
            }
        }
    }

    fn column_ref(&mut self) -> Result<ColumnRef, PipelineError> {
        match self.next() {
            Some(Token::Str(s)) => Ok(ColumnRef::Named(s.clone())),
            Some(Token::Star) => Ok(ColumnRef::All),
            other => Err(self.err(
                ErrorKind::UnknownKeyword,
                format!("expected column name or '*', found {other:?}"),
            )),
        }
    }

    fn finish(&mut self) -> Result<(), PipelineError> {
        match self.next() {
            Some(Token::Semi) => {
                if self.pos == self.tokens.len() {
                    Ok(())
                } else {
                    Err(self.err(ErrorKind::StrayProse, "trailing tokens after ';'"))
                }
            }
            None => Err(self.err(ErrorKind::MissingSemicolon, "statement missing ';'")),
            other => {
                Err(self.err(ErrorKind::MissingSemicolon, format!("expected ';', found {other:?}")))
            }
        }
    }
}

const STEP_KEYWORDS: &[&str] = &[
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
];

fn parse_step(tokens: &[Token], line_no: usize) -> Result<Step, PipelineError> {
    let mut c = Cursor { tokens, pos: 0, line: line_no };
    let head = match c.next() {
        Some(Token::Ident(s)) => s.clone(),
        other => {
            return Err(c.err(ErrorKind::StrayProse, format!("expected a step, found {other:?}")))
        }
    };
    if !STEP_KEYWORDS.contains(&head.as_str()) {
        // Distinguish hallucinated keywords from prose: prose lines usually
        // have no terminating semicolon.
        let kind = if tokens.last() == Some(&Token::Semi) {
            ErrorKind::UnknownKeyword
        } else {
            ErrorKind::StrayProse
        };
        return Err(c.err(kind, format!("unknown step '{head}'")));
    }
    let step = match head.as_str() {
        "require" => Step::Require { package: c.expect_string("package name")? },
        "impute" => {
            let column = c.column_ref()?;
            c.expect_keyword("strategy")?;
            let strat = c.expect_ident("imputation strategy")?;
            let strategy = match strat.as_str() {
                "mean" => ImputeSpec::Mean,
                "median" => ImputeSpec::Median,
                "most_frequent" => ImputeSpec::MostFrequent,
                "constant" => match c.next() {
                    Some(Token::Num(n)) => ImputeSpec::ConstantNum(*n),
                    Some(Token::Str(s)) => ImputeSpec::ConstantStr(s.clone()),
                    other => {
                        return Err(c.err(
                            ErrorKind::UnknownKeyword,
                            format!("expected constant value, found {other:?}"),
                        ))
                    }
                },
                other => {
                    return Err(c.err(
                        ErrorKind::UnknownKeyword,
                        format!("unknown imputation strategy '{other}'"),
                    ))
                }
            };
            Step::Impute { column, strategy }
        }
        "scale" => {
            let column = c.column_ref()?;
            c.expect_keyword("method")?;
            let m = c.expect_ident("scaling method")?;
            let method = match m.as_str() {
                "standard" => ScaleMethod::Standard,
                "minmax" => ScaleMethod::MinMax,
                "decimal" => ScaleMethod::Decimal,
                other => {
                    return Err(c.err(
                        ErrorKind::UnknownKeyword,
                        format!("unknown scaling method '{other}'"),
                    ))
                }
            };
            Step::Scale { column, method }
        }
        "encode" => {
            let column = c.column_ref()?;
            c.expect_keyword("method")?;
            let m = c.expect_ident("encoding method")?;
            let method = match m.as_str() {
                "onehot" => EncodeSpec::OneHot,
                "ordinal" => EncodeSpec::Ordinal,
                "khot" => {
                    c.expect_keyword("sep")?;
                    EncodeSpec::KHot { separator: c.expect_string("separator")? }
                }
                "hash" => {
                    c.expect_keyword("buckets")?;
                    EncodeSpec::Hash { buckets: c.expect_number("bucket count")? as usize }
                }
                other => {
                    return Err(c.err(
                        ErrorKind::UnknownKeyword,
                        format!("unknown encoding method '{other}'"),
                    ))
                }
            };
            Step::Encode { column, method }
        }
        "drop" => Step::Drop { column: c.expect_string("column name")? },
        "drop_high_missing" => {
            c.expect_keyword("threshold")?;
            Step::DropHighMissing { threshold: c.expect_number("threshold")? }
        }
        "drop_constant" => Step::DropConstant,
        "dedup" => {
            let mode = c.expect_ident("dedup mode")?;
            match mode.as_str() {
                "exact" => Step::Dedup { approximate: false },
                "approx" => Step::Dedup { approximate: true },
                other => {
                    return Err(
                        c.err(ErrorKind::UnknownKeyword, format!("unknown dedup mode '{other}'"))
                    )
                }
            }
        }
        "drop_null_rows" => Step::DropNullRows,
        "outliers" => {
            let column = c.column_ref()?;
            c.expect_keyword("method")?;
            let m = c.expect_ident("outlier method")?;
            let method = match m.as_str() {
                "iqr" => {
                    c.expect_keyword("factor")?;
                    OutlierSpec::Iqr { factor: c.expect_number("factor")? }
                }
                "zscore" => {
                    c.expect_keyword("factor")?;
                    OutlierSpec::ZScore { factor: c.expect_number("factor")? }
                }
                "lof" => {
                    c.expect_keyword("k")?;
                    let k = c.expect_number("k")? as usize;
                    c.expect_keyword("factor")?;
                    OutlierSpec::Lof { k, factor: c.expect_number("factor")? }
                }
                other => {
                    return Err(c.err(
                        ErrorKind::UnknownKeyword,
                        format!("unknown outlier method '{other}'"),
                    ))
                }
            };
            Step::Outliers { column, method }
        }
        "augment" => {
            c.expect_keyword("method")?;
            let m = c.expect_ident("augmentation method")?;
            let method = match m.as_str() {
                "smote" => AugmentMethod::Smote,
                "adasyn" => AugmentMethod::Adasyn,
                "smogn" => AugmentMethod::Smogn,
                other => {
                    return Err(c.err(
                        ErrorKind::UnknownKeyword,
                        format!("unknown augmentation method '{other}'"),
                    ))
                }
            };
            c.expect_keyword("target")?;
            Step::Augment { method, target: c.expect_string("target column")? }
        }
        "rebalance" => {
            c.expect_keyword("target")?;
            Step::Rebalance { target: c.expect_string("target column")? }
        }
        "select_topk" => {
            let k = c.expect_number("k")? as usize;
            c.expect_keyword("target")?;
            Step::SelectTopK { k, target: c.expect_string("target column")? }
        }
        "model" => {
            let fam = c.expect_ident("model family")?;
            let family = match fam.as_str() {
                "classifier" => ModelFamily::Classifier,
                "regressor" => ModelFamily::Regressor,
                other => {
                    return Err(
                        c.err(ErrorKind::UnknownKeyword, format!("unknown model family '{other}'"))
                    )
                }
            };
            let algo_name = c.expect_ident("model algorithm")?;
            let algo = ModelAlgo::parse(&algo_name).ok_or_else(|| {
                c.err(ErrorKind::UnknownKeyword, format!("unknown model algorithm '{algo_name}'"))
            })?;
            c.expect_keyword("target")?;
            let target = c.expect_string("target column")?;
            // Optional `name value` hyper-parameter pairs until ';'.
            let mut params = Vec::new();
            loop {
                match c.tokens.get(c.pos) {
                    Some(Token::Semi) | None => break,
                    Some(Token::Ident(_)) => {
                        let name = c.expect_ident("hyper-parameter name")?;
                        let value = c.expect_number("hyper-parameter value")?;
                        params.push((name, value));
                    }
                    other => {
                        return Err(c.err(
                            ErrorKind::UnknownKeyword,
                            format!("unexpected token in model step: {other:?}"),
                        ))
                    }
                }
            }
            Step::Model(ModelSpec { family, algo, target, params })
        }
        _ => unreachable!("keyword membership checked above"),
    };
    c.finish()?;
    Ok(step)
}

/// Parse a full pipeline listing into a [`Program`].
pub fn parse(source: &str) -> Result<Program, PipelineError> {
    let mut steps = Vec::new();
    let mut opened = false;
    let mut closed = false;
    for (i, raw_line) in source.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if closed {
            return Err(PipelineError::new(
                ErrorKind::StrayProse,
                format!("text after closing brace: '{line}'"),
            )
            .at_line(line_no));
        }
        if !opened {
            if line == "pipeline {" {
                opened = true;
                continue;
            }
            return Err(PipelineError::new(
                ErrorKind::StrayProse,
                format!("expected 'pipeline {{', found '{line}'"),
            )
            .at_line(line_no));
        }
        if line == "}" {
            closed = true;
            continue;
        }
        let tokens = tokenize_line(line, line_no)?;
        if tokens.is_empty() {
            continue;
        }
        steps.push(parse_step(&tokens, line_no)?);
    }
    if !opened || !closed {
        return Err(PipelineError::new(
            ErrorKind::UnbalancedBraces,
            if opened { "missing closing '}'" } else { "missing 'pipeline {' header" },
        ));
    }
    Ok(Program::new(steps))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_canonical_render_round_trip() {
        let src = r#"
pipeline {
  require "tabular";
  impute "age" strategy mean;
  impute "city" strategy most_frequent;
  scale "income" method standard;
  encode "city" method onehot;
  encode "skills" method khot sep ",";
  encode "uid" method hash buckets 16;
  drop "notes";
  drop_high_missing threshold 0.98;
  drop_constant;
  dedup approx;
  drop_null_rows;
  outliers "income" method iqr factor 1.5;
  augment method adasyn target "y";
  rebalance target "y";
  select_topk 20 target "y";
  model classifier random_forest target "y" trees 50 depth 12;
}
"#;
        let program = parse(src).unwrap();
        assert_eq!(program.steps.len(), 17);
        // Round trip through the canonical rendering.
        let again = parse(&program.render()).unwrap();
        assert_eq!(program, again);
    }

    #[test]
    fn reports_missing_semicolon_with_line() {
        let src = "pipeline {\n  drop \"a\"\n}\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.kind, ErrorKind::MissingSemicolon);
        assert_eq!(err.line, Some(2));
    }

    #[test]
    fn reports_unbalanced_braces() {
        let err = parse("pipeline {\n  drop_constant;\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnbalancedBraces);
        let err2 = parse("  drop_constant;\n}").unwrap_err();
        assert_eq!(err2.kind, ErrorKind::StrayProse);
    }

    #[test]
    fn reports_stray_prose() {
        let src = "pipeline {\n  Here is the generated pipeline\n  drop_constant;\n}\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.kind, ErrorKind::StrayProse);
        assert_eq!(err.line, Some(2));
    }

    #[test]
    fn reports_unknown_keyword() {
        let src = "pipeline {\n  normalize \"x\" method standard;\n}\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownKeyword);
    }

    #[test]
    fn reports_unterminated_string() {
        let src = "pipeline {\n  drop \"broken;\n}\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnterminatedString);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let src = "\n# a comment\npipeline {\n\n  # inline\n  drop_constant;\n}\n";
        let p = parse(src).unwrap();
        assert_eq!(p.steps.len(), 1);
    }

    #[test]
    fn star_column_refs_parse() {
        let src = "pipeline {\n  impute * strategy median;\n  scale * method minmax;\n}\n";
        let p = parse(src).unwrap();
        assert_eq!(
            p.steps[0],
            Step::Impute { column: ColumnRef::All, strategy: ImputeSpec::Median }
        );
    }

    #[test]
    fn model_params_are_collected() {
        let src = "pipeline {\n  model regressor ridge target \"y\" l2 0.5;\n}\n";
        let p = parse(src).unwrap();
        let m = p.model().unwrap();
        assert_eq!(m.param("l2"), Some(0.5));
        assert_eq!(m.family, ModelFamily::Regressor);
    }

    #[test]
    fn overflowing_number_literals_are_malformed() {
        for literal in ["1e999", "-1e999", "1E400"] {
            let src = format!("pipeline {{\n  drop_high_missing threshold {literal};\n}}\n");
            let err = parse(&src).unwrap_err();
            assert_eq!(err.kind, ErrorKind::UnknownKeyword, "{literal}");
            assert_eq!(err.line, Some(2));
            assert_eq!(err.message, format!("malformed number literal '{literal}'"));
        }
        // Underflow to zero is finite and renders back as a literal.
        let p = parse("pipeline {\n  drop_high_missing threshold 1e-999;\n}\n").unwrap();
        assert_eq!(p.steps[0], Step::DropHighMissing { threshold: 0.0 });
        assert_eq!(parse(&p.render()).unwrap(), p);
    }

    #[test]
    fn trailing_tokens_after_semicolon_rejected() {
        let src = "pipeline {\n  drop_constant; drop \"x\";\n}\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.kind, ErrorKind::StrayProse);
    }
}
