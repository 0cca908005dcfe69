//! `--format sarif` must emit *valid* JSON for any diagnostic content —
//! quotes, backslashes, and control characters in snippets or paths all
//! round-trip. The check parses the output with a
//! strict, dependency-free JSON parser (no trailing commas, no lenient
//! escapes) rather than eyeballing substrings, so an escaping bug is a
//! parse failure, not a fuzzy mismatch.

use simlint::{to_sarif, Diagnostic, Rule};

/// Minimal strict JSON value for the round-trip assertions.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    #[expect(
        clippy::panic,
        reason = "a test helper: a document of the wrong shape fails the test"
    )]
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key:?} in {self:?}")),
            other => panic!("expected object for key {key:?}, got {other:?}"),
        }
    }

    #[expect(
        clippy::panic,
        reason = "a test helper: a document of the wrong shape fails the test"
    )]
    fn idx(&self, i: usize) -> &Json {
        match self {
            Json::Arr(items) => &items[i],
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[expect(
        clippy::panic,
        reason = "a test helper: a document of the wrong shape fails the test"
    )]
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[expect(
        clippy::panic,
        reason = "a test helper: a document of the wrong shape fails the test"
    )]
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[expect(
        clippy::panic,
        reason = "a test helper: a document of the wrong shape fails the test"
    )]
    fn arr_len(&self) -> usize {
        match self {
            Json::Arr(items) => items.len(),
            other => panic!("expected array, got {other:?}"),
        }
    }
}

fn parse(src: &str) -> Result<Json, String> {
    let b: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let v = parse_value(&b, &mut i)?;
    skip_ws(&b, &mut i);
    if i != b.len() {
        return Err(format!("trailing garbage at {i}"));
    }
    Ok(v)
}

fn skip_ws(b: &[char], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], ' ' | '\t' | '\n' | '\r') {
        *i += 1;
    }
}

fn expect(b: &[char], i: &mut usize, c: char) -> Result<(), String> {
    if b.get(*i) == Some(&c) {
        *i += 1;
        Ok(())
    } else {
        Err(format!("expected {c:?} at {i}, found {:?}", b.get(*i)))
    }
}

fn parse_value(b: &[char], i: &mut usize) -> Result<Json, String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some('{') => {
            *i += 1;
            let mut fields = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&'}') {
                *i += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, i);
                let key = parse_string(b, i)?;
                skip_ws(b, i);
                expect(b, i, ':')?;
                let val = parse_value(b, i)?;
                fields.push((key, val));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(',') => *i += 1,
                    Some('}') => {
                        *i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    other => return Err(format!("expected , or }} at {i}, found {other:?}")),
                }
            }
        }
        Some('[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&']') {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, i)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(',') => *i += 1,
                    Some(']') => {
                        *i += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("expected , or ] at {i}, found {other:?}")),
                }
            }
        }
        Some('"') => Ok(Json::Str(parse_string(b, i)?)),
        Some('t') if b[*i..].starts_with(&['t', 'r', 'u', 'e']) => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some('f') if b[*i..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some('n') if b[*i..].starts_with(&['n', 'u', 'l', 'l']) => {
            *i += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == '-' => {
            let start = *i;
            *i += 1;
            while b
                .get(*i)
                .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
            {
                *i += 1;
            }
            let text: String = b[start..*i].iter().collect();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?}"))
        }
        other => Err(format!("unexpected {other:?} at {i}")),
    }
}

fn parse_string(b: &[char], i: &mut usize) -> Result<String, String> {
    expect(b, i, '"')?;
    let mut out = String::new();
    loop {
        match b.get(*i) {
            None => return Err("unterminated string".into()),
            Some('"') => {
                *i += 1;
                return Ok(out);
            }
            Some('\\') => {
                *i += 1;
                match b.get(*i) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let hex: String = b
                            .get(*i + 1..*i + 5)
                            .ok_or("truncated \\u escape")?
                            .iter()
                            .collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        out.push(char::from_u32(code).ok_or("invalid code point")?);
                        *i += 4;
                    }
                    other => return Err(format!("illegal escape {other:?}")),
                }
                *i += 1;
            }
            Some(c) if (*c as u32) < 0x20 => {
                return Err(format!("raw control character {c:?} in string"));
            }
            Some(c) => {
                out.push(*c);
                *i += 1;
            }
        }
    }
}

/// Diagnostics whose every string field is hostile to naive escaping.
fn hostile_diags() -> Vec<Diagnostic> {
    vec![
        Diagnostic {
            rule: Rule::UnitSafety,
            file: "crates\\weird\"dir/lib.rs".into(),
            line: 3,
            col: 9,
            snippet: "let s = \"quote \\\" backslash \\\\ tab\there\";".into(),
        },
        Diagnostic {
            rule: Rule::FleetBoundary,
            file: "src/ctrl.rs".into(),
            line: 1,
            col: 1,
            snippet: "bell\u{7}and\u{1}control // Rc::new(x)".into(),
        },
    ]
}

#[test]
fn to_sarif_output_is_strictly_parseable_and_well_formed() {
    let diags = hostile_diags();
    let doc = parse(&to_sarif(&diags)).expect("to_sarif emits strict JSON");
    assert_eq!(doc.get("version").str(), "2.1.0");
    let run = doc.get("runs").idx(0);
    let driver = run.get("tool").get("driver");
    assert_eq!(driver.get("name").str(), "simlint");
    // Full rule catalog rides along for code-scanning display.
    assert_eq!(driver.get("rules").arr_len(), 5);
    let results = run.get("results");
    assert_eq!(results.arr_len(), 2);
    let r0 = results.idx(0);
    assert_eq!(r0.get("ruleId").str(), "unit-safety");
    assert_eq!(r0.get("level").str(), "error");
    assert!(r0
        .get("message")
        .get("text")
        .str()
        .contains(&diags[0].snippet));
    let loc = r0.idx_location();
    assert_eq!(loc.get("artifactLocation").get("uri").str(), diags[0].file);
    assert_eq!(loc.get("region").get("startLine").num(), 3.0);
    let r1 = results.idx(1);
    assert_eq!(r1.get("level").str(), "error");
    assert!(r1
        .get("message")
        .get("text")
        .str()
        .contains("bell\u{7}and\u{1}control"));
}

impl Json {
    fn idx_location(&self) -> &Json {
        self.get("locations").idx(0).get("physicalLocation")
    }
}

#[test]
fn empty_diag_list_is_still_valid_sarif() {
    let doc = parse(&to_sarif(&[])).unwrap();
    assert_eq!(doc.get("runs").idx(0).get("results").arr_len(), 0);
}
