//! Lightweight function/call graph for the workspace rules.
//!
//! Built straight from the [`crate::lexer`] token stream: every `fn` item
//! outside `#[cfg(test)]`/`#[test]` ranges becomes a node, and every
//! `ident(` inside its body becomes a call edge *by name* — `.method(`,
//! `path::free_fn(`, and `free_fn(` all reduce to the bare identifier.
//! There is no type resolution, so resolution is conservative: a call
//! resolves only when the name is defined somewhere in the analyzed scope,
//! and rules that need an unambiguous target (layer-boundary) skip names
//! defined in more than one place. That trades recall for zero false
//! resolution — exactly the right trade for a `--deny` CI gate.

use crate::lexer::Token;
use crate::{matching, FileUnit};

/// A call site inside a function body, recorded by callee name.
#[derive(Clone, Debug)]
pub(crate) struct CallSite {
    pub(crate) name: String,
    pub(crate) line: u32,
    pub(crate) col: u32,
}

/// One `fn` item in one file.
#[derive(Clone, Debug)]
pub(crate) struct FnDef {
    pub(crate) name: String,
    /// Index into the workspace's `FileUnit` list.
    pub(crate) file: usize,
    /// Calls in the body (none for a bodyless trait-method declaration).
    pub(crate) calls: Vec<CallSite>,
}

/// Keywords that read like calls (`if (…)`, `return (…)`, `match (…)`)
/// but never are.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "loop", "return", "fn", "let", "else", "in",
];

/// Extract every non-test `fn` item of one file. `file_idx` is stored on
/// each def so callers can map back to the unit.
pub(crate) fn extract_fns(unit: &FileUnit, file_idx: usize) -> Vec<FnDef> {
    let toks = &unit.lexed.tokens;
    let mut defs = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if unit.in_test(i) || toks[i].ident() != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        let Some(name) = name_tok.ident() else {
            i += 1;
            continue;
        };
        // Find the body: first `{` (or a terminating `;` for trait method
        // declarations) at paren/bracket depth 0 after the signature.
        // Generics and return types contain no braces, so this is exact.
        let mut j = i + 2;
        let mut depth = 0usize;
        let mut body = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct(';') {
                break;
            } else if depth == 0 && t.is_punct('{') {
                body = matching(toks, j, '{', '}').map(|end| (j, end));
                break;
            }
            j += 1;
        }
        let calls = body.map_or_else(Vec::new, |(open, close)| body_calls(toks, open, close));
        defs.push(FnDef {
            name: name.to_string(),
            file: file_idx,
            calls,
        });
        // Continue *inside* the body too: nested fns become their own defs
        // (their calls are conservatively counted for the outer fn as well).
        i += 2;
    }
    defs
}

/// Every `ident(` inside the body range, minus keywords and macro
/// invocations (`ident!(…)` never matches: the `!` sits between).
fn body_calls(toks: &[Token], open: usize, close: usize) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for k in open + 1..close {
        let Some(name) = toks[k].ident() else {
            continue;
        };
        if !toks.get(k + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // `fn name(` is a (nested) definition, not a call.
        if k > 0 && toks[k - 1].ident() == Some("fn") {
            continue;
        }
        calls.push(CallSite {
            name: name.to_string(),
            line: toks[k].line,
            col: toks[k].col,
        });
    }
    calls
}

/// Name → indices of defs bearing it, over a def slice.
pub(crate) fn name_index(defs: &[FnDef]) -> std::collections::BTreeMap<&str, Vec<usize>> {
    let mut map: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
    for (i, d) in defs.iter().enumerate() {
        map.entry(d.name.as_str()).or_default().push(i);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Profile;

    fn unit(src: &str) -> FileUnit {
        FileUnit::new("crates/x/src/lib.rs".into(), src.into(), Profile::Strict)
    }

    #[test]
    fn extracts_defs_and_calls() {
        let u = unit(
            "pub fn a(x: u32) -> u32 { b(x) + c.d(x) }\n\
             fn b(x: u32) -> u32 { if x > 0 { x } else { e() } }\n\
             trait T { fn decl(&self); }\n",
        );
        let defs = extract_fns(&u, 0);
        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "decl"]);
        let a_calls: Vec<&str> = defs[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(a_calls, vec!["b", "d"]);
        let b_calls: Vec<&str> = defs[1].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(b_calls, vec!["e"], "`if (…)`-style keywords are not calls");
        assert!(defs[2].calls.is_empty(), "trait declarations have no body");
    }

    #[test]
    fn test_items_and_macros_are_excluded() {
        let u = unit(
            "fn live() { helper(); assert_eq!(1, 1); }\n\
             #[cfg(test)]\nmod tests {\n    fn hidden() { live(); }\n}\n",
        );
        let defs = extract_fns(&u, 0);
        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["live"]);
        let calls: Vec<&str> = defs[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, vec!["helper"], "macro bang calls are not edges");
    }
}
