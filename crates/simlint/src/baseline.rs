//! The committed-baseline (waiver) mechanism.
//!
//! New rules land at `--deny` without a flag-day: accepted findings are
//! recorded in `simlint.baseline.toml` as `[[waiver]]` entries and
//! subtracted from the run. A waiver matches on the
//! **(rule, file, snippet)** triple — the trimmed source line, not its
//! line number — so ordinary drift above the site does not invalidate it,
//! while any edit to the waived line itself forces a fresh decision.
//! Every waiver carries a mandatory `reason`; a reason-less entry is a
//! parse error. The baseline is simlint's only escape hatch.
//!
//! `simlint --write-baseline` regenerates the file from the current
//! denied findings (with placeholder reasons to be filled in before
//! committing); unused waivers are reported at the end of a run so the
//! baseline can only shrink silently, never rot.

use crate::{toml, Diagnostic, Rule};

#[derive(Clone, Debug)]
pub struct Waiver {
    pub rule: String,
    pub file: String,
    /// Trimmed source line of the waived finding.
    pub snippet: String,
    pub reason: String,
}

/// Parse a baseline file. Unknown rules and empty reasons are hard errors
/// so the waiver set cannot silently drift from the rule set.
pub fn parse(src: &str) -> Result<Vec<Waiver>, String> {
    let root = toml::parse(src)?;
    let mut out = Vec::new();
    let Some(entries) = root.get("waiver") else {
        return Ok(out);
    };
    let toml::Value::TableArr(entries) = entries else {
        return Err("baseline: `waiver` must be declared as [[waiver]] entries".into());
    };
    for (i, t) in entries.iter().enumerate() {
        let field = |k: &str| -> Result<String, String> {
            t.get(k)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("baseline: [[waiver]] #{} is missing `{k}`", i + 1))
        };
        let w = Waiver {
            rule: field("rule")?,
            file: field("file")?,
            snippet: field("snippet")?,
            reason: field("reason")?,
        };
        if Rule::from_name(&w.rule).is_none() {
            return Err(format!(
                "baseline: [[waiver]] #{} names unknown rule `{}`",
                i + 1,
                w.rule
            ));
        }
        if w.reason.trim().is_empty() {
            return Err(format!(
                "baseline: [[waiver]] #{} ({}, {}) has an empty reason — justify it or fix \
                 the finding",
                i + 1,
                w.rule,
                w.file
            ));
        }
        out.push(w);
    }
    Ok(out)
}

/// Remove the diagnostics covered by `waivers` from `diags`; returns the
/// waivers that covered nothing (stale entries worth deleting).
pub fn apply(diags: &mut Vec<Diagnostic>, waivers: &[Waiver]) -> Vec<Waiver> {
    let mut used = vec![false; waivers.len()];
    diags.retain(|d| {
        let hit = waivers
            .iter()
            .position(|w| w.rule == d.rule.name() && w.file == d.file && w.snippet == d.snippet);
        match hit {
            Some(i) => {
                used[i] = true;
                false
            }
            None => true,
        }
    });
    waivers
        .iter()
        .zip(used)
        .filter(|(_, u)| !u)
        .map(|(w, _)| w.clone())
        .collect()
}

/// Render the denied findings as a fresh baseline file. Reasons are
/// emitted as placeholders: fill each one in (or fix the finding) before
/// committing — the parser rejects the placeholder-free empty string but
/// review should reject an unexplained `TODO` just as hard.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut out = String::from(
        "# simlint baseline: accepted findings, keyed by (rule, file, snippet).\n\
         # Every entry needs a real `reason`. Regenerate with --write-baseline;\n\
         # delete entries the run reports as unused.\n",
    );
    // One waiver covers every site with the same (rule, file, snippet)
    // triple, so repeated findings collapse to a single entry.
    let mut seen = std::collections::BTreeSet::new();
    for d in diags {
        if d.level != crate::Level::Deny {
            continue;
        }
        if !seen.insert((d.rule.name(), d.file.as_str(), d.snippet.as_str())) {
            continue;
        }
        out.push_str(&format!(
            "\n[[waiver]]\nrule = {}\nfile = {}\nsnippet = {}\nreason = {}\n",
            toml::escape(d.rule.name()),
            toml::escape(&d.file),
            toml::escape(&d.snippet),
            toml::escape("TODO: justify this waiver or fix the finding"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;

    fn diag(rule: Rule, file: &str, snippet: &str) -> Diagnostic {
        Diagnostic {
            rule,
            level: Level::Deny,
            file: file.into(),
            line: 3,
            col: 7,
            snippet: snippet.into(),
        }
    }

    #[test]
    fn waivers_match_on_rule_file_snippet_and_report_stale_entries() {
        let src = "[[waiver]]\nrule = \"layer-boundary\"\nfile = \"a.rs\"\n\
                   snippet = \"self.admit_waiters(r.array);\"\nreason = \"accepted wakeup edge\"\n\
                   [[waiver]]\nrule = \"unit-safety\"\nfile = \"b.rs\"\n\
                   snippet = \"gone\"\nreason = \"stale\"\n";
        let waivers = parse(src).unwrap();
        let mut diags = vec![
            diag(Rule::LayerBoundary, "a.rs", "self.admit_waiters(r.array);"),
            diag(Rule::LayerBoundary, "a.rs", "other_line();"),
        ];
        let unused = apply(&mut diags, &waivers);
        assert_eq!(diags.len(), 1, "only the exact triple is waived");
        assert_eq!(diags[0].snippet, "other_line();");
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].file, "b.rs");
    }

    #[test]
    fn rejects_unknown_rules_and_empty_reasons() {
        let bad_rule = "[[waiver]]\nrule = \"nope\"\nfile = \"a.rs\"\n\
                        snippet = \"x\"\nreason = \"y\"\n";
        assert!(parse(bad_rule).is_err());
        let no_reason = "[[waiver]]\nrule = \"unit-safety\"\nfile = \"a.rs\"\n\
                         snippet = \"x\"\nreason = \"  \"\n";
        assert!(parse(no_reason).is_err());
        let missing = "[[waiver]]\nrule = \"unit-safety\"\nfile = \"a.rs\"\nreason = \"y\"\n";
        assert!(parse(missing).is_err());
    }

    #[test]
    fn render_round_trips_through_parse_even_with_hostile_snippets() {
        let snippet = "let s = \"quoted \\\\ back\\tslash\";";
        let d = diag(Rule::UnitSafety, "weird\\path.rs", snippet);
        let text = render(std::slice::from_ref(&d));
        // The placeholder reason parses (it is non-empty); the snippet
        // survives escaping exactly.
        let ws = parse(&text).unwrap();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].snippet, snippet);
        assert_eq!(ws[0].file, "weird\\path.rs");
        let mut diags = vec![d];
        assert!(apply(&mut diags, &ws).is_empty());
        assert!(diags.is_empty(), "round-tripped waiver suppresses");
    }

    #[test]
    fn warn_level_diags_are_not_baselined() {
        let mut d = diag(Rule::UnitSafety, "a.rs", "x");
        d.level = Level::Warn;
        assert!(!render(&[d]).contains("[[waiver]]"));
    }
}
