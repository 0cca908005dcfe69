//! SARIF 2.1.0 output (`--format sarif`) for CI code-scanning annotation.
//!
//! Emits the minimal valid document GitHub code scanning accepts: one run,
//! a tool driver carrying the full rule catalog (id + help text), and one
//! result per diagnostic with a physical location. Every result is an
//! error.

use crate::{Diagnostic, RULES};

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
         \"driver\": {\n          \"name\": \"simlint\",\n          \
         \"informationUri\": \"https://example.invalid/simlint\",\n          \"rules\": [",
    );
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"help\": {{\"text\": \"{}\"}}}}",
            r.name(),
            json_escape(r.name()),
            json_escape(r.hint())
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"error\",\n          \
             \"message\": {{\"text\": \"{}\"}},\n          \"locations\": [\n            \
             {{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}\n          ]\n        }}",
            d.rule.name(),
            json_escape(&format!("{}: {}", d.rule.name(), d.snippet)),
            json_escape(&d.file),
            d.line,
            d.col
        ));
    }
    out.push_str("\n      ]\n    }\n  ]\n}");
    out
}
