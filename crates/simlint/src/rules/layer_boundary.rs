//! `layer-boundary`: calls between the PR 5 layer modules must follow the
//! declared admission → planning → dispatch → faults → reporting flow.
//!
//! Each layer owns a set of files (`[layer-boundary.modules]`); a call
//! from a file in layer *i* to a function whose every definition lives in
//! layer *j* with *j < i* is layer erosion, flagged at the call site.
//! Resolution is deliberately conservative — a call edge exists only when
//! the callee's name is defined in the analyzed tree and **all** of its
//! definitions land in one single layer (names also defined in unlayered
//! files, e.g. the `mod.rs` event hub, or in several layers, never
//! resolve). Combined with the ubiquitous-name ignore list this keeps the
//! false-positive rate at zero at the cost of missing some edges, which
//! is the correct trade for a `--deny` gate; accepted feedback edges
//! (e.g. the reporting → admission wakeup) are waived in the committed
//! baseline with reasons.

use super::FileMatch;
use crate::graph::{name_index, FnDef};
use crate::{FileUnit, Rule, WsConfig};

pub(crate) fn run(
    ws: &WsConfig,
    units: &[FileUnit],
    defs: &[FnDef],
) -> Result<Vec<FileMatch>, String> {
    let lc = &ws.layers;
    // order index per layer name; validated against modules at parse time.
    let order_of = |layer: &str| lc.order.iter().position(|o| o == layer);
    let layer_of_file = |display: &str| -> Option<usize> {
        for (name, files) in &lc.modules {
            if files.iter().any(|f| display.ends_with(f.as_str())) {
                return order_of(name);
            }
        }
        None
    };

    // Layer of each definition (None = unlayered: hub/merge/support files).
    let def_layer: Vec<Option<usize>> = defs
        .iter()
        .map(|d| layer_of_file(&units[d.file].display))
        .collect();
    let index = name_index(defs);

    let mut out = Vec::new();
    for (di, d) in defs.iter().enumerate() {
        let Some(caller) = def_layer[di] else {
            continue;
        };
        for call in &d.calls {
            if ws.ignore_calls.contains(&call.name) {
                continue;
            }
            let Some(targets) = index.get(call.name.as_str()) else {
                continue;
            };
            // All definitions of the name must agree on a single layer.
            let mut layers = targets.iter().map(|&t| def_layer[t]);
            let Some(Some(first)) = layers.next() else {
                continue;
            };
            if !layers.all(|l| l == Some(first)) {
                continue;
            }
            if first < caller {
                out.push((d.file, Rule::LayerBoundary, call.line, call.col));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::extract_fns;

    fn ws() -> WsConfig {
        WsConfig::parse(
            "[layer-boundary]\norder = [\"admission\", \"dispatch\", \"reporting\"]\n\
             [layer-boundary.modules]\n\
             admission = [\"src/admission.rs\"]\n\
             dispatch = [\"src/dispatch.rs\"]\n\
             reporting = [\"src/reporting.rs\"]\n",
        )
        .unwrap()
    }

    fn check(files: &[(&str, &str)]) -> Vec<FileMatch> {
        let units: Vec<FileUnit> = files
            .iter()
            .map(|(p, s)| FileUnit::new(p.to_string(), s.to_string()))
            .collect();
        let mut defs = Vec::new();
        for (i, u) in units.iter().enumerate() {
            defs.extend(extract_fns(u, i));
        }
        run(&ws(), &units, &defs).unwrap()
    }

    #[test]
    fn forward_and_same_layer_calls_pass_backward_calls_fail() {
        let m = check(&[
            (
                "src/admission.rs",
                "fn admit(s: &mut S) { local(s); enqueue_op(s); }\nfn local(_s: &mut S) {}\n",
            ),
            (
                "src/dispatch.rs",
                "fn enqueue_op(s: &mut S) {}\nfn drain(s: &mut S) { admit(s); }\n",
            ),
            (
                "src/reporting.rs",
                "fn finalize(s: &mut S) { enqueue_op(s); }\n",
            ),
        ]);
        // dispatch→admission (`admit`) and reporting→dispatch (`enqueue_op`)
        // are backward; admission→dispatch is the declared flow.
        assert_eq!(m.len(), 2, "{m:?}");
        assert_eq!(m[0].0, 1, "flagged in dispatch.rs");
        assert_eq!(m[1].0, 2, "flagged in reporting.rs");
        assert!(m.iter().all(|&(_, r, _, _)| r == Rule::LayerBoundary));
    }

    #[test]
    fn ambiguous_and_unlayered_names_never_resolve() {
        let m = check(&[
            // `helper` defined in two layers → ambiguous → skipped.
            ("src/admission.rs", "fn helper(_s: &S) {}\n"),
            (
                "src/reporting.rs",
                "fn helper(_s: &S) {}\nfn own(_s: &S) {}\n",
            ),
            (
                "src/dispatch.rs",
                "fn go(s: &S) { helper(s); hub(s); push(s); }\n",
            ),
            // `hub` lives in an unlayered file → never resolves.
            ("src/mod.rs", "fn hub(_s: &S) {}\n"),
        ]);
        assert!(m.is_empty(), "{m:?}");
    }
}
