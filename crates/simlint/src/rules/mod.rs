//! The cross-file (workspace) rule. Its pass takes the parsed
//! [`crate::WsConfig`], the file units, and the extracted function graph,
//! and returns raw matches as `(file index, rule, line, col)` — directive
//! suppression and level handling happen later in the shared
//! `finish_file` phase, so the escape hatches work identically for
//! per-file and cross-file findings.

pub(crate) mod layer_boundary;

/// A cross-file raw match: (file index, rule, line, col).
pub(crate) type FileMatch = (usize, crate::Rule, u32, u32);
