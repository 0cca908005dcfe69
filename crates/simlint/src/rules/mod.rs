//! The cross-file (workspace) rule. Its pass takes the parsed
//! [`crate::WsConfig`], the file units, and the extracted function graph,
//! and returns raw matches as `(file index, rule, line, col)` — level
//! handling happens later in the shared `finish_file` phase, and the
//! baseline applies to per-file and cross-file findings alike.

pub(crate) mod layer_boundary;

/// A cross-file raw match: (file index, rule, line, col).
pub(crate) type FileMatch = (usize, crate::Rule, u32, u32);
