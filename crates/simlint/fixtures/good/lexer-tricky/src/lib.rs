//! Comments mention busy_ns as f64 and Organization::Base, but comment
//! text is not code.
/* outer /* nested t_ms + blocks block comment */ still commented splitmix64(1) */

pub fn demo() -> String {
    let plain = "// not a comment: busy_ns as f64 and latent_stream(3)";
    let raw = r#"raw "string" with // Organization::Base and t_ms + blocks"#;
    let hashy = r##"ends with one hash: "# and keeps going"##;
    let escaped = "quote \" then // busy_ns as f64";
    format!("{plain}{raw}{hashy}{escaped}")
}
