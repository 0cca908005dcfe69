//! The hand-rolled lexer every simlint pass runs on.
//!
//! `syn` is unavailable in this offline workspace, so analysis works on a
//! purpose-built token stream: comments, string/char literals, lifetimes,
//! and numeric literals are stripped exactly (none of them can carry a
//! violation). Getting this boundary exactly right is what keeps the rules
//! exact: a `//` inside a string must not start a comment (and hide the
//! code after it), and a rule token inside a raw string must not fire.

/// One lexical token that survives stripping: an identifier/keyword or a
/// single punctuation character.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Tok {
    Ident(String),
    Punct(char),
}

#[derive(Clone, Debug)]
pub(crate) struct Token {
    pub(crate) tok: Tok,
    pub(crate) line: u32,
    pub(crate) col: u32,
}

impl Token {
    pub(crate) fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            Tok::Punct(_) => None,
        }
    }

    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }
}

/// Tokenize `src`, stripping comments, strings, chars, lifetimes, and
/// numeric literals — none of which can carry a violation.
pub(crate) fn lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! bump {
        () => {{
            if b[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
            while i < b.len() && b[i] != '\n' {
                bump!();
            }
            continue;
        }
        // Block comment, nested.
        if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                    depth += 1;
                    bump!();
                    bump!();
                } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                    depth -= 1;
                    bump!();
                    bump!();
                    if depth == 0 {
                        break;
                    }
                } else {
                    bump!();
                }
            }
            continue;
        }
        // String-ish literals, including raw and byte forms.
        if c == '"' || c == 'r' || c == 'b' {
            let (is_str, prefix_len, raw_hashes) = string_prefix(c, &b[i..]);
            if is_str {
                for _ in 0..prefix_len {
                    bump!();
                }
                if let Some(h) = raw_hashes {
                    // Raw string: ends at `"` followed by `h` hashes.
                    while i < b.len() {
                        if b[i] == '"'
                            && b[i + 1..].len() >= h
                            && b[i + 1..i + 1 + h].iter().all(|&x| x == '#')
                        {
                            bump!(); // closing quote
                            for _ in 0..h {
                                bump!();
                            }
                            break;
                        }
                        bump!();
                    }
                } else {
                    // Cooked string: honor escapes.
                    while i < b.len() {
                        if b[i] == '\\' && i + 1 < b.len() {
                            bump!();
                            bump!();
                        } else if b[i] == '"' {
                            bump!();
                            break;
                        } else {
                            bump!();
                        }
                    }
                }
                continue;
            }
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = b.get(i + 1).copied();
            let after = b.get(i + 2).copied();
            let is_lifetime =
                matches!(next, Some(n) if n.is_alphabetic() || n == '_') && after != Some('\'');
            bump!(); // the quote
            if is_lifetime {
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    bump!();
                }
            } else {
                // Char literal: consume to the closing quote, honoring escapes.
                while i < b.len() {
                    if b[i] == '\\' && i + 1 < b.len() {
                        bump!();
                        bump!();
                    } else if b[i] == '\'' {
                        bump!();
                        break;
                    } else {
                        bump!();
                    }
                }
            }
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let tl = line;
            let tc = col;
            let start = i;
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                bump!();
            }
            tokens.push(Token {
                tok: Tok::Ident(b[start..i].iter().collect()),
                line: tl,
                col: tc,
            });
            continue;
        }
        // Numeric literal: swallowed entirely (cannot carry a violation).
        if c.is_ascii_digit() {
            while i < b.len()
                && (b[i].is_alphanumeric()
                    || b[i] == '_'
                    || (b[i] == '.' && b.get(i + 1).is_some_and(|d| d.is_ascii_digit())))
            {
                bump!();
            }
            continue;
        }
        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }
        tokens.push(Token {
            tok: Tok::Punct(c),
            line,
            col,
        });
        bump!();
    }

    tokens
}

/// Classify a possible string-literal start at `tail[0]`: returns
/// (is_string, prefix chars before the content, Some(hash_count) for raw
/// strings). `r`/`b` that do not begin a literal (plain identifiers, raw
/// identifiers like `r#fn`) return `(false, …)` and lex as identifiers.
fn string_prefix(c: char, tail: &[char]) -> (bool, usize, Option<usize>) {
    match c {
        '"' => (true, 1, None),
        'r' | 'b' => {
            let mut j = 1;
            if c == 'b' && tail.get(1) == Some(&'r') {
                j = 2;
            } else if c == 'b' && tail.get(1) == Some(&'"') {
                return (true, 2, None);
            } else if c == 'b' {
                return (false, 0, None);
            }
            let mut hashes = 0;
            while tail.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if tail.get(j) == Some(&'"') {
                (true, j + 1, Some(hashes))
            } else {
                (false, 0, None)
            }
        }
        _ => (false, 0, None),
    }
}
