//! Line-oriented source model shared by every lint.
//!
//! The container ships no parser crates, so the line-oriented lints work
//! on a stripped view of each file: comments and literal *contents* are
//! blanked (the delimiters stay), which keeps byte/line positions stable
//! while making naive substring checks sound — `".unwrap()"` inside a
//! string or a comment no longer looks like a call.  Raw lines are kept
//! alongside for the things that live *in* comments: `SAFETY:` audits and
//! `af-analyze: allow(...)` markers.
//!
//! Since the token-aware rewrite the stripped view is *rendered from the
//! lexer's token stream* ([`crate::lex::stripped`]); the original
//! character-machine stripper survives here as [`strip_legacy`], the
//! differential oracle the lexer is pinned against (proptest plus a sweep
//! over every real workspace file).

use crate::lex::{self, Token};

/// One `.rs` file prepared for analysis.
pub struct SourceFile {
    /// Path relative to the workspace root, forward slashes.
    pub rel: String,
    /// Raw text lines.
    pub lines: Vec<String>,
    /// Lines with comments and literal contents blanked.
    pub code: Vec<String>,
    /// Per-line flag: inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// The token stream the stripped view was rendered from.
    pub tokens: Vec<Token>,
}

impl SourceFile {
    /// Parses `text` (the contents of `rel`) into the model.
    pub fn parse(rel: &str, text: &str) -> SourceFile {
        let tokens = lex::lex(text);
        let stripped = lex::stripped_from(&tokens, text);
        let lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let code: Vec<String> = stripped.lines().map(str::to_owned).collect();
        let in_test = test_mask(&code);
        SourceFile {
            rel: rel.to_owned(),
            lines,
            code,
            in_test,
            tokens,
        }
    }
}

/// Blanks comments and literal contents, preserving line structure.
///
/// The pre-token-stream implementation, kept as the differential oracle
/// for [`crate::lex::stripped`].  Production parsing no longer calls it.
pub fn strip_legacy(text: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        Line,          // line comment
        Block(u32),    // nested block comment
        Str,           // "..."
        RawStr(usize), // r##"..."## with N hashes
        Char,          // '...'
    }
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == St::Line {
                st = St::Code;
            }
            out.push('\n');
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = St::Line;
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::Block(1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Str;
                    out.push('"');
                    i += 1;
                } else if c == 'r' && matches!(next, Some('"') | Some('#')) {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime: a literal closes within a
                    // few chars ('x', '\n', '\u{..}'); a lifetime does not.
                    if next == Some('\\') || chars.get(i + 2) == Some(&'\'') {
                        st = St::Char;
                        out.push('\'');
                        i += 1;
                    } else {
                        out.push('\'');
                        i += 1;
                    }
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            St::Line => {
                out.push(' ');
                i += 1;
            }
            St::Block(d) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    st = St::Block(d + 1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if d == 1 { St::Code } else { St::Block(d - 1) };
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                    if chars.get(i - 1) == Some(&'\n') {
                        out.pop();
                        out.push('\n');
                    }
                } else if c == '"' {
                    st = St::Code;
                    out.push('"');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            St::RawStr(n) => {
                if c == '"' {
                    let closed = (0..n).all(|k| chars.get(i + 1 + k) == Some(&'#'));
                    if closed {
                        st = St::Code;
                        for _ in 0..=n {
                            out.push(' ');
                        }
                        i += n + 1;
                        continue;
                    }
                }
                out.push(' ');
                i += 1;
            }
            St::Char => {
                if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    st = St::Code;
                    out.push('\'');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        }
    }
    out
}

/// Marks the lines belonging to `#[cfg(test)]` items (attribute through
/// the item's closing brace).
fn test_mask(code: &[String]) -> Vec<bool> {
    let n = code.len();
    let mut mask = vec![false; n];
    let mut i = 0;
    while i < n {
        if !code[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut started = false;
        let mut j = i;
        while j < n {
            mask[j] = true;
            for ch in code[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => depth -= 1,
                    ';' if !started => {
                        // `#[cfg(test)] mod x;` — out-of-line module.
                        return finish_from(mask, j + 1, code);
                    }
                    _ => {}
                }
            }
            if started && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// Continues masking after an out-of-line test module declaration.
fn finish_from(mut mask: Vec<bool>, from: usize, code: &[String]) -> Vec<bool> {
    let rest = test_mask(&code[from..]);
    for (k, v) in rest.into_iter().enumerate() {
        mask[from + k] = v;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = \"has .unwrap() inside\"; // and .expect( here\nlet b = 1;\n",
        );
        assert!(!f.code[0].contains(".unwrap()"));
        assert!(!f.code[0].contains(".expect("));
        assert!(f.lines[0].contains(".unwrap()"), "raw lines untouched");
        assert_eq!(f.code[1], "let b = 1;");
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = SourceFile::parse("x.rs", "a /* x /* y */ still */ b\n/* open\npanic!()\n*/ c\n");
        assert!(f.code[0].starts_with("a "));
        assert!(f.code[0].trim_end().ends_with("b"));
        assert!(!f.code[2].contains("panic!"));
        assert!(f.code[3].contains('c'));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = SourceFile::parse("x.rs", "fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(f.code[0].contains("str { x }"), "got: {}", f.code[0]);
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = SourceFile::parse("x.rs", "let s = r#\"panic!(\"no\")\"#; done\n");
        assert!(!f.code[0].contains("panic!"));
        assert!(f.code[0].contains("done"));
    }

    #[test]
    fn cfg_test_region_is_masked() {
        let src = "fn real() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.in_test[0]);
        assert!(f.in_test[1] && f.in_test[2] && f.in_test[3] && f.in_test[4]);
        assert!(!f.in_test[5]);
    }
}
