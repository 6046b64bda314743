//! Whole-program item index built from the token stream.
//!
//! One pass over every file's tokens produces an [`FnInfo`] per `fn`
//! item: its name, enclosing `impl` type, line span and the calls its body
//! makes ([`Call`]).
//!
//! Everything here is approximate in the way a linter can afford: names
//! are resolved textually (see [`crate::callgraph`]), and nested `fn`
//! items are indexed separately with their tokens excluded from the
//! parent.

use crate::lex::{Kind, Token};
use crate::source::SourceFile;

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `foo(...)`.
    Free,
    /// `self.foo(...)`.
    SelfMethod,
    /// `recv.foo(...)` for any other receiver expression.
    Method,
    /// `Qual::foo(...)` — the last path qualifier segment is kept.
    Path(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    pub name: String,
    pub recv: Recv,
    /// 0-based line.
    pub line: usize,
}

/// One indexed function.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into the `files` slice the index was built from.
    pub file: usize,
    pub name: String,
    /// Enclosing `impl` type's last path segment, if any.
    pub self_ty: Option<String>,
    /// 0-based line of the `fn` keyword.
    pub start_line: usize,
    /// 0-based line of the body's closing brace.
    pub end_line: usize,
    pub calls: Vec<Call>,
    /// Inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// The whole-program index.
pub struct Index {
    pub fns: Vec<FnInfo>,
}

impl Index {
    /// Builds the index over pre-parsed files.
    pub fn build(files: &[SourceFile]) -> Index {
        let mut fns = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            let sig: Vec<&Token> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
            let mut scanner = Scanner {
                file: fi,
                source: file,
                toks: &sig,
                out: &mut fns,
            };
            scanner.scan_items();
        }
        Index { fns }
    }

    /// All indexed functions named `name`.
    pub fn fns_named<'a>(&'a self, name: &str) -> impl Iterator<Item = usize> + 'a {
        let name = name.to_owned();
        (0..self.fns.len()).filter(move |&i| self.fns[i].name == name)
    }

    /// Finds a function by file path and name (first match).
    pub fn find(&self, files: &[SourceFile], rel: &str, name: &str) -> Option<usize> {
        (0..self.fns.len()).find(|&i| {
            self.fns[i].name == name && files[self.fns[i].file].rel == rel
        })
    }
}

/// Rust keywords that can directly precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "in", "as", "move", "let", "mut",
    "ref", "await", "async", "unsafe", "dyn", "impl", "where", "pub", "use", "mod", "struct",
    "enum", "union", "trait", "type", "const", "static", "crate", "super", "break", "continue",
    "fn", "self", "Self", "true", "false",
];

struct Scanner<'a> {
    file: usize,
    source: &'a SourceFile,
    toks: &'a [&'a Token],
    out: &'a mut Vec<FnInfo>,
}

impl Scanner<'_> {
    /// Walks the whole token stream indexing every `fn` item.
    fn scan_items(&mut self) {
        let mut impls: Vec<(String, i64)> = Vec::new(); // (type, depth at open)
        let mut depth = 0i64;
        let mut i = 0usize;
        while i < self.toks.len() {
            let tok = self.toks[i];
            if tok.is_punct('{') {
                depth += 1;
                i += 1;
                continue;
            }
            if tok.is_punct('}') {
                depth -= 1;
                impls.retain(|&(_, d)| d <= depth);
                i += 1;
                continue;
            }
            if tok.is_ident("impl") {
                if let Some((ty, open)) = self.impl_header(i) {
                    impls.push((ty, depth + 1));
                    depth += 1;
                    i = open + 1;
                    continue;
                }
            }
            if tok.is_ident("fn") {
                let self_ty = impls.last().map(|(t, _)| t.clone());
                i = self.index_fn(i, self_ty);
                continue;
            }
            i += 1;
        }
    }

    /// Parses an `impl … {` header at token `i`; returns the self type's
    /// last path segment and the index of the opening brace.
    fn impl_header(&self, i: usize) -> Option<(String, usize)> {
        let mut angle = 0i64;
        let mut paren = 0i64;
        let mut last_ident: Option<&str> = None;
        let mut after_for: Option<&str> = None;
        let mut j = i + 1;
        while j < self.toks.len() {
            let t = self.toks[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle = (angle - 1).max(0);
            } else if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct('{') && angle == 0 && paren == 0 {
                let ty = after_for.or(last_ident)?;
                return Some((ty.to_owned(), j));
            } else if t.is_punct(';') && angle == 0 && paren == 0 {
                return None;
            } else if t.kind == Kind::Ident && angle == 0 && paren == 0 {
                match t.text.as_str() {
                    "for" => after_for = None,
                    "where" => break,
                    "fn" | "dyn" | "mut" | "const" => {}
                    _ => {
                        if after_for.is_none()
                            && j >= 1
                            && self.toks[j - 1].is_ident("for")
                        {
                            after_for = Some(&t.text);
                        }
                        last_ident = Some(&t.text);
                    }
                }
            }
            j += 1;
        }
        // `where`-clause: resume scanning for the brace only.
        while j < self.toks.len() {
            if self.toks[j].is_punct('{') {
                let ty = after_for.or(last_ident)?;
                return Some((ty.to_owned(), j));
            }
            if self.toks[j].is_punct(';') {
                return None;
            }
            j += 1;
        }
        None
    }

    /// Indexes the `fn` at token `i`; returns the index to resume at.
    fn index_fn(&mut self, i: usize, self_ty: Option<String>) -> usize {
        let Some(name_tok) = self.toks.get(i + 1) else {
            return i + 1;
        };
        if !matches!(name_tok.kind, Kind::Ident | Kind::RawIdent) {
            return i + 1; // `fn(` pointer type etc.
        }
        let name = name_tok.text.trim_start_matches("r#").to_owned();
        // Find the body `{` (or `;` for a bodyless declaration).
        let mut j = i + 2;
        let mut paren = 0i64;
        let mut angle = 0i64;
        loop {
            let Some(t) = self.toks.get(j) else {
                return j;
            };
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle = (angle - 1).max(0);
            } else if t.is_punct(';') && paren == 0 {
                return j + 1; // declaration only
            } else if t.is_punct('{') && paren == 0 {
                break;
            }
            j += 1;
        }
        let body_open = j;
        let start_line = self.toks[i].line;
        let in_test = self
            .source
            .in_test
            .get(start_line)
            .copied()
            .unwrap_or(false);
        let mut info = FnInfo {
            file: self.file,
            name,
            self_ty: self_ty.clone(),
            start_line,
            end_line: start_line,
            calls: Vec::new(),
            in_test,
        };
        let resume = self.scan_body(body_open, &mut info, self_ty);
        self.out.push(info);
        resume
    }

    /// Scans a function body from its opening brace; returns the token
    /// index just past the closing brace.  Nested `fn` items are indexed
    /// recursively and excluded from this body's accounting.
    fn scan_body(&mut self, open: usize, info: &mut FnInfo, self_ty: Option<String>) -> usize {
        let mut depth = 0i64;
        let mut i = open;
        while i < self.toks.len() {
            let t = self.toks[i];
            if t.is_punct('{') {
                depth += 1;
                i += 1;
                continue;
            }
            if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    info.end_line = t.line;
                    return i + 1;
                }
                i += 1;
                continue;
            }
            if t.is_ident("fn") {
                // Nested item: index it on its own, skip its tokens here.
                i = self.index_fn(i, self_ty.clone());
                continue;
            }
            // Call site: ident followed by `(`, not a macro (`!`), not a
            // keyword, not a definition (`fn name(` handled above).
            if matches!(t.kind, Kind::Ident | Kind::RawIdent)
                && self.toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && !KEYWORDS.contains(&t.text.as_str())
            {
                if let Some(recv) = self.classify_recv(i) {
                    info.calls.push(Call {
                        name: t.text.trim_start_matches("r#").to_owned(),
                        recv,
                        line: t.line,
                    });
                }
            }
            i += 1;
        }
        info.end_line = self.toks.last().map(|t| t.line).unwrap_or(info.start_line);
        i
    }

    /// Classifies the call at token `i`; `None` for macros and method
    /// *definitions* reached in weird positions.
    fn classify_recv(&self, i: usize) -> Option<Recv> {
        if self.toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            return None;
        }
        if i == 0 {
            return Some(Recv::Free);
        }
        let prev = self.toks[i - 1];
        if prev.is_punct('.') {
            if i >= 2 && self.toks[i - 2].is_ident("self") && (i < 3 || !self.toks[i - 3].is_punct('.'))
            {
                return Some(Recv::SelfMethod);
            }
            return Some(Recv::Method);
        }
        if prev.is_punct(':') && i >= 2 && self.toks[i - 2].is_punct(':') {
            if i >= 3 && self.toks[i - 3].kind == Kind::Ident {
                return Some(Recv::Path(self.toks[i - 3].text.clone()));
            }
            return Some(Recv::Free);
        }
        Some(Recv::Free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(src: &str) -> Index {
        Index::build(&[SourceFile::parse("crates/af-server/src/x.rs", src)])
    }

    #[test]
    fn fns_with_impl_context_and_spans() {
        let idx = build(
            "impl Foo {\n    fn alpha(&self) {\n        beta();\n    }\n}\nfn beta() {}\n",
        );
        assert_eq!(idx.fns.len(), 2);
        let alpha = &idx.fns[0];
        assert_eq!(alpha.name, "alpha");
        assert_eq!(alpha.self_ty.as_deref(), Some("Foo"));
        assert_eq!((alpha.start_line, alpha.end_line), (1, 3));
        assert_eq!(alpha.calls.len(), 1);
        assert_eq!(alpha.calls[0].name, "beta");
        assert_eq!(alpha.calls[0].recv, Recv::Free);
        assert_eq!(idx.fns[1].self_ty, None);
    }

    #[test]
    fn impl_trait_for_type_takes_the_type() {
        let idx = build("impl fmt::Display for Stats {\n    fn fmt(&self) {}\n}\n");
        assert_eq!(idx.fns[0].self_ty.as_deref(), Some("Stats"));
    }

    #[test]
    fn call_receivers_are_classified() {
        let idx = build(
            "fn f(&self) {\n    self.step();\n    other.step();\n    Qual::step();\n    free();\n    mac!(ro);\n}\n",
        );
        let calls = &idx.fns[0].calls;
        assert_eq!(calls.len(), 4, "{calls:?}");
        assert_eq!(calls[0].recv, Recv::SelfMethod);
        assert_eq!(calls[1].recv, Recv::Method);
        assert_eq!(calls[2].recv, Recv::Path("Qual".into()));
        assert_eq!(calls[3].recv, Recv::Free);
    }

    #[test]
    fn nested_fns_keep_their_own_calls() {
        let idx = build(
            "fn outer() {\n    fn inner() {\n        deep();\n    }\n    shallow();\n}\n",
        );
        let outer = idx.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = idx.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].name, "shallow");
        assert_eq!(inner.calls[0].name, "deep");
        assert_eq!((outer.start_line, outer.end_line), (0, 5));
    }

    #[test]
    fn test_code_is_marked() {
        let idx = build("#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn prod() {}\n");
        assert!(idx.fns.iter().find(|f| f.name == "t").unwrap().in_test);
        assert!(!idx.fns.iter().find(|f| f.name == "prod").unwrap().in_test);
    }
}
