//! Whole-program item index built from the token stream.
//!
//! One pass over every file's tokens produces:
//!
//! * [`FnInfo`] per `fn` item — name, enclosing `impl` type, line span,
//!   the calls its body makes ([`Call`]), the lock guards it acquires
//!   ([`Acquire`]), which locks it acquires *while already holding
//!   another* (`ordered`), and which calls it makes under a live guard
//!   (`held_calls`);
//! * [`LockDecl`] per `Mutex`/`RwLock` field, static, or `let`-binding —
//!   the lock universe the lock-order lint reasons over.  Only
//!   acquisitions of *declared* locks are tracked, so `.read()` on an
//!   `io::Read` or `.lock()` on a `Stdout` never pollutes the graph.
//!
//! Everything here is approximate in the way a linter can afford: names
//! are resolved textually (see [`crate::callgraph`]), guard liveness is
//! brace-depth scoping plus explicit `drop(guard)`, and nested `fn` items
//! are indexed separately with their tokens excluded from the parent.

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

/// One acquisition of a declared lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acquire {
    /// The declared lock's field/binding name.
    pub lock: String,
    /// 0-based line of the `.lock()`/`.read()`/`.write()`.
    pub line: usize,
}

/// `B` acquired while `A` is held, inside one function.
#[derive(Debug, Clone)]
pub struct OrderedPair {
    pub first: Acquire,
    pub second: Acquire,
}

/// A call made while a guard is live.
#[derive(Debug, Clone)]
pub struct HeldCall {
    pub held: Acquire,
    /// Index into the owning function's `calls`.
    pub call: usize,
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
    pub acquires: Vec<Acquire>,
    pub ordered: Vec<OrderedPair>,
    pub held_calls: Vec<HeldCall>,
    /// Inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// What kind of lock a declaration is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Mutex,
    RwLock,
}

/// One declared `Mutex`/`RwLock`.
#[derive(Debug)]
pub struct LockDecl {
    pub name: String,
    pub kind: LockKind,
    pub file: usize,
    /// 0-based line.
    pub line: usize,
}

/// The whole-program index.
pub struct Index {
    pub fns: Vec<FnInfo>,
    pub locks: Vec<LockDecl>,
}

impl Index {
    /// Builds the index over pre-parsed files.
    pub fn build(files: &[SourceFile]) -> Index {
        let mut locks = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            collect_locks(fi, file, &mut locks);
        }
        let mut fns = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            let sig: Vec<&Token> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
            let mut scanner = Scanner {
                file: fi,
                source: file,
                toks: &sig,
                locks: &locks,
                out: &mut fns,
            };
            scanner.scan_items();
        }
        Index { fns, locks }
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

/// Collects `Mutex`/`RwLock` declarations: struct fields and statics
/// (`name: [path::]Mutex<`) and let-bindings (`let name = Mutex::new(`).
fn collect_locks(fi: usize, file: &SourceFile, out: &mut Vec<LockDecl>) {
    let toks: Vec<&Token> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
    for (i, tok) in toks.iter().enumerate() {
        let kind = match tok.text.as_str() {
            "Mutex" if tok.kind == Kind::Ident => LockKind::Mutex,
            "RwLock" if tok.kind == Kind::Ident => LockKind::RwLock,
            _ => continue,
        };
        if file.in_test.get(tok.line).copied().unwrap_or(false) {
            continue;
        }
        let Some(next) = toks.get(i + 1) else { continue };
        if next.is_punct('<') {
            // `name: [path::]Mutex<` — walk back over the path prefix to
            // the single type-ascription colon, then the field name.
            let mut j = i;
            while j >= 3 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
                if toks[j - 3].kind == Kind::Ident {
                    j -= 3;
                } else {
                    break;
                }
            }
            if j >= 2
                && toks[j - 1].is_punct(':')
                && !toks[j - 2].is_punct(':')
                && toks[j - 2].kind == Kind::Ident
            {
                out.push(LockDecl {
                    name: toks[j - 2].text.clone(),
                    kind,
                    file: fi,
                    line: tok.line,
                });
            }
        } else if next.is_punct(':')
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("new"))
        {
            // `let name = [path::]Mutex::new(` — walk back over `=`, the
            // path prefix, to the binding.
            let mut j = i;
            while j >= 3 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
                if toks[j - 3].kind == Kind::Ident {
                    j -= 3;
                } else {
                    break;
                }
            }
            if j >= 2 && toks[j - 1].is_punct('=') && toks[j - 2].kind == Kind::Ident {
                out.push(LockDecl {
                    name: toks[j - 2].text.clone(),
                    kind,
                    file: fi,
                    line: tok.line,
                });
            }
        }
    }
}

/// A live lock guard during body scanning.
struct LiveGuard {
    acquire: Acquire,
    /// Brace depth (relative to the body) it was bound at.
    depth: i64,
    /// Binding name, for `drop(name)` release.
    binding: Option<String>,
}

struct Scanner<'a> {
    file: usize,
    source: &'a SourceFile,
    toks: &'a [&'a Token],
    locks: &'a [LockDecl],
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
            acquires: Vec::new(),
            ordered: Vec::new(),
            held_calls: Vec::new(),
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
        let mut guards: Vec<LiveGuard> = Vec::new();
        // Per-statement `let` tracking for guard bindings.
        let mut stmt_let: Option<String> = None;
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
                guards.retain(|g| g.depth <= depth);
                if depth == 0 {
                    info.end_line = t.line;
                    return i + 1;
                }
                stmt_let = None;
                i += 1;
                continue;
            }
            if t.is_punct(';') {
                stmt_let = None;
                i += 1;
                continue;
            }
            if t.is_ident("let") {
                // Binding name: first ident after `let`, skipping `mut`
                // and tuple/ref patterns get no tracking.
                let mut k = i + 1;
                while self.toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                    k += 1;
                }
                stmt_let = self
                    .toks
                    .get(k)
                    .filter(|t| t.kind == Kind::Ident && !KEYWORDS.contains(&t.text.as_str()))
                    .map(|t| t.text.clone());
                i += 1;
                continue;
            }
            if t.is_ident("fn") {
                // Nested item: index it on its own, skip its tokens here.
                i = self.index_fn(i, self_ty.clone());
                continue;
            }
            // `drop(name)` releases the named guard.
            if t.is_ident("drop")
                && self.toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                if let Some(name) = self.toks.get(i + 2) {
                    guards.retain(|g| g.binding.as_deref() != Some(name.text.as_str()));
                }
            }
            // Lock acquisition: `recv.lock()` / `recv.read()` / `recv.write()`
            // where `recv`'s trailing ident is a declared lock.
            if let Some(acquire) = self.match_acquire(i) {
                for g in &guards {
                    info.ordered.push(OrderedPair {
                        first: g.acquire.clone(),
                        second: acquire.clone(),
                    });
                }
                info.acquires.push(acquire.clone());
                guards.push(LiveGuard {
                    acquire,
                    depth,
                    binding: stmt_let.clone(),
                });
                i += 5; // past `recv . method ( )`
                continue;
            }
            // Call site: ident followed by `(`, not a macro (`!`), not a
            // keyword, not a definition (`fn name(` handled above).
            if matches!(t.kind, Kind::Ident | Kind::RawIdent)
                && self.toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && !KEYWORDS.contains(&t.text.as_str())
            {
                let recv = self.classify_recv(i);
                if let Some(recv) = recv {
                    let call = Call {
                        name: t.text.trim_start_matches("r#").to_owned(),
                        recv,
                        line: t.line,
                    };
                    let call_idx = info.calls.len();
                    for g in &guards {
                        info.held_calls.push(HeldCall {
                            held: g.acquire.clone(),
                            call: call_idx,
                        });
                    }
                    info.calls.push(call);
                }
            }
            i += 1;
        }
        info.end_line = self.toks.last().map(|t| t.line).unwrap_or(info.start_line);
        i
    }

    /// Matches `<lock>.{lock|read|write}()` at token `i` (pointing at the
    /// receiver's trailing ident).  Only declared locks count; `.read()`/
    /// `.write()` only for declared `RwLock`s.
    fn match_acquire(&self, i: usize) -> Option<Acquire> {
        let recv = self.toks[i];
        if recv.kind != Kind::Ident {
            return None;
        }
        if !self.toks.get(i + 1)?.is_punct('.') {
            return None;
        }
        let method = self.toks.get(i + 2)?;
        if !self.toks.get(i + 3)?.is_punct('(') || !self.toks.get(i + 4)?.is_punct(')') {
            return None;
        }
        let decl = self.locks.iter().find(|l| l.name == recv.text)?;
        let ok = match method.text.as_str() {
            "lock" => decl.kind == LockKind::Mutex,
            "read" | "write" => decl.kind == LockKind::RwLock,
            _ => false,
        };
        ok.then(|| Acquire {
            lock: recv.text.clone(),
            line: method.line,
        })
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
    fn lock_decls_and_ordered_acquisitions() {
        let idx = build(
            "struct S {\n    alpha: Mutex<u32>,\n    beta: std::sync::RwLock<u32>,\n}\n\
             impl S {\n    fn both(&self) {\n        let a = self.alpha.lock();\n        let b = self.beta.write();\n    }\n\
             \n    fn scoped(&self) {\n        {\n            let a = self.alpha.lock();\n        }\n        let b = self.beta.read();\n    }\n}\n",
        );
        assert_eq!(idx.locks.len(), 2);
        let both = &idx.fns[0];
        assert_eq!(both.acquires.len(), 2);
        assert_eq!(both.ordered.len(), 1);
        assert_eq!(both.ordered[0].first.lock, "alpha");
        assert_eq!(both.ordered[0].second.lock, "beta");
        let scoped = &idx.fns[1];
        assert_eq!(scoped.ordered.len(), 0, "guard died with its block");
    }

    #[test]
    fn drop_releases_a_guard() {
        let idx = build(
            "struct S { alpha: Mutex<u32>, beta: Mutex<u32> }\n\
             impl S {\n    fn f(&self) {\n        let a = self.alpha.lock();\n        drop(a);\n        let b = self.beta.lock();\n    }\n}\n",
        );
        assert_eq!(idx.fns[0].ordered.len(), 0);
    }

    #[test]
    fn calls_while_held_are_recorded() {
        let idx = build(
            "struct S { alpha: Mutex<u32> }\n\
             impl S {\n    fn f(&self) {\n        let a = self.alpha.lock();\n        self.helper();\n    }\n    fn helper(&self) {}\n}\n",
        );
        let f = &idx.fns[0];
        assert_eq!(f.held_calls.len(), 1);
        assert_eq!(f.held_calls[0].held.lock, "alpha");
        assert_eq!(f.calls[f.held_calls[0].call].name, "helper");
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
