//! Approximate intra-workspace call graph over the [`crate::index`].
//!
//! Resolution is textual — no type checking — so it is deliberately
//! conservative in both directions:
//!
//! * a call resolves to the *most local* candidates first (same `impl`
//!   type, then same file, then same crate, then workspace-wide only when
//!   the name is rare — ≤ [`MAX_WIDE_CANDIDATES`] definitions);
//! * ubiquitous method names ([`COMMON_METHODS`]: `new`, `get`, `send`,
//!   …) never resolve past their own file, otherwise every `.get()` would
//!   connect to every `fn get` in the workspace and reachability lints
//!   would drown in false paths.
//!
//! Test functions are never resolution targets: the lints that consume
//! the graph reason about production paths only.

use crate::index::{Index, Recv};
use crate::source::SourceFile;
use std::collections::VecDeque;

/// Method names too common to resolve beyond their own file.
pub const COMMON_METHODS: &[&str] = &[
    "new", "default", "clone", "len", "is_empty", "push", "pop", "get", "get_mut", "insert",
    "remove", "iter", "into_iter", "next", "send", "try_send", "recv", "write", "read", "flush",
    "lock", "unwrap", "expect", "take", "set", "clear", "contains", "as_ref", "as_mut", "to_vec",
    "into", "from", "drain", "extend", "spawn", "join", "poll", "close", "reset", "start", "stop",
    "init", "update", "name", "id", "run", "wait", "sleep", "shutdown", "encode", "decode",
];

/// A name defined more often than this resolves only locally.
pub const MAX_WIDE_CANDIDATES: usize = 3;

/// The crate a workspace-relative path belongs to.
pub fn crate_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        Some("src") => "audiofile",
        Some(first) => first,
        None => "",
    }
}

/// The resolved call graph: `callees[f]` are the function indices `f` may
/// call.
pub struct CallGraph {
    pub callees: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Resolves every call site in `index` against its definitions.
    pub fn build(index: &Index, files: &[SourceFile]) -> CallGraph {
        let n = index.fns.len();
        let mut callees = vec![Vec::new(); n];
        // name → candidate fn indices (production only).
        let mut by_name: std::collections::HashMap<&str, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, f) in index.fns.iter().enumerate() {
            if !f.in_test {
                by_name.entry(&f.name).or_default().push(i);
            }
        }
        for (caller, f) in index.fns.iter().enumerate() {
            let caller_file = f.file;
            let caller_crate = crate_of(&files[caller_file].rel);
            for call in &f.calls {
                let Some(cands) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                let same_file = |&i: &usize| index.fns[i].file == caller_file;
                let same_crate =
                    |&i: &usize| crate_of(&files[index.fns[i].file].rel) == caller_crate;
                let resolved: Vec<usize> = match &call.recv {
                    Recv::SelfMethod => {
                        // Same impl type within the crate, else same file.
                        let typed: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&i| {
                                index.fns[i].self_ty == f.self_ty && same_crate(&i)
                            })
                            .collect();
                        if !typed.is_empty() {
                            typed
                        } else {
                            cands.iter().copied().filter(same_file).collect()
                        }
                    }
                    Recv::Path(qual) => {
                        // `Self::x` means the caller's impl type.
                        let qual = if qual == "Self" {
                            f.self_ty.clone().unwrap_or_else(|| qual.clone())
                        } else {
                            qual.clone()
                        };
                        let typed: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&i| index.fns[i].self_ty.as_deref() == Some(qual.as_str()))
                            .collect();
                        if !typed.is_empty() {
                            typed
                        } else if qual.starts_with(|c: char| c.is_ascii_uppercase()) {
                            // An unindexed *type* (std containers, shim
                            // types): `VecDeque::new` must never bind to
                            // some local `fn new`.
                            Vec::new()
                        } else {
                            // Module path (`convert::decode`): free fns.
                            narrow(cands, same_file, same_crate)
                        }
                    }
                    Recv::Method => {
                        if COMMON_METHODS.contains(&call.name.as_str()) {
                            cands.iter().copied().filter(same_file).collect()
                        } else {
                            // Methods never resolve across crates: a
                            // cross-crate method call goes through a trait
                            // object here (the device backends), and a
                            // textual tool binding it to every impl drags
                            // client code into server reachability.
                            let local: Vec<usize> =
                                cands.iter().copied().filter(same_file).collect();
                            if !local.is_empty() {
                                local
                            } else {
                                cands.iter().copied().filter(same_crate).collect()
                            }
                        }
                    }
                    Recv::Free => narrow(cands, same_file, same_crate),
                };
                callees[caller].extend(resolved);
            }
        }
        CallGraph { callees }
    }

    /// BFS from `roots`; returns per-function reachability plus, for each
    /// reached function, the caller it was first reached through — enough
    /// to reconstruct a path back to a root.
    pub fn reach(&self, roots: &[usize]) -> Reach {
        self.reach_stopping(roots, |_| false)
    }

    /// Like [`CallGraph::reach`] but traversal neither enters nor crosses
    /// functions where `stop` holds — used to cut reachability at
    /// control-plane boundaries (a barrier function is itself considered
    /// unreached).
    pub fn reach_stopping(&self, roots: &[usize], stop: impl Fn(usize) -> bool) -> Reach {
        let n = self.callees.len();
        let mut seen = vec![false; n];
        let mut via = vec![None; n];
        let mut queue = VecDeque::new();
        for &r in roots {
            if r < n && !seen[r] && !stop(r) {
                seen[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &callee in &self.callees[f] {
                if !seen[callee] && !stop(callee) {
                    seen[callee] = true;
                    via[callee] = Some(f);
                    queue.push_back(callee);
                }
            }
        }
        Reach { seen, via }
    }
}

/// Most-local non-empty candidate tier: file, crate, then workspace-wide
/// only for rare names.
fn narrow(
    cands: &[usize],
    same_file: impl Fn(&usize) -> bool,
    same_crate: impl Fn(&usize) -> bool,
) -> Vec<usize> {
    let local: Vec<usize> = cands.iter().copied().filter(same_file).collect();
    if !local.is_empty() {
        return local;
    }
    let crate_wide: Vec<usize> = cands.iter().copied().filter(same_crate).collect();
    if !crate_wide.is_empty() {
        return crate_wide;
    }
    if cands.len() <= MAX_WIDE_CANDIDATES {
        cands.to_vec()
    } else {
        Vec::new()
    }
}

/// Reachability result with path reconstruction.
pub struct Reach {
    pub seen: Vec<bool>,
    /// For each reached non-root: the caller it was first reached from.
    pub via: Vec<Option<usize>>,
}

impl Reach {
    /// Call-chain names from a root to `f`, e.g. `handle_wake -> flush -> f`.
    pub fn path_to(&self, index: &Index, f: usize) -> String {
        let mut chain = vec![f];
        let mut cur = f;
        while let Some(caller) = self.via[cur] {
            chain.push(caller);
            cur = caller;
            if chain.len() > 32 {
                break;
            }
        }
        chain
            .iter()
            .rev()
            .map(|&i| index.fns[i].name.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Index;

    fn tree(files: &[(&str, &str)]) -> (Vec<SourceFile>, Index) {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel, src))
            .collect();
        let index = Index::build(&parsed);
        (parsed, index)
    }

    #[test]
    fn free_calls_prefer_same_file_then_crate() {
        let (files, index) = tree(&[
            (
                "crates/af-server/src/a.rs",
                "fn root() { helper(); }\nfn helper() { cross(); }\n",
            ),
            ("crates/af-server/src/b.rs", "fn cross() {}\n"),
            ("crates/af-dsp/src/c.rs", "fn helper() {}\n"),
        ]);
        let g = CallGraph::build(&index, &files);
        let root = index.find(&files, "crates/af-server/src/a.rs", "root").unwrap();
        let helper_a = index.find(&files, "crates/af-server/src/a.rs", "helper").unwrap();
        let cross = index.find(&files, "crates/af-server/src/b.rs", "cross").unwrap();
        assert_eq!(g.callees[root], vec![helper_a], "same-file wins");
        assert_eq!(g.callees[helper_a], vec![cross], "same-crate next");
        let r = g.reach(&[root]);
        assert!(r.seen[cross]);
        assert_eq!(r.path_to(&index, cross), "root -> helper -> cross");
    }

    #[test]
    fn common_method_names_stay_in_their_file() {
        let (files, index) = tree(&[
            (
                "crates/af-server/src/a.rs",
                "fn root(q: Q) { q.send(1); }\n",
            ),
            (
                "crates/af-server/src/b.rs",
                "impl Q { fn send(&self, v: u32) {} }\n",
            ),
        ]);
        let g = CallGraph::build(&index, &files);
        let root = index.find(&files, "crates/af-server/src/a.rs", "root").unwrap();
        assert!(g.callees[root].is_empty(), "`.send` must not cross files");
    }

    #[test]
    fn self_method_resolves_by_impl_type() {
        let (files, index) = tree(&[
            (
                "crates/af-server/src/a.rs",
                "impl Worker { fn run_loop(&self) { self.step(); } fn step(&self) {} }\n\
                 impl Other { fn step(&self) {} }\n",
            ),
        ]);
        let g = CallGraph::build(&index, &files);
        let run_loop = index.fns_named("run_loop").next().unwrap();
        assert_eq!(g.callees[run_loop].len(), 1);
        let target = g.callees[run_loop][0];
        assert_eq!(index.fns[target].self_ty.as_deref(), Some("Worker"));
    }

    #[test]
    fn test_fns_are_not_targets() {
        let (files, index) = tree(&[(
            "crates/af-server/src/a.rs",
            "fn root() { helper(); }\n#[cfg(test)]\nmod t { fn helper() {} }\n",
        )]);
        let g = CallGraph::build(&index, &files);
        let root = index.find(&files, "crates/af-server/src/a.rs", "root").unwrap();
        assert!(g.callees[root].is_empty());
    }

    #[test]
    fn wide_resolution_caps_candidates() {
        let mut srcs: Vec<(String, String)> = vec![(
            "crates/af-server/src/a.rs".into(),
            "fn root() { popular(); }\n".into(),
        )];
        for k in 0..4 {
            srcs.push((
                format!("crates/af-dsp/src/m{k}.rs"),
                "fn popular() {}\n".into(),
            ));
        }
        let pairs: Vec<(&str, &str)> =
            srcs.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let (files, index) = tree(&pairs);
        let g = CallGraph::build(&index, &files);
        let root = index.find(&files, "crates/af-server/src/a.rs", "root").unwrap();
        assert!(
            g.callees[root].is_empty(),
            "4 workspace-wide candidates exceeds the cap"
        );
    }
}
