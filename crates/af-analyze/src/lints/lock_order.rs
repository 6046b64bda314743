//! `lock-order`: every pair of locks is acquired in one global order.
//!
//! Deadlock needs four ingredients; the one a static lint can kill is
//! circular wait.  The index records, per function, which declared
//! `Mutex`/`RwLock` fields it acquires and which it acquires *while
//! already holding another* ([`crate::index::FnInfo::ordered`]).  Held
//! guards also propagate through the call graph: if `f` calls `g` while
//! holding `a`, every lock `g` transitively acquires is ordered after
//! `a`.  The union of those edges forms the lock-order graph; any cycle
//! is a potential deadlock and the finding names the acquisition site of
//! both sides so the inversion can be read directly from the report.
//!
//! Guard liveness is the index's, which `lock-across-send` reads too: a
//! guard lives to the end of the block it was taken in or to an explicit
//! `drop(guard)`.

use crate::callgraph::CallGraph;
use crate::index::Index;
use crate::source::SourceFile;
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

const LINT: &str = "lock-order";

/// Where a lock was acquired.
#[derive(Clone, Debug)]
struct Site {
    file: String,
    /// 0-based.
    line: usize,
    func: String,
}

/// One ordered edge `first -> second` with its witnessing sites.
struct Edge {
    first_site: Site,
    second_site: Site,
}

/// The lock-order graph's edges, `(held, then acquired)`, sorted — what
/// the cycle check runs over, exposed so a test can pin the order a
/// design promises (the workspace's: no lock taken under another).
pub fn edges(files: &[SourceFile], index: &Index, graph: &CallGraph) -> Vec<(String, String)> {
    collect_edges(files, index, graph).into_keys().collect()
}

fn collect_edges(
    files: &[SourceFile],
    index: &Index,
    graph: &CallGraph,
) -> BTreeMap<(String, String), Edge> {
    // Transitive acquire sets: lock name -> representative site, per fn,
    // to a fixpoint over call edges.
    let n = index.fns.len();
    let mut trans: Vec<BTreeMap<String, Site>> = (0..n)
        .map(|f| {
            let info = &index.fns[f];
            info.acquires
                .iter()
                .map(|a| {
                    (
                        a.lock.clone(),
                        Site {
                            file: files[info.file].rel.clone(),
                            line: a.line,
                            func: info.name.clone(),
                        },
                    )
                })
                .collect()
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for caller in 0..n {
            for k in 0..graph.callees[caller].len() {
                let callee = graph.callees[caller][k];
                if callee == caller {
                    continue;
                }
                let add: Vec<(String, Site)> = trans[callee]
                    .iter()
                    .filter(|(lock, _)| !trans[caller].contains_key(*lock))
                    .map(|(lock, site)| (lock.clone(), site.clone()))
                    .collect();
                if !add.is_empty() {
                    changed = true;
                    trans[caller].extend(add);
                }
            }
        }
    }

    // Collect edges (first occurrence wins as the witness).
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    for (f, info) in index.fns.iter().enumerate() {
        if info.in_test {
            continue;
        }
        let rel = &files[info.file].rel;
        for pair in &info.ordered {
            if pair.first.lock == pair.second.lock {
                continue;
            }
            edges
                .entry((pair.first.lock.clone(), pair.second.lock.clone()))
                .or_insert_with(|| Edge {
                    first_site: Site {
                        file: rel.clone(),
                        line: pair.first.line,
                        func: info.name.clone(),
                    },
                    second_site: Site {
                        file: rel.clone(),
                        line: pair.second.line,
                        func: info.name.clone(),
                    },
                });
        }
        for hc in &info.held_calls {
            for (k, &callee) in graph.callees[f].iter().enumerate() {
                if graph.call_sites[f][k] != hc.call || callee == f {
                    continue;
                }
                for (lock, site) in &trans[callee] {
                    if *lock == hc.held.lock {
                        continue;
                    }
                    edges
                        .entry((hc.held.lock.clone(), lock.clone()))
                        .or_insert_with(|| Edge {
                            first_site: Site {
                                file: rel.clone(),
                                line: hc.held.line,
                                func: info.name.clone(),
                            },
                            second_site: site.clone(),
                        });
                }
            }
        }
    }

    edges
}

/// Runs the lint.
pub fn run(files: &[SourceFile], index: &Index, graph: &CallGraph) -> Vec<Finding> {
    let edges = collect_edges(files, index, graph);
    // Cycle detection: for each edge a->b, is a reachable back from b?
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut findings = Vec::new();
    let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    for (a, b) in edges.keys() {
        let Some(path) = find_path(&adj, b, a) else {
            continue;
        };
        // `path` is the nodes after `b`, ending at `a`; the cycle is
        // a -> b -> path[..-1] -> (a).  Dedup by its lock set.
        let mut cycle: Vec<&str> = vec![a.as_str(), b.as_str()];
        cycle.extend(path[..path.len() - 1].iter().copied());
        let locks: BTreeSet<String> = cycle.iter().map(|s| s.to_string()).collect();
        if !reported.insert(locks) {
            continue;
        }
        let closing = [*cycle.last().unwrap(), cycle[0]];
        let legs: Vec<String> = cycle
            .windows(2)
            .chain(std::iter::once(&closing[..]))
            .map(|w| {
                let e = &edges[&(w[0].to_owned(), w[1].to_owned())];
                format!(
                    "`{}` (held from {}:{} in `{}`) then `{}` (acquired at {}:{} in `{}`)",
                    w[0],
                    e.first_site.file,
                    e.first_site.line + 1,
                    e.first_site.func,
                    w[1],
                    e.second_site.file,
                    e.second_site.line + 1,
                    e.second_site.func,
                )
            })
            .collect();
        let head = &edges[&(a.clone(), b.clone())];
        findings.push(Finding {
            lint: LINT,
            file: head.second_site.file.clone(),
            line: head.second_site.line + 1,
            message: format!(
                "lock order cycle between {}: {}; pick one global order and \
                 release before acquiring against it",
                cycle
                    .iter()
                    .map(|l| format!("`{l}`"))
                    .collect::<Vec<_>>()
                    .join(", "),
                legs.join(" vs "),
            ),
        });
    }
    findings
}

/// Shortest path `from -> ... -> to` over the edge adjacency, returned as
/// the nodes *after* `from` (a direct edge yields `[to]`).  Requires at
/// least one edge, so `from == to` finds genuine cycles only.
fn find_path<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&'a str, &'a str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    for &next in adj.get(from).into_iter().flatten() {
        if !prev.contains_key(next) {
            prev.insert(next, from);
            queue.push_back(next);
        }
    }
    while let Some(node) = queue.pop_front() {
        if node == to {
            let mut path = vec![node];
            let mut cur = node;
            while let Some(&p) = prev.get(cur) {
                if p == from {
                    break;
                }
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &next in adj.get(node).into_iter().flatten() {
            if !prev.contains_key(next) {
                prev.insert(next, node);
                queue.push_back(next);
            }
        }
    }
    None
}
