//! Capability reachability over the call graph.
//!
//! ## Capability lattice
//!
//! Each function gets a set of *leaf facts* from its own body; the
//! interprocedural property is the union over every function reachable
//! from a root, i.e. the transitive closure in the powerset lattice of
//! `{may-panic, takes-lock, allocates, reads-wallclock}` — monotone,
//! so one multi-source BFS per root set suffices and cycles terminate
//! (a node is expanded at most once).
//!
//! ## Leaf facts vs the file-scoped token rules
//!
//! The fact lists here are deliberately *narrower* than the per-file
//! rules, because an interprocedural finding must hold for every
//! calling context:
//!
//! - panic: `.unwrap()` / `.expect()` and the panicking macros.
//!   Unchecked indexing is *excluded* — it stays the file-scoped
//!   `no-panic-serving` rule's domain, where the serving modules'
//!   dense-ID invariants are in view.
//! - lock: lock/once-cell types and their blocking methods. `RefCell`
//!   / `Cell` / `UnsafeCell` are excluded (interior mutability cannot
//!   block another thread; the thread-local scratch pool is the
//!   sanctioned pattern), as are bare `.read()` / `.write()` (mostly
//!   `io::Read`/`Write` at this distance from the declaring file).
//! - alloc: allocating macros, allocating method names, and
//!   `Type::new`-style constructors of owning containers.
//! - wallclock: `Instant::now` / `SystemTime::now`. Propagated and
//!   exported for the call-graph artifact; no interprocedural rule
//!   fires on it today (`no-wallclock-outside-obs` already bounds it
//!   per file).

use crate::callgraph::CallGraph;
use crate::scanner::{Tok, TokKind};

/// What a function may do, directly or transitively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Capability {
    Panic,
    Lock,
    Alloc,
    Wallclock,
}

impl Capability {
    /// Stable label used in reports and exports.
    pub fn label(self) -> &'static str {
        match self {
            Capability::Panic => "may-panic",
            Capability::Lock => "takes-lock",
            Capability::Alloc => "allocates",
            Capability::Wallclock => "reads-wallclock",
        }
    }
}

/// One leaf fact: a token-level operation granting a capability.
#[derive(Debug, Clone)]
pub struct Fact {
    pub cap: Capability,
    /// The operation, e.g. `.unwrap()` or `vec!`.
    pub what: String,
    pub line: u32,
    pub col: u32,
}

/// Serve entrypoints for the panic / lock rules: the public query
/// surface, the scratch-pool kernel it drives, and the HTTP request
/// handlers of `crates/serve` (which run on worker threads where a
/// panic would tear down the connection mid-response). Missing
/// entries (fixture workspaces) simply contribute no roots.
pub const SERVE_ROOTS: &[(&str, &str)] = &[
    ("crates/core/src/search/serve.rs", "query"),
    ("crates/core/src/search/serve.rs", "query_with_stats"),
    ("crates/core/src/search/exec.rs", "search"),
    ("crates/core/src/search/exec.rs", "search_with_stats"),
    ("crates/core/src/search/scratch.rs", "with_scratch"),
    ("crates/core/src/search/scratch.rs", "begin"),
    ("crates/core/src/search/scratch.rs", "gather_candidates"),
    ("crates/core/src/search/scratch.rs", "score_context"),
    ("crates/core/src/search/scratch.rs", "ranked"),
    ("crates/serve/src/handler.rs", "handle_request"),
    ("crates/serve/src/handler.rs", "handle_search"),
    ("crates/serve/src/handler.rs", "handle_healthz"),
    ("crates/serve/src/handler.rs", "handle_metrics"),
    ("crates/serve/src/handler.rs", "handle_quality"),
];

/// Roots for `alloc-on-hot-path`: only the per-candidate kernel. The
/// surrounding plumbing (query parsing, result assembly, `ranked()`)
/// allocates its output by design; the invariant worth machine-checking
/// is that the O(candidates) inner loops run out of the scratch pool.
pub const ALLOC_ROOTS: &[(&str, &str)] = &[
    ("crates/core/src/search/scratch.rs", "gather_candidates"),
    ("crates/core/src/search/scratch.rs", "score_context"),
];

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];
const LOCK_TYPES: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "OnceLock",
    "OnceCell",
    "LazyLock",
    "lazy_static",
];
const LOCK_METHODS: &[&str] = &[
    "lock",
    "try_lock",
    "wait",
    "get_or_init",
    "get_or_insert_with",
];
const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_METHODS: &[&str] = &[
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "sort",
    "sort_by",
    "sort_by_key",
    "join",
    "repeat",
];
const ALLOC_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "String",
    "Box",
    "BinaryHeap",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "Arc",
    "Rc",
];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];
const CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];

fn text(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map_or("", |t| t.text.as_str())
}

/// Leaf facts in one body range (nested fn ranges skipped).
pub fn extract_facts(toks: &[Tok], bs: usize, be: usize, nested: &[(usize, usize)]) -> Vec<Fact> {
    let mut out = Vec::new();
    let mut i = bs;
    while i <= be.min(toks.len().saturating_sub(1)) {
        if let Some(&(_, ne)) = nested.iter().find(|&&(ns, _)| ns == i) {
            i = ne + 1;
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || t.in_test {
            i += 1;
            continue;
        }
        let name = t.text.as_str();
        let prev = if i == 0 { "" } else { text(toks, i - 1) };
        let next = text(toks, i + 1);
        let push = |out: &mut Vec<Fact>, cap, what: String| {
            out.push(Fact {
                cap,
                what,
                line: t.line,
                col: t.col,
            })
        };
        if next == "!" && PANIC_MACROS.contains(&name) {
            push(&mut out, Capability::Panic, format!("{name}!"));
        } else if next == "!" && ALLOC_MACROS.contains(&name) {
            push(&mut out, Capability::Alloc, format!("{name}!"));
        } else if prev == "." && next == "(" {
            if PANIC_METHODS.contains(&name) {
                push(&mut out, Capability::Panic, format!(".{name}()"));
            } else if LOCK_METHODS.contains(&name) {
                push(&mut out, Capability::Lock, format!(".{name}()"));
            } else if ALLOC_METHODS.contains(&name) {
                push(&mut out, Capability::Alloc, format!(".{name}()"));
            }
        } else if prev == "::" && next == "(" {
            let qual = if i >= 2 { text(toks, i - 2) } else { "" };
            if ALLOC_TYPES.contains(&qual) && ALLOC_CTORS.contains(&name) {
                push(&mut out, Capability::Alloc, format!("{qual}::{name}()"));
            } else if CLOCK_TYPES.contains(&qual) && name == "now" {
                push(&mut out, Capability::Wallclock, format!("{qual}::now()"));
            }
        } else if LOCK_TYPES.contains(&name) && prev != "." {
            push(&mut out, Capability::Lock, name.to_string());
        }
        i += 1;
    }
    out
}

/// Multi-source BFS result: predecessor tree over reachable nodes.
pub struct ReachResult {
    /// `pred[n]`: the node we reached `n` from (`n` itself for roots);
    /// `None` when unreachable.
    pub pred: Vec<Option<usize>>,
    /// The roots actually present in this graph, sorted.
    pub roots: Vec<usize>,
}

/// BFS from `root_specs` (exact-path + fn-name pairs), never entering
/// boundary nodes. Deterministic: roots and adjacency are sorted.
pub fn reachable_from(graph: &CallGraph, root_specs: &[(&str, &str)]) -> ReachResult {
    let mut roots: Vec<usize> = Vec::new();
    for (k, n) in graph.nodes.iter().enumerate() {
        if n.is_boundary {
            continue;
        }
        if root_specs.iter().any(|(p, f)| n.path == *p && n.name == *f) {
            roots.push(k);
        }
    }
    let mut pred: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut queue: std::collections::VecDeque<usize> = Default::default();
    for &r in &roots {
        pred[r] = Some(r);
        queue.push_back(r);
    }
    while let Some(n) = queue.pop_front() {
        for &m in &graph.edges[n] {
            if pred[m].is_some() || graph.nodes[m].is_boundary {
                continue;
            }
            pred[m] = Some(n);
            queue.push_back(m);
        }
    }
    ReachResult { pred, roots }
}

impl ReachResult {
    /// Witness chain root → … → `node` (node indices), or empty when
    /// unreachable.
    pub fn witness(&self, node: usize) -> Vec<usize> {
        let mut chain = Vec::new();
        let mut cur = node;
        loop {
            chain.push(cur);
            match self.pred[cur] {
                Some(p) if p != cur => cur = p,
                Some(_) => break,
                None => return Vec::new(),
            }
            if chain.len() > self.pred.len() {
                return Vec::new(); // defensive: corrupt pred tree
            }
        }
        chain.reverse();
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::engine::Workspace;
    use crate::scanner::scan;

    fn facts_of(src: &str) -> Vec<(Capability, String)> {
        let f = scan("crates/core/src/x.rs", src);
        extract_facts(&f.tokens, 0, f.tokens.len().saturating_sub(1), &[])
            .into_iter()
            .map(|f| (f.cap, f.what))
            .collect()
    }

    #[test]
    fn leaf_facts_cover_the_lattice() {
        let got = facts_of(
            "fn f() {\n    x.unwrap();\n    let m = Mutex::new(0);\n    let v = vec![1];\n    let t = Instant::now();\n}\n",
        );
        let caps: Vec<Capability> = got.iter().map(|(c, _)| *c).collect();
        assert!(caps.contains(&Capability::Panic));
        assert!(caps.contains(&Capability::Lock));
        assert!(caps.contains(&Capability::Alloc));
        assert!(caps.contains(&Capability::Wallclock));
    }

    #[test]
    fn refcell_and_indexing_are_not_interprocedural_facts() {
        let got = facts_of(
            "fn f(xs: &[u32]) -> u32 {\n    let c = RefCell::new(0);\n    let r = c.borrow_mut();\n    xs[0]\n}\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn sort_unstable_is_not_an_alloc_fact() {
        let got = facts_of("fn f(xs: &mut [u32]) {\n    xs.sort_unstable();\n    xs.sort_unstable_by(|a, b| a.cmp(b));\n}\n");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn bfs_skips_boundary_and_terminates_on_cycles() {
        let ws = Workspace::from_memory(
            &[
                (
                    "crates/core/src/search/serve.rs",
                    "impl Searcher {\n    pub fn query(&self) { a::step(); obs::emit(); }\n}\n",
                ),
                (
                    "crates/core/src/a.rs",
                    "pub fn step() { other(); }\npub fn other() { step(); }\n",
                ),
                ("crates/obs/src/lib.rs", "pub fn emit() { x.lock(); }\n"),
            ],
            &[],
        );
        let g = CallGraph::build(&ws);
        let r = reachable_from(&g, SERVE_ROOTS);
        let step = g.find("crates/core/src/a.rs", "step").unwrap();
        let other = g.find("crates/core/src/a.rs", "other").unwrap();
        let emit = g.find("crates/obs/src/lib.rs", "emit").unwrap();
        assert!(r.pred[step].is_some());
        assert!(r.pred[other].is_some());
        assert!(r.pred[emit].is_none(), "obs is behind the boundary");
        let chain = r.witness(other);
        assert_eq!(chain.len(), 3, "query -> step -> other");
    }
}
