//! The approximate call graph and the transitive hot-path closure.
//!
//! Built from the per-file symbol index ([`crate::symbols`]), with
//! name-based call-site resolution:
//!
//! * `Type::name(..)` resolves to methods of a workspace `impl Type`
//!   (`Self::name` uses the caller's own impl owner); when no such impl
//!   exists, a lowercase qualifier falls back to free functions of that
//!   name (module-qualified calls), and anything else is treated as
//!   external (std or vendored) — **under-approximate** but precise.
//! * Bare `name(..)` resolves to every workspace *free* function of
//!   that name — **over-approximate** on duplicates, which is the safe
//!   direction for hot-path propagation.
//! * `.name(..)` method calls resolve to every workspace *method* of
//!   that name — conservative on ambiguity — except when the name has
//!   more than [`METHOD_AMBIGUITY_CAP`] workspace definitions or is a
//!   ubiquitous std method name ([`STD_METHOD_NAMES`]), where
//!   resolution narrows to the caller's own crate (a documented
//!   under-approximation that keeps `len`/`get`/`write` collisions
//!   from marking half the workspace hot).
//!
//! Test functions are neither roots nor propagation targets.

use crate::symbols::FnDef;
use std::collections::BTreeMap;

/// Method names with more workspace definitions than this resolve only
/// within the caller's crate.
pub const METHOD_AMBIGUITY_CAP: usize = 4;

/// Ubiquitous std collection/trait method names: a `.get(..)` is almost
/// always `HashMap::get`, not a workspace method that happens to share
/// the name, so cross-crate resolution of these is pure collision noise
/// (an `RwLock` guard's `.write()` must not reach an unrelated
/// `Baseline::write`). They still resolve within the caller's crate,
/// where shadowing std names is a local, reviewable choice.
pub const STD_METHOD_NAMES: &[&str] = &[
    "get", "get_mut", "insert", "remove", "push", "pop", "push_back", "pop_front", "len",
    "is_empty", "clear", "clone", "iter", "next", "read", "write", "lock", "send", "recv",
    "contains", "contains_key", "extend", "drain", "take", "replace", "fmt", "eq", "cmp", "hash",
    "drop", "min", "max", "sum", "count", "new", "from", "default",
];

/// The workspace call graph over every extracted function.
pub struct CallGraph<'a> {
    pub fns: &'a [FnDef],
    /// Resolved edges: `edges[i]` lists callee indices of `fns[i]`.
    pub edges: Vec<Vec<usize>>,
}

/// The crate a workspace-relative path belongs to (`crates/<name>/..`),
/// or the first path segment otherwise.
fn crate_of(file: &str) -> &str {
    file.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or_else(|| file.split('/').next().unwrap_or(file))
}

impl<'a> CallGraph<'a> {
    /// Builds the graph by resolving every call site of every function.
    pub fn build(fns: &'a [FnDef]) -> CallGraph<'a> {
        // Name indices. Methods and free fns are kept apart: the two
        // call syntaxes cannot reach across.
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_owner_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            match &f.owner {
                Some(o) => {
                    methods_by_name.entry(&f.name).or_default().push(i);
                    by_owner_name.entry((o, &f.name)).or_default().push(i);
                }
                None => free_by_name.entry(&f.name).or_default().push(i),
            }
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (i, f) in fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let caller_crate = crate_of(&f.file);
            let mut out: Vec<usize> = Vec::new();
            for c in &f.calls {
                if c.method {
                    if let Some(cands) = methods_by_name.get(c.name.as_str()) {
                        if cands.len() > METHOD_AMBIGUITY_CAP
                            || STD_METHOD_NAMES.contains(&c.name.as_str())
                        {
                            out.extend(
                                cands
                                    .iter()
                                    .filter(|&&j| crate_of(&fns[j].file) == caller_crate),
                            );
                        } else {
                            out.extend(cands);
                        }
                    }
                } else if let Some(q) = &c.qual {
                    let owner = if q == "Self" {
                        f.owner.as_deref().unwrap_or("Self")
                    } else {
                        q.as_str()
                    };
                    if let Some(cands) = by_owner_name.get(&(owner, c.name.as_str())) {
                        out.extend(cands);
                    } else if q.chars().next().is_some_and(|ch| ch.is_lowercase()) {
                        // Module-qualified free fn (`faults::outage(..)`).
                        if let Some(cands) = free_by_name.get(c.name.as_str()) {
                            out.extend(cands);
                        }
                    }
                    // Unknown `Type::name`: external, no edge.
                } else if let Some(cands) = free_by_name.get(c.name.as_str()) {
                    out.extend(cands);
                }
            }
            out.sort_unstable();
            out.dedup();
            out.retain(|&j| j != i);
            edges[i] = out;
        }
        CallGraph { fns, edges }
    }

    /// Indices of non-test functions defined in `file`.
    pub fn fns_in_file(&self, file: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && !f.is_test)
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS closure from `roots`: for every reachable function, the
    /// shortest root→…→fn path as `file::fn` strings (the root itself
    /// is included). Returned as `fn index → path`.
    pub fn closure(&self, roots: &[usize]) -> BTreeMap<usize, Vec<String>> {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if self.fns.get(r).is_some_and(|f| !f.is_test) && !parent.contains_key(&r) {
                parent.insert(r, None);
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &j in &self.edges[i] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(j) {
                    e.insert(Some(i));
                    queue.push_back(j);
                }
            }
        }
        parent
            .keys()
            .map(|&i| {
                let mut path = Vec::new();
                let mut cur = Some(i);
                while let Some(c) = cur {
                    path.push(self.fns[c].qualified());
                    cur = parent.get(&c).copied().flatten();
                }
                path.reverse();
                (i, path)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::symbols::extract;

    fn graph_fns(files: &[(&str, &str)]) -> Vec<FnDef> {
        let mut fns = Vec::new();
        for (file, src) in files {
            fns.extend(extract(file, &lex(src)).fns);
        }
        fns
    }

    #[test]
    fn transitive_closure_crosses_files() {
        let fns = graph_fns(&[
            ("a.rs", "fn root() { mid(); }\n"),
            ("b.rs", "fn mid() { leaf(); }\nfn leaf() {}\nfn unreached() {}\n"),
        ]);
        let g = CallGraph::build(&fns);
        let roots = g.fns_in_file("a.rs");
        let hot = g.closure(&roots);
        let hot_names: Vec<&str> = hot.keys().map(|&i| fns[i].name.as_str()).collect();
        assert_eq!(hot_names, vec!["root", "mid", "leaf"]);
        let leaf = fns.iter().position(|f| f.name == "leaf").unwrap();
        assert_eq!(
            hot[&leaf],
            vec!["a.rs::root", "b.rs::mid", "b.rs::leaf"],
            "path is root → mid → leaf"
        );
    }

    #[test]
    fn qualified_calls_resolve_by_owner_and_unknown_types_stay_external() {
        let fns = graph_fns(&[
            ("a.rs", "fn root() { Foo::m(); Bar::m(); }\n"),
            ("b.rs", "impl Foo { fn m() {} }\nimpl Baz { fn m() {} }\n"),
        ]);
        let g = CallGraph::build(&fns);
        let hot = g.closure(&g.fns_in_file("a.rs"));
        let names: Vec<String> = hot.keys().map(|&i| fns[i].qualified()).collect();
        assert!(names.contains(&"b.rs::Foo::m".to_string()));
        assert!(
            !names.iter().any(|n| n.contains("Baz")),
            "Bar::m is external; Baz::m must not be dragged in: {names:?}"
        );
    }

    #[test]
    fn method_calls_are_conservative_until_the_ambiguity_cap() {
        let fns = graph_fns(&[
            ("crates/a/src/l.rs", "fn root(x: T) { x.poke(); }\n"),
            ("crates/b/src/l.rs", "impl A { fn poke(&self) {} }\nimpl B { fn poke(&self) {} }\n"),
        ]);
        let g = CallGraph::build(&fns);
        let hot = g.closure(&g.fns_in_file("crates/a/src/l.rs"));
        // Two candidates, below the cap: both marked hot.
        assert_eq!(hot.len(), 3, "root + both poke candidates");
    }

    #[test]
    fn ambiguous_method_names_narrow_to_the_callers_crate() {
        let mut files: Vec<(String, String)> = vec![
            ("crates/a/src/l.rs".into(), "fn root(x: T) { x.len2(); }\nimpl L { fn len2(&self) {} }\n".into()),
        ];
        for k in 0..METHOD_AMBIGUITY_CAP + 1 {
            files.push((
                format!("crates/c{k}/src/l.rs"),
                "impl M { fn len2(&self) {} }\n".to_string(),
            ));
        }
        let refs: Vec<(&str, &str)> = files.iter().map(|(f, s)| (f.as_str(), s.as_str())).collect();
        let fns = graph_fns(&refs);
        let g = CallGraph::build(&fns);
        let hot = g.closure(&[0]);
        let names: Vec<String> = hot.keys().map(|&i| fns[i].qualified()).collect();
        assert_eq!(
            names,
            vec!["crates/a/src/l.rs::root", "crates/a/src/l.rs::L::len2"],
            "over-cap method resolution stays within the caller's crate"
        );
    }

    #[test]
    fn test_fns_are_neither_roots_nor_targets() {
        let fns = graph_fns(&[(
            "a.rs",
            "fn prod() { helper(); }\n#[cfg(test)]\nmod t { fn helper() {} #[test] fn tt() { prod(); } }\n",
        )]);
        let g = CallGraph::build(&fns);
        let roots = g.fns_in_file("a.rs");
        assert_eq!(roots.len(), 1, "only the non-test fn is a root");
        let hot = g.closure(&roots);
        assert_eq!(hot.len(), 1, "test helper is not a propagation target");
    }
}
