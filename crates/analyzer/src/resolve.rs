//! Symbol table: the workspace's functions and how names reach them.
//!
//! Built from the parsed [`crate::ast`] items of every scanned file,
//! the [`Registry`] records each function definition with its crate,
//! module path, enclosing `impl`/`trait` type and visibility, plus the
//! per-module `use` maps and the crate dependency closure. The call
//! graph (see [`crate::callgraph`]) resolves call sites against this
//! table.
//!
//! Resolution is deliberately *over-approximate* where Rust's real
//! name resolution needs type information:
//!
//! * a method call `x.m(…)` resolves to **every** method named `m`
//!   defined in the caller's crate or any crate in its dependency
//!   closure (trait-method over-approximation — the receiver's type is
//!   unknown, so all candidates are assumed callable);
//! * `Type::m(…)` prefers methods of a type named `Type`, falling back
//!   to the all-methods-named-`m` rule when the type is not found
//!   (e.g. an aliased or re-exported name);
//! * module privacy is ignored: a `pub fn` in a private module counts
//!   as public surface (S1 treats it as an entry point).
//!
//! Over-approximation adds edges, never removes them, so reachability
//! verdicts err on the side of reporting.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{FnDef, Item, ItemKind, Span, UseImport, Vis};
use crate::lints::FileKind;

/// One source file's parse results, as handed to [`Registry::build`].
pub struct SourceUnit<'a> {
    /// Package name (`msrnet-core`).
    pub crate_name: &'a str,
    /// Workspace-relative path (`crates/core/src/dp.rs`).
    pub path: &'a str,
    /// Library or front-end code.
    pub kind: FileKind,
    /// Parsed items (test items are recorded but marked).
    pub items: &'a [Item],
}

/// One function known to the analyzer.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// Display id: `crate::module::Type::name` (module/type segments
    /// omitted when empty).
    pub id: String,
    /// Owning crate (package name).
    pub crate_name: String,
    /// Module path within the crate (empty at the crate root).
    pub module: Vec<String>,
    /// Enclosing `impl` type or `trait` name, if any.
    pub self_ty: Option<String>,
    /// Function name.
    pub name: String,
    /// Visibility of the `fn` item itself.
    pub vis: Vis,
    /// Workspace-relative file path.
    pub path: String,
    /// Span of the function's name token.
    pub span: Span,
    /// File kind the function lives in.
    pub kind: FileKind,
    /// Whether the function is test code ([`Item::test`]).
    pub is_test: bool,
    /// Whether the function is a method of an `impl Trait for T` block
    /// or a trait default method: std can call it with no call the
    /// graph sees (`to_string`, `for`, `?`, operators, `sort`, `Drop`).
    pub trait_method: bool,
    /// The parsed definition (body used by the semantic lints).
    pub def: FnDef,
}

impl FnInfo {
    /// Whether S1 checks the function as an entry point: library,
    /// non-test code that is either `pub` or a [`FnInfo::trait_method`].
    pub fn is_entry(&self) -> bool {
        self.kind == FileKind::Library
            && !self.is_test
            && (self.vis == Vis::Pub || self.trait_method)
    }
}

/// The workspace symbol table.
#[derive(Default)]
pub struct Registry {
    /// Every recorded function; indices are stable handles.
    pub fns: Vec<FnInfo>,
    /// `(crate, module-path, name)` → free-fn indices.
    free_fns: BTreeMap<(String, String, String), Vec<usize>>,
    /// method name → indices (any type, any crate).
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// `(type-name, method-name)` → indices.
    type_methods: BTreeMap<(String, String), Vec<usize>>,
    /// `(crate, module-path)` → alias → full import path.
    uses: BTreeMap<(String, String), BTreeMap<String, Vec<String>>>,
    /// crate → its dependency closure (workspace crates only,
    /// including itself).
    dep_closure: BTreeMap<String, BTreeSet<String>>,
}

/// Joins a module path for use as a map key (`"a::b"`, `""` for root).
fn mod_key(module: &[String]) -> String {
    module.join("::")
}

/// Derives the module path of a file from its workspace-relative path:
/// `src/lib.rs` and `src/main.rs` are the crate root, `src/foo.rs` is
/// `foo`, `src/foo/mod.rs` is `foo`, `src/foo/bar.rs` is `foo::bar`,
/// and `src/bin/x.rs` is its own root.
pub fn module_path_of(path: &str) -> Vec<String> {
    let Some(at) = path.find("/src/") else {
        return Vec::new();
    };
    let rel = path.get(at + "/src/".len()..).unwrap_or("");
    let rel = rel.strip_suffix(".rs").unwrap_or(rel);
    if rel == "lib" || rel == "main" || rel.starts_with("bin/") {
        return Vec::new();
    }
    let mut parts: Vec<String> = rel.split('/').map(str::to_string).collect();
    if parts.last().is_some_and(|p| p == "mod") {
        parts.pop();
    }
    parts
}

impl Registry {
    /// Builds the table from every scanned file plus the workspace
    /// dependency lists (`(crate, direct deps)` from the manifests).
    pub fn build(units: &[SourceUnit<'_>], deps: &[(String, Vec<String>)]) -> Registry {
        let mut reg = Registry::default();
        for unit in units {
            let module = module_path_of(unit.path);
            reg.record_items(unit, &module, None, false, unit.items);
        }
        // Dependency closure: transitive, reflexive, workspace-only.
        let direct: BTreeMap<&str, &[String]> = deps
            .iter()
            .map(|(c, d)| (c.as_str(), d.as_slice()))
            .collect();
        for (name, _) in deps {
            let mut closure = BTreeSet::new();
            let mut stack = vec![name.clone()];
            while let Some(c) = stack.pop() {
                if closure.insert(c.clone()) {
                    if let Some(ds) = direct.get(c.as_str()) {
                        stack.extend(ds.iter().cloned());
                    }
                }
            }
            reg.dep_closure.insert(name.clone(), closure);
        }
        reg
    }

    /// Records `items`; `in_trait` is set inside a trait or an
    /// `impl Trait for T` block.
    fn record_items(
        &mut self,
        unit: &SourceUnit<'_>,
        module: &[String],
        self_ty: Option<&str>,
        in_trait: bool,
        items: &[Item],
    ) {
        for item in items {
            match &item.kind {
                ItemKind::Fn(def) => {
                    self.record_fn(unit, module, self_ty, in_trait, item.test, def)
                }
                ItemKind::Mod { name, items, .. } => {
                    let mut inner = module.to_vec();
                    inner.push(name.clone());
                    self.record_items(unit, &inner, self_ty, in_trait, items);
                }
                ItemKind::Impl {
                    self_ty: ty,
                    trait_name,
                    items,
                } => {
                    self.record_items(unit, module, Some(ty.as_str()), trait_name.is_some(), items);
                }
                ItemKind::Trait { name, items } => {
                    self.record_items(unit, module, Some(name.as_str()), true, items);
                }
                ItemKind::Use(imports) => {
                    let map = self
                        .uses
                        .entry((unit.crate_name.to_string(), mod_key(module)))
                        .or_default();
                    for UseImport { alias, path } in imports {
                        if !alias.is_empty() {
                            map.insert(alias.clone(), path.clone());
                        }
                    }
                }
                ItemKind::Other => {}
            }
        }
    }

    fn record_fn(
        &mut self,
        unit: &SourceUnit<'_>,
        module: &[String],
        self_ty: Option<&str>,
        in_trait: bool,
        is_test: bool,
        def: &FnDef,
    ) {
        if def.name.is_empty() {
            return;
        }
        let mut id = unit.crate_name.to_string();
        for m in module {
            id.push_str("::");
            id.push_str(m);
        }
        if let Some(ty) = self_ty {
            if !ty.is_empty() {
                id.push_str("::");
                id.push_str(ty);
            }
        }
        id.push_str("::");
        id.push_str(&def.name);
        let idx = self.fns.len();
        self.fns.push(FnInfo {
            id,
            crate_name: unit.crate_name.to_string(),
            module: module.to_vec(),
            self_ty: self_ty.filter(|t| !t.is_empty()).map(str::to_string),
            name: def.name.clone(),
            vis: def.vis,
            path: unit.path.to_string(),
            span: def.span,
            kind: unit.kind,
            is_test,
            // A bodiless trait method declaration runs nothing.
            trait_method: in_trait && def.body.is_some(),
            def: def.clone(),
        });
        match self_ty.filter(|t| !t.is_empty()) {
            Some(ty) => {
                self.methods_by_name
                    .entry(def.name.clone())
                    .or_default()
                    .push(idx);
                self.type_methods
                    .entry((ty.to_string(), def.name.clone()))
                    .or_default()
                    .push(idx);
            }
            None => {
                self.free_fns
                    .entry((
                        unit.crate_name.to_string(),
                        mod_key(module),
                        def.name.clone(),
                    ))
                    .or_default()
                    .push(idx);
            }
        }
    }

    /// All methods named `name` visible from `from_crate` (its
    /// dependency closure, or — when the crate has no recorded deps —
    /// the whole workspace).
    pub fn methods_named(&self, name: &str, from_crate: &str) -> Vec<usize> {
        let Some(all) = self.methods_by_name.get(name) else {
            return Vec::new();
        };
        match self.dep_closure.get(from_crate) {
            Some(closure) => all
                .iter()
                .copied()
                .filter(|&i| closure.contains(&self.fns[i].crate_name))
                .collect(),
            None => all.clone(),
        }
    }

    /// Methods of a type named `ty` with method name `name`.
    pub fn type_methods_named(&self, ty: &str, name: &str) -> Vec<usize> {
        self.type_methods
            .get(&(ty.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// Free functions `name` in `crate_name` at module path `module`.
    fn free_in(&self, crate_name: &str, module: &[String], name: &str) -> Vec<usize> {
        self.free_fns
            .get(&(
                crate_name.to_string(),
                mod_key(module),
                name.to_string(),
            ))
            .cloned()
            .unwrap_or_default()
    }

    /// The `use` map of a module.
    fn use_map(&self, crate_name: &str, module: &[String]) -> Option<&BTreeMap<String, Vec<String>>> {
        self.uses
            .get(&(crate_name.to_string(), mod_key(module)))
    }

    /// Resolves a call-site path (already split into segments) as seen
    /// from inside function `caller` to candidate callee indices.
    ///
    /// Handles, in order: `self`/`crate`/`super` prefixes, `Self`
    /// methods via the enclosing impl, plain names (same module, crate
    /// root, `use` aliases), aliased first segments, workspace extern
    /// crates (`msrnet_core::dp::solve`), and `Type::method` paths.
    pub fn resolve_path(&self, caller: usize, segs: &[String]) -> Vec<usize> {
        let f = &self.fns[caller];
        let Some((seg0, after0)) = segs.split_first() else {
            return Vec::new();
        };
        // Expand leading alias / keyword into an absolute path of the
        // form [crate-name, modules…, name?] or a crate-relative path.
        let (crate_name, rest): (String, Vec<String>) = match seg0.as_str() {
            "crate" => (f.crate_name.clone(), after0.to_vec()),
            "self" if segs.len() > 1 => {
                let mut p = f.module.clone();
                p.extend(after0.iter().cloned());
                (f.crate_name.clone(), p)
            }
            "super" => {
                let mut m = f.module.clone();
                m.pop();
                let mut tail = after0;
                while tail.first().is_some_and(|s| s == "super") {
                    m.pop();
                    tail = &tail[1..];
                }
                m.extend(tail.iter().cloned());
                (f.crate_name.clone(), m)
            }
            "Self" => {
                // `Self::m(…)` — methods of the enclosing impl type.
                if let (Some(ty), Some(name)) = (&f.self_ty, segs.last()) {
                    return self.type_methods_named(ty, name);
                }
                return Vec::new();
            }
            first => {
                // Single name: a free fn in scope.
                if segs.len() == 1 {
                    let mut found = self.free_in(&f.crate_name, &f.module, first);
                    if found.is_empty() && !f.module.is_empty() {
                        found = self.free_in(&f.crate_name, &[], first);
                    }
                    if found.is_empty() {
                        if let Some(full) = self
                            .use_map(&f.crate_name, &f.module)
                            .and_then(|m| m.get(first))
                            .cloned()
                        {
                            return self.resolve_path(caller, &full);
                        }
                    }
                    return found;
                }
                // Multi-segment: maybe the first segment is an alias
                // (`use msrnet_core::dp; … dp::solve()`).
                if let Some(full) = self
                    .use_map(&f.crate_name, &f.module)
                    .and_then(|m| m.get(first))
                {
                    let mut p = full.clone();
                    p.extend(after0.iter().cloned());
                    // Guard against self-aliases (`use dp::dp;`).
                    if p.as_slice() != segs {
                        let found = self.resolve_path_abs(caller, &p);
                        if !found.is_empty() {
                            return found;
                        }
                    }
                }
                return self.resolve_path_abs(caller, segs);
            }
        };
        self.resolve_in_crate(&crate_name, &rest)
    }

    /// Resolves an absolute-ish path whose first segment may be a
    /// workspace crate name (underscored) or a module of the caller's
    /// crate, or whose last two segments may be `Type::method`.
    fn resolve_path_abs(&self, caller: usize, segs: &[String]) -> Vec<usize> {
        let f = &self.fns[caller];
        let Some((seg0, after0)) = segs.split_first() else {
            return Vec::new();
        };
        let first_as_crate = seg0.replace('_', "-");
        if self.dep_closure.contains_key(&first_as_crate)
            || self
                .fns
                .iter()
                .any(|g| g.crate_name == first_as_crate)
        {
            let found = self.resolve_in_crate(&first_as_crate, after0);
            if !found.is_empty() {
                return found;
            }
        }
        // A module path within the caller's crate (`dp::solve` without
        // a `use`).
        let found = self.resolve_in_crate(&f.crate_name, segs);
        if !found.is_empty() {
            return found;
        }
        // `Type::method` (associated call), possibly with a leading
        // module path we ignore.
        if let [.., ty, name] = segs {
            if ty.starts_with(char::is_uppercase) {
                let found = self.type_methods_named(ty, name);
                if !found.is_empty() {
                    return found;
                }
            }
        }
        Vec::new()
    }

    /// Resolves `[modules…, name]` inside one crate; also tries the
    /// final two segments as `Type::method`.
    fn resolve_in_crate(&self, crate_name: &str, path: &[String]) -> Vec<usize> {
        let Some((name, modules)) = path.split_last() else {
            return Vec::new();
        };
        let found = self.free_in(crate_name, modules, name);
        if !found.is_empty() {
            return found;
        }
        if let Some((ty, _mods)) = modules.split_last() {
            if ty.starts_with(char::is_uppercase) {
                let found: Vec<usize> = self
                    .type_methods_named(ty, name)
                    .into_iter()
                    .filter(|&i| self.fns[i].crate_name == crate_name)
                    .collect();
                if !found.is_empty() {
                    return found;
                }
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::lexer::lex;

    struct Parsed {
        crate_name: String,
        path: String,
        items: Vec<Item>,
    }

    fn parsed(crate_name: &str, path: &str, src: &str) -> Parsed {
        Parsed {
            crate_name: crate_name.to_string(),
            path: path.to_string(),
            items: parse_file(src, &lex(src)),
        }
    }

    fn build(files: &[Parsed], deps: &[(String, Vec<String>)]) -> Registry {
        let units: Vec<SourceUnit<'_>> = files
            .iter()
            .map(|p| SourceUnit {
                crate_name: &p.crate_name,
                path: &p.path,
                kind: FileKind::Library,
                items: &p.items,
            })
            .collect();
        Registry::build(&units, deps)
    }

    fn idx_of(reg: &Registry, id: &str) -> usize {
        reg.fns
            .iter()
            .position(|f| f.id == id)
            .unwrap_or_else(|| {
                panic!(
                    "no fn {id}; have: {:?}",
                    reg.fns.iter().map(|f| &f.id).collect::<Vec<_>>()
                )
            })
    }

    #[test]
    fn module_paths_from_file_paths() {
        assert!(module_path_of("crates/core/src/lib.rs").is_empty());
        assert_eq!(module_path_of("crates/core/src/dp.rs"), vec!["dp"]);
        assert_eq!(
            module_path_of("crates/core/src/a/b.rs"),
            vec!["a", "b"]
        );
        assert_eq!(module_path_of("crates/core/src/a/mod.rs"), vec!["a"]);
        assert!(module_path_of("crates/cli/src/bin/tool.rs").is_empty());
    }

    #[test]
    fn same_module_and_crate_root_resolution() {
        let files = [
            parsed(
                "msrnet-core",
                "crates/core/src/lib.rs",
                "pub fn root_helper() {}\n",
            ),
            parsed(
                "msrnet-core",
                "crates/core/src/dp.rs",
                "fn local() {}\npub fn solve() { local(); root_helper(); }\n",
            ),
        ];
        let reg = build(&files, &[("msrnet-core".to_string(), vec![])]);
        let solve = idx_of(&reg, "msrnet-core::dp::solve");
        assert_eq!(
            reg.resolve_path(solve, &["local".to_string()]),
            vec![idx_of(&reg, "msrnet-core::dp::local")]
        );
        assert_eq!(
            reg.resolve_path(solve, &["root_helper".to_string()]),
            vec![idx_of(&reg, "msrnet-core::root_helper")]
        );
    }

    #[test]
    fn use_alias_and_extern_crate_resolution() {
        let files = [
            parsed(
                "msrnet-core",
                "crates/core/src/dp.rs",
                "pub fn solve() {}\n",
            ),
            parsed(
                "msrnet-batch",
                "crates/batch/src/lib.rs",
                "use msrnet_core::dp::solve;\npub fn run() { solve(); msrnet_core::dp::solve(); }\n",
            ),
        ];
        let deps = [
            ("msrnet-core".to_string(), vec![]),
            ("msrnet-batch".to_string(), vec!["msrnet-core".to_string()]),
        ];
        let reg = build(&files, &deps);
        let run = idx_of(&reg, "msrnet-batch::run");
        let solve = idx_of(&reg, "msrnet-core::dp::solve");
        assert_eq!(reg.resolve_path(run, &["solve".to_string()]), vec![solve]);
        assert_eq!(
            reg.resolve_path(
                run,
                &["msrnet_core".to_string(), "dp".to_string(), "solve".to_string()]
            ),
            vec![solve]
        );
    }

    #[test]
    fn self_and_type_method_resolution() {
        let files = [parsed(
            "msrnet-core",
            "crates/core/src/lib.rs",
            "pub struct Dp;\nimpl Dp {\n  pub fn new() -> Dp { Dp }\n  pub fn run(&self) { Self::helper(); Dp::helper(); }\n  fn helper() {}\n}\n",
        )];
        let reg = build(&files, &[("msrnet-core".to_string(), vec![])]);
        let run = idx_of(&reg, "msrnet-core::Dp::run");
        let helper = idx_of(&reg, "msrnet-core::Dp::helper");
        assert_eq!(
            reg.resolve_path(run, &["Self".to_string(), "helper".to_string()]),
            vec![helper]
        );
        assert_eq!(
            reg.resolve_path(run, &["Dp".to_string(), "helper".to_string()]),
            vec![helper]
        );
    }

    #[test]
    fn method_over_approximation_respects_dep_closure() {
        let files = [
            parsed(
                "msrnet-core",
                "crates/core/src/lib.rs",
                "pub struct A;\nimpl A { pub fn go(&self) {} }\npub fn caller(a: &A) { a.go(); }\n",
            ),
            parsed(
                "msrnet-service",
                "crates/service/src/lib.rs",
                "pub struct B;\nimpl B { pub fn go(&self) {} }\n",
            ),
        ];
        let deps = [
            ("msrnet-core".to_string(), vec![]),
            (
                "msrnet-service".to_string(),
                vec!["msrnet-core".to_string()],
            ),
        ];
        let reg = build(&files, &deps);
        // From core, only core's `go` is visible.
        let from_core = reg.methods_named("go", "msrnet-core");
        assert_eq!(from_core, vec![idx_of(&reg, "msrnet-core::A::go")]);
        // From service, both are candidates.
        let from_service = reg.methods_named("go", "msrnet-service");
        assert_eq!(from_service.len(), 2);
    }

    #[test]
    fn test_region_fns_are_marked() {
        let files = [parsed(
            "msrnet-core",
            "crates/core/src/lib.rs",
            "pub fn prod() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n}\n",
        )];
        let reg = build(&files, &[("msrnet-core".to_string(), vec![])]);
        assert!(!reg.fns[idx_of(&reg, "msrnet-core::prod")].is_test);
        assert!(reg.fns[idx_of(&reg, "msrnet-core::tests::helper")].is_test);
    }

    #[test]
    fn trait_side_methods_are_entry_points() {
        let files = [parsed(
            "msrnet-core",
            "crates/core/src/lib.rs",
            "struct S;\nimpl S { fn inherent(&self) {} }\nimpl std::fmt::Display for S { fn fmt(&self) {} }\n\
             trait T { fn required(&self); fn provided(&self) {} }\n",
        )];
        let reg = build(&files, &[("msrnet-core".to_string(), vec![])]);
        let entry = |id: &str| reg.fns[idx_of(&reg, id)].is_entry();
        assert!(!entry("msrnet-core::S::inherent"));
        assert!(entry("msrnet-core::S::fmt"));
        assert!(entry("msrnet-core::T::provided"));
        assert!(!entry("msrnet-core::T::required"));
    }
}
