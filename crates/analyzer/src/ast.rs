//! A tolerant Rust AST layer over the token scanner.
//!
//! The semantic lints (S1 panic-reachability, S2 lock-discipline, S3
//! NaN-taint) need more structure than a token stream: which function a
//! call site lives in, what a `let` binds, where a block ends. This
//! module parses the lexed tokens into items, statements and
//! expressions — *tolerantly*: it never fails, never panics, and on
//! constructs it does not model (complex patterns, type grammar,
//! exotic macros) it degrades to an [`ExprKind::Opaque`] node that
//! still exposes every nested sub-expression it could recover, so a
//! call or an index inside an unmodeled construct is still visible to
//! the lints.
//!
//! Deliberate simplifications, each an *over*- or *under*-approximation
//! the lints account for (see `ALGORITHMS.md` §8):
//!
//! * Types are skipped, not parsed: the parser balances `<>`/`()`/`[]`
//!   and moves on. Nothing the lints check lives in type position.
//! * Patterns are reduced to their binder names via a lowercase-ident
//!   heuristic (`Some(x)` binds `x`; `Foo { a: y }` binds `y`;
//!   shorthand `Foo { a }` binds `a`).
//! * Macro invocations re-parse their token soup as a comma-separated
//!   expression list; what does not parse becomes opaque children.
//! * Attributes are read only to decide what is test code, and only on
//!   items: a `#[cfg(test)]` statement inside a function body is
//!   linted as production code.

use std::ops::Range;

use crate::lexer::{Lexed, Token, TokenKind};

/// The exact source position of a syntactic element (its head token).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Length in bytes.
    pub len: u32,
}

impl Span {
    fn of(t: &Token) -> Span {
        Span {
            start: t.start,
            line: t.line,
            col: t.col,
            len: (t.end - t.start) as u32,
        }
    }

    /// A zero-width span at the origin, for synthesized nodes.
    pub fn zero() -> Span {
        Span {
            start: 0,
            line: 1,
            col: 1,
            len: 0,
        }
    }
}

/// Item visibility, as far as the lints care.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vis {
    /// `pub` — part of the crate's public surface.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)` — crate-internal.
    Scoped,
    /// No visibility keyword.
    Private,
}

/// One parsed top-level or nested item.
#[derive(Clone, Debug)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// Byte range of the item, from its first attribute to its last
    /// token.
    pub bytes: Range<usize>,
    /// Whether the item is test-only: it carries `#[test]`, `#[bench]`,
    /// `#[cfg(test)]` or `#[cfg(all(…))]` with `test` as a direct
    /// argument, or sits inside an item that does.
    pub test: bool,
}

/// Item classification.
#[derive(Clone, Debug)]
pub enum ItemKind {
    /// A free function or method.
    Fn(FnDef),
    /// An inline module with its items (`mod m;` forms have no items;
    /// the file walker maps those to files).
    Mod {
        /// Module name.
        name: String,
        /// Module visibility.
        vis: Vis,
        /// Items of an inline `mod m { … }` body.
        items: Vec<Item>,
    },
    /// An `impl` block; methods inside attach to `self_ty`.
    Impl {
        /// The implemented type's head identifier (`Foo` of
        /// `impl<T> Foo<T>`), empty when unrecognized.
        self_ty: String,
        /// `Some(trait name)` for `impl Trait for Type`.
        trait_name: Option<String>,
        /// The associated items.
        items: Vec<Item>,
    },
    /// A trait definition; default methods attach to the trait name.
    Trait {
        /// Trait name.
        name: String,
        /// Associated items (default methods have bodies).
        items: Vec<Item>,
    },
    /// One flattened `use` import: `use a::b::{c as d}` produces an
    /// entry with path `[a, b, c]` and alias `d`.
    Use(Vec<UseImport>),
    /// Anything else (struct/enum/const/static/type/macro definitions).
    Other,
}

/// One flattened `use` binding.
#[derive(Clone, Debug)]
pub struct UseImport {
    /// The local name the import binds (last segment, or the `as`
    /// alias; `*` globs bind the empty string).
    pub alias: String,
    /// Full path segments, leading `crate`/`self`/`super` kept.
    pub path: Vec<String>,
}

/// A function definition (free fn, method, or trait default method).
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Visibility.
    pub vis: Vis,
    /// Span of the name token.
    pub span: Span,
    /// Parameter binder names in order; a receiver contributes `self`.
    pub params: Vec<String>,
    /// The body; `None` for trait method declarations.
    pub body: Option<Block>,
}

/// A `{ … }` block of statements.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `let <pat>(: ty)? (= expr)? (else { … })?;`
    Let {
        /// Names bound by the pattern.
        names: Vec<String>,
        /// The initializer, when present.
        init: Option<Expr>,
        /// A `let … else` diverging block, when present.
        els: Option<Block>,
    },
    /// An expression statement (with or without trailing `;`).
    Expr(Expr),
    /// A nested item (inner `fn`, `use`, …).
    Item(Item),
}

/// One match arm.
#[derive(Clone, Debug)]
pub struct Arm {
    /// Pattern binder names.
    pub binders: Vec<String>,
    /// The `if` guard expression, when present.
    pub guard: Option<Expr>,
    /// The arm body.
    pub body: Expr,
}

/// An expression with its head span.
#[derive(Clone, Debug)]
pub struct Expr {
    /// Shape.
    pub kind: ExprKind,
    /// Span of the expression's most identifying token (callee name,
    /// method name, operator, opening bracket).
    pub span: Span,
}

/// Expression shapes the lints distinguish.
#[derive(Clone, Debug)]
pub enum ExprKind {
    /// A path (`x`, `a::b::c`, `Self::f`); turbofish generics dropped.
    Path(Vec<String>),
    /// A literal; numeric literals keep their text.
    Lit(Option<String>),
    /// `callee(args…)` where the callee is a path or expression.
    Call {
        /// The called expression (usually a `Path`).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `recv.name(args…)`; span is the method-name token.
    Method {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `name!(…)` / `name![…]` / `name!{…}`; span is the name token.
    Macro {
        /// Macro name (last path segment).
        name: String,
        /// Recovered argument expressions.
        args: Vec<Expr>,
    },
    /// `base[index]`; span is the `[` token.
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `base.name` field access (also tuple fields `t.0`).
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name (or tuple index text).
        name: String,
    },
    /// A prefix operator (`-`, `!`, `*`, `&`, `&mut`).
    Unary {
        /// Operand.
        expr: Box<Expr>,
    },
    /// `lhs op rhs`; span is the operator token.
    Binary {
        /// Operator text (`+`, `/`, `==`, `=`, `..`, …).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A block expression (incl. `unsafe`/`async` blocks).
    Block(Block),
    /// `if` / `if let`, with optional `else` (which may be another
    /// `if`).
    If {
        /// Binders of an `if let` pattern (empty for plain `if`).
        let_binders: Vec<String>,
        /// The condition (or `if let` scrutinee).
        cond: Box<Expr>,
        /// Then-block.
        then: Block,
        /// Else branch.
        els: Option<Box<Expr>>,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Scrutinee.
        scrutinee: Box<Expr>,
        /// Arms in source order.
        arms: Vec<Arm>,
    },
    /// `loop` / `while (let)` / `for … in …` — iteration collapsed to
    /// an optional head expression (condition or iterator) and a body.
    Loop {
        /// Binders of a `for` pattern or `while let` pattern.
        binders: Vec<String>,
        /// Condition or iterator expression.
        head: Option<Box<Expr>>,
        /// Loop body.
        body: Block,
    },
    /// A closure; the body sees the enclosing scope.
    Closure {
        /// Parameter binder names.
        params: Vec<String>,
        /// Body expression.
        body: Box<Expr>,
    },
    /// A struct literal `Path { field: expr, … }`.
    StructLit {
        /// The struct path.
        path: Vec<String>,
        /// Field initializer expressions (labels dropped).
        fields: Vec<Expr>,
    },
    /// `return expr?` / `break expr?` / `continue`.
    Ret(Option<Box<Expr>>),
    /// A parenthesized expression or tuple.
    Tuple(Vec<Expr>),
    /// An array literal `[a, b]` / `[x; n]`.
    Array(Vec<Expr>),
    /// The `?` operator.
    Try(Box<Expr>),
    /// An `as` cast (type dropped).
    Cast(Box<Expr>),
    /// Recovered soup: children found inside an unmodeled construct.
    Opaque(Vec<Expr>),
}

impl Expr {
    /// Visits this expression and every nested sub-expression,
    /// pre-order.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        fn each<'a>(list: &'a [Expr], f: &mut dyn FnMut(&'a Expr)) {
            for e in list {
                e.walk(f);
            }
        }
        match &self.kind {
            ExprKind::Path(_) | ExprKind::Lit(_) => {}
            ExprKind::Call { callee, args } => {
                callee.walk(f);
                each(args, f);
            }
            ExprKind::Method { recv, args, .. } => {
                recv.walk(f);
                each(args, f);
            }
            ExprKind::Macro { args, .. } => each(args, f),
            ExprKind::Index { base, index } => {
                base.walk(f);
                index.walk(f);
            }
            ExprKind::Field { base, .. } => base.walk(f),
            ExprKind::Unary { expr } | ExprKind::Try(expr) | ExprKind::Cast(expr) => expr.walk(f),
            ExprKind::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            ExprKind::Block(b) => walk_block(b, f),
            ExprKind::If {
                cond, then, els, ..
            } => {
                cond.walk(f);
                walk_block(then, f);
                if let Some(e) = els {
                    e.walk(f);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                scrutinee.walk(f);
                for a in arms {
                    if let Some(g) = &a.guard {
                        g.walk(f);
                    }
                    a.body.walk(f);
                }
            }
            ExprKind::Loop { head, body, .. } => {
                if let Some(h) = head {
                    h.walk(f);
                }
                walk_block(body, f);
            }
            ExprKind::Closure { body, .. } => body.walk(f),
            ExprKind::StructLit { fields, .. } => each(fields, f),
            ExprKind::Ret(e) => {
                if let Some(e) = e {
                    e.walk(f);
                }
            }
            ExprKind::Tuple(list) | ExprKind::Array(list) | ExprKind::Opaque(list) => {
                each(list, f)
            }
        }
    }
}

/// Visits every expression of a block (statement initializers and
/// expression statements), pre-order.
pub fn walk_block<'a>(b: &'a Block, f: &mut dyn FnMut(&'a Expr)) {
    for s in &b.stmts {
        match s {
            Stmt::Let { init, els, .. } => {
                if let Some(e) = init {
                    e.walk(f);
                }
                if let Some(b) = els {
                    walk_block(b, f);
                }
            }
            Stmt::Expr(e) => e.walk(f),
            Stmt::Item(it) => {
                // Nested fns are linted as their own graph nodes, but
                // the walker still descends so expression-level passes
                // (taint sources, call sites) never go blind.
                if let ItemKind::Fn(fd) = &it.kind {
                    if let Some(b) = &fd.body {
                        walk_block(b, f);
                    }
                }
            }
        }
    }
}

/// The byte ranges of the outermost test items among `items` and the
/// modules, impls and traits nested in them, in source order. The
/// token lints and marker parsing skip these ranges.
pub fn test_spans(items: &[Item]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    for item in items {
        if item.test {
            out.push(item.bytes.clone());
            continue;
        }
        if let ItemKind::Mod { items, .. }
        | ItemKind::Impl { items, .. }
        | ItemKind::Trait { items, .. } = &item.kind
        {
            out.extend(test_spans(items));
        }
    }
    out
}

/// Whether an attribute body (the tokens inside `#[…]`) makes its item
/// test-only: `test`, `bench`, `cfg(test)`, or `cfg(all(…))` with
/// `test` as a direct argument. Everything else, `cfg_attr(test, …)`,
/// `cfg(not(test))` and `cfg(any(test, …))` included, is built into
/// production and stays linted.
fn attr_is_test(body: &[&str]) -> bool {
    match body {
        ["test"] | ["bench"] | ["cfg", "(", "test", ")"] => true,
        ["cfg", "(", "all", "(", args @ .., ")", ")"] => {
            let mut depth = 0usize;
            args.split(|&t| {
                match t {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    _ => {}
                }
                t == "," && depth == 0
            })
            .any(|arg| arg == ["test"])
        }
        _ => false,
    }
}

/// Parses a lexed file into its items. Never fails.
pub fn parse_file(source: &str, lexed: &Lexed) -> Vec<Item> {
    let mut p = Parser {
        src: source,
        toks: &lexed.tokens,
        pos: 0,
        no_struct: false,
        in_test: false,
        fuel: lexed.tokens.len() * 16 + 1024,
    };
    p.items(None)
}

/// Keywords that can never be pattern binders.
const NON_BINDERS: &[&str] = &[
    "mut", "ref", "box", "self", "Self", "crate", "super", "true", "false", "if", "in", "_",
];

struct Parser<'a> {
    src: &'a str,
    toks: &'a [Token],
    pos: usize,
    /// Set while parsing `if`/`while`/`for`/`match` head expressions,
    /// where `Path { … }` is a block, not a struct literal.
    no_struct: bool,
    /// Set while parsing inside a test item (or after an inner test
    /// attribute), so every nested item is test code too.
    in_test: bool,
    /// Hard bound on total work so malformed input can never loop.
    fuel: usize,
}

impl<'a> Parser<'a> {
    fn tok(&self, ahead: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + ahead)
    }

    fn text(&self, ahead: usize) -> &'a str {
        self.tok(ahead).map(|t| t.text(self.src)).unwrap_or("")
    }

    fn kind(&self, ahead: usize) -> Option<TokenKind> {
        self.tok(ahead).map(|t| t.kind)
    }

    fn span(&self) -> Span {
        self.tok(0).map(Span::of).unwrap_or_else(Span::zero)
    }

    fn bump(&mut self) {
        self.pos += 1;
        self.fuel = self.fuel.saturating_sub(1);
    }

    fn done(&self) -> bool {
        self.pos >= self.toks.len() || self.fuel == 0
    }

    fn at(&self, s: &str) -> bool {
        self.text(0) == s
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.at(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Skips one balanced group assuming the current token opens it.
    fn skip_balanced(&mut self) {
        let open = self.text(0);
        let close = match open {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => {
                self.bump();
                return;
            }
        };
        self.bump();
        let mut depth = 1usize;
        while !self.done() && depth > 0 {
            let t = self.text(0);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
            }
            self.bump();
        }
    }

    /// Skips a `<…>` generic group assuming the current token is `<`.
    /// `<<`/`>>` count double; `>=`/`>>=` close-and-stop.
    fn skip_angles(&mut self) {
        let mut depth = 0isize;
        while !self.done() {
            match self.text(0) {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                ">=" | ">>=" => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
            if depth <= 0 {
                return;
            }
        }
    }

    /// Skips type-position tokens, balancing all bracket kinds, until
    /// one of `stops` appears at depth 0.
    fn skip_type(&mut self, stops: &[&str]) {
        while !self.done() {
            let t = self.text(0);
            if stops.contains(&t) {
                return;
            }
            match t {
                "(" | "[" | "{" => self.skip_balanced(),
                "<" | "<<" => self.skip_angles(),
                ">" | ">>" | ">=" | ">>=" => return,
                _ => self.bump(),
            }
        }
    }

    /// Byte offset of the token at the cursor (end of input past it).
    fn offset(&self) -> usize {
        self.tok(0).map_or(self.src.len(), |t| t.start)
    }

    /// Consumes the outer and inner attributes at the cursor, returning
    /// whether an outer one makes the next item test-only. An inner
    /// test attribute (`#![cfg(test)]`) makes the rest of the enclosing
    /// module test code.
    fn attrs(&mut self) -> bool {
        let mut test = false;
        while self.at("#") {
            let inner = self.text(1) == "!";
            let open = if inner { 2 } else { 1 };
            if self.text(open) != "[" {
                break;
            }
            for _ in 0..open {
                self.bump();
            }
            let from = self.pos + 1;
            self.skip_balanced();
            // The body ends before the closing `]`.
            let to = self.pos.saturating_sub(1).max(from);
            let body: Vec<&str> = self.toks[from..to].iter().map(|t| t.text(self.src)).collect();
            if attr_is_test(&body) {
                if inner {
                    self.in_test = true;
                } else {
                    test = true;
                }
            }
        }
        test
    }

    // ------------------------------------------------------------------
    // Items
    // ------------------------------------------------------------------

    /// Parses items until end of input (`until` = None) or a closing
    /// brace (`until` = Some("}"), consumed).
    fn items(&mut self, until: Option<&str>) -> Vec<Item> {
        let mut out = Vec::new();
        while !self.done() {
            if let Some(close) = until {
                if self.at(close) {
                    self.bump();
                    break;
                }
            }
            let before = self.pos;
            if let Some(item) = self.item() {
                out.push(item);
            }
            if self.pos == before {
                self.bump();
            }
        }
        out
    }

    /// Parses one item, returning `None` for skipped tokens.
    fn item(&mut self) -> Option<Item> {
        let start = self.offset();
        let test = self.attrs();
        self.item_after_attrs(start, test)
    }

    /// Parses the item whose attributes, starting at byte `start`, were
    /// just consumed; `test` says whether one of them marks test code.
    fn item_after_attrs(&mut self, start: usize, test: bool) -> Option<Item> {
        let scope = self.in_test;
        let test = test || scope;
        self.in_test = test;
        let kind = self.item_kind();
        self.in_test = scope;
        let end = self.pos.checked_sub(1).and_then(|i| self.toks.get(i)).map_or(start, |t| t.end);
        kind.map(|kind| Item {
            kind,
            bytes: start..end.max(start),
            test,
        })
    }

    /// Parses one item after its attributes.
    fn item_kind(&mut self) -> Option<ItemKind> {
        let vis = self.visibility();
        // Function qualifiers.
        loop {
            match self.text(0) {
                "const" if self.text(1) == "fn" => self.bump(),
                "async" | "unsafe" if self.text(1) != "impl" && self.text(1) != "{" => self.bump(),
                "extern" if self.kind(1) == Some(TokenKind::Str) => {
                    self.bump();
                    self.bump();
                }
                _ => break,
            }
        }
        match self.text(0) {
            "fn" => {
                self.bump();
                Some(ItemKind::Fn(self.fn_def(vis)))
            }
            "mod" => {
                self.bump();
                let name = self.ident_text();
                let items = if self.eat("{") {
                    self.items(Some("}"))
                } else {
                    self.eat(";");
                    Vec::new()
                };
                Some(ItemKind::Mod { name, vis, items })
            }
            "impl" => {
                self.bump();
                if self.at("<") || self.at("<<") {
                    self.skip_angles();
                }
                // `impl Trait for Type { … }` or `impl Type { … }`.
                let first = self.type_head();
                let (trait_name, self_ty) = if self.eat("for") {
                    (Some(first), self.type_head())
                } else {
                    (None, first)
                };
                self.skip_type(&["{", ";"]);
                if self.eat("{") {
                    let items = self.items(Some("}"));
                    Some(ItemKind::Impl {
                        self_ty,
                        trait_name,
                        items,
                    })
                } else {
                    self.eat(";");
                    Some(ItemKind::Other)
                }
            }
            "trait" => {
                self.bump();
                let name = self.ident_text();
                self.skip_type(&["{", ";"]);
                if self.eat("{") {
                    let items = self.items(Some("}"));
                    Some(ItemKind::Trait { name, items })
                } else {
                    self.eat(";");
                    Some(ItemKind::Other)
                }
            }
            "use" => {
                self.bump();
                let mut imports = Vec::new();
                self.use_tree(Vec::new(), &mut imports);
                self.eat(";");
                Some(ItemKind::Use(imports))
            }
            "struct" | "enum" | "union" | "type" | "static" | "const" => {
                // Skip to the terminating `;` or the end of a braced
                // body ( `struct S { … }` has no `;`).
                self.bump();
                while !self.done() {
                    match self.text(0) {
                        ";" => {
                            self.bump();
                            break;
                        }
                        "{" => {
                            self.skip_balanced();
                            break;
                        }
                        "(" | "[" => self.skip_balanced(),
                        "<" | "<<" => self.skip_angles(),
                        _ => self.bump(),
                    }
                }
                Some(ItemKind::Other)
            }
            "macro_rules" => {
                self.bump();
                self.eat("!");
                self.ident_text();
                self.skip_balanced();
                Some(ItemKind::Other)
            }
            "extern" => {
                // `extern { … }` / `extern crate x;`
                self.bump();
                while !self.done() && !self.at("{") && !self.at(";") {
                    self.bump();
                }
                if self.at("{") {
                    self.skip_balanced();
                } else {
                    self.eat(";");
                }
                Some(ItemKind::Other)
            }
            _ => None,
        }
    }

    /// Parses a visibility qualifier at the cursor.
    fn visibility(&mut self) -> Vis {
        if !self.at("pub") {
            return Vis::Private;
        }
        self.bump();
        if self.at("(") {
            self.skip_balanced();
            Vis::Scoped
        } else {
            Vis::Pub
        }
    }

    /// Consumes one identifier, returning its text (empty on mismatch).
    fn ident_text(&mut self) -> String {
        if self.kind(0) == Some(TokenKind::Ident) {
            let s = self.text(0).to_string();
            self.bump();
            s
        } else {
            String::new()
        }
    }

    /// The head identifier of a type (`Foo` of `a::b::Foo<T>`),
    /// consuming the leading path.
    fn type_head(&mut self) -> String {
        let mut last = String::new();
        while self.kind(0) == Some(TokenKind::Ident) {
            last = self.text(0).to_string();
            self.bump();
            if self.at("::") {
                self.bump();
            } else {
                break;
            }
        }
        if self.at("<") || self.at("<<") {
            self.skip_angles();
        }
        last
    }

    /// Flattens one `use` tree node into imports.
    fn use_tree(&mut self, prefix: Vec<String>, out: &mut Vec<UseImport>) {
        let mut path = prefix;
        loop {
            if self.at("{") {
                self.bump();
                while !self.done() && !self.at("}") {
                    self.use_tree(path.clone(), out);
                    if !self.eat(",") {
                        break;
                    }
                }
                self.eat("}");
                return;
            }
            if self.at("*") {
                self.bump();
                out.push(UseImport {
                    alias: String::new(),
                    path,
                });
                return;
            }
            if self.kind(0) != Some(TokenKind::Ident) {
                return;
            }
            path.push(self.text(0).to_string());
            self.bump();
            if self.eat("::") {
                continue;
            }
            let alias = if self.at("as") {
                self.bump();
                self.ident_text()
            } else {
                path.last().cloned().unwrap_or_default()
            };
            out.push(UseImport { alias, path });
            return;
        }
    }

    /// Parses a function definition after the `fn` keyword.
    fn fn_def(&mut self, vis: Vis) -> FnDef {
        let span = self.span();
        let name = self.ident_text();
        if self.at("<") || self.at("<<") {
            self.skip_angles();
        }
        let mut params = Vec::new();
        if self.eat("(") {
            let mut depth = 1usize;
            let mut seg: Vec<usize> = Vec::new(); // token indices of the current param
            while !self.done() && depth > 0 {
                match self.text(0) {
                    "<" | "<<" => {
                        self.skip_angles();
                        continue;
                    }
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            self.bump();
                            break;
                        }
                    }
                    "," if depth == 1 => {
                        self.param_names(&seg, &mut params);
                        seg.clear();
                        self.bump();
                        continue;
                    }
                    _ => {}
                }
                seg.push(self.pos);
                self.bump();
            }
            self.param_names(&seg, &mut params);
        }
        if self.eat("->") {
            self.skip_type(&["{", ";", "where"]);
        }
        if self.at("where") {
            self.skip_type(&["{", ";"]);
        }
        let body = if self.eat("{") {
            Some(self.block_body())
        } else {
            self.eat(";");
            None
        };
        FnDef {
            name,
            vis,
            span,
            params,
            body,
        }
    }

    /// Extracts binder names from one parameter's token indices (the
    /// part before the `:` type ascription).
    fn param_names(&mut self, seg: &[usize], out: &mut Vec<String>) {
        let mut names = Vec::new();
        for &i in seg {
            let Some(t) = self.toks.get(i) else { continue };
            let text = t.text(self.src);
            if text == ":" {
                break;
            }
            if t.kind == TokenKind::Ident {
                if text == "self" {
                    out.push("self".to_string());
                    return;
                }
                if !NON_BINDERS.contains(&text) {
                    names.push(text.to_string());
                }
            }
        }
        out.extend(names);
    }

    /// Collects pattern binders from the token range `[from, to)` using
    /// the lowercase-ident heuristic.
    fn binders_in(&self, from: usize, to: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut i = from;
        while i < to {
            let Some(t) = self.toks.get(i) else { break };
            let text = t.text(self.src);
            if t.kind == TokenKind::Ident
                && !NON_BINDERS.contains(&text)
                && text.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
            {
                // Lookahead stays inside the pattern range: a `:`
                // *after* the pattern is a type annotation, not a
                // struct-field label.
                let next = if i + 1 < to {
                    self.toks
                        .get(i + 1)
                        .map(|n| n.text(self.src))
                        .unwrap_or("")
                } else {
                    ""
                };
                // `a:` is a struct-pattern field label; `a::` a path.
                if next != ":" && next != "::" && next != "!" {
                    out.push(text.to_string());
                }
            }
            i += 1;
        }
        out
    }

    /// Skips pattern tokens until one of `stops` at depth 0, returning
    /// the binders found.
    fn pattern(&mut self, stops: &[&str]) -> Vec<String> {
        let from = self.pos;
        while !self.done() {
            let t = self.text(0);
            if stops.contains(&t) {
                break;
            }
            match t {
                "(" | "[" | "{" => self.skip_balanced(),
                "<" | "<<" => self.skip_angles(),
                _ => self.bump(),
            }
        }
        self.binders_in(from, self.pos)
    }

    // ------------------------------------------------------------------
    // Statements and expressions
    // ------------------------------------------------------------------

    /// Parses statements until the matching `}` (consumed).
    fn block_body(&mut self) -> Block {
        let mut stmts = Vec::new();
        while !self.done() {
            if self.eat("}") {
                break;
            }
            if self.eat(";") {
                continue;
            }
            let before = self.pos;
            let start = self.offset();
            let test = self.attrs();
            if self.at("let") {
                self.bump();
                let names = self.pattern(&[":", "=", ";"]);
                if self.at(":") {
                    self.bump();
                    self.skip_type(&["=", ";"]);
                }
                let init = if self.eat("=") {
                    Some(self.expr(0))
                } else {
                    None
                };
                let els = if self.eat("else") {
                    if self.eat("{") {
                        Some(self.block_body())
                    } else {
                        None
                    }
                } else {
                    None
                };
                self.eat(";");
                stmts.push(Stmt::Let { names, init, els });
            } else if matches!(
                self.text(0),
                "fn" | "mod" | "impl" | "trait" | "use" | "struct" | "enum" | "union" | "type"
                    | "static" | "macro_rules" | "extern"
            ) || (self.at("pub"))
                || (self.at("const") && self.text(1) != "{")
                || (self.at("unsafe") && matches!(self.text(1), "fn" | "impl" | "trait" | "extern"))
            {
                if let Some(item) = self.item_after_attrs(start, test) {
                    stmts.push(Stmt::Item(item));
                }
            } else {
                let e = self.expr(0);
                self.eat(";");
                stmts.push(Stmt::Expr(e));
            }
            if self.pos == before {
                self.bump();
            }
        }
        Block { stmts }
    }

    /// Pratt expression parser. `min_bp` is the minimum binding power
    /// an infix operator needs to extend the left operand.
    fn expr(&mut self, min_bp: u8) -> Expr {
        let mut lhs = self.prefix();
        loop {
            if self.done() {
                break;
            }
            // Postfix operators bind tightest.
            match self.text(0) {
                "." => {
                    let name_tok = self.tok(1);
                    let Some(nt) = name_tok else {
                        self.bump();
                        break;
                    };
                    let span = Span::of(nt);
                    let name = nt.text(self.src).to_string();
                    self.bump(); // .
                    self.bump(); // name / number / await
                    // Turbofish on the method: `.collect::<Vec<_>>()`.
                    if self.at("::") {
                        self.bump();
                        if self.at("<") || self.at("<<") {
                            self.skip_angles();
                        }
                    }
                    if self.at("(") {
                        self.bump();
                        let args = self.expr_list(")");
                        lhs = Expr {
                            kind: ExprKind::Method {
                                recv: Box::new(lhs),
                                name,
                                args,
                            },
                            span,
                        };
                    } else {
                        lhs = Expr {
                            kind: ExprKind::Field {
                                base: Box::new(lhs),
                                name,
                            },
                            span,
                        };
                    }
                    continue;
                }
                "(" => {
                    self.bump();
                    let args = self.expr_list(")");
                    let span = lhs.span;
                    lhs = Expr {
                        kind: ExprKind::Call {
                            callee: Box::new(lhs),
                            args,
                        },
                        span,
                    };
                    continue;
                }
                "[" => {
                    let span = self.span();
                    self.bump();
                    let index = self.expr_in_brackets("]");
                    lhs = Expr {
                        kind: ExprKind::Index {
                            base: Box::new(lhs),
                            index: Box::new(index),
                        },
                        span,
                    };
                    continue;
                }
                "?" => {
                    let span = lhs.span;
                    self.bump();
                    lhs = Expr {
                        kind: ExprKind::Try(Box::new(lhs)),
                        span,
                    };
                    continue;
                }
                "as" => {
                    self.bump();
                    self.skip_cast_type();
                    let span = lhs.span;
                    lhs = Expr {
                        kind: ExprKind::Cast(Box::new(lhs)),
                        span,
                    };
                    continue;
                }
                _ => {}
            }
            // Struct literal directly after a path.
            if self.at("{") && !self.no_struct {
                if let ExprKind::Path(p) = &lhs.kind {
                    let path = p.clone();
                    let span = lhs.span;
                    self.bump();
                    let fields = self.struct_fields();
                    lhs = Expr {
                        kind: ExprKind::StructLit { path, fields },
                        span,
                    };
                    continue;
                }
            }
            // Infix operators.
            let op = self.text(0);
            let Some((lbp, rbp)) = infix_power(op) else {
                break;
            };
            if lbp < min_bp {
                break;
            }
            let span = self.span();
            let op = op.to_string();
            self.bump();
            // Range operators allow a missing right operand (`a..`).
            if (op == ".." || op == "..=")
                && (self.done()
                    || matches!(self.text(0), ")" | "]" | "}" | "," | ";" | "{" | "=>"))
            {
                lhs = Expr {
                    kind: ExprKind::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(Expr {
                            kind: ExprKind::Lit(None),
                            span,
                        }),
                    },
                    span,
                };
                continue;
            }
            let rhs = self.expr(rbp);
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        lhs
    }

    /// Parses a prefix (atom or unary) expression.
    fn prefix(&mut self) -> Expr {
        let span = self.span();
        if self.done() {
            return Expr {
                kind: ExprKind::Opaque(Vec::new()),
                span,
            };
        }
        match self.text(0) {
            "-" | "!" | "*" => {
                self.bump();
                let e = self.expr(PREFIX_BP);
                return Expr {
                    kind: ExprKind::Unary { expr: Box::new(e) },
                    span,
                };
            }
            "&" | "&&" => {
                // `&&x` is two nested borrows.
                let double = self.at("&&");
                self.bump();
                self.eat("mut");
                let inner = self.expr(PREFIX_BP);
                let e = Expr {
                    kind: ExprKind::Unary {
                        expr: Box::new(inner),
                    },
                    span,
                };
                return if double {
                    Expr {
                        kind: ExprKind::Unary { expr: Box::new(e) },
                        span,
                    }
                } else {
                    e
                };
            }
            ".." | "..=" => {
                // Leading range `..n`.
                self.bump();
                let e = if self.done()
                    || matches!(self.text(0), ")" | "]" | "}" | "," | ";" | "{")
                {
                    Expr {
                        kind: ExprKind::Lit(None),
                        span,
                    }
                } else {
                    self.expr(RANGE_RBP)
                };
                return Expr {
                    kind: ExprKind::Unary { expr: Box::new(e) },
                    span,
                };
            }
            "return" | "break" => {
                self.bump();
                let val = if self.done()
                    || matches!(self.text(0), ";" | "}" | ")" | "]" | "," | "=>")
                {
                    None
                } else {
                    Some(Box::new(self.expr(0)))
                };
                return Expr {
                    kind: ExprKind::Ret(val),
                    span,
                };
            }
            "continue" => {
                self.bump();
                return Expr {
                    kind: ExprKind::Ret(None),
                    span,
                };
            }
            "(" => {
                self.bump();
                let list = self.expr_list(")");
                return Expr {
                    kind: ExprKind::Tuple(list),
                    span,
                };
            }
            "[" => {
                self.bump();
                // `[expr; n]` or `[a, b, …]`; `;` splits like `,`.
                let mut list = Vec::new();
                while !self.done() && !self.at("]") {
                    list.push(self.expr(0));
                    if !self.eat(",") && !self.eat(";") {
                        break;
                    }
                }
                self.eat("]");
                return Expr {
                    kind: ExprKind::Array(list),
                    span,
                };
            }
            "{" => {
                self.bump();
                let b = self.block_body();
                return Expr {
                    kind: ExprKind::Block(b),
                    span,
                };
            }
            "unsafe" | "async" if self.text(1) == "{" => {
                self.bump();
                self.bump();
                let b = self.block_body();
                return Expr {
                    kind: ExprKind::Block(b),
                    span,
                };
            }
            "if" => {
                self.bump();
                return self.if_expr(span);
            }
            "match" => {
                self.bump();
                let scrutinee = self.head_expr();
                let mut arms = Vec::new();
                if self.eat("{") {
                    while !self.done() && !self.at("}") {
                        self.attrs();
                        let from = self.pos;
                        // Pattern runs to `=>` or a depth-0 `if` guard.
                        while !self.done() && !self.at("=>") && !self.at("if") {
                            match self.text(0) {
                                "(" | "[" | "{" => self.skip_balanced(),
                                "<" | "<<" => self.skip_angles(),
                                "}" => break,
                                _ => self.bump(),
                            }
                        }
                        let binders = self.binders_in(from, self.pos);
                        let guard = if self.eat("if") {
                            let saved = self.no_struct;
                            self.no_struct = false;
                            let g = self.expr(GUARD_BP);
                            self.no_struct = saved;
                            Some(g)
                        } else {
                            None
                        };
                        if !self.eat("=>") {
                            break;
                        }
                        let body = self.expr(ARM_BP);
                        arms.push(Arm {
                            binders,
                            guard,
                            body,
                        });
                        self.eat(",");
                    }
                    self.eat("}");
                }
                return Expr {
                    kind: ExprKind::Match {
                        scrutinee: Box::new(scrutinee),
                        arms,
                    },
                    span,
                };
            }
            "while" => {
                self.bump();
                let binders = if self.eat("let") {
                    let b = self.pattern(&["="]);
                    self.eat("=");
                    b
                } else {
                    Vec::new()
                };
                let head = self.head_expr();
                let body = if self.eat("{") {
                    self.block_body()
                } else {
                    Block::default()
                };
                return Expr {
                    kind: ExprKind::Loop {
                        binders,
                        head: Some(Box::new(head)),
                        body,
                    },
                    span,
                };
            }
            "loop" => {
                self.bump();
                let body = if self.eat("{") {
                    self.block_body()
                } else {
                    Block::default()
                };
                return Expr {
                    kind: ExprKind::Loop {
                        binders: Vec::new(),
                        head: None,
                        body,
                    },
                    span,
                };
            }
            "for" => {
                self.bump();
                let binders = self.pattern(&["in"]);
                self.eat("in");
                let head = self.head_expr();
                let body = if self.eat("{") {
                    self.block_body()
                } else {
                    Block::default()
                };
                return Expr {
                    kind: ExprKind::Loop {
                        binders,
                        head: Some(Box::new(head)),
                        body,
                    },
                    span,
                };
            }
            "move" => {
                self.bump();
                return self.prefix();
            }
            "|" | "||" => {
                let empty = self.at("||");
                self.bump();
                let params = if empty {
                    Vec::new()
                } else {
                    let names = self.closure_params();
                    self.eat("|");
                    names
                };
                if self.at("->") {
                    self.bump();
                    self.skip_type(&["{"]);
                }
                let body = self.expr(CLOSURE_BP);
                return Expr {
                    kind: ExprKind::Closure {
                        params,
                        body: Box::new(body),
                    },
                    span,
                };
            }
            _ => {}
        }
        match self.kind(0) {
            Some(TokenKind::Num) => {
                let text = self.text(0).to_string();
                self.bump();
                Expr {
                    kind: ExprKind::Lit(Some(text)),
                    span,
                }
            }
            Some(TokenKind::Str) | Some(TokenKind::Char) | Some(TokenKind::Lifetime) => {
                self.bump();
                Expr {
                    kind: ExprKind::Lit(None),
                    span,
                }
            }
            Some(TokenKind::Ident) => self.path_expr(span),
            _ => {
                self.bump();
                Expr {
                    kind: ExprKind::Opaque(Vec::new()),
                    span,
                }
            }
        }
    }

    /// Parses a path, macro invocation, or plain identifier.
    fn path_expr(&mut self, span: Span) -> Expr {
        let mut segs = vec![self.text(0).to_string()];
        let mut last_span = self.span();
        self.bump();
        loop {
            if self.at("!") && matches!(self.text(1), "(" | "[" | "{") {
                // Macro invocation; span points at the name.
                let name = segs.last().cloned().unwrap_or_default();
                self.bump(); // !
                let close = match self.text(0) {
                    "(" => ")",
                    "[" => "]",
                    _ => "}",
                };
                self.bump();
                let saved = self.no_struct;
                self.no_struct = false;
                let args = self.expr_list(close);
                self.no_struct = saved;
                return Expr {
                    kind: ExprKind::Macro { name, args },
                    span: last_span,
                };
            }
            if self.at("::") {
                self.bump();
                if self.at("<") || self.at("<<") {
                    // Turbofish.
                    self.skip_angles();
                    continue;
                }
                if self.kind(0) == Some(TokenKind::Ident) {
                    segs.push(self.text(0).to_string());
                    last_span = self.span();
                    self.bump();
                    continue;
                }
                break;
            }
            break;
        }
        Expr {
            kind: ExprKind::Path(segs),
            span,
        }
    }

    /// Parses an `if` (or `if let`) after the keyword.
    fn if_expr(&mut self, span: Span) -> Expr {
        let let_binders = if self.eat("let") {
            let b = self.pattern(&["="]);
            self.eat("=");
            b
        } else {
            Vec::new()
        };
        let cond = self.head_expr();
        let then = if self.eat("{") {
            self.block_body()
        } else {
            Block::default()
        };
        let els = if self.eat("else") {
            if self.at("if") {
                let espan = self.span();
                self.bump();
                Some(Box::new(self.if_expr(espan)))
            } else if self.eat("{") {
                Some(Box::new(Expr {
                    kind: ExprKind::Block(self.block_body()),
                    span,
                }))
            } else {
                None
            }
        } else {
            None
        };
        Expr {
            kind: ExprKind::If {
                let_binders,
                cond: Box::new(cond),
                then,
                els,
            },
            span,
        }
    }

    /// Parses a condition/scrutinee/iterator with struct literals
    /// disabled (so the following `{` opens the body).
    fn head_expr(&mut self) -> Expr {
        let saved = self.no_struct;
        self.no_struct = true;
        let e = self.expr(0);
        self.no_struct = saved;
        e
    }

    /// Parses a comma-separated expression list up to `close`
    /// (consumed).
    fn expr_list(&mut self, close: &str) -> Vec<Expr> {
        let saved = self.no_struct;
        self.no_struct = false;
        let mut out = Vec::new();
        while !self.done() && !self.at(close) {
            let before = self.pos;
            out.push(self.expr(0));
            if !self.eat(",") && !self.at(close) && self.pos == before {
                self.bump();
            }
        }
        self.eat(close);
        self.no_struct = saved;
        out
    }

    /// Parses one bracketed expression (index position) up to `close`.
    fn expr_in_brackets(&mut self, close: &str) -> Expr {
        let saved = self.no_struct;
        self.no_struct = false;
        let e = self.expr(0);
        self.no_struct = saved;
        // Consume anything left before the close (tolerance).
        while !self.done() && !self.at(close) {
            self.bump();
        }
        self.eat(close);
        e
    }

    /// Parses `Path { field: expr, .. }` bodies after the `{`.
    fn struct_fields(&mut self) -> Vec<Expr> {
        let saved = self.no_struct;
        self.no_struct = false;
        let mut out = Vec::new();
        while !self.done() && !self.at("}") {
            let before = self.pos;
            // `..base` functional update.
            if self.at("..") {
                self.bump();
                if !self.at("}") {
                    out.push(self.expr(0));
                }
                break;
            }
            // `label:` prefix (shorthand fields have no colon).
            if self.kind(0) == Some(TokenKind::Ident) && self.text(1) == ":" {
                self.bump();
                self.bump();
            }
            out.push(self.expr(0));
            if !self.eat(",") && self.pos == before {
                self.bump();
            }
        }
        self.eat("}");
        self.no_struct = saved;
        out
    }

    /// Collects closure parameter binders up to the closing `|`.
    fn closure_params(&mut self) -> Vec<String> {
        let from = self.pos;
        while !self.done() && !self.at("|") {
            match self.text(0) {
                "(" | "[" | "{" => self.skip_balanced(),
                "<" | "<<" => self.skip_angles(),
                _ => self.bump(),
            }
        }
        // Reuse the binder heuristic, but stop each param at its `:`.
        let to = self.pos;
        let mut out = Vec::new();
        let mut in_type = false;
        let mut i = from;
        while i < to {
            let Some(t) = self.toks.get(i) else { break };
            let text = t.text(self.src);
            match text {
                ":" => in_type = true,
                "," => in_type = false,
                _ if !in_type
                    && t.kind == TokenKind::Ident
                    && !NON_BINDERS.contains(&text)
                    && text.starts_with(|c: char| c.is_ascii_lowercase() || c == '_') =>
                {
                    out.push(text.to_string());
                }
                _ => {}
            }
            i += 1;
        }
        out
    }

    /// Skips the type of an `as` cast: a conservative token walk that
    /// stops at anything that cannot continue a type.
    fn skip_cast_type(&mut self) {
        loop {
            match self.text(0) {
                "&" | "&&" | "*" => {
                    self.bump();
                    self.eat("mut");
                    self.eat("const");
                }
                "dyn" | "impl" => self.bump(),
                "(" | "[" => self.skip_balanced(),
                "<" | "<<" => self.skip_angles(),
                _ if self.kind(0) == Some(TokenKind::Ident) => {
                    self.bump();
                    if self.eat("::") {
                        continue;
                    }
                    if self.at("<") || self.at("<<") {
                        self.skip_angles();
                    }
                    if !self.at("::") {
                        return;
                    }
                }
                _ => return,
            }
            if self.done() {
                return;
            }
        }
    }
}

/// Binding power used after prefix operators.
const PREFIX_BP: u8 = 23;
/// Right binding power of `..` ranges.
const RANGE_RBP: u8 = 6;
/// Binding power for match-arm bodies (stop at `,`).
const ARM_BP: u8 = 2;
/// Binding power for match guards (stop before `=>`).
const GUARD_BP: u8 = 2;
/// Binding power for closure bodies (a closure swallows operators to
/// its right like Rust does: `|a| a + 1`).
const CLOSURE_BP: u8 = 2;

/// `(left, right)` binding powers of infix operators.
fn infix_power(op: &str) -> Option<(u8, u8)> {
    Some(match op {
        "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>=" => (4, 3),
        ".." | "..=" => (5, 6),
        "||" => (7, 8),
        "&&" => (9, 10),
        "==" | "!=" | "<" | ">" | "<=" | ">=" => (11, 12),
        "|" => (13, 14),
        "^" => (15, 16),
        "&" => (17, 18),
        "<<" | ">>" => (19, 20),
        "+" | "-" => (21, 22),
        "*" | "/" | "%" => (23, 24),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Item> {
        parse_file(src, &lex(src))
    }

    fn first_fn(items: &[Item]) -> &FnDef {
        fn find(items: &[Item]) -> Option<&FnDef> {
            for it in items {
                match &it.kind {
                    ItemKind::Fn(f) => return Some(f),
                    ItemKind::Mod { items, .. }
                    | ItemKind::Impl { items, .. }
                    | ItemKind::Trait { items, .. } => {
                        if let Some(f) = find(items) {
                            return Some(f);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        find(items).expect("a fn item")
    }

    fn exprs_of(f: &FnDef) -> Vec<&Expr> {
        let mut out = Vec::new();
        if let Some(b) = &f.body {
            walk_block(b, &mut |e| out.push(e));
        }
        out
    }

    #[test]
    fn fn_signature_params_and_vis() {
        let items = parse("pub fn f(a: f64, mut b: usize, (c, d): (u32, u32)) -> f64 { a }");
        let f = first_fn(&items);
        assert_eq!(f.name, "f");
        assert_eq!(f.vis, Vis::Pub);
        assert_eq!(f.params, vec!["a", "b", "c", "d"]);
        let items = parse("pub(crate) fn g() {}");
        assert_eq!(first_fn(&items).vis, Vis::Scoped);
    }

    #[test]
    fn method_receiver_is_self() {
        let items = parse("impl Foo { pub fn m(&mut self, x: u32) -> u32 { self.v[x as usize] } }");
        let f = first_fn(&items);
        assert_eq!(f.params, vec!["self", "x"]);
        // impl attaches the type.
        match &items[0].kind {
            ItemKind::Impl { self_ty, .. } => assert_eq!(self_ty, "Foo"),
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn calls_methods_index_and_chains() {
        let items = parse(
            "fn f(v: &[f64], i: usize) -> f64 { helper(v[i]).max(v[i + 1]).abs() }",
        );
        let f = first_fn(&items);
        let es = exprs_of(f);
        assert!(es.iter().any(|e| matches!(&e.kind, ExprKind::Call { callee, .. }
            if matches!(&callee.kind, ExprKind::Path(p) if p == &vec!["helper".to_string()]))));
        let methods: Vec<_> = es
            .iter()
            .filter_map(|e| match &e.kind {
                ExprKind::Method { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert!(methods.contains(&"max") && methods.contains(&"abs"), "{methods:?}");
        assert_eq!(
            es.iter()
                .filter(|e| matches!(&e.kind, ExprKind::Index { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn index_span_points_at_bracket() {
        let src = "fn f(v: &[u32], i: usize) -> u32 { v[i] }";
        let items = parse(src);
        let es = exprs_of(first_fn(&items));
        let idx = es
            .iter()
            .find(|e| matches!(&e.kind, ExprKind::Index { .. }))
            .expect("index");
        let bracket = src.rfind('[').expect("bracket");
        assert_eq!(idx.span.start, bracket);
        assert_eq!(idx.span.col, bracket as u32 + 1);
        assert_eq!(&src[idx.span.start..idx.span.start + 1], "[");
    }

    #[test]
    fn let_binders_including_destructuring() {
        let items = parse(
            "fn f() { let x = 1; let (a, b) = (2, 3); let Some(y) = g() else { return }; let Foo { p, q: r } = h(); }",
        );
        let f = first_fn(&items);
        let names: Vec<_> = f
            .body
            .as_ref()
            .expect("body")
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Let { names, .. } => Some(names.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names[0], vec!["x"]);
        assert_eq!(names[1], vec!["a", "b"]);
        assert_eq!(names[2], vec!["y"]);
        assert_eq!(names[3], vec!["p", "r"]);
    }

    #[test]
    fn if_let_match_and_loops() {
        let src = "fn f(o: Option<u32>, v: Vec<u32>) -> u32 {\
            if let Some(x) = o { x } else { 0 };\
            match o { Some(y) if y > 1 => y, None => 0, _ => 1 };\
            for it in v.iter() { work(it); }\
            while o.is_some() { break; }\
            42 }";
        let items = parse(src);
        let f = first_fn(&items);
        let es = exprs_of(f);
        let ifs: Vec<_> = es
            .iter()
            .filter_map(|e| match &e.kind {
                ExprKind::If { let_binders, .. } => Some(let_binders.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(ifs[0], vec!["x"]);
        let arms: Vec<_> = es
            .iter()
            .filter_map(|e| match &e.kind {
                ExprKind::Match { arms, .. } => Some(arms),
                _ => None,
            })
            .collect();
        assert_eq!(arms[0].len(), 3);
        assert_eq!(arms[0][0].binders, vec!["y"]);
        assert!(arms[0][0].guard.is_some());
        let loops = es
            .iter()
            .filter(|e| matches!(&e.kind, ExprKind::Loop { .. }))
            .count();
        assert_eq!(loops, 2);
        // The call inside the for body is visible.
        assert!(es.iter().any(|e| matches!(&e.kind, ExprKind::Call { callee, .. }
            if matches!(&callee.kind, ExprKind::Path(p) if p.last().map(|s| s.as_str()) == Some("work")))));
    }

    #[test]
    fn closures_and_sort_by() {
        let items = parse("fn f(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }");
        let es = exprs_of(first_fn(&items));
        let closure = es
            .iter()
            .find_map(|e| match &e.kind {
                ExprKind::Closure { params, .. } => Some(params.clone()),
                _ => None,
            })
            .expect("closure");
        assert_eq!(closure, vec!["a", "b"]);
        assert!(es.iter().any(|e| matches!(&e.kind, ExprKind::Method { name, .. } if name == "total_cmp")));
    }

    #[test]
    fn macros_recover_inner_expressions() {
        let items = parse("fn f(x: f64) { assert!(x.is_finite(), \"bad {x}\"); panic!(\"boom\"); }");
        let es = exprs_of(first_fn(&items));
        let macros: Vec<_> = es
            .iter()
            .filter_map(|e| match &e.kind {
                ExprKind::Macro { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(macros, vec!["assert", "panic"]);
        assert!(es.iter().any(|e| matches!(&e.kind, ExprKind::Method { name, .. } if name == "is_finite")));
    }

    #[test]
    fn struct_literals_vs_blocks() {
        let items = parse(
            "fn f(b: bool) -> P { if b { g() } else { h() }; P { x: calc(1), y: 2.0 } }",
        );
        let es = exprs_of(first_fn(&items));
        assert!(es.iter().any(|e| matches!(&e.kind, ExprKind::StructLit { path, .. } if path == &vec!["P".to_string()])));
        assert!(es.iter().any(|e| matches!(&e.kind, ExprKind::Call { callee, .. }
            if matches!(&callee.kind, ExprKind::Path(p) if p == &vec!["calc".to_string()]))));
    }

    #[test]
    fn turbofish_and_generic_types_do_not_confuse() {
        let items = parse(
            "fn f(s: &str) -> Vec<f64> { s.split(',').map(|t| t.parse::<f64>().unwrap_or(0.0)).collect::<Vec<f64>>() }",
        );
        let es = exprs_of(first_fn(&items));
        let methods: Vec<_> = es
            .iter()
            .filter_map(|e| match &e.kind {
                ExprKind::Method { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        for m in ["split", "map", "parse", "unwrap_or", "collect"] {
            assert!(methods.contains(&m), "{methods:?} missing {m}");
        }
    }

    #[test]
    fn uses_flatten_with_aliases_and_nesting() {
        let items = parse("use std::collections::{BTreeMap, BTreeSet as Set};\nuse crate::dp::solve;\n");
        let mut imports = Vec::new();
        for it in &items {
            if let ItemKind::Use(list) = &it.kind {
                imports.extend(list.clone());
            }
        }
        assert_eq!(imports.len(), 3);
        assert_eq!(imports[0].alias, "BTreeMap");
        assert_eq!(imports[1].alias, "Set");
        assert_eq!(imports[1].path, vec!["std", "collections", "BTreeSet"]);
        assert_eq!(imports[2].path, vec!["crate", "dp", "solve"]);
    }

    #[test]
    fn nested_modules_and_traits() {
        let items = parse(
            "pub mod a { pub mod b { pub fn leaf() {} } }\ntrait T { fn required(&self); fn provided(&self) { self.required() } }",
        );
        match &items[0].kind {
            ItemKind::Mod { name, items, .. } => {
                assert_eq!(name, "a");
                match &items[0].kind {
                    ItemKind::Mod { name, items, .. } => {
                        assert_eq!(name, "b");
                        assert!(matches!(&items[0].kind, ItemKind::Fn(f) if f.name == "leaf"));
                    }
                    k => panic!("{k:?}"),
                }
            }
            k => panic!("{k:?}"),
        }
        match &items[1].kind {
            ItemKind::Trait { name, items } => {
                assert_eq!(name, "T");
                assert!(matches!(&items[0].kind, ItemKind::Fn(f) if f.body.is_none()));
                assert!(matches!(&items[1].kind, ItemKind::Fn(f) if f.body.is_some()));
            }
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn impl_trait_for_type_records_both() {
        let items = parse("impl std::fmt::Display for Frame { fn fmt(&self) {} }");
        match &items[0].kind {
            ItemKind::Impl {
                self_ty,
                trait_name,
                ..
            } => {
                assert_eq!(self_ty, "Frame");
                assert_eq!(trait_name.as_deref(), Some("Display"));
            }
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn casts_ranges_and_try_do_not_derail() {
        let items = parse(
            "fn f(n: usize, r: Result<u32, E>) -> Result<u32, E> { let x = n as f64 * 0.5; for i in 0..n { touch(i); } let v = r?; Ok(v) }",
        );
        let es = exprs_of(first_fn(&items));
        assert!(es.iter().any(|e| matches!(&e.kind, ExprKind::Cast(_))));
        assert!(es.iter().any(|e| matches!(&e.kind, ExprKind::Try(_))));
        assert!(es.iter().any(|e| matches!(&e.kind, ExprKind::Call { callee, .. }
            if matches!(&callee.kind, ExprKind::Path(p) if p.last().map(|s| s.as_str()) == Some("touch")))));
    }

    #[test]
    fn generic_type_ascription_with_ge_token() {
        // `Vec<T>= v` lexes `>=` as one token; the parser must still
        // find the initializer.
        let items = parse("fn f(v: Vec<u32>) { let w: Vec<u32>= v; use_it(w); }");
        let es = exprs_of(first_fn(&items));
        assert!(es.iter().any(|e| matches!(&e.kind, ExprKind::Call { .. })));
    }

    #[test]
    fn malformed_input_never_loops() {
        for src in [
            "fn f( { ) } ]",
            "impl { fn }",
            "fn f() { match { } }",
            "fn f() { a.b.(c } }",
            "{{{{{{",
            "fn f() { |x| }",
        ] {
            let _ = parse(src);
        }
    }

    fn in_test_span(src: &str, needle: &str) -> bool {
        let at = src.find(needle).expect("needle present");
        test_spans(&parse(src)).iter().any(|r| r.contains(&at))
    }

    #[test]
    fn cfg_test_module_is_test_code() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn also_prod() {}\n";
        assert_eq!(test_spans(&parse(src)).len(), 1);
        assert!(in_test_span(src, "unwrap"));
        assert!(!in_test_span(src, "prod"));
        assert!(!in_test_span(src, "also_prod"));
        // Items nested in a test item are test code too.
        let items = parse(src);
        assert!(!items[0].test && items[1].test);
        match &items[1].kind {
            ItemKind::Mod { items, .. } => assert!(items[0].test),
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn test_and_bench_fns_are_test_code() {
        let src = "#[test]\nfn check() { assert!(x.unwrap()); }\n#[bench]\nfn b() { y.expect(\"e\"); }\nfn prod() {}\n";
        assert!(in_test_span(src, "unwrap"));
        assert!(in_test_span(src, "expect"));
        assert!(!in_test_span(src, "prod"));
    }

    #[test]
    fn stacked_attributes_are_covered() {
        let src = "#[allow(unused)]\n#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn f() {} }\nfn prod() {}\n";
        assert!(in_test_span(src, "unused"));
        assert!(in_test_span(src, "dead_code"));
        assert!(in_test_span(src, "fn f"));
        assert!(!in_test_span(src, "prod"));
    }

    #[test]
    fn nested_braces_close_correctly() {
        let src = "#[cfg(test)]\nmod tests { fn a() { if x { y() } } fn b() {} }\nfn prod() {}\n";
        assert!(in_test_span(src, "fn b"));
        assert!(!in_test_span(src, "prod"));
    }

    #[test]
    fn cfg_all_with_direct_test_is_test_code() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod helpers { fn h() {} }\n";
        assert!(in_test_span(src, "fn h"));
        // `test` under `not` inside `all` is not a direct argument.
        let src = "#[cfg(all(not(test), unix))]\nmod helpers { fn h() {} }\n";
        assert!(!in_test_span(src, "fn h"));
    }

    #[test]
    fn production_cfgs_mentioning_test_are_not_test_code() {
        for attr in [
            "#[cfg_attr(test, inline)]",
            "#[cfg(not(test))]",
            "#[cfg(any(test, feature = \"x\"))]",
            "#[derive(Debug)]",
            "#[inline]",
        ] {
            let src = format!("{attr}\npub fn prod(o: Option<u32>) -> u32 {{ o.unwrap() }}\n");
            assert!(!in_test_span(&src, "unwrap"), "{attr} marked test");
        }
    }

    #[test]
    fn inner_test_attribute_marks_the_rest_of_the_module() {
        let src = "mod m {\n    #![cfg(test)]\n    fn t() { x.unwrap(); }\n}\nfn prod() {}\n";
        assert!(in_test_span(src, "unwrap"));
        assert!(!in_test_span(src, "prod"));
    }

    #[test]
    fn item_bytes_cover_attributes_through_last_token() {
        let src = "use a::b;\n#[inline]\npub fn f() { g(); }\n";
        let items = parse(src);
        assert_eq!(&src[items[0].bytes.clone()], "use a::b;");
        assert_eq!(&src[items[1].bytes.clone()], "#[inline]\npub fn f() { g(); }");
    }

    #[test]
    fn binary_precedence_shapes() {
        let items = parse("fn f(a: f64, b: f64, c: f64) -> bool { a / b + c <= a * c }");
        let es = exprs_of(first_fn(&items));
        let top = es
            .iter()
            .find(|e| matches!(&e.kind, ExprKind::Binary { op, .. } if op == "<="))
            .expect("top-level <=");
        match &top.kind {
            ExprKind::Binary { lhs, rhs, .. } => {
                assert!(matches!(&lhs.kind, ExprKind::Binary { op, .. } if op == "+"));
                assert!(matches!(&rhs.kind, ExprKind::Binary { op, .. } if op == "*"));
            }
            k => panic!("{k:?}"),
        }
    }
}
