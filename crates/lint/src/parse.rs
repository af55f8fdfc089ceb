//! A lightweight item parser on top of the lexer: just enough structure
//! for the structure-aware rule families.
//!
//! This is deliberately not a full Rust grammar (no `syn` — the workspace
//! builds offline). One linear walk over the token stream recovers the
//! item skeleton the rules need:
//!
//! - `fn` items with their visibility, attached doc comments, return-type
//!   tokens, and owning `impl` block,
//! - `enum` items with their variant names,
//! - `trait` items with their method names,
//! - `impl` blocks with the trait implemented (if any) and the methods
//!   defined,
//! - `struct` names,
//! - per-function *call lists* — every `name(..)` invocation inside the
//!   body — giving a conservative, name-based call-graph approximation,
//! - per-function `Enum::Variant` path mentions, which is how the
//!   exhaustiveness rule sees match arms without parsing patterns.
//!
//! Function bodies are consumed whole, so expression-level tokens can
//! never be mistaken for items; everything carries the source line, so
//! findings land exactly where the item lives.

use crate::lexer::{SourceFile, Token, TokenKind};

/// A `name(..)` call site inside a function body: callee name and line.
pub type CallSite = (String, u32);

/// An `Enum::Variant` path mention: enum name, variant name, and line.
pub type VariantPath = (String, String, u32);

/// One `fn` item (free function, inherent method, or trait-impl method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function name (raw identifiers keep their `r#` prefix).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// First line of the whole item: the first attribute or visibility
    /// token when present, else the `fn` line. Annotations above the item
    /// resolve to this line.
    pub item_line: u32,
    /// Whether the item lies inside `#[cfg(test)]`/`#[test]` code.
    pub in_test: bool,
    /// The `impl` block's self type, for methods.
    pub owner: Option<String>,
    /// The trait being implemented, for `impl Trait for Type` methods.
    pub trait_impl: Option<String>,
    /// Every `name(..)` invocation in the body: `(callee, line)`. A
    /// conservative name-based approximation — no receiver-type
    /// resolution — which is exactly what the barrier rule wants: a
    /// *possible* edge is already a finding.
    pub calls: Vec<CallSite>,
    /// Every `Enum::Variant` path in the body (both idents capitalised):
    /// `(enum, variant, line)`. Match arms, constructors, and qualified
    /// uses all land here.
    pub enum_paths: Vec<VariantPath>,
}

impl FnItem {
    /// Whether the body mentions `enum_name::variant` anywhere.
    #[must_use]
    pub fn mentions_variant(&self, enum_name: &str, variant: &str) -> bool {
        self.enum_paths.iter().any(|(e, v, _)| e == enum_name && v == variant)
    }
}

/// One `enum` item with its variant names.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// The enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Whether the item is test-only.
    pub in_test: bool,
    /// The variant names with their lines, in declaration order.
    pub variants: Vec<(String, u32)>,
}

/// One `trait` item with its method names.
#[derive(Debug, Clone)]
pub struct TraitItem {
    /// The trait name.
    pub name: String,
    /// 1-based line of the `trait` keyword.
    pub line: u32,
    /// Whether the item is test-only.
    pub in_test: bool,
    /// The method names with their lines, in declaration order.
    pub methods: Vec<(String, u32)>,
}

/// One `impl` block.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// The trait implemented, if this is a trait impl.
    pub trait_name: Option<String>,
    /// The self type (last path segment, generics stripped).
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Whether the block is test-only.
    pub in_test: bool,
    /// Names of the methods the block defines.
    pub methods: Vec<String>,
}

/// The parsed item skeleton of one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative path, mirrored from the [`SourceFile`].
    pub path: String,
    /// Every function, including impl methods (flattened).
    pub fns: Vec<FnItem>,
    /// Every enum.
    pub enums: Vec<EnumItem>,
    /// Every trait.
    pub traits: Vec<TraitItem>,
    /// Every impl block.
    pub impls: Vec<ImplItem>,
    /// Every struct as `(name, line)`.
    pub structs: Vec<(String, u32)>,
}

/// Identifiers that introduce control flow or declarations — never callees
/// even when followed by `(`.
const NON_CALLEES: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "in", "as", "move", "ref", "mut",
    "break", "continue", "await", "dyn", "unsafe", "async", "where", "impl", "fn", "let", "pub",
    "use", "struct", "enum", "trait", "mod", "static", "const", "type", "crate", "super", "self",
];

/// Parses the item skeleton of `file`.
#[must_use]
pub fn parse_file(file: &SourceFile) -> ParsedFile {
    let mut out = ParsedFile { path: file.path.clone(), ..ParsedFile::default() };
    walk(file, 0, file.tokens.len(), None, None, &mut out);
    out
}

/// Walks one item scope (file top level, `mod` body, or `impl` body) and
/// records the items found. Function bodies are consumed whole by
/// [`parse_fn`], never walked.
fn walk(
    file: &SourceFile,
    start: usize,
    end: usize,
    owner: Option<&str>,
    trait_name: Option<&str>,
    out: &mut ParsedFile,
) {
    let tokens = &file.tokens;
    // The line the pending item prefix (attributes / visibility / modifiers)
    // starts on, accumulated before the item keyword.
    let mut pending: Option<u32> = None;
    let mut i = start;
    while i < end {
        let text = tokens[i].text.as_str();
        match text {
            "#" => {
                pending.get_or_insert(tokens[i].line);
                i = skip_attribute(tokens, i);
            }
            "pub" => {
                pending.get_or_insert(tokens[i].line);
                // `pub(crate)` / `pub(super)` carry a parenthesised scope.
                i = if token_text(tokens, i + 1) == Some("(") {
                    skip_parens(tokens, i + 1)
                } else {
                    i + 1
                };
            }
            "unsafe" | "async" => {
                pending.get_or_insert(tokens[i].line);
                i += 1;
            }
            "extern" => {
                // `extern "C" fn` is a modifier; `extern crate ..;` and
                // `extern "C" { .. }` are items to skip.
                pending.get_or_insert(tokens[i].line);
                let after_abi =
                    if tokens.get(i + 1).is_some_and(|t| t.kind == TokenKind::Str) { 2 } else { 1 };
                if token_text(tokens, i + after_abi) == Some("fn") {
                    i += after_abi;
                } else {
                    pending = None;
                    i = skip_item(tokens, i);
                }
            }
            "const" | "static" => {
                // `const fn` is a modifier; `const NAME: ..` is an item.
                pending.get_or_insert(tokens[i].line);
                if matches!(token_text(tokens, i + 1), Some("fn" | "unsafe" | "async" | "extern")) {
                    i += 1;
                } else {
                    pending = None;
                    i = skip_to_semicolon(tokens, i, end);
                }
            }
            "use" | "type" => {
                pending = None;
                i = skip_to_semicolon(tokens, i, end);
            }
            "macro_rules" => {
                pending = None;
                i = skip_item(tokens, i);
            }
            "fn" => {
                let start_line = pending.take();
                i = parse_fn(file, i, start_line, owner, trait_name, out);
            }
            "mod" => {
                pending = None;
                if let Some((open, close)) = item_body(tokens, i, end) {
                    walk(file, open + 1, close, None, None, out);
                    i = close + 1;
                } else {
                    i = skip_to_semicolon(tokens, i, end);
                }
            }
            "trait" => {
                pending = None;
                i = parse_trait(file, i, end, out);
            }
            "enum" => {
                pending = None;
                i = parse_enum(tokens, i, end, out);
            }
            "struct" => {
                pending = None;
                if let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) {
                    out.structs.push((name.text.clone(), name.line));
                }
                i = skip_item(tokens, i);
            }
            "impl" => {
                pending = None;
                i = parse_impl(file, i, end, out);
            }
            _ => {
                pending = None;
                i += 1;
            }
        }
    }
}

/// Parses one `fn` item starting at the `fn` keyword; returns the index
/// past the body (or terminating `;`).
fn parse_fn(
    file: &SourceFile,
    at: usize,
    start_line: Option<u32>,
    owner: Option<&str>,
    trait_name: Option<&str>,
    out: &mut ParsedFile,
) -> usize {
    let tokens = &file.tokens;
    let Some(name_token) = tokens.get(at + 1).filter(|t| t.kind == TokenKind::Ident) else {
        return at + 1;
    };
    let line = tokens[at].line;
    let item_line = start_line.unwrap_or(line);
    let mut j = at + 2;
    if token_text(tokens, j) == Some("<") {
        j = skip_angles(tokens, j);
    }
    if token_text(tokens, j) != Some("(") {
        return j;
    }
    j = skip_parens(tokens, j);
    // The return type and `where` clause, up to the body or `;`.
    while tokens.get(j).is_some_and(|t| t.text != "{" && t.text != ";") {
        j += 1;
    }
    let (calls, enum_paths, next) = match token_text(tokens, j) {
        Some("{") => {
            let close = match_brace(tokens, j);
            let (calls, paths) = extract_calls(tokens, j + 1, close);
            (calls, paths, close + 1)
        }
        Some(";") => (Vec::new(), Vec::new(), j + 1),
        _ => (Vec::new(), Vec::new(), j),
    };
    out.fns.push(FnItem {
        name: name_token.text.clone(),
        line,
        item_line,
        in_test: tokens[at].in_test,
        owner: owner.map(str::to_string),
        trait_impl: trait_name.map(str::to_string),
        calls,
        enum_paths,
    });
    next
}

/// Parses one `trait` item; records its method names and returns the index
/// past the body.
fn parse_trait(file: &SourceFile, at: usize, end: usize, out: &mut ParsedFile) -> usize {
    let tokens = &file.tokens;
    let Some(name_token) = tokens.get(at + 1).filter(|t| t.kind == TokenKind::Ident) else {
        return at + 1;
    };
    let Some((open, close)) = item_body(tokens, at, end) else {
        return skip_to_semicolon(tokens, at, end);
    };
    let mut methods = Vec::new();
    let mut j = open + 1;
    while j < close {
        match tokens[j].text.as_str() {
            "#" => j = skip_attribute(tokens, j),
            "fn" => {
                if let Some(method) = tokens.get(j + 1).filter(|t| t.kind == TokenKind::Ident) {
                    methods.push((method.text.clone(), method.line));
                }
                // Skip the signature and any default body so nested `fn`
                // pointers or closures cannot masquerade as methods.
                j = skip_item(tokens, j);
            }
            _ => j += 1,
        }
    }
    out.traits.push(TraitItem {
        name: name_token.text.clone(),
        line: tokens[at].line,
        in_test: tokens[at].in_test,
        methods,
    });
    close + 1
}

/// Parses one `enum` item; records its variants and returns the index past
/// the body.
fn parse_enum(tokens: &[Token], at: usize, end: usize, out: &mut ParsedFile) -> usize {
    let Some(name_token) = tokens.get(at + 1).filter(|t| t.kind == TokenKind::Ident) else {
        return at + 1;
    };
    let Some((open, close)) = item_body(tokens, at, end) else {
        return skip_to_semicolon(tokens, at, end);
    };
    let mut variants = Vec::new();
    let mut j = open + 1;
    let mut expect_variant = true;
    while j < close {
        match tokens[j].text.as_str() {
            "#" => j = skip_attribute(tokens, j),
            "(" => j = skip_parens(tokens, j),
            "{" => j = match_brace(tokens, j) + 1,
            "," => {
                expect_variant = true;
                j += 1;
            }
            "=" => {
                // Discriminant: consume to the separating comma.
                while j < close && tokens[j].text != "," {
                    j += 1;
                }
            }
            _ => {
                if expect_variant && tokens[j].kind == TokenKind::Ident {
                    variants.push((tokens[j].text.clone(), tokens[j].line));
                    expect_variant = false;
                }
                j += 1;
            }
        }
    }
    out.enums.push(EnumItem {
        name: name_token.text.clone(),
        line: tokens[at].line,
        in_test: tokens[at].in_test,
        variants,
    });
    close + 1
}

/// Parses one `impl` block header, walks its body for methods, and returns
/// the index past the block.
fn parse_impl(file: &SourceFile, at: usize, end: usize, out: &mut ParsedFile) -> usize {
    let tokens = &file.tokens;
    let mut j = at + 1;
    if token_text(tokens, j) == Some("<") {
        j = skip_angles(tokens, j);
    }
    // Header: path idents at angle-depth 0 before/after `for`, up to the
    // body or `where` clause.
    let mut first_segment: Vec<&Token> = Vec::new();
    let mut second_segment: Vec<&Token> = Vec::new();
    let mut saw_for = false;
    let mut in_where = false;
    let mut angle_depth = 0i32;
    while j < end {
        let token = &tokens[j];
        match token.text.as_str() {
            "{" if angle_depth == 0 => break,
            "<" => angle_depth += 1,
            ">" if token_text(tokens, j.wrapping_sub(1)) != Some("-") => angle_depth -= 1,
            "for" if angle_depth == 0 => saw_for = true,
            "where" if angle_depth == 0 => in_where = true,
            _ => {
                if !in_where && angle_depth == 0 && token.kind == TokenKind::Ident {
                    if saw_for {
                        second_segment.push(token);
                    } else {
                        first_segment.push(token);
                    }
                }
            }
        }
        j += 1;
    }
    if j >= end || token_text(tokens, j) != Some("{") {
        return j;
    }
    let close = match_brace(tokens, j);
    let (trait_name, type_token) = if saw_for {
        (first_segment.last().map(|t| t.text.clone()), second_segment.last())
    } else {
        (None, first_segment.last())
    };
    let Some(type_token) = type_token else {
        return close + 1;
    };
    let type_name = type_token.text.clone();
    let before = out.fns.len();
    walk(file, j + 1, close, Some(&type_name), trait_name.as_deref(), out);
    let methods = out.fns[before..].iter().map(|f| f.name.clone()).collect();
    out.impls.push(ImplItem {
        trait_name,
        type_name,
        line: tokens[at].line,
        in_test: tokens[at].in_test,
        methods,
    });
    close + 1
}

/// Collects `name(..)` invocations and `Enum::Variant` paths in a body
/// token range.
fn extract_calls(tokens: &[Token], start: usize, end: usize) -> (Vec<CallSite>, Vec<VariantPath>) {
    let mut calls = Vec::new();
    let mut paths = Vec::new();
    for k in start..end.min(tokens.len()) {
        let token = &tokens[k];
        if token.kind != TokenKind::Ident || NON_CALLEES.contains(&token.text.as_str()) {
            continue;
        }
        if k > 0
            && matches!(
                tokens[k - 1].text.as_str(),
                "fn" | "struct" | "enum" | "trait" | "mod" | "let" | "use"
            )
        {
            continue;
        }
        match token_text(tokens, k + 1) {
            Some("(") => calls.push((token.text.clone(), token.line)),
            Some(":") if token_text(tokens, k + 2) == Some(":") => {
                if token_text(tokens, k + 3) == Some("<") {
                    // Turbofish: `collect::<Vec<_>>()`.
                    let past = skip_angles(tokens, k + 3);
                    if token_text(tokens, past) == Some("(") {
                        calls.push((token.text.clone(), token.line));
                    }
                } else if let Some(next) = tokens.get(k + 3) {
                    let upper = |t: &Token| t.text.chars().next().is_some_and(char::is_uppercase);
                    if next.kind == TokenKind::Ident && upper(token) && upper(next) {
                        paths.push((token.text.clone(), next.text.clone(), next.line));
                    }
                }
            }
            _ => {}
        }
    }
    (calls, paths)
}

fn token_text(tokens: &[Token], i: usize) -> Option<&str> {
    tokens.get(i).map(|t| t.text.as_str())
}

/// Index past an attribute's closing `]`, given `#` at `i`.
fn skip_attribute(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Index past the `)` matching the `(` at `i`.
fn skip_parens(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Index past the `>` matching the `<` at `i` (`->` arrows inside the
/// generics do not close the bracket).
fn skip_angles(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "<" => depth += 1,
            ">" if j == 0 || tokens[j - 1].text != "-" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Index past the `}` matching the `{` at `i` (returns the close index
/// itself, not one past, so callers can walk the interior).
fn match_brace(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j.saturating_sub(1)
}

/// Locates an item's `{ .. }` body: the first `{` before any `;` at
/// depth 0. Returns `(open, close)` indices.
fn item_body(tokens: &[Token], at: usize, end: usize) -> Option<(usize, usize)> {
    let mut j = at;
    let mut angle_depth = 0i32;
    while j < end {
        match tokens[j].text.as_str() {
            "<" => angle_depth += 1,
            ">" if j > 0 && tokens[j - 1].text != "-" => angle_depth -= 1,
            "{" if angle_depth <= 0 => return Some((j, match_brace(tokens, j))),
            ";" if angle_depth <= 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Skips one whole item: to the matching close of its first `{`, or to a
/// `;` before any block opens.
fn skip_item(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    let mut depth = 0usize;
    let mut opened = false;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "{" => {
                depth += 1;
                opened = true;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                if opened && depth == 0 {
                    return j + 1;
                }
            }
            ";" if !opened => return j + 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Skips to just past the next `;` at bracket depth 0 (for `const`,
/// `static`, `use`, and `type` items whose initialisers may nest).
fn skip_to_semicolon(tokens: &[Token], i: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < end {
        match tokens[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth <= 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&SourceFile::lex("test.rs", src))
    }

    #[test]
    fn parses_fns_with_visibility_docs_and_returns() {
        let parsed = parse(
            "/// Does a thing.\n\
             ///\n\
             /// # Errors\n\
             /// Sometimes.\n\
             #[must_use]\n\
             pub fn fallible(x: u32) -> Result<u32, String> { helper(x) }\n\
             pub(crate) fn internal() {}\n\
             fn private() {}\n",
        );
        assert_eq!(parsed.fns.len(), 3);
        let fallible = &parsed.fns[0];
        assert_eq!(fallible.name, "fallible");
        assert_eq!(fallible.line, 6);
        assert_eq!(fallible.item_line, 5);
        assert_eq!(fallible.calls, vec![("helper".to_string(), 6)]);
        assert_eq!(parsed.fns[1].name, "internal");
        assert_eq!(parsed.fns[2].name, "private");
    }

    #[test]
    fn parses_enums_traits_impls_and_enum_paths() {
        let parsed = parse(
            "pub enum Event { A, B(u32), C { x: u32 } }\n\
             pub trait Obs { fn on_a(&self) {} fn on_b(&self); }\n\
             pub struct Rec;\n\
             impl Obs for Rec {\n\
                 fn on_a(&self) { dispatch(Event::A) }\n\
                 fn on_b(&self) {}\n\
             }\n",
        );
        let event = &parsed.enums[0];
        assert_eq!(event.name, "Event");
        let names: Vec<&str> = event.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
        let obs = &parsed.traits[0];
        let methods: Vec<&str> = obs.methods.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(methods, ["on_a", "on_b"]);
        assert_eq!(parsed.structs, vec![("Rec".to_string(), 3)]);
        let imp = &parsed.impls[0];
        assert_eq!(imp.trait_name.as_deref(), Some("Obs"));
        assert_eq!(imp.type_name, "Rec");
        assert_eq!(imp.methods, ["on_a", "on_b"]);
        let on_a = parsed.fns.iter().find(|f| f.name == "on_a").expect("on_a parsed");
        assert_eq!(on_a.owner.as_deref(), Some("Rec"));
        assert_eq!(on_a.trait_impl.as_deref(), Some("Obs"));
        assert!(on_a.mentions_variant("Event", "A"));
        assert!(!on_a.mentions_variant("Event", "B"));
    }

    #[test]
    fn call_extraction_skips_macros_keywords_and_nested_items() {
        let parsed = parse(
            "fn body() {\n\
                 let tuples = (1, 2);\n\
                 assert_eq!(tuples.0, 1);\n\
                 if check(tuples.0) { take::<u32>(tuples.1); }\n\
                 match tuples { _ => fallback() }\n\
             }\n",
        );
        let body = &parsed.fns[0];
        let callees: Vec<&str> = body.calls.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(callees, ["check", "take", "fallback"]);
    }

    #[test]
    fn generic_fns_and_impl_generics_parse() {
        let parsed = parse(
            "impl<'a> Loop<'a> {\n\
                 fn run<F: Fn(u32) -> u32>(&mut self, f: F) -> Option<u32> { Some(f(1)) }\n\
             }\n\
             fn r#match() {}\n",
        );
        let run = &parsed.fns[0];
        assert_eq!(run.owner.as_deref(), Some("Loop"));
        assert_eq!(run.calls, vec![("Some".to_string(), 2), ("f".to_string(), 2)]);
        assert_eq!(parsed.fns[1].name, "r#match");
    }
}
