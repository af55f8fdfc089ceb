//! A small, self-contained Rust lexer: line-, comment-, and string-aware
//! token scanning, the foundation every lint rule builds on.
//!
//! The scanner is deliberately not a full Rust parser — it produces a flat
//! token stream plus the comment list, which is exactly enough to match the
//! banned-construct patterns, extract struct fields, and read the
//! annotation grammar without dragging `syn` (unavailable offline) into the
//! workspace. Two properties matter for rule correctness:
//!
//! - **Comments and string literals never produce code tokens**, so a
//!   `HashMap` mentioned in a doc example or an error message cannot fire
//!   the determinism rule.
//! - **Tokens inside `#[cfg(test)]` / `#[test]` items are flagged**
//!   ([`Token::in_test`]), so test-only code is exempt from every rule by
//!   construction.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `HashMap`, `unwrap`).
    Ident,
    /// A string literal; [`Token::text`] holds the *contents* (no quotes).
    Str,
    /// A character literal (`'x'`).
    Char,
    /// A lifetime (`'static`); [`Token::text`] excludes the quote.
    Lifetime,
    /// A numeric literal.
    Num,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// The lexeme class.
    pub kind: TokenKind,
    /// The token text (for [`TokenKind::Str`], the unescaped-enough
    /// contents between the quotes).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
    /// Whether the token lies inside a `#[cfg(test)]` or `#[test]` item.
    pub in_test: bool,
}

/// One comment, kept out of the token stream but available to the
/// annotation parser and the registry-documentation rule.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// The comment text after the `//`/`///`/`//!` marker (line comments)
    /// or between the delimiters (block comments), untrimmed.
    pub text: String,
    /// Whether this is a doc comment (`///`, `//!`, `/** */`, `/*! */`).
    pub doc: bool,
    /// Whether any non-whitespace code precedes the comment on its line
    /// (a *trailing* comment annotates its own line, a standalone comment
    /// annotates the statement that follows).
    pub trailing: bool,
}

/// A lexed source file: the rule input.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, used verbatim in diagnostics.
    pub path: String,
    /// The code tokens, in source order.
    pub tokens: Vec<Token>,
    /// The comments, in source order.
    pub comments: Vec<Comment>,
}

impl SourceFile {
    /// Lexes `content` into a [`SourceFile`] and marks test-only spans.
    #[must_use]
    pub fn lex(path: &str, content: &str) -> Self {
        let (mut tokens, comments) = scan(content);
        mark_test_spans(&mut tokens);
        Self { path: path.to_string(), tokens, comments }
    }
}

/// The raw character scan: tokens plus comments, no test marking yet.
fn scan(content: &str) -> (Vec<Token>, Vec<Comment>) {
    let chars: Vec<char> = content.chars().collect();
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut line_has_code = false;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                line_has_code = false;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let doc = matches!(chars.get(i + 2), Some('/') | Some('!'));
                let mut start = i + 2;
                if doc {
                    start += 1;
                }
                // `////`-style rules are plain comments, not docs.
                let doc = doc && chars.get(i + 3) != Some(&'/');
                let mut text = String::new();
                let mut j = start;
                while j < chars.len() && chars[j] != '\n' {
                    text.push(chars[j]);
                    j += 1;
                }
                comments.push(Comment { line, text, doc, trailing: line_has_code });
                i = j;
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let doc = matches!(chars.get(i + 2), Some('*') | Some('!'))
                    && chars.get(i + 3) != Some(&'/');
                let start_line = line;
                let mut depth = 1usize;
                let mut text = String::new();
                let mut j = i + 2;
                while j < chars.len() && depth > 0 {
                    if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        if chars[j] == '\n' {
                            line += 1;
                        }
                        text.push(chars[j]);
                        j += 1;
                    }
                }
                comments.push(Comment { line: start_line, text, doc, trailing: line_has_code });
                i = j;
            }
            '"' => {
                let (text, next, newlines) = scan_string(&chars, i + 1);
                tokens.push(Token { kind: TokenKind::Str, text, line, in_test: false });
                line += newlines;
                line_has_code = true;
                i = next;
            }
            'r' | 'b' if raw_string_hashes(&chars, i).is_some() => {
                // Raw (and raw-byte) strings: r"..", r#".."#, br#".."# ...
                let (prefix_len, hashes) = match raw_string_hashes(&chars, i) {
                    Some(v) => v,
                    #[expect(clippy::unreachable, reason = "the arm's guard saw `Some`")]
                    None => unreachable!("guard checked raw_string_hashes is Some"),
                };
                let mut j = i + prefix_len;
                let mut text = String::new();
                loop {
                    if j >= chars.len() {
                        break;
                    }
                    if chars[j] == '"' && closes_raw(&chars, j + 1, hashes) {
                        j += 1 + hashes;
                        break;
                    }
                    if chars[j] == '\n' {
                        line += 1;
                    }
                    text.push(chars[j]);
                    j += 1;
                }
                tokens.push(Token { kind: TokenKind::Str, text, line, in_test: false });
                line_has_code = true;
                i = j;
            }
            'r' if chars.get(i + 1) == Some(&'#') && is_ident_char(chars.get(i + 2).copied()) => {
                // Raw identifier: `r#fn` is one Ident token with the full
                // `r#...` text, so the item parser never mistakes it for
                // the keyword it shadows.
                let mut j = i + 2;
                let mut text = String::from("r#");
                while is_ident_char(chars.get(j).copied()) {
                    text.push(chars[j]);
                    j += 1;
                }
                tokens.push(Token { kind: TokenKind::Ident, text, line, in_test: false });
                line_has_code = true;
                i = j;
            }
            'b' if chars.get(i + 1) == Some(&'"') => {
                let (text, next, newlines) = scan_string(&chars, i + 2);
                tokens.push(Token { kind: TokenKind::Str, text, line, in_test: false });
                line += newlines;
                line_has_code = true;
                i = next;
            }
            '\'' => {
                // Disambiguate char literals from lifetimes: a lifetime is
                // `'` + ident chars with no closing quote.
                if chars.get(i + 1) == Some(&'\\') {
                    // Escaped char literal: scan to the closing quote.
                    let mut j = i + 2;
                    let mut text = String::from("\\");
                    while j < chars.len() && chars[j] != '\'' {
                        text.push(chars[j]);
                        j += 1;
                    }
                    tokens.push(Token { kind: TokenKind::Char, text, line, in_test: false });
                    i = j + 1;
                } else if is_ident_char(chars.get(i + 1).copied())
                    && chars.get(i + 2) != Some(&'\'')
                {
                    // Lifetime: consume the identifier.
                    let mut j = i + 1;
                    let mut text = String::new();
                    while is_ident_char(chars.get(j).copied()) {
                        text.push(chars[j]);
                        j += 1;
                    }
                    tokens.push(Token { kind: TokenKind::Lifetime, text, line, in_test: false });
                    i = j;
                } else {
                    // Plain char literal like 'x' (or the degenerate `'`).
                    let text = chars.get(i + 1).map(char::to_string).unwrap_or_default();
                    let close = if chars.get(i + 2) == Some(&'\'') { 3 } else { 2 };
                    tokens.push(Token { kind: TokenKind::Char, text, line, in_test: false });
                    i += close;
                }
                line_has_code = true;
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                let mut text = String::new();
                while j < chars.len()
                    && (is_ident_char(Some(chars[j]))
                        || (chars[j] == '.'
                            && chars.get(j + 1).is_some_and(|c| c.is_ascii_digit())
                            && !text.contains('.')))
                {
                    text.push(chars[j]);
                    j += 1;
                }
                tokens.push(Token { kind: TokenKind::Num, text, line, in_test: false });
                line_has_code = true;
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                let mut text = String::new();
                while is_ident_char(chars.get(j).copied()) {
                    text.push(chars[j]);
                    j += 1;
                }
                tokens.push(Token { kind: TokenKind::Ident, text, line, in_test: false });
                line_has_code = true;
                i = j;
            }
            _ => {
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: c.to_string(),
                    line,
                    in_test: false,
                });
                line_has_code = true;
                i += 1;
            }
        }
    }
    (tokens, comments)
}

/// Scans a (non-raw) string body starting just past the opening quote.
/// Returns the contents, the index past the closing quote, and the number
/// of newlines crossed.
fn scan_string(chars: &[char], start: usize) -> (String, usize, u32) {
    let mut text = String::new();
    let mut newlines = 0u32;
    let mut j = start;
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                if let Some(&escaped) = chars.get(j + 1) {
                    text.push('\\');
                    text.push(escaped);
                    if escaped == '\n' {
                        newlines += 1;
                    }
                }
                j += 2;
            }
            '"' => return (text, j + 1, newlines),
            c => {
                if c == '\n' {
                    newlines += 1;
                }
                text.push(c);
                j += 1;
            }
        }
    }
    (text, j, newlines)
}

/// If position `i` starts a raw (or raw-byte) string, returns
/// `(prefix_len, hash_count)` where `prefix_len` covers everything up to
/// and including the opening quote.
fn raw_string_hashes(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((j + 1 - i, hashes))
    } else {
        None
    }
}

/// Whether `hashes` `#` characters follow position `i` (closing a raw
/// string with that many hashes).
fn closes_raw(chars: &[char], i: usize, hashes: usize) -> bool {
    (0..hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

fn is_ident_char(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Marks every token inside a `#[cfg(test)]` or `#[test]` item as
/// test-only. The item following the attribute (after any further
/// attributes) is skipped whole: either up to the matching close of its
/// first `{` block, or to the terminating `;` for block-less items.
fn mark_test_spans(tokens: &mut [Token]) {
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(after_attr) = test_attribute_end(tokens, i) {
            let mut j = after_attr;
            // Skip any further attributes between #[cfg(test)] and the item.
            while tokens.get(j).is_some_and(|t| t.text == "#") {
                j = skip_attribute(tokens, j);
            }
            let end = skip_item(tokens, j);
            for token in &mut tokens[i..end] {
                token.in_test = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
}

/// If tokens at `i` spell `#[cfg(test)]` or `#[test]` (or `#[cfg(test, ..`),
/// returns the index just past the closing `]`.
fn test_attribute_end(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens.get(i)?.text != "#" || tokens.get(i + 1)?.text != "[" {
        return None;
    }
    let head = &tokens.get(i + 2)?.text;
    let is_test = match head.as_str() {
        "test" => true,
        "cfg" => {
            tokens.get(i + 3).is_some_and(|t| t.text == "(")
                && tokens.get(i + 4).is_some_and(|t| t.text == "test")
        }
        _ => false,
    };
    if !is_test {
        return None;
    }
    Some(skip_attribute(tokens, i))
}

/// Given `#` at `i`, returns the index past the attribute's closing `]`.
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

/// Skips one item starting at `i`: consumes to the matching close of the
/// first `{` encountered at depth 0, or to a `;` before any block opens.
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
