//! Per-file analysis context shared by every rule: which tokens live in
//! test code, which `fn` encloses a given token (and what its doc
//! comment says), and where `// lint: allow(...)` comments sit.

use crate::lexer::{lex, Token, TokenKind};

/// A parsed `// lint: allow(rule, reason)` comment.
#[derive(Debug, Clone)]
pub struct AllowComment {
    /// Rule slug inside the parentheses.
    pub rule: String,
    /// Free-text justification after the comma (may be empty, which
    /// rules treat as malformed).
    pub reason: String,
    /// Line the comment starts on.
    pub line: u32,
    /// First following line that carries code, if any — an allow
    /// comment covers its own line and that one.
    pub applies_to: Option<u32>,
}

/// A `fn` item span with its attached outer doc text.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Token index of the `fn` keyword.
    pub fn_token: usize,
    /// Token index of the opening `{` (body start), if the fn has one.
    pub body_open: Option<usize>,
    /// Token index one past the matching `}`.
    pub body_end: usize,
    /// Concatenated outer doc comment text (`///` lines, `/** */`).
    pub doc: String,
}

/// Everything a rule needs to inspect one source file.
pub struct FileCtx {
    /// Workspace-relative path, used in findings.
    pub path: String,
    /// Raw source text.
    pub src: String,
    /// Lexed tokens (comments included).
    pub tokens: Vec<Token>,
    /// `test_mask[i]` is true when token `i` is inside `#[cfg(test)]`
    /// or `#[test]` code.
    pub test_mask: Vec<bool>,
    /// All `fn` items, in source order.
    pub fns: Vec<FnSpan>,
    /// Parsed allow comments.
    pub allows: Vec<AllowComment>,
}

impl FileCtx {
    /// Lex and analyze one file.
    pub fn new(path: &str, src: String) -> Self {
        let tokens = lex(&src);
        let test_mask = compute_test_mask(&src, &tokens);
        let fns = collect_fns(&src, &tokens);
        let allows = collect_allows(&src, &tokens);
        FileCtx {
            path: path.to_string(),
            src,
            tokens,
            test_mask,
            fns,
            allows,
        }
    }

    /// Text of token `i`.
    pub fn text(&self, i: usize) -> &str {
        self.tokens[i].text(&self.src)
    }

    /// True when `line` (or the line it annotates) is covered by an
    /// allow comment for `rule` carrying a non-empty reason.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.rule == rule && !a.reason.is_empty() && (a.line == line || a.applies_to == Some(line))
        })
    }

    /// The innermost `fn` whose body contains token `i`, if any.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .rev()
            .find(|f| f.body_open.is_some_and(|o| o < i) && i < f.body_end)
    }

    /// The source line (trimmed) that token `i` starts on — used as the
    /// stable key for baseline entries.
    pub fn line_text(&self, i: usize) -> &str {
        let t = &self.tokens[i];
        let start = self.src[..t.start].rfind('\n').map_or(0, |p| p + 1);
        let end = self.src[t.start..]
            .find('\n')
            .map_or(self.src.len(), |p| t.start + p);
        self.src[start..end].trim()
    }
}

/// Scan an attribute starting at the `#` token index; returns the index
/// one past the closing `]` and whether it marks test code
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]`, …).
fn scan_attr(ctx_src: &str, tokens: &[Token], hash: usize) -> (usize, bool) {
    let mut i = hash + 1;
    // Inner attribute `#![...]`.
    if i < tokens.len() && tokens[i].text(ctx_src) == "!" {
        i += 1;
    }
    if i >= tokens.len() || tokens[i].text(ctx_src) != "[" {
        return (hash + 1, false);
    }
    let mut depth = 0usize;
    let mut is_test = false;
    let mut saw_cfg = false;
    while i < tokens.len() {
        let t = tokens[i].text(ctx_src);
        match t {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth -= 1;
                if depth == 0 && t == "]" {
                    return (i + 1, is_test);
                }
            }
            "cfg" => saw_cfg = true,
            "test" if depth == 1 && !saw_cfg => is_test = true, // #[test]
            "test" if saw_cfg => is_test = true,                // #[cfg(test)]
            _ => {}
        }
        i += 1;
    }
    (i, is_test)
}

/// Mark every token inside test items. A test attribute marks the next
/// item; the item's `{ ... }` body (or its terminating `;`) bounds the
/// region. Handles `#[cfg(test)] mod tests { ... }` and `#[test] fn`.
fn compute_test_mask(src: &str, tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Punct && tokens[i].text(src) == "#" {
            let (after, is_test) = scan_attr(src, tokens, i);
            if is_test {
                // Mark from the attribute through the end of the item.
                let mut j = after;
                let mut depth = 0usize;
                while j < tokens.len() {
                    let t = tokens[j].text(src);
                    if tokens[j].kind == TokenKind::Punct {
                        match t {
                            "{" | "(" | "[" => depth += 1,
                            "}" | ")" | "]" => {
                                depth = depth.saturating_sub(1);
                                if depth == 0 && t == "}" {
                                    j += 1;
                                    break;
                                }
                            }
                            ";" if depth == 0 => {
                                j += 1;
                                break;
                            }
                            _ => {}
                        }
                    }
                    j += 1;
                }
                for m in mask.iter_mut().take(j).skip(i) {
                    *m = true;
                }
                i = j;
                continue;
            }
            i = after;
            continue;
        }
        i += 1;
    }
    mask
}

/// Collect `fn` items with body spans and attached outer docs.
fn collect_fns(src: &str, tokens: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || tok.text(src) != "fn" {
            continue;
        }
        // Walk forward: the body opens at the first `{` before a `;` at
        // signature depth (trait methods without bodies end in `;`).
        let mut j = i + 1;
        let mut depth = 0usize;
        let mut body_open = None;
        while j < tokens.len() {
            let t = tokens[j].text(src);
            if tokens[j].kind == TokenKind::Punct {
                match t {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "{" if depth == 0 => {
                        body_open = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let body_end = match body_open {
            Some(open) => {
                let mut k = open;
                let mut d = 0usize;
                while k < tokens.len() {
                    match tokens[k].text(src) {
                        "{" => d += 1,
                        "}" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                k + 1
            }
            None => j + 1,
        };
        // Attached docs: walk backwards over attributes and doc
        // comments immediately preceding the `fn` (and any `pub`,
        // `const`, `unsafe`, `async`, `extern` qualifiers).
        let mut doc = String::new();
        let mut k = i;
        while k > 0 {
            let p = &tokens[k - 1];
            let pt = p.text(src);
            match p.kind {
                TokenKind::Ident
                    if matches!(pt, "pub" | "const" | "unsafe" | "async" | "extern") =>
                {
                    k -= 1
                }
                TokenKind::StrLit if k >= 2 && tokens[k - 2].text(src) == "extern" => k -= 1,
                TokenKind::Punct if pt == "]" => {
                    // Skip an attribute backwards to its `#`.
                    let mut d = 0usize;
                    let mut b = k - 1;
                    loop {
                        match tokens[b].text(src) {
                            "]" => d += 1,
                            "[" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if b == 0 {
                            break;
                        }
                        b -= 1;
                    }
                    if b > 0 && tokens[b - 1].text(src) == "#" {
                        b -= 1;
                    }
                    k = b;
                }
                TokenKind::LineComment { doc: true } | TokenKind::BlockComment { doc: true } => {
                    doc.insert(0, '\n');
                    doc.insert_str(0, pt);
                    k -= 1;
                }
                TokenKind::Punct if pt == ")" && k >= 2 => break,
                _ => break,
            }
        }
        fns.push(FnSpan {
            fn_token: i,
            body_open,
            body_end,
            doc,
        });
    }
    fns
}

/// Parse `// lint: allow(rule, reason)` comments and bind each to the
/// next code-bearing line.
fn collect_allows(src: &str, tokens: &[Token]) -> Vec<AllowComment> {
    let mut allows = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !matches!(tok.kind, TokenKind::LineComment { .. }) {
            continue;
        }
        let text = tok.text(src);
        let Some(rest) = text
            .trim_start_matches('/')
            .trim()
            .strip_prefix("lint: allow(")
        else {
            continue;
        };
        let Some(inner) = rest.rfind(')').map(|p| &rest[..p]) else {
            continue;
        };
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim().to_string(), why.trim().to_string()),
            None => (inner.trim().to_string(), String::new()),
        };
        // Find the next line holding a code token. If a code token
        // shares the comment's own line, the comment is trailing and
        // covers that line only.
        let trailing = tokens[..i]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| {
                !matches!(
                    t.kind,
                    TokenKind::LineComment { .. } | TokenKind::BlockComment { .. }
                )
            });
        let applies_to = if trailing {
            None
        } else {
            tokens[i + 1..]
                .iter()
                .find(|t| {
                    !matches!(
                        t.kind,
                        TokenKind::LineComment { .. } | TokenKind::BlockComment { .. }
                    )
                })
                .map(|t| t.line)
        };
        allows.push(AllowComment {
            rule,
            reason,
            line: tok.line,
            applies_to,
        });
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src = "pub fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\n";
        let ctx = FileCtx::new("t.rs", src.to_string());
        let unwrap_idx = ctx
            .tokens
            .iter()
            .position(|t| t.text(src) == "unwrap")
            .unwrap();
        assert!(ctx.test_mask[unwrap_idx]);
        assert!(!ctx.test_mask[0]);
    }

    #[test]
    fn allow_comment_binds_to_next_line() {
        let src = "// lint: allow(ambient-time, examples measure wall clock)\nlet t = now();\n";
        let ctx = FileCtx::new("t.rs", src.to_string());
        assert!(ctx.allowed("ambient-time", 2));
        assert!(!ctx.allowed("ambient-time", 3));
    }

    #[test]
    fn fn_docs_attach() {
        let src = "/// Does x.\n/// # Panics\n/// When y.\npub fn f() { g(); }\n";
        let ctx = FileCtx::new("t.rs", src.to_string());
        assert_eq!(ctx.fns.len(), 1);
        assert!(ctx.fns[0].doc.contains("# Panics"));
    }
}
