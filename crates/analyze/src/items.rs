//! Item extraction: functions, their impl/trait context, and test-code
//! exclusion.
//!
//! Works over the [`crate::lexer`] token stream. The scanner walks the
//! token tree by brace matching, tracking which `impl`/`trait` block it
//! is inside and whether the surrounding module or item is compiled only
//! under `#[cfg(test)]`, and records one [`FnItem`] per function with a
//! body. Rules then run over each function's token slice.

use crate::lexer::{TokKind, Token};

/// One function found in a file.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's own name.
    pub name: String,
    /// The `impl`/`trait` type it is defined on, if any.
    pub owner: Option<String>,
    /// True for a method of an inherent `impl Type` block (no trait).
    /// Only crates that can name the type can call it, so call
    /// resolution never wires it to callers outside its dependents; trait
    /// methods (`impl Trait for T`, trait defaults) stay reachable from
    /// anywhere through dynamic dispatch.
    pub inherent: bool,
    /// Path of the defining file (workspace-relative).
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body, `tokens[body.0..body.1]`, braces
    /// included.
    pub body: (usize, usize),
    /// True when the function lives under `#[cfg(test)]` (or is itself a
    /// `#[test]`), so production rules skip it.
    pub is_test: bool,
}

/// A parsed source file: its tokens plus the functions found in them.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub path: String,
    /// The file's full token stream.
    pub tokens: Vec<Token>,
    /// Functions with bodies, in source order.
    pub fns: Vec<FnItem>,
    /// `macro_rules!` definitions whose bodies were skipped: macro
    /// templates are token soup until expansion, so the scanner cannot
    /// see functions inside them. The count is surfaced as a warning in
    /// the report so skipped coverage is never silent.
    pub skipped_macros: u32,
}

/// Parses a lexed file into items.
#[must_use]
pub fn parse_file(path: &str, tokens: Vec<Token>) -> ParsedFile {
    let mut fns = Vec::new();
    let mut skipped_macros = 0;
    let mut walker = Walker {
        toks: &tokens,
        path,
        fns: &mut fns,
        skipped_macros: &mut skipped_macros,
    };
    walker.block(0, tokens.len(), None, false, false);
    ParsedFile {
        path: path.to_owned(),
        tokens,
        fns,
        skipped_macros,
    }
}

/// True if an attribute marks test-only code: `#[cfg(test)]`,
/// `#[cfg(any(test, ...))]`, `#[test]`, or a proptest expansion.
fn attr_is_test(text: &str) -> bool {
    let t = text.trim();
    t == "test" || (t.starts_with("cfg") && t.contains("test"))
}

struct Walker<'a> {
    toks: &'a [Token],
    path: &'a str,
    fns: &'a mut Vec<FnItem>,
    skipped_macros: &'a mut u32,
}

impl Walker<'_> {
    /// Scans `toks[start..end]` (the interior of one block or the whole
    /// file), registering functions. `owner` is the enclosing impl/trait
    /// type (`inherent` when it is an `impl Type` block without a trait);
    /// `in_test` marks enclosing `#[cfg(test)]` scope.
    fn block(
        &mut self,
        start: usize,
        end: usize,
        owner: Option<&str>,
        inherent: bool,
        in_test: bool,
    ) {
        let mut i = start;
        let mut pending_test = false;
        while i < end {
            let t = &self.toks[i];
            match t.kind {
                TokKind::Attr => {
                    pending_test |= attr_is_test(&t.text);
                    i += 1;
                }
                TokKind::Ident if t.text == "macro_rules" || t.text == "macro" => {
                    // Macro templates are unexpanded token soup; any
                    // `fn` inside is not an item. Skip the whole
                    // definition and count it (reported as a warning).
                    pending_test = false;
                    match self.find_block_open(i + 1, end) {
                        Some(open) => {
                            *self.skipped_macros += 1;
                            i = self.match_brace(open, end) + 1;
                        }
                        None => i += 1,
                    }
                }
                TokKind::Ident if t.text == "mod" || t.text == "trait" || t.text == "impl" => {
                    let item_test = in_test || pending_test;
                    pending_test = false;
                    let hdr_owner = if t.text == "mod" {
                        None
                    } else {
                        self.impl_type(i + 1, end)
                    };
                    let hdr_inherent = t.text == "impl" && !self.impl_has_trait(i + 1, end);
                    // Find the block opener (or `;` for `mod x;` /
                    // `impl Trait for T;`-less declarations).
                    let Some(open) = self.find_block_open(i + 1, end) else {
                        i += 1;
                        continue;
                    };
                    let close = self.match_brace(open, end);
                    self.block(
                        open + 1,
                        close,
                        hdr_owner.as_deref(),
                        hdr_inherent,
                        item_test,
                    );
                    i = close + 1;
                }
                TokKind::Ident if t.text == "fn" => {
                    // `fn` as a type (`f: fn(u32)`) has `(` right after.
                    let Some(name_tok) = self.toks.get(i + 1) else {
                        i += 1;
                        continue;
                    };
                    if name_tok.kind != TokKind::Ident {
                        i += 1;
                        continue;
                    }
                    let item_test = in_test || pending_test;
                    pending_test = false;
                    match self.fn_body(i + 2, end) {
                        Some((open, close)) => {
                            self.fns.push(FnItem {
                                name: name_tok.text.clone(),
                                owner: owner.map(str::to_owned),
                                inherent: owner.is_some() && inherent,
                                file: self.path.to_owned(),
                                line: t.line,
                                body: (open, close + 1),
                                is_test: item_test,
                            });
                            // Recurse for nested fns (closures are part of
                            // the parent body either way).
                            self.block(open + 1, close, owner, inherent, item_test);
                            i = close + 1;
                        }
                        None => i += 2,
                    }
                }
                TokKind::Punct if t.text == "{" => {
                    let close = self.match_brace(i, end);
                    self.block(i + 1, close, owner, inherent, in_test);
                    i = close + 1;
                }
                _ => {
                    // Any other token detaches pending attributes.
                    if t.kind != TokKind::Ident
                        || !matches!(
                            t.text.as_str(),
                            "pub" | "const" | "unsafe" | "async" | "extern" | "crate"
                        )
                    {
                        pending_test = false;
                    }
                    i += 1;
                }
            }
        }
    }

    /// Whether the `impl` header starting right after the keyword names a
    /// trait (`impl Trait for T`): a `for` at angle depth 0 that is not a
    /// higher-ranked bound (`for<'a>`).
    fn impl_has_trait(&self, mut i: usize, end: usize) -> bool {
        let mut angle = 0i32;
        let mut prev_dash = false;
        while i < end {
            let t = &self.toks[i];
            match t.kind {
                TokKind::Punct if (t.text == "{" || t.text == ";") && angle == 0 => return false,
                TokKind::Punct if t.text == "<" => angle += 1,
                TokKind::Punct if t.text == ">" && !prev_dash => angle -= 1,
                TokKind::Ident if t.text == "for" && angle == 0 => {
                    let hrtb = self.toks.get(i + 1).is_some_and(|n| n.is_punct('<'));
                    if !hrtb {
                        return true;
                    }
                }
                _ => {}
            }
            prev_dash = t.is_punct('-');
            i += 1;
        }
        false
    }

    /// The self-type of an `impl`/`trait` header starting right after the
    /// keyword: the last path segment before the body, after `for` when
    /// present.
    fn impl_type(&self, mut i: usize, end: usize) -> Option<String> {
        let mut last_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut angle = 0i32;
        let mut prev_dash = false;
        while i < end {
            let t = &self.toks[i];
            match t.kind {
                TokKind::Punct if t.text == "{" && angle == 0 => break,
                TokKind::Punct if t.text == ";" && angle == 0 => break,
                TokKind::Punct if t.text == "<" => angle += 1,
                TokKind::Punct if t.text == ">" && !prev_dash => angle -= 1,
                TokKind::Ident if t.text == "for" && angle == 0 => {
                    after_for = None; // segments after `for` win
                    last_ident = None;
                }
                TokKind::Ident if angle == 0 && t.text != "where" && t.text != "dyn" => {
                    last_ident = Some(t.text.clone());
                    if after_for.is_none() {
                        after_for.clone_from(&last_ident);
                    }
                }
                _ => {}
            }
            prev_dash = t.is_punct('-');
            i += 1;
        }
        last_ident
    }

    /// Finds the `{` opening an item body, skipping header tokens.
    fn find_block_open(&self, mut i: usize, end: usize) -> Option<usize> {
        let mut angle = 0i32;
        let mut prev_dash = false;
        while i < end {
            let t = &self.toks[i];
            match t.kind {
                TokKind::Punct if t.text == "{" && angle <= 0 => return Some(i),
                TokKind::Punct if t.text == ";" && angle <= 0 => return None,
                TokKind::Punct if t.text == "<" => angle += 1,
                TokKind::Punct if t.text == ">" && !prev_dash => angle -= 1,
                _ => {}
            }
            prev_dash = t.is_punct('-');
            i += 1;
        }
        None
    }

    /// Given the index right after a function's name, locates its body
    /// braces: skips generics and the parameter list, then scans to the
    /// first `{` (body) or `;` (declaration only).
    fn fn_body(&self, mut i: usize, end: usize) -> Option<(usize, usize)> {
        // Generics.
        if self.toks.get(i).is_some_and(|t| t.is_punct('<')) {
            let mut angle = 0i32;
            let mut prev_dash = false;
            while i < end {
                let t = &self.toks[i];
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') && !prev_dash {
                    angle -= 1;
                    if angle == 0 {
                        i += 1;
                        break;
                    }
                }
                prev_dash = t.is_punct('-');
                i += 1;
            }
        }
        // Parameters.
        if !self.toks.get(i).is_some_and(|t| t.is_punct('(')) {
            return None;
        }
        let mut paren = 0i32;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
                if paren == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        // Return type / where clause, up to the body.
        let mut bracket = 0i32;
        let mut angle = 0i32;
        let mut prev_dash = false;
        while i < end {
            let t = &self.toks[i];
            match t.kind {
                TokKind::Punct if t.text == "{" && bracket == 0 && angle <= 0 => {
                    let close = self.match_brace(i, end);
                    return Some((i, close));
                }
                TokKind::Punct if t.text == ";" && bracket == 0 && angle <= 0 => return None,
                TokKind::Punct if t.text == "[" => bracket += 1,
                TokKind::Punct if t.text == "]" => bracket -= 1,
                TokKind::Punct if t.text == "<" => angle += 1,
                TokKind::Punct if t.text == ">" && !prev_dash => angle -= 1,
                _ => {}
            }
            prev_dash = t.is_punct('-');
            i += 1;
        }
        None
    }

    /// Index of the `}` matching the `{` at `open` (or `end - 1` if the
    /// file is truncated).
    fn match_brace(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        end.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file("lib.rs", lex(src))
    }

    #[test]
    fn free_and_method_fns() {
        let f = parse(
            "fn top() { helper(); }\n\
             struct S;\n\
             impl S { fn method(&self) -> u32 { 1 } }\n\
             impl Clone for S { fn clone(&self) -> S { S } }",
        );
        let names: Vec<(Option<&str>, &str)> = f
            .fns
            .iter()
            .map(|i| (i.owner.as_deref(), i.name.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![(None, "top"), (Some("S"), "method"), (Some("S"), "clone")]
        );
    }

    #[test]
    fn inherent_impls_are_told_from_trait_impls() {
        let f = parse(
            "impl S { fn a(&self) {} }\n\
             impl Clone for S { fn clone(&self) -> S { S } }\n\
             impl<F> W<F> where F: for<'x> Fn(&'x u8) { fn b(&self) {} }\n\
             trait T { fn c(&self) {} }\n\
             fn d() {}",
        );
        let inherent: Vec<(&str, bool)> = f
            .fns
            .iter()
            .map(|i| (i.name.as_str(), i.inherent))
            .collect();
        assert_eq!(
            inherent,
            [
                ("a", true),
                ("clone", false),
                ("b", true),
                ("c", false),
                ("d", false)
            ]
        );
    }

    #[test]
    fn impl_type_takes_segment_after_for() {
        let f = parse("impl CdrEncode for newtop_net::site::NodeId { fn encode(&self) {} }");
        assert_eq!(f.fns[0].owner.as_deref(), Some("NodeId"));
    }

    #[test]
    fn generic_impls_and_fns() {
        let f = parse("impl<T: Ord> Wrapper<T> { fn get<F: Fn() -> T>(&self, f: F) -> T { f() } }");
        assert_eq!(f.fns[0].owner.as_deref(), Some("Wrapper"));
        assert_eq!(f.fns[0].name, "get");
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let f = parse(
            "fn prod() {}\n\
             #[cfg(test)]\nmod tests {\n  #[test]\n  fn check() { prod(); }\n}",
        );
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test);
    }

    #[test]
    fn test_attribute_marks_single_fn() {
        let f = parse("#[test]\nfn alone() {}\nfn after() {}");
        assert!(f.fns[0].is_test);
        assert!(!f.fns[1].is_test, "test flag must not leak to the next fn");
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let f = parse("struct S { f: fn(u32) -> u32 }\nfn real() {}");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "real");
    }

    #[test]
    fn trait_default_methods_get_trait_owner() {
        let f = parse("trait T { fn required(&self); fn provided(&self) { self.required() } }");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].owner.as_deref(), Some("T"));
        assert_eq!(f.fns[0].name, "provided");
    }

    #[test]
    fn return_types_with_arrows_and_arrays() {
        let f = parse("fn arr() -> [u8; 4] { [0; 4] }\nfn imp() -> impl Iterator<Item = u8> { std::iter::empty() }");
        let names: Vec<&str> = f.fns.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["arr", "imp"]);
    }

    #[test]
    fn nested_fns_are_found() {
        let f = parse("fn outer() { fn inner() {} inner(); }");
        let names: Vec<&str> = f.fns.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn macro_rules_bodies_are_skipped_and_counted() {
        let f = parse(
            "macro_rules! make_fn {\n\
               ($name:ident) => { fn $name() { x.unwrap() } };\n\
             }\n\
             fn real() {}",
        );
        let names: Vec<&str> = f.fns.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["real"], "macro template fns are not items");
        assert_eq!(f.skipped_macros, 1);
    }

    #[test]
    fn macro_invocations_with_braces_still_walked() {
        // Only *definitions* are skipped; `thread_local! { ... }` style
        // invocations contain real code and keep being scanned.
        let f = parse("thread_local! { static X: u32 = 0; }\nfn real() {}");
        assert_eq!(f.skipped_macros, 0);
        assert_eq!(f.fns.len(), 1);
    }
}
