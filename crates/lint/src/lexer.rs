//! A hand-rolled, comment- and string-aware Rust lexer.
//!
//! Token-level analysis is all the rule catalog needs: every rule keys on
//! identifier/punctuation shapes (`map.iter(`, `seq + 1`, `#[cfg(test)]`),
//! none needs name resolution or type inference. Staying at the token
//! level keeps the engine dependency-free (the build environment is
//! offline), byte-stable across runs, and fast enough to scan the whole
//! workspace inside a tier-1 test.
//!
//! The lexer guarantees rules never see into comments or string literals:
//! string/char contents are carried opaquely and comments land in a
//! separate side channel (which the engine mines for `lint:allow`
//! pragmas).

/// What a token is, at the granularity the rules care about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`for`, `in`, `use`, names, ...).
    Ident,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// Numeric literal.
    Num,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Punctuation, possibly multi-character (`::`, `->`, `<<`, `..=`).
    Punct,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Kind.
    pub kind: TokKind,
    /// The token's text. `Str`/`Char` tokens carry the raw literal
    /// including quotes; rules match on `kind`, so identifier-shaped
    /// rules can never fire inside literals.
    pub text: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the first byte.
    pub col: u32,
}

/// A comment, kept out of the token stream.
#[derive(Clone, Debug)]
pub struct Comment {
    /// Full comment text including the `//` / `/*` sigils.
    pub text: String,
    /// 1-based line where the comment starts.
    pub line: u32,
}

/// Lexer output: code tokens plus the comment side channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Multi-character punctuation, longest first so maximal munch works.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.pos + ahead).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        b
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens and comments. Unterminated constructs lex to
/// end-of-file rather than erroring: the engine lints what the compiler
/// will reject anyway, and a lint run must never abort mid-workspace.
pub fn lex(src: &str) -> Lexed {
    let mut c = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();
    while c.pos < c.src.len() {
        let (line, col) = (c.line, c.col);
        let b = c.peek(0);
        // Whitespace.
        if b.is_ascii_whitespace() {
            c.bump();
            continue;
        }
        // Comments.
        if b == b'/' && c.peek(1) == b'/' {
            let start = c.pos;
            while c.pos < c.src.len() && c.peek(0) != b'\n' {
                c.bump();
            }
            out.comments.push(Comment {
                text: String::from_utf8_lossy(&c.src[start..c.pos]).into_owned(),
                line,
            });
            continue;
        }
        if b == b'/' && c.peek(1) == b'*' {
            let start = c.pos;
            c.bump();
            c.bump();
            let mut depth = 1u32;
            while c.pos < c.src.len() && depth > 0 {
                if c.starts_with("/*") {
                    depth += 1;
                    c.bump();
                    c.bump();
                } else if c.starts_with("*/") {
                    depth -= 1;
                    c.bump();
                    c.bump();
                } else {
                    c.bump();
                }
            }
            out.comments.push(Comment {
                text: String::from_utf8_lossy(&c.src[start..c.pos]).into_owned(),
                line,
            });
            continue;
        }
        // Raw strings: r"…", r#"…"#, br#"…"#, …
        if (b == b'r' || (b == b'b' && c.peek(1) == b'r')) && {
            let at = if b == b'b' { 1 } else { 0 };
            let mut h = 1 + at;
            while c.peek(h) == b'#' {
                h += 1;
            }
            c.peek(h) == b'"'
        } {
            let raw_start = c.pos;
            if b == b'b' {
                c.bump(); // consume 'b'
            }
            c.bump(); // consume 'r'
            let mut hashes = 0usize;
            while c.peek(0) == b'#' {
                hashes += 1;
                c.bump();
            }
            c.bump(); // opening quote
            let closer: String = format!("\"{}", "#".repeat(hashes));
            while c.pos < c.src.len() && !c.starts_with(&closer) {
                c.bump();
            }
            for _ in 0..closer.len() {
                if c.pos < c.src.len() {
                    c.bump();
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: String::from_utf8_lossy(&c.src[raw_start..c.pos]).into_owned(),
                line,
                col,
            });
            continue;
        }
        // Plain and byte strings.
        if b == b'"' || (b == b'b' && c.peek(1) == b'"') {
            let str_start = c.pos;
            if b == b'b' {
                c.bump();
            }
            c.bump(); // opening quote
            while c.pos < c.src.len() {
                let q = c.bump();
                if q == b'\\' {
                    c.bump();
                } else if q == b'"' {
                    break;
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: String::from_utf8_lossy(&c.src[str_start..c.pos]).into_owned(),
                line,
                col,
            });
            continue;
        }
        // Char literals vs lifetimes. A lifetime is `'` + ident not
        // followed by a closing `'`.
        if b == b'\'' || (b == b'b' && c.peek(1) == b'\'') {
            let at = if b == b'b' { 1 } else { 0 };
            let is_lifetime = at == 0 && is_ident_start(c.peek(1)) && {
                // Scan the ident; a lifetime has no closing quote.
                let mut h = 2;
                while is_ident_continue(c.peek(h)) {
                    h += 1;
                }
                c.peek(h) != b'\''
            };
            if is_lifetime {
                c.bump(); // '
                let start = c.pos;
                while is_ident_continue(c.peek(0)) {
                    c.bump();
                }
                out.toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: format!("'{}", String::from_utf8_lossy(&c.src[start..c.pos])),
                    line,
                    col,
                });
            } else {
                if at == 1 {
                    c.bump(); // b
                }
                c.bump(); // opening '
                while c.pos < c.src.len() {
                    let q = c.bump();
                    if q == b'\\' {
                        c.bump();
                    } else if q == b'\'' {
                        break;
                    }
                }
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    text: "'…'".into(),
                    line,
                    col,
                });
            }
            continue;
        }
        // Identifiers and keywords (incl. raw idents r#name).
        if is_ident_start(b) || (b == b'r' && c.peek(1) == b'#' && is_ident_start(c.peek(2))) {
            if b == b'r' && c.peek(1) == b'#' {
                c.bump();
                c.bump();
            }
            let start = c.pos;
            while is_ident_continue(c.peek(0)) {
                c.bump();
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: String::from_utf8_lossy(&c.src[start..c.pos]).into_owned(),
                line,
                col,
            });
            continue;
        }
        // Numbers (loose: digits then any ident-ish/dotted continuation
        // that keeps `1.0e-3`, `0xff`, `1_000u64` single tokens; `1..2`
        // must not eat the range dots).
        if b.is_ascii_digit() {
            let start = c.pos;
            c.bump();
            loop {
                let n = c.peek(0);
                if is_ident_continue(n)
                    || (n == b'.' && c.peek(1) != b'.' && !is_ident_start(c.peek(1)))
                {
                    c.bump();
                } else if (n == b'+' || n == b'-')
                    && matches!(c.src.get(c.pos.wrapping_sub(1)), Some(b'e') | Some(b'E'))
                    && c.src[start..c.pos].contains(&b'.')
                {
                    // Float exponent sign (`1.5e-3`); integer `1e-3` does
                    // not occur in this codebase.
                    c.bump();
                } else {
                    break;
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: String::from_utf8_lossy(&c.src[start..c.pos]).into_owned(),
                line,
                col,
            });
            continue;
        }
        // Punctuation: maximal munch over the multi-char table.
        let mut matched = false;
        for p in PUNCTS {
            if c.starts_with(p) {
                for _ in 0..p.len() {
                    c.bump();
                }
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (*p).into(),
                    line,
                    col,
                });
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }
        c.bump();
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: (b as char).to_string(),
            line,
            col,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).toks.iter().map(|t| t.text.clone()).collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let l = lex("let x = \"HashMap.iter()\"; // HashMap::new\n/* for x in map */ y");
        let idents: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["let", "x", "y"]);
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].text.contains("HashMap::new"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifes = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = l.toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn raw_strings_swallow_quotes() {
        let l = lex(r####"let s = r#"say "hi" to HashMap"#; done"####);
        assert!(l
            .toks
            .iter()
            .all(|t| t.kind != TokKind::Ident || t.text != "HashMap"));
        assert_eq!(l.toks.last().unwrap().text, "done");
    }

    #[test]
    fn punct_munch_is_maximal() {
        assert_eq!(
            texts("a << b >>= c ..= d :: e"),
            vec!["a", "<<", "b", ">>=", "c", "..=", "d", "::", "e"]
        );
    }

    #[test]
    fn numbers_stay_single_tokens() {
        assert_eq!(
            texts("1_000u64 0xff 1.5e-3 1..2"),
            vec!["1_000u64", "0xff", "1.5e-3", "1", "..", "2"]
        );
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* a /* b */ c */ x");
        assert_eq!(l.toks.len(), 1);
        assert_eq!(l.toks[0].text, "x");
    }

    #[test]
    fn line_numbers_track() {
        let l = lex("a\nb\n  c");
        assert_eq!(l.toks[0].line, 1);
        assert_eq!(l.toks[1].line, 2);
        assert_eq!(l.toks[2].line, 3);
        assert_eq!(l.toks[2].col, 3);
    }
}
