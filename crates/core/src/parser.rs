//! A surface syntax for λ∨ with parser and desugaring.
//!
//! The grammar extends the paper's core syntax (Figure 1) with the derived
//! forms of §2.2, which desugar during parsing:
//!
//! ```text
//! e ::= \x y. e                    -- curried lambda
//!     | let p = e in e             -- pattern let (var / symbol / pair / _)
//!     | let rec f x.. = e in e     -- recursion via the Z combinator
//!     | fix f. e                   -- explicit fixed point
//!     | for x in e . e             -- big join  ⋁_{x ∈ e} e
//!     | if e then e else e         -- boolean threshold encoding
//!     | case e { 'tag p -> e | .. }-- ADT pattern match (join of thresholds)
//!     | e \/ e                     -- binary join
//!     | e <= e | e < e | e == e    -- comparisons (delta rules)
//!     | e :: e | [e, ..]           -- list sugar ('cons/'nil encoding)
//!     | e + e | e - e | e * e      -- arithmetic (delta rules)
//!     | e e                        -- application
//!     | e @ fld                    -- record projection (application to a name)
//!     | {| fld = e ; .. |}         -- record (function from field names)
//!     | {e, ..} | (e, e) | ( )     -- sets, pairs, unit
//!     | bot | top | botv | x | 'name | "str" | 42 | `3 | true | false
//!     | frz e                      -- freeze (§5.2 extension)
//!     | let frz x = e in e         -- thaw elimination
//!     | member(e, e) | diff(e, e) | size(e)  -- frozen-set queries
//!     | lex(e, e)                  -- versioned pair
//!     | bind x <- e in e           -- versioned bind
//! ```
//!
//! Comments run from `--` to end of line.
//!
//! # Examples
//!
//! ```
//! use lambda_join_core::parser::parse;
//!
//! let t = parse("let rec evens _ = {0} \\/ (for x in evens () . {x + 2}) in evens ()").unwrap();
//! assert!(t.is_closed());
//! ```

use std::fmt;
use std::sync::Arc;

use crate::builder;
use crate::symbol::Symbol;
use crate::term::{Prim, Term, TermRef};

/// A parse error with a byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a λ∨ program from surface syntax.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error encountered.
pub fn parse(input: &str) -> Result<TermRef, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let e = p.expr()?;
    p.expect_end()?;
    Ok(e)
}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Name(String),
    Level(u64),
    // punctuation / operators
    Lambda,
    Dot,
    Comma,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LRec, // {|
    RRec, // |}
    Semi,
    Equals,
    Arrow,
    ConsOp,
    JoinOp,
    Plus,
    Minus,
    Star,
    Le,
    Lt,
    LArrow, // <-
    EqEq,
    At,
    Bar,
    Underscore,
    // keywords
    Let,
    Rec,
    In,
    For,
    If,
    Then,
    Else,
    Fix,
    Case,
    Of,
    Bot,
    Top,
    BotV,
    True,
    False,
    // §5.2 extensions
    Frz,
    Bind,
    LexKw,
    LexMergeKw,
    MemberKw,
    DiffKw,
    SizeKw,
}

fn lex(input: &str) -> Result<Vec<(usize, Tok)>, ParseError> {
    let b = input.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '-' if i + 1 < b.len() && b[i + 1] == b'-' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            '\\' if i + 1 < b.len() && b[i + 1] == b'/' => {
                out.push((i, Tok::JoinOp));
                i += 2;
            }
            '\\' => {
                out.push((i, Tok::Lambda));
                i += 1;
            }
            '.' => {
                out.push((i, Tok::Dot));
                i += 1;
            }
            ',' => {
                out.push((i, Tok::Comma));
                i += 1;
            }
            '(' => {
                out.push((i, Tok::LParen));
                i += 1;
            }
            ')' => {
                out.push((i, Tok::RParen));
                i += 1;
            }
            '{' if i + 1 < b.len() && b[i + 1] == b'|' => {
                out.push((i, Tok::LRec));
                i += 2;
            }
            '{' => {
                out.push((i, Tok::LBrace));
                i += 1;
            }
            '}' => {
                out.push((i, Tok::RBrace));
                i += 1;
            }
            '|' if i + 1 < b.len() && b[i + 1] == b'}' => {
                out.push((i, Tok::RRec));
                i += 2;
            }
            '|' => {
                out.push((i, Tok::Bar));
                i += 1;
            }
            ';' => {
                out.push((i, Tok::Semi));
                i += 1;
            }
            '@' => {
                out.push((i, Tok::At));
                i += 1;
            }
            '+' => {
                out.push((i, Tok::Plus));
                i += 1;
            }
            '*' => {
                out.push((i, Tok::Star));
                i += 1;
            }
            '-' if i + 1 < b.len() && b[i + 1] == b'>' => {
                out.push((i, Tok::Arrow));
                i += 2;
            }
            '-' => {
                out.push((i, Tok::Minus));
                i += 1;
            }
            ':' if i + 1 < b.len() && b[i + 1] == b':' => {
                out.push((i, Tok::ConsOp));
                i += 2;
            }
            '<' if i + 1 < b.len() && b[i + 1] == b'=' => {
                out.push((i, Tok::Le));
                i += 2;
            }
            '<' if i + 1 < b.len() && b[i + 1] == b'-' => {
                out.push((i, Tok::LArrow));
                i += 2;
            }
            '<' => {
                out.push((i, Tok::Lt));
                i += 1;
            }
            '=' if i + 1 < b.len() && b[i + 1] == b'=' => {
                out.push((i, Tok::EqEq));
                i += 2;
            }
            '=' => {
                out.push((i, Tok::Equals));
                i += 1;
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                if j == start {
                    return Err(ParseError {
                        pos: i,
                        msg: "expected name after '".into(),
                    });
                }
                out.push((i, Tok::Name(input[start..j].to_string())));
                i = j;
            }
            '`' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j].is_ascii_digit() {
                    j += 1;
                }
                if j == start {
                    return Err(ParseError {
                        pos: i,
                        msg: "expected digits after `".into(),
                    });
                }
                let n: u64 = input[start..j].parse().map_err(|_| ParseError {
                    pos: i,
                    msg: "level literal out of range".into(),
                })?;
                out.push((i, Tok::Level(n)));
                i = j;
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                let mut s = String::new();
                loop {
                    if j >= b.len() {
                        return Err(ParseError {
                            pos: i,
                            msg: "unterminated string literal".into(),
                        });
                    }
                    match b[j] {
                        b'"' => break,
                        b'\\' if j + 1 < b.len() => {
                            let esc = b[j + 1] as char;
                            s.push(match esc {
                                'n' => '\n',
                                't' => '\t',
                                '\\' => '\\',
                                '"' => '"',
                                other => {
                                    return Err(ParseError {
                                        pos: j,
                                        msg: format!("unknown escape \\{other}"),
                                    })
                                }
                            });
                            j += 2;
                        }
                        _ => {
                            s.push(b[j] as char);
                            j += 1;
                        }
                    }
                }
                out.push((i, Tok::Str(s)));
                i = j + 1;
            }
            '0'..='9' => {
                let start = i;
                let mut j = i;
                while j < b.len() && b[j].is_ascii_digit() {
                    j += 1;
                }
                let n: i64 = input[start..j].parse().map_err(|_| ParseError {
                    pos: start,
                    msg: "integer literal out of range".into(),
                })?;
                out.push((start, Tok::Int(n)));
                i = j;
            }
            'a'..='z' | 'A'..='Z' | '_' | '%' => {
                let start = i;
                let mut j = i;
                while j < b.len()
                    && ((b[j] as char).is_ascii_alphanumeric() || b[j] == b'_' || b[j] == b'%')
                {
                    j += 1;
                }
                let word = &input[start..j];
                let tok = match word {
                    "let" => Tok::Let,
                    "rec" => Tok::Rec,
                    "in" => Tok::In,
                    "for" => Tok::For,
                    "if" => Tok::If,
                    "then" => Tok::Then,
                    "else" => Tok::Else,
                    "fix" => Tok::Fix,
                    "case" => Tok::Case,
                    "of" => Tok::Of,
                    "bot" => Tok::Bot,
                    "top" => Tok::Top,
                    "botv" => Tok::BotV,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "frz" => Tok::Frz,
                    "bind" => Tok::Bind,
                    "lex" => Tok::LexKw,
                    "lexmerge" => Tok::LexMergeKw,
                    "member" => Tok::MemberKw,
                    "diff" => Tok::DiffKw,
                    "size" => Tok::SizeKw,
                    "_" => Tok::Underscore,
                    _ => Tok::Ident(word.to_string()),
                };
                out.push((start, tok));
                i = j;
            }
            other => {
                return Err(ParseError {
                    pos: i,
                    msg: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

// --------------------------------------------------------------- parser --

/// A let-binding pattern.
#[derive(Debug, Clone)]
enum Pattern {
    Var(String),
    Wild,
    Sym(Symbol),
    Pair(Box<Pattern>, Box<Pattern>),
}

/// Maximum expression/pattern nesting depth. The parser is recursive
/// descent, so input nesting consumes native stack; past this cap a
/// "parser bomb" (`((((…))))` and friends, a standard denial-of-service
/// frame against network-facing parsers — stack overflow aborts the whole
/// process and no `catch_unwind` can stop it) gets a [`ParseError`]
/// instead.
///
/// The cap is build-profile dependent because the cost *per level* is: one
/// pass through the whole precedence chain, ~1 KiB of native stack in
/// release but ~12 KiB unoptimised (measured). 512 release levels fit a
/// 1 MiB thread with room to spare; 64 debug levels likewise. Both are an
/// order of magnitude past any real program here — the deepest displayed
/// encoding (`two_phase_commit`) nests 8.
#[cfg(not(debug_assertions))]
const MAX_NESTING_DEPTH: usize = 512;
#[cfg(debug_assertions)]
const MAX_NESTING_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<(usize, Tok)>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn peek_pos(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|(p, _)| *p)
            .unwrap_or(usize::MAX)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok, what: &str) -> Result<(), ParseError> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn err(&self, msg: String) -> ParseError {
        ParseError {
            pos: self.peek_pos(),
            msg,
        }
    }

    fn expect_end(&self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.err("trailing input".into()))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(Tok::Underscore) => Ok("_".into()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier".into()))
            }
        }
    }

    /// Claims one level of nesting depth, failing cleanly at the cap.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            Err(self.err(format!(
                "expression nesting deeper than {MAX_NESTING_DEPTH} levels"
            )))
            // (The increment is not undone: parsing aborts entirely on any
            // error, so the counter dies with the parser.)
        } else {
            Ok(())
        }
    }

    // expr := lambda | let | fix | for | if | case | join-expr
    fn expr(&mut self) -> Result<TermRef, ParseError> {
        self.descend()?;
        let r = self.expr_at_depth();
        self.depth -= 1;
        r
    }

    fn expr_at_depth(&mut self) -> Result<TermRef, ParseError> {
        match self.peek() {
            Some(Tok::Lambda) => {
                self.next();
                let mut params = vec![self.ident()?];
                while matches!(self.peek(), Some(Tok::Ident(_)) | Some(Tok::Underscore)) {
                    params.push(self.ident()?);
                }
                self.expect(Tok::Dot, "'.' after lambda parameters")?;
                let body = self.expr()?;
                Ok(params
                    .into_iter()
                    .rev()
                    .fold(body, |b, x| builder::lam(&x, b)))
            }
            Some(Tok::Let) => {
                self.next();
                if self.eat(&Tok::Rec) {
                    let f = self.ident()?;
                    let mut params = Vec::new();
                    while matches!(self.peek(), Some(Tok::Ident(_)) | Some(Tok::Underscore)) {
                        params.push(self.ident()?);
                    }
                    if params.is_empty() {
                        return Err(self.err("let rec needs at least one parameter".into()));
                    }
                    self.expect(Tok::Equals, "'=' in let rec")?;
                    let body = self.expr()?;
                    self.expect(Tok::In, "'in' after let rec binding")?;
                    let rest = self.expr()?;
                    let lam_body = params
                        .into_iter()
                        .rev()
                        .fold(body, |b, x| builder::lam(&x, b));
                    let fixed = builder::fix(&f, lam_body);
                    Ok(builder::let_in(&f, fixed, rest))
                } else if self.eat(&Tok::Frz) {
                    // let frz x = e in body — thaw elimination (§5.2).
                    let x = self.ident()?;
                    self.expect(Tok::Equals, "'=' in let frz")?;
                    let scrut = self.expr()?;
                    self.expect(Tok::In, "'in' after let frz binding")?;
                    let body = self.expr()?;
                    Ok(builder::let_frz(&x, scrut, body))
                } else {
                    let pat = self.pattern()?;
                    self.expect(Tok::Equals, "'=' in let")?;
                    let scrut = self.expr()?;
                    self.expect(Tok::In, "'in' after let binding")?;
                    let body = self.expr()?;
                    Ok(desugar_let(&pat, scrut, body, &mut 0))
                }
            }
            Some(Tok::Bind) => {
                // bind x <- e in body — versioned-pair bind (§5.2).
                self.next();
                let x = self.ident()?;
                self.expect(Tok::LArrow, "'<-' in bind")?;
                let scrut = self.expr()?;
                self.expect(Tok::In, "'in' after bind source")?;
                let body = self.expr()?;
                Ok(builder::lex_bind(&x, scrut, body))
            }
            Some(Tok::Fix) => {
                self.next();
                let f = self.ident()?;
                self.expect(Tok::Dot, "'.' after fix binder")?;
                let body = self.expr()?;
                Ok(builder::fix(&f, body))
            }
            Some(Tok::For) => {
                self.next();
                let x = self.ident()?;
                self.expect(Tok::In, "'in' in big join")?;
                let src = self.join_expr()?;
                self.expect(Tok::Dot, "'.' in big join")?;
                let body = self.expr()?;
                Ok(builder::big_join(&x, src, body))
            }
            Some(Tok::If) => {
                self.next();
                let c = self.expr()?;
                self.expect(Tok::Then, "'then'")?;
                let t = self.expr()?;
                self.expect(Tok::Else, "'else'")?;
                let e = self.expr()?;
                Ok(builder::ite(c, t, e))
            }
            Some(Tok::Case) => {
                self.next();
                let scrut = self.join_expr()?;
                self.expect(Tok::Of, "'of' after case scrutinee")?;
                self.expect(Tok::LBrace, "'{' after 'of'")?;
                let mut arms = Vec::new();
                loop {
                    let tag = match self.next() {
                        Some(Tok::Name(n)) => n,
                        _ => return Err(self.err("expected 'tag in case arm".into())),
                    };
                    let pat = if self.peek() == Some(&Tok::Arrow) {
                        Pattern::Wild
                    } else {
                        self.pattern()?
                    };
                    self.expect(Tok::Arrow, "'->' in case arm")?;
                    let body = self.expr()?;
                    arms.push((tag, pat, body));
                    if !self.eat(&Tok::Bar) {
                        break;
                    }
                }
                self.expect(Tok::RBrace, "'}' closing case")?;
                Ok(desugar_case(scrut, arms))
            }
            _ => self.join_expr(),
        }
    }

    // join := cmp ('\/' join)?   (right associative)
    fn join_expr(&mut self) -> Result<TermRef, ParseError> {
        let lhs = self.cmp_expr()?;
        if self.eat(&Tok::JoinOp) {
            let rhs = self.join_expr()?;
            Ok(builder::join(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    // cmp := cons (op cons)?
    fn cmp_expr(&mut self) -> Result<TermRef, ParseError> {
        let lhs = self.cons_expr()?;
        let op = match self.peek() {
            Some(Tok::Le) => Some(Prim::Le),
            Some(Tok::Lt) => Some(Prim::Lt),
            Some(Tok::EqEq) => Some(Prim::Eq),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let rhs = self.cons_expr()?;
            Ok(builder::prim(op, vec![lhs, rhs]))
        } else {
            Ok(lhs)
        }
    }

    // cons := add ('::' cons)?   (right associative)
    fn cons_expr(&mut self) -> Result<TermRef, ParseError> {
        let lhs = self.add_expr()?;
        if self.eat(&Tok::ConsOp) {
            let rhs = self.cons_expr()?;
            Ok(builder::cons(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> Result<TermRef, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => Prim::Add,
                Some(Tok::Minus) => Prim::Sub,
                _ => break,
            };
            self.next();
            let rhs = self.mul_expr()?;
            lhs = builder::prim(op, vec![lhs, rhs]);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<TermRef, ParseError> {
        let mut lhs = self.app_expr()?;
        while self.eat(&Tok::Star) {
            let rhs = self.app_expr()?;
            lhs = builder::mul(lhs, rhs);
        }
        Ok(lhs)
    }

    // app := ('frz' postfix | postfix) postfix*
    fn app_expr(&mut self) -> Result<TermRef, ParseError> {
        let mut f = if self.eat(&Tok::Frz) {
            builder::frz(self.postfix_expr()?)
        } else {
            self.postfix_expr()?
        };
        while self.starts_atom() {
            let a = self.postfix_expr()?;
            f = builder::app(f, a);
        }
        Ok(f)
    }

    /// Parses a parenthesised argument list of exactly `n` expressions for a
    /// call-style keyword form such as `lex(a, b)` or `size(s)`.
    fn call_args(&mut self, n: usize, what: &str) -> Result<Vec<TermRef>, ParseError> {
        self.expect(Tok::LParen, "'(' after keyword")?;
        let mut args = Vec::with_capacity(n);
        for i in 0..n {
            if i > 0 {
                self.expect(Tok::Comma, "','")?;
            }
            args.push(self.expr()?);
        }
        self.expect(Tok::RParen, what)?;
        Ok(args)
    }

    // postfix := atom ('@' ident)*
    fn postfix_expr(&mut self) -> Result<TermRef, ParseError> {
        let mut e = self.atom()?;
        while self.eat(&Tok::At) {
            let fld = self.ident()?;
            e = builder::project(e, &fld);
        }
        Ok(e)
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            Some(
                Tok::Ident(_)
                    | Tok::Int(_)
                    | Tok::Str(_)
                    | Tok::Name(_)
                    | Tok::Level(_)
                    | Tok::LParen
                    | Tok::LBrace
                    | Tok::LRec
                    | Tok::Bot
                    | Tok::Top
                    | Tok::BotV
                    | Tok::True
                    | Tok::False
                    | Tok::Underscore
                    | Tok::LexKw
                    | Tok::LexMergeKw
                    | Tok::MemberKw
                    | Tok::DiffKw
                    | Tok::SizeKw
            )
        )
    }

    fn atom(&mut self) -> Result<TermRef, ParseError> {
        match self.next() {
            Some(Tok::Ident(x)) => Ok(builder::var(&x)),
            Some(Tok::Underscore) => Ok(builder::var("_")),
            Some(Tok::Int(n)) => Ok(builder::int(n)),
            Some(Tok::Minus) => match self.next() {
                Some(Tok::Int(n)) => Ok(builder::int(-n)),
                _ => Err(self.err("expected integer after unary '-'".into())),
            },
            Some(Tok::Str(s)) => Ok(builder::string(&s)),
            Some(Tok::Name(n)) => Ok(builder::name(&n)),
            Some(Tok::Level(n)) => Ok(builder::level(n)),
            Some(Tok::Bot) => Ok(builder::bot()),
            Some(Tok::Top) => Ok(builder::top()),
            Some(Tok::BotV) => Ok(builder::botv()),
            Some(Tok::True) => Ok(builder::tt()),
            Some(Tok::False) => Ok(builder::ff()),
            Some(Tok::LexKw) => {
                let mut args = self.call_args(2, "')' closing lex")?;
                let b = args.pop().expect("two args");
                let a = args.pop().expect("two args");
                Ok(builder::lex(a, b))
            }
            Some(Tok::LexMergeKw) => {
                let mut args = self.call_args(2, "')' closing lexmerge")?;
                let b = args.pop().expect("two args");
                let a = args.pop().expect("two args");
                Ok(Arc::new(Term::LexMerge(a, b)))
            }
            Some(Tok::MemberKw) => {
                let args = self.call_args(2, "')' closing member")?;
                Ok(builder::prim(Prim::Member, args))
            }
            Some(Tok::DiffKw) => {
                let args = self.call_args(2, "')' closing diff")?;
                Ok(builder::prim(Prim::Diff, args))
            }
            Some(Tok::SizeKw) => {
                let args = self.call_args(1, "')' closing size")?;
                Ok(builder::prim(Prim::SetSize, args))
            }
            Some(Tok::LParen) => {
                if self.eat(&Tok::RParen) {
                    return Ok(builder::unit());
                }
                let first = self.expr()?;
                if self.eat(&Tok::Comma) {
                    let second = self.expr()?;
                    self.expect(Tok::RParen, "')' closing pair")?;
                    Ok(builder::pair(first, second))
                } else {
                    self.expect(Tok::RParen, "')'")?;
                    Ok(first)
                }
            }
            Some(Tok::LBrace) => {
                let mut es = Vec::new();
                if !self.eat(&Tok::RBrace) {
                    loop {
                        es.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::RBrace, "'}' closing set")?;
                }
                Ok(builder::set(es))
            }
            Some(Tok::LRec) => {
                let mut fields = Vec::new();
                if !self.eat(&Tok::RRec) {
                    loop {
                        let f = self.ident()?;
                        self.expect(Tok::Equals, "'=' in record field")?;
                        let e = self.expr()?;
                        fields.push((f, e));
                        if !self.eat(&Tok::Semi) {
                            break;
                        }
                    }
                    self.expect(Tok::RRec, "'|}' closing record")?;
                }
                Ok(builder::record(
                    fields
                        .iter()
                        .map(|(f, e)| (f.as_str(), e.clone()))
                        .collect(),
                ))
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected an expression".into()))
            }
        }
    }

    // pattern := atom-pattern
    fn pattern(&mut self) -> Result<Pattern, ParseError> {
        self.descend()?;
        let r = self.pattern_at_depth();
        self.depth -= 1;
        r
    }

    fn pattern_at_depth(&mut self) -> Result<Pattern, ParseError> {
        match self.next() {
            Some(Tok::Ident(x)) => Ok(Pattern::Var(x)),
            Some(Tok::Underscore) => Ok(Pattern::Wild),
            Some(Tok::Name(n)) => Ok(Pattern::Sym(Symbol::name(&n))),
            Some(Tok::True) => Ok(Pattern::Sym(Symbol::tt())),
            Some(Tok::False) => Ok(Pattern::Sym(Symbol::ff())),
            Some(Tok::Int(n)) => Ok(Pattern::Sym(Symbol::Int(n))),
            Some(Tok::Str(s)) => Ok(Pattern::Sym(Symbol::string(&s))),
            Some(Tok::Level(n)) => Ok(Pattern::Sym(Symbol::Level(n))),
            Some(Tok::LParen) => {
                let p1 = self.pattern()?;
                self.expect(Tok::Comma, "',' in pair pattern")?;
                let p2 = self.pattern()?;
                self.expect(Tok::RParen, "')' closing pair pattern")?;
                Ok(Pattern::Pair(Box::new(p1), Box::new(p2)))
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected a pattern".into()))
            }
        }
    }
}

/// Desugars `let pat = scrut in body` into core syntax (§2.2: compound
/// patterns are nested lets; patterns are threshold queries).
fn desugar_let(pat: &Pattern, scrut: TermRef, body: TermRef, fresh: &mut u32) -> TermRef {
    match pat {
        Pattern::Var(x) => builder::let_in(x, scrut, body),
        Pattern::Wild => builder::let_in("_", scrut, body),
        Pattern::Sym(s) => builder::let_sym(s.clone(), scrut, body),
        // Two plain variables map directly onto the core form.
        Pattern::Pair(p1, p2)
            if matches!(&**p1, Pattern::Var(_) | Pattern::Wild)
                && matches!(&**p2, Pattern::Var(_) | Pattern::Wild) =>
        {
            let nm = |p: &Pattern| match p {
                Pattern::Var(x) => x.clone(),
                _ => "_".to_string(),
            };
            Arc::new(Term::LetPair(
                Arc::from(nm(p1).as_str()),
                Arc::from(nm(p2).as_str()),
                scrut,
                body,
            ))
        }
        Pattern::Pair(p1, p2) => {
            *fresh += 1;
            let x1 = format!("%p{fresh}a");
            let x2 = format!("%p{fresh}b");
            let inner = desugar_let(
                p2,
                builder::var(&x2),
                desugar_let(p1, builder::var(&x1), body, fresh),
                fresh,
            );
            Arc::new(Term::LetPair(
                Arc::from(x1.as_str()),
                Arc::from(x2.as_str()),
                scrut,
                inner,
            ))
        }
    }
}

/// Desugars `case e { 'tag p -> body | … }` into the paper's join-of-
/// threshold-queries encoding (§2.2).
fn desugar_case(scrut: TermRef, arms: Vec<(String, Pattern, TermRef)>) -> TermRef {
    let mut fresh = 0;
    let clauses: Vec<TermRef> = arms
        .into_iter()
        .map(|(tag, pat, body)| {
            let tag_var = "%tag";
            let pay_var = "%payload";
            let matched = desugar_let(&pat, builder::var(pay_var), body, &mut fresh);
            Arc::new(Term::LetPair(
                Arc::from(tag_var),
                Arc::from(pay_var),
                builder::var("%scrut"),
                builder::let_sym(Symbol::name(&tag), builder::var(tag_var), matched),
            )) as TermRef
        })
        .collect();
    builder::let_in("%scrut", scrut, builder::joins(clauses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::machine::Machine;

    fn p(s: &str) -> TermRef {
        parse(s).unwrap_or_else(|e| panic!("{e} in {s:?}"))
    }

    /// The machine's observation of `t` after up to `fuel` passes.
    fn run(t: TermRef, fuel: usize) -> TermRef {
        let mut m = Machine::new(t);
        m.run(fuel);
        m.observe()
    }

    #[test]
    fn deep_nesting_bomb_errors_instead_of_overflowing() {
        // A parser bomb: nesting far past the cap must produce a clean
        // ParseError, never a native stack overflow (which would abort a
        // serving process and is uncatchable).
        for bomb in [
            format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000)),
            format!("{}1{}", "{".repeat(100_000), "}".repeat(100_000)),
            "\\x. ".repeat(100_000) + "x",
            format!("{}1", "frz ".repeat(100_000)),
            format!(
                "let {}x{} = 1 in x",
                "(".repeat(100_000),
                ", y)".repeat(100_000)
            ),
        ] {
            // Reaching here at all is the property: a clean Err, no abort.
            parse(&bomb).expect_err("bomb must be rejected");
        }
        // The canonical paren bomb trips the depth cap specifically.
        let parens = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
        let err = parse(&parens).expect_err("paren bomb rejected");
        assert!(
            err.msg.contains("nesting deeper"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn reasonable_nesting_is_well_within_the_cap() {
        // Several times deeper than any real program here (the deepest
        // displayed encoding nests 8), comfortably inside the debug cap.
        let deep = format!("{}7{}", "(".repeat(32), ")".repeat(32));
        assert!(p(&deep).alpha_eq(&int(7)));
        let lams = "\\x. ".repeat(32) + "x";
        assert!(parse(&lams).is_ok());
        // Nested pair patterns pass through the same guard.
        assert!(parse("let ((a, b), (c, d)) = ((1, 2), (3, 4)) in a").is_ok());
    }

    #[test]
    fn atoms_parse() {
        assert!(p("bot").alpha_eq(&bot()));
        assert!(p("top").alpha_eq(&top()));
        assert!(p("botv").alpha_eq(&botv()));
        assert!(p("42").alpha_eq(&int(42)));
        assert!(p("'hello").alpha_eq(&name("hello")));
        assert!(p("\"hi\\n\"").alpha_eq(&string("hi\n")));
        assert!(p("`7").alpha_eq(&level(7)));
        assert!(p("true").alpha_eq(&tt()));
        assert!(p("()").alpha_eq(&unit()));
    }

    #[test]
    fn lambda_and_application() {
        assert!(p("\\x. x").alpha_eq(&lam("x", var("x"))));
        assert!(p("\\x y. x").alpha_eq(&lam("x", lam("y", var("x")))));
        assert!(p("f x y").alpha_eq(&app(app(var("f"), var("x")), var("y"))));
        assert!(p("f (g x)").alpha_eq(&app(var("f"), app(var("g"), var("x")))));
    }

    #[test]
    fn join_precedence() {
        assert!(p("1 \\/ 2 \\/ 3").alpha_eq(&join(int(1), join(int(2), int(3)))));
        assert!(p("f x \\/ g y").alpha_eq(&join(app(var("f"), var("x")), app(var("g"), var("y")))));
        assert!(p("1 + 2 \\/ 3").alpha_eq(&join(add(int(1), int(2)), int(3))));
    }

    #[test]
    fn arithmetic_precedence() {
        assert!(p("1 + 2 * 3").alpha_eq(&add(int(1), mul(int(2), int(3)))));
        assert!(p("(1 + 2) * 3").alpha_eq(&mul(add(int(1), int(2)), int(3))));
        assert!(p("1 - 2 - 3").alpha_eq(&sub(sub(int(1), int(2)), int(3))));
        assert!(p("1 + 2 <= 3").alpha_eq(&le(add(int(1), int(2)), int(3))));
        assert!(p("-5").alpha_eq(&int(-5)));
    }

    #[test]
    fn sets_pairs_records() {
        assert!(p("{1, 2}").alpha_eq(&set(vec![int(1), int(2)])));
        assert!(p("{}").alpha_eq(&set(vec![])));
        assert!(p("(1, 2)").alpha_eq(&pair(int(1), int(2))));
        let r = p("{| a = 1; b = 2 |}");
        assert!(r.alpha_eq(&record(vec![("a", int(1)), ("b", int(2))])));
        assert!(p("r@a").alpha_eq(&project(var("r"), "a")));
    }

    #[test]
    fn let_forms_desugar() {
        assert!(p("let x = 1 in x").alpha_eq(&let_in("x", int(1), var("x"))));
        assert!(p("let 'ok = c in 1").alpha_eq(&let_sym(Symbol::name("ok"), var("c"), int(1))));
        // Pair pattern becomes LetPair + inner lets.
        let t = p("let (a, b) = p in a");
        let r = run(app(lam("p", t), pair(int(1), int(2))), 10);
        assert!(r.alpha_eq(&int(1)));
        // Compound pattern: let ('cons, (h, t)) = …
        let t = p("let ('cons, (h, t)) = ('cons, (5, 'nil)) in h");
        assert!(run(t, 10).alpha_eq(&int(5)));
    }

    #[test]
    fn big_join_parses() {
        assert!(p("for x in {1, 2}. {x + 1}").alpha_eq(&big_join(
            "x",
            set(vec![int(1), int(2)]),
            set(vec![add(var("x"), int(1))])
        )));
    }

    #[test]
    fn if_desugars_to_threshold_joins() {
        let t = p("if true then 1 else 2");
        assert!(run(t, 10).alpha_eq(&int(1)));
    }

    #[test]
    fn list_sugar() {
        assert!(p("1 :: 2 :: x").alpha_eq(&cons(int(1), cons(int(2), var("x")))));
    }

    #[test]
    fn case_sugar_runs() {
        let t = p("case 1 :: ('nil, botv) of { 'nil _ -> 0 | 'cons (h, _) -> h + 10 }");
        assert!(run(t, 20).alpha_eq(&int(11)));
    }

    #[test]
    fn let_rec_evens_parses_and_streams() {
        let t = p("let rec evens _ = {0} \\/ (for x in evens () . {x + 2}) in evens ()");
        // The big join over a still-growing set needs approximation steps to
        // fire (§3.2) — that is the bigstep evaluator's job, not the
        // small-step machine's.
        let obs = crate::bigstep::eval_fuel(&t, 40);
        let has = |n: i64| crate::observe::result_leq(&set(vec![int(n)]), &obs);
        assert!(has(0) && has(2), "got {obs}");
    }

    #[test]
    fn comments_are_skipped() {
        assert!(p("1 -- this is a comment\n + 2").alpha_eq(&add(int(1), int(2))));
    }

    #[test]
    fn errors_carry_positions() {
        let e = parse("let x = in x").unwrap_err();
        assert!(e.pos > 0);
        assert!(parse("(1, 2").is_err());
        assert!(parse("{1, }").is_err());
        assert!(parse("'").is_err());
        assert!(parse("\"abc").is_err());
    }

    #[test]
    fn display_round_trip_core_forms() {
        let samples = [
            "\\x. x \\/ {1, 2}",
            "let (a, b) = p in a",
            "for x in {1}. {x}",
            "(\\x. x) 1",
            "(1, (2, 3))",
            "1 + 2 * 3 <= 4",
            "bot \\/ top \\/ botv",
        ];
        for s in samples {
            let t1 = p(s);
            let printed = t1.to_string();
            let t2 = parse(&printed).unwrap_or_else(|e| panic!("{e} reparsing {printed:?}"));
            assert!(t1.alpha_eq(&t2), "round trip failed: {s} -> {printed}");
        }
    }

    use crate::symbol::Symbol;
}
