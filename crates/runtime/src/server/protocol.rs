//! The `lambdav serve` wire protocol: line-oriented requests in, one JSON
//! object per line out.
//!
//! Requests are a single line — a verb, `key=value` options, and (for
//! `eval`/`watch`) the λ∨ program as a JSON-quoted string, so programs may
//! contain any character including newlines:
//!
//! ```text
//! eval fuel=40 deadline_ms=500 "let rec evens _ = {0} \\/ (for x in evens () . {x + 2}) in evens ()"
//! watch fuel=24 step=4 "…"
//! ping
//! stats
//! quit
//! shutdown
//! ```
//!
//! Every reply is one flat JSON object terminated by `\n`, with a `kind`
//! field (`ok` / `obs` / `done` / `err` / `pong` / `stats`). Errors carry a
//! machine-readable `code` (see [`ErrorCode`]) and, for admission
//! rejections, a `retry_after_ms` hint. The JSON is hand-rolled — the
//! workspace is dependency-free by design — and [`FlatReply::parse`] is the
//! matching client-side reader used by the load generator and the chaos
//! suite.

use std::fmt::{self, Write};

/// Structured error categories, the `code` field of an `err` reply.
///
/// The first three are the per-request budget outcomes the engine
/// distinguishes ([`lambda_join_core::engine::StopCause`] plus ordinary
/// fuel exhaustion); the rest are protocol- and admission-level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The per-path fuel (or β valve) ran out: the reply carries the
    /// partial observation under `result` — a sound approximation, per the
    /// fueled semantics.
    FuelExhausted,
    /// The wall-clock deadline passed mid-evaluation.
    DeadlineExceeded,
    /// Arena growth exceeded the request's node quota.
    QuotaExceeded,
    /// Evaluation was cancelled (server shutting down mid-request).
    Cancelled,
    /// Admission control shed this request; retry after `retry_after_ms`.
    Overloaded,
    /// The request line did not parse (unknown verb, bad option, broken
    /// quoting).
    Malformed,
    /// The request line exceeded the server's size cap, or arrived too
    /// slowly (slowloris).
    TooLarge,
    /// The program source did not parse as λ∨.
    ParseError,
    /// The program has free variables.
    FreeVars,
    /// A request outside server limits (e.g. fuel above the per-request
    /// cap) — retrying unchanged will never succeed.
    BadRequest,
    /// The request body panicked; the session survives, the panic is
    /// contained.
    InternalPanic,
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire name of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::FuelExhausted => "fuel_exhausted",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::QuotaExceeded => "quota_exceeded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Malformed => "malformed",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::ParseError => "parse_error",
            ErrorCode::FreeVars => "free_vars",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::InternalPanic => "internal_panic",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }

    /// Every code the server can emit (the chaos suite asserts all
    /// observed errors are drawn from this set).
    pub fn all() -> &'static [ErrorCode] {
        &[
            ErrorCode::FuelExhausted,
            ErrorCode::DeadlineExceeded,
            ErrorCode::QuotaExceeded,
            ErrorCode::Cancelled,
            ErrorCode::Overloaded,
            ErrorCode::Malformed,
            ErrorCode::TooLarge,
            ErrorCode::ParseError,
            ErrorCode::FreeVars,
            ErrorCode::BadRequest,
            ErrorCode::InternalPanic,
            ErrorCode::ShuttingDown,
        ]
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A request verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Evaluate a program to its observation at the request's fuel.
    Eval,
    /// Stream the fixpoint observations at increasing fuel.
    Watch,
    /// Liveness probe.
    Ping,
    /// Server statistics.
    Stats,
    /// Close this session.
    Quit,
    /// Ask the server to shut down (ctrl channel).
    Shutdown,
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// The verb.
    pub verb: Verb,
    /// `fuel=N` — per-path fuel.
    pub fuel: Option<usize>,
    /// `deadline_ms=N` — wall-clock budget for the whole request.
    pub deadline_ms: Option<u64>,
    /// `quota=N` — arena-node growth quota.
    pub quota: Option<usize>,
    /// `betas=N` — global β valve.
    pub betas: Option<usize>,
    /// `step=N` — fuel increment between `watch` observations.
    pub step: Option<usize>,
    /// The program source (`eval`/`watch`).
    pub source: Option<String>,
}

/// A malformed request, with the [`ErrorCode`] the reply should carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Which error category this is (`Malformed` or `BadRequest`).
    pub code: ErrorCode,
    /// Human-readable detail for the `msg` field.
    pub msg: String,
}

fn malformed(msg: impl Into<String>) -> RequestError {
    RequestError {
        code: ErrorCode::Malformed,
        msg: msg.into(),
    }
}

/// Parses one request line. `line` excludes the trailing newline.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    // The quoted source (if any) starts at the first `"`; everything
    // before it is whitespace-separated verb + options.
    let (head, quoted) = match line.find('"') {
        Some(i) => (&line[..i], Some(&line[i..])),
        None => (line, None),
    };
    let mut words = head.split_whitespace();
    let verb = match words.next() {
        Some("eval") => Verb::Eval,
        Some("watch") => Verb::Watch,
        Some("ping") => Verb::Ping,
        Some("stats") => Verb::Stats,
        Some("quit") => Verb::Quit,
        Some("shutdown") => Verb::Shutdown,
        Some(other) => return Err(malformed(format!("unknown verb {other:?}"))),
        None => return Err(malformed("empty request")),
    };
    let mut req = Request {
        verb,
        fuel: None,
        deadline_ms: None,
        quota: None,
        betas: None,
        step: None,
        source: None,
    };
    for w in words {
        let (k, v) = w
            .split_once('=')
            .ok_or_else(|| malformed(format!("expected key=value option, got {w:?}")))?;
        let parse_num = |what: &str| {
            v.parse::<u64>()
                .map_err(|_| malformed(format!("{what} must be a non-negative integer, got {v:?}")))
        };
        match k {
            "fuel" => req.fuel = Some(parse_num("fuel")? as usize),
            "deadline_ms" => req.deadline_ms = Some(parse_num("deadline_ms")?),
            "quota" => req.quota = Some(parse_num("quota")? as usize),
            "betas" => req.betas = Some(parse_num("betas")? as usize),
            "step" => req.step = Some(parse_num("step")? as usize),
            other => return Err(malformed(format!("unknown option {other:?}"))),
        }
    }
    if let Some(q) = quoted {
        let (source, rest) = json_unquote(q).map_err(malformed)?;
        if !rest.trim().is_empty() {
            return Err(malformed("trailing input after quoted program"));
        }
        req.source = Some(source);
    }
    match req.verb {
        Verb::Eval | Verb::Watch if req.source.is_none() => {
            Err(malformed("eval/watch need a JSON-quoted program"))
        }
        _ => Ok(req),
    }
}

// ------------------------------------------------------------- JSON out --

/// Escapes `s` as the *contents* of a JSON string (no surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json_escape_into(&mut out, s);
    out
}

/// Appends the JSON-escaped contents of `s` to `out`. Runs of bytes that
/// need no escaping are copied whole; every byte that does is ASCII, so
/// each run ends on a `char` boundary.
fn json_escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if esc.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(esc);
        }
    }
    out.push_str(&s[run..]);
}

/// Parses a JSON string starting at the leading `"` of `s`; returns the
/// decoded contents and the remainder after the closing quote.
pub fn json_unquote(s: &str) -> Result<(String, &str), String> {
    let rest = s
        .strip_prefix('"')
        .ok_or_else(|| "expected opening quote".to_string())?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &rest[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                        code = code * 16 + h.to_digit(16).ok_or("bad hex in \\u escape")?;
                    }
                    // Surrogates are not produced by our own escaper;
                    // reject rather than mis-decode.
                    let c = char::from_u32(code).ok_or("\\u escape is not a scalar value")?;
                    out.push(c);
                }
                Some((_, other)) => return Err(format!("unknown escape \\{other}")),
                None => return Err("truncated escape".into()),
            },
            c if (c as u32) < 0x20 => return Err("raw control character in string".into()),
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

/// An incremental flat-JSON-object writer (insertion order preserved).
///
/// Fields are escaped straight into one buffer that already holds the
/// opening `{`, so [`Obj::into_line`] hands back the finished reply line
/// without another copy.
#[derive(Debug)]
pub struct Obj {
    body: String,
}

impl Default for Obj {
    fn default() -> Obj {
        Obj {
            body: String::from("{"),
        }
    }
}

impl Obj {
    /// Starts an object with its `kind` field.
    pub fn kind(kind: &str) -> Obj {
        let mut o = Obj::default();
        o.push_str("kind", kind);
        o
    }

    /// Writes the separator and `"k":`.
    fn key(&mut self, k: &str) {
        if self.body.len() > 1 {
            self.body.push(',');
        }
        self.body.push('"');
        json_escape_into(&mut self.body, k);
        self.body.push_str("\":");
    }

    /// Adds a string field.
    pub fn push_str(&mut self, k: &str, v: &str) -> &mut Obj {
        self.key(k);
        self.body.reserve(v.len() + 2);
        self.body.push('"');
        json_escape_into(&mut self.body, v);
        self.body.push('"');
        self
    }

    /// Adds an unsigned numeric field.
    pub fn push_num(&mut self, k: &str, v: u64) -> &mut Obj {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    /// Adds a boolean field.
    pub fn push_bool(&mut self, k: &str, v: bool) -> &mut Obj {
        self.key(k);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    /// Finishes the object (no trailing newline).
    pub fn finish(&self) -> String {
        let mut line = String::with_capacity(self.body.len() + 1);
        line.push_str(&self.body);
        line.push('}');
        line
    }

    /// Finishes the object as a reply line: the JSON text and its
    /// terminating `\n`, ready for a single write.
    pub fn into_line(mut self) -> String {
        self.body.push_str("}\n");
        self.body
    }
}

// -------------------------------------------------------------- JSON in --

/// One scalar value of a flat reply object.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A JSON string.
    Str(String),
    /// A JSON number (integral; the protocol emits no fractions).
    Num(i64),
    /// A JSON boolean.
    Bool(bool),
}

/// A parsed reply line: a flat JSON object. This is the *client* half of
/// the protocol — the load generator and chaos suite use it to check every
/// byte the server emits is well-formed.
#[derive(Debug, Clone, Default)]
pub struct FlatReply {
    fields: Vec<(String, Scalar)>,
}

impl FlatReply {
    /// Parses one reply line as a flat JSON object.
    pub fn parse(line: &str) -> Result<FlatReply, String> {
        let line = line.trim();
        let inner = line
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| format!("not a JSON object: {line:?}"))?;
        let mut fields = Vec::new();
        let mut rest = inner.trim_start();
        while !rest.is_empty() {
            let (key, after_key) = json_unquote(rest)?;
            rest = after_key
                .trim_start()
                .strip_prefix(':')
                .ok_or("expected ':' after key")?
                .trim_start();
            let value;
            if rest.starts_with('"') {
                let (s, after) = json_unquote(rest)?;
                value = Scalar::Str(s);
                rest = after;
            } else {
                let end = rest.find([',', '}']).unwrap_or(rest.len()).min(rest.len());
                let tok = rest[..end].trim();
                value = match tok {
                    "true" => Scalar::Bool(true),
                    "false" => Scalar::Bool(false),
                    _ => Scalar::Num(
                        tok.parse::<i64>()
                            .map_err(|_| format!("bad scalar {tok:?}"))?,
                    ),
                };
                rest = &rest[end..];
            }
            fields.push((key, value));
            rest = rest.trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
                if rest.is_empty() {
                    return Err("trailing comma".into());
                }
            } else if !rest.is_empty() {
                return Err(format!("expected ',' between fields, got {rest:?}"));
            }
        }
        Ok(FlatReply { fields })
    }

    /// The value of field `k`, if present.
    pub fn get(&self, k: &str) -> Option<&Scalar> {
        self.fields.iter().find(|(key, _)| key == k).map(|(_, v)| v)
    }

    /// The string value of field `k`, if present and a string.
    pub fn str_of(&self, k: &str) -> Option<&str> {
        match self.get(k) {
            Some(Scalar::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The numeric value of field `k`, if present and a number.
    pub fn num_of(&self, k: &str) -> Option<i64> {
        match self.get(k) {
            Some(Scalar::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// The `kind` field (every server reply has one).
    pub fn kind(&self) -> Option<&str> {
        self.str_of("kind")
    }

    /// For `err` replies, the parsed [`ErrorCode`].
    pub fn error_code(&self) -> Option<ErrorCode> {
        let code = self.str_of("code")?;
        ErrorCode::all()
            .iter()
            .copied()
            .find(|c| c.as_str() == code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let r = parse_request(r#"eval fuel=40 deadline_ms=500 "1 \\/ {2}""#).unwrap();
        assert_eq!(r.verb, Verb::Eval);
        assert_eq!(r.fuel, Some(40));
        assert_eq!(r.deadline_ms, Some(500));
        assert_eq!(r.source.as_deref(), Some(r"1 \/ {2}"));

        assert_eq!(parse_request("ping").unwrap().verb, Verb::Ping);
        assert_eq!(parse_request("shutdown").unwrap().verb, Verb::Shutdown);
    }

    #[test]
    fn request_errors_are_malformed() {
        for bad in [
            "",
            "explode",
            "eval",                // missing program
            "eval fuel=abc \"1\"", // non-numeric option
            "eval feul=40 \"1\"",  // unknown option (typo)
            "eval \"unterminated", // broken quoting
            "eval \"1\" trailing", // trailing junk
            "eval fuel \"1\"",     // option without '='
        ] {
            let err = parse_request(bad).expect_err(bad);
            assert_eq!(err.code, ErrorCode::Malformed, "for {bad:?}");
        }
    }

    #[test]
    fn json_escape_unquote_round_trip() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslash",
            "newline\nand\ttab",
            "unicode ⊥ ⋁ λ∨",
            "\u{1}\u{1f}control",
        ] {
            let quoted = format!("\"{}\"", json_escape(s));
            let (back, rest) = json_unquote(&quoted).unwrap();
            assert_eq!(back, s);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn obj_builds_flat_json_that_flat_reply_parses() {
        let mut o = Obj::kind("err");
        o.push_str("code", "overloaded")
            .push_num("retry_after_ms", 75)
            .push_bool("exhausted", false)
            .push_str("msg", "λ∨ says \"try later\"");
        let line = o.finish();
        let r = FlatReply::parse(&line).unwrap();
        assert_eq!(r.kind(), Some("err"));
        assert_eq!(r.error_code(), Some(ErrorCode::Overloaded));
        assert_eq!(r.num_of("retry_after_ms"), Some(75));
        assert_eq!(r.get("exhausted"), Some(&Scalar::Bool(false)));
        assert_eq!(r.str_of("msg"), Some("λ∨ says \"try later\""));
    }

    #[test]
    fn flat_reply_rejects_garbage() {
        for bad in ["", "not json", "{\"a\":}", "{\"a\":1,}", "{\"a\" 1}"] {
            assert!(FlatReply::parse(bad).is_err(), "{bad:?}");
        }
    }
}
