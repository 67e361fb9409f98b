//! One connected client: a bounded line reader, a request dispatcher, and
//! the budgeted evaluation path.
//!
//! Failure isolation lives here. Each request body runs under
//! `catch_unwind`, so a panic produces an `internal_panic` reply and the
//! session (and server) keep going. The line reader polls in short ticks
//! so a stalled client cannot pin the session past its idle timeout, a
//! drip-feeding client (slowloris) cannot hold a partial line open past
//! the per-line deadline, and shutdown is noticed between ticks. Writes
//! carry an OS write timeout, so a reader that stops draining its socket
//! gets disconnected instead of wedging the session. A `watch` collects
//! its ready reply lines and writes them together just before each
//! engine run and once after its terminal line, so a stream answered
//! from the reply cache leaves in one write; a failed write surfaces
//! there and cancels the remaining fuel steps before the next run.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lambda_join_core::display::pretty;
use lambda_join_core::engine::{self, Budget, StopCause};
use lambda_join_core::sharded::SharedInternTable;
use lambda_join_core::term::TermRef;

use super::protocol::{json_escape, parse_request, ErrorCode, Obj, Request, RequestError, Verb};
use super::{Observation, ServerState};

/// Poll granularity of the blocking reader: how often timeouts and the
/// shutdown flag are re-checked while waiting for bytes.
const READ_TICK: Duration = Duration::from_millis(25);

/// What the bounded line reader produced.
enum LineEvent {
    /// A complete request line (newline stripped).
    Line(String),
    /// Clean end of stream.
    Eof,
    /// The line exceeded the configured byte cap.
    TooLong,
    /// A partial line sat incomplete past the per-line deadline.
    Slowloris,
    /// No bytes at all for the idle window.
    Idle,
    /// Server shutdown was requested.
    Shutdown,
    /// Hard I/O error.
    Io,
}

/// Reads newline-delimited lines with byte caps and per-line deadlines.
struct LineReader {
    buf: Vec<u8>,
    /// How much of `buf` is known to hold no newline, so each pass scans
    /// only the bytes that arrived since the last one.
    scanned: usize,
    /// When the currently-accumulating partial line started.
    line_started: Option<Instant>,
    last_byte: Instant,
}

impl LineReader {
    fn new() -> LineReader {
        LineReader {
            buf: Vec::new(),
            scanned: 0,
            line_started: None,
            last_byte: Instant::now(),
        }
    }

    fn take_line(&mut self, at: usize) -> String {
        let rest = self.buf.split_off(at + 1);
        self.buf.pop(); // the newline
        if self.buf.last() == Some(&b'\r') {
            self.buf.pop();
        }
        let line = String::from_utf8_lossy(&self.buf).into_owned();
        self.buf = rest;
        self.scanned = 0;
        if self.buf.is_empty() {
            self.line_started = None;
        } else {
            self.line_started = Some(Instant::now());
        }
        line
    }

    fn next_line(&mut self, stream: &mut TcpStream, state: &ServerState) -> LineEvent {
        let cfg = &state.cfg;
        loop {
            let unscanned = &self.buf[self.scanned..];
            if let Some(i) = unscanned.iter().position(|&b| b == b'\n') {
                let i = self.scanned + i;
                if i > cfg.max_line_bytes {
                    return LineEvent::TooLong;
                }
                return LineEvent::Line(self.take_line(i));
            }
            self.scanned = self.buf.len();
            if state.shutdown.load(Ordering::Acquire) {
                return LineEvent::Shutdown;
            }
            if self.buf.len() > cfg.max_line_bytes {
                return LineEvent::TooLong;
            }
            if let Some(started) = self.line_started {
                if started.elapsed() > Duration::from_millis(cfg.line_deadline_ms) {
                    return LineEvent::Slowloris;
                }
            }
            if self.last_byte.elapsed() > Duration::from_millis(cfg.idle_timeout_ms) {
                return LineEvent::Idle;
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return LineEvent::Eof,
                Ok(n) => {
                    if self.buf.is_empty() {
                        self.line_started = Some(Instant::now());
                    }
                    self.last_byte = Instant::now();
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Tick elapsed with no bytes; loop to re-check limits.
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return LineEvent::Io,
            }
        }
    }
}

/// Writes whole reply lines in a single `write_all`, so with
/// `TCP_NODELAY` they leave together, and counts it in `reply_writes`.
fn write_lines(stream: &mut TcpStream, state: &ServerState, lines: &str) -> std::io::Result<()> {
    state.reply_writes.fetch_add(1, Ordering::Relaxed);
    stream.write_all(lines.as_bytes())
}

/// Writes one reply line — the JSON text and its `\n`.
fn send(stream: &mut TcpStream, state: &ServerState, reply: Obj) -> std::io::Result<()> {
    write_lines(stream, state, &reply.into_line())
}

fn err_obj(code: ErrorCode, msg: &str) -> Obj {
    let mut o = Obj::kind("err");
    o.push_str("code", code.as_str()).push_str("msg", msg);
    o
}

fn send_err(
    stream: &mut TcpStream,
    state: &ServerState,
    code: ErrorCode,
    msg: &str,
) -> std::io::Result<()> {
    send(stream, state, err_obj(code, msg))
}

/// Runs one session to completion. Spawned on the server's `Crew`; any
/// panic that escapes (there should be none — request bodies are caught
/// individually) is absorbed by the crew's own `catch_unwind`.
pub(super) fn run_session(mut stream: TcpStream, state: Arc<ServerState>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(state.cfg.write_timeout_ms)));

    let mut reader = LineReader::new();
    loop {
        match reader.next_line(&mut stream, &state) {
            LineEvent::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                match handle_line(&line, &mut stream, &state) {
                    Flow::Continue => {}
                    Flow::Close => break,
                }
            }
            LineEvent::Eof | LineEvent::Io => break,
            LineEvent::Idle => {
                let _ = send_err(
                    &mut stream,
                    &state,
                    ErrorCode::TooLarge,
                    "idle timeout, closing",
                );
                break;
            }
            LineEvent::TooLong => {
                let _ = send_err(
                    &mut stream,
                    &state,
                    ErrorCode::TooLarge,
                    &format!("request line exceeds {} bytes", state.cfg.max_line_bytes),
                );
                break;
            }
            LineEvent::Slowloris => {
                let _ = send_err(
                    &mut stream,
                    &state,
                    ErrorCode::TooLarge,
                    &format!(
                        "request line incomplete after {} ms, closing",
                        state.cfg.line_deadline_ms
                    ),
                );
                break;
            }
            LineEvent::Shutdown => {
                let _ = send_err(
                    &mut stream,
                    &state,
                    ErrorCode::ShuttingDown,
                    "server shutting down",
                );
                break;
            }
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

enum Flow {
    Continue,
    Close,
}

fn handle_line(line: &str, stream: &mut TcpStream, state: &Arc<ServerState>) -> Flow {
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(RequestError { code, msg }) => {
            state.rejected_total.fetch_add(1, Ordering::Relaxed);
            return match send_err(stream, state, code, &msg) {
                Ok(()) => Flow::Continue,
                Err(_) => Flow::Close,
            };
        }
    };
    let sent = match req.verb {
        Verb::Ping => send(stream, state, Obj::kind("pong")),
        Verb::Stats => send(stream, state, state.stats_obj()),
        Verb::Quit => {
            let mut o = Obj::kind("ok");
            o.push_str("msg", "bye");
            let _ = send(stream, state, o);
            return Flow::Close;
        }
        Verb::Shutdown => {
            let mut o = Obj::kind("ok");
            o.push_str("msg", "shutting down");
            let _ = send(stream, state, o);
            state.trigger_shutdown();
            return Flow::Close;
        }
        Verb::Eval | Verb::Watch => return handle_eval(req, stream, state),
    };
    match sent {
        Ok(()) => Flow::Continue,
        Err(_) => Flow::Close,
    }
}

/// The outcome of one observation request at one fuel.
enum StepOutcome {
    /// The observation at this fuel (the fueled semantics' sound answer;
    /// when fuel or the β valve ran dry mid-path, a sound lower bound).
    Observed(Observation),
    /// A request limit tripped ([`StopCause`]).
    Stopped(StopCause),
    /// The engine panicked; contained.
    Panicked,
}

/// One admitted `eval` or `watch`: its program and its limits.
struct Job<'a> {
    source: &'a str,
    term: TermRef,
    /// The β valve, if the request set one.
    betas: Option<usize>,
    deadline: Instant,
    quota: usize,
}

impl Job<'_> {
    /// The request cache's rendered observation at `fuel`, if it has one.
    /// A request that set a β valve is never answered from it: where a
    /// cut falls depends on how warm the memo is.
    fn cached(&self, fuel: usize, state: &ServerState) -> Option<Observation> {
        match self.betas {
            None => state.cached_observation(self.source, fuel),
            Some(_) => None,
        }
    }

    /// A budgeted engine run at `fuel`, rendered and escaped. A fresh
    /// observation is cached unless the request set a β valve; stopped
    /// and panicked runs never are.
    fn run(&self, fuel: usize, state: &ServerState, memo: &SharedInternTable) -> StepOutcome {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut budget = Budget::new(self.betas.unwrap_or(usize::MAX))
                .with_deadline(self.deadline)
                .with_cancel(state.shutdown.clone())
                .with_node_quota(self.quota);
            let r = engine::run(&self.term, fuel, &mut budget, memo);
            (r, budget)
        }));
        match result {
            Err(_) => {
                state.panics_total.fetch_add(1, Ordering::Relaxed);
                StepOutcome::Panicked
            }
            Ok((r, budget)) => match budget.stop_cause() {
                Some(cause) => StepOutcome::Stopped(cause),
                None => {
                    let obs = Observation {
                        exhausted: budget.exhausted(),
                        escaped: json_escape(&pretty(&r)).into(),
                    };
                    if self.betas.is_none() {
                        state.cache_observation(self.source, fuel, obs.clone());
                    }
                    StepOutcome::Observed(obs)
                }
            },
        }
    }
}

fn stop_reply(cause: StopCause) -> Obj {
    match cause {
        StopCause::Deadline => err_obj(ErrorCode::DeadlineExceeded, "wall-clock deadline passed"),
        StopCause::Cancelled => err_obj(ErrorCode::Cancelled, "evaluation cancelled by shutdown"),
        StopCause::NodeQuota => err_obj(ErrorCode::QuotaExceeded, "arena node quota exceeded"),
    }
}

fn handle_eval(req: Request, stream: &mut TcpStream, state: &Arc<ServerState>) -> Flow {
    let cfg = &state.cfg;
    let reject = |stream: &mut TcpStream, state: &Arc<ServerState>, code, msg: &str| {
        state.rejected_total.fetch_add(1, Ordering::Relaxed);
        match send_err(stream, state, code, msg) {
            Ok(()) => Flow::Continue,
            Err(_) => Flow::Close,
        }
    };

    let fuel = req.fuel.unwrap_or(cfg.default_fuel);
    if fuel > cfg.max_fuel {
        return reject(
            stream,
            state,
            ErrorCode::BadRequest,
            &format!("fuel {fuel} exceeds the per-request cap {}", cfg.max_fuel),
        );
    }
    let deadline_ms = req
        .deadline_ms
        .unwrap_or(cfg.default_deadline_ms)
        .min(cfg.max_deadline_ms);
    let source = req.source.unwrap_or_default();
    let term = match state.program(&source) {
        Ok(t) => t,
        Err((code, msg)) => return reject(stream, state, code, &msg),
    };

    // Admission: reserve fuel credits for the whole request before any
    // engine work happens.
    let permit = match state.gate.acquire(fuel as u64) {
        Ok(p) => p,
        Err(retry_after_ms) => {
            state.rejected_total.fetch_add(1, Ordering::Relaxed);
            let mut o = err_obj(ErrorCode::Overloaded, "fuel credits exhausted, retry later");
            o.push_num("retry_after_ms", retry_after_ms);
            return match send(stream, state, o) {
                Ok(()) => Flow::Continue,
                Err(_) => Flow::Close,
            };
        }
    };
    state.requests_total.fetch_add(1, Ordering::Relaxed);

    // Every admitted request opens a memo generation: "recently used" for
    // the compactor means "touched within the last N admitted requests".
    let memo = state.memo_handle();
    memo.begin_generation();
    let started = Instant::now();
    let job = Job {
        source: &source,
        term,
        betas: req.betas,
        deadline: started + Duration::from_millis(deadline_ms),
        quota: req.quota.unwrap_or(cfg.default_node_quota),
    };

    let flow = match req.verb {
        Verb::Eval => {
            let outcome = match job.cached(fuel, state) {
                Some(obs) => StepOutcome::Observed(obs),
                None => job.run(fuel, state, &memo),
            };
            // The engine work is over: release the fuel credits before the
            // reply write, so a client that has seen its reply can rely on
            // the gate having been released.
            drop(permit);
            let obj = match outcome {
                StepOutcome::Observed(obs) if !obs.exhausted => {
                    let mut o = Obj::kind("ok");
                    o.push_escaped("result", &obs.escaped)
                        .push_num("fuel", fuel as u64)
                        .push_num("wall_us", started.elapsed().as_micros() as u64);
                    o
                }
                StepOutcome::Observed(obs) => {
                    let mut o = err_obj(
                        ErrorCode::FuelExhausted,
                        "fuel ran out; result is the partial observation",
                    );
                    o.push_escaped("result", &obs.escaped)
                        .push_num("fuel", fuel as u64);
                    o
                }
                StepOutcome::Stopped(cause) => stop_reply(cause),
                StepOutcome::Panicked => {
                    err_obj(ErrorCode::InternalPanic, "evaluation panicked; contained")
                }
            };
            match send(stream, state, obj) {
                Ok(()) => Flow::Continue,
                Err(_) => Flow::Close,
            }
        }
        Verb::Watch => watch_loop(&job, fuel, req.step, state, stream, &memo),
        _ => unreachable!("handle_eval called for eval/watch only"),
    };
    state.maybe_collect();
    flow
}

/// Streams the fixpoint observations of `job` at increasing fuel. Reply
/// lines collect in one buffer, written just before each engine run (a
/// reply-cache miss) and once after the terminal line: an observation is
/// on the wire before the next run starts, and the cached points between
/// two runs leave in one write. Only cached observations pile up between
/// writes, so a burst is bounded by `REQUEST_CACHE_BYTES` plus framing.
/// A write failure means the client is gone (or stopped draining): the
/// remaining steps are cancelled rather than computed into the void.
fn watch_loop(
    job: &Job,
    fuel: usize,
    step: Option<usize>,
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    memo: &SharedInternTable,
) -> Flow {
    let step = step.unwrap_or(1).max(1);
    let mut ready = String::new();
    let mut last: Option<Arc<str>> = None;
    let mut steps = 0u64;
    let mut f = 0usize;
    let terminal = loop {
        let outcome = match job.cached(f, state) {
            Some(obs) => StepOutcome::Observed(obs),
            None => {
                if !ready.is_empty() {
                    if write_lines(stream, state, &ready).is_err() {
                        // Disconnect mid-stream: stop evaluating.
                        return Flow::Close;
                    }
                    ready.clear();
                }
                job.run(f, state, memo)
            }
        };
        match outcome {
            StepOutcome::Observed(obs) => {
                if last.as_deref() != Some(&*obs.escaped) {
                    let mut o = Obj::kind("obs");
                    o.push_num("fuel", f as u64)
                        .push_escaped("result", &obs.escaped);
                    ready.push_str(&o.into_line());
                    last = Some(obs.escaped);
                }
                steps += 1;
            }
            StepOutcome::Stopped(cause) => break stop_reply(cause),
            StepOutcome::Panicked => {
                break err_obj(ErrorCode::InternalPanic, "evaluation panicked; contained")
            }
        }
        if f >= fuel {
            let mut o = Obj::kind("done");
            o.push_num("fuel", fuel as u64).push_num("steps", steps);
            break o;
        }
        f = (f + step).min(fuel);
    };
    ready.push_str(&terminal.into_line());
    match write_lines(stream, state, &ready) {
        Ok(()) => Flow::Continue,
        Err(_) => Flow::Close,
    }
}
