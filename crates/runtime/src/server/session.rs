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
//! gets disconnected instead of wedging the session; for `watch`, a
//! failed write cancels the remaining fuel steps immediately.

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

use super::protocol::{parse_request, ErrorCode, Obj, Request, RequestError, Verb};
use super::ServerState;

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
    /// When the currently-accumulating partial line started.
    line_started: Option<Instant>,
    last_byte: Instant,
}

impl LineReader {
    fn new() -> LineReader {
        LineReader {
            buf: Vec::new(),
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
            if let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
                return LineEvent::Line(self.take_line(i));
            }
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

/// Writes one reply line — the JSON text and its `\n` — in a single
/// `write_all`, so with `TCP_NODELAY` each reply leaves as one segment.
fn send(stream: &mut TcpStream, reply: Obj) -> std::io::Result<()> {
    stream.write_all(reply.into_line().as_bytes())
}

fn err_obj(code: ErrorCode, msg: &str) -> Obj {
    let mut o = Obj::kind("err");
    o.push_str("code", code.as_str()).push_str("msg", msg);
    o
}

fn send_err(stream: &mut TcpStream, code: ErrorCode, msg: &str) -> std::io::Result<()> {
    send(stream, err_obj(code, msg))
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
                let _ = send_err(&mut stream, ErrorCode::TooLarge, "idle timeout, closing");
                break;
            }
            LineEvent::TooLong => {
                let _ = send_err(
                    &mut stream,
                    ErrorCode::TooLarge,
                    &format!("request line exceeds {} bytes", state.cfg.max_line_bytes),
                );
                break;
            }
            LineEvent::Slowloris => {
                let _ = send_err(
                    &mut stream,
                    ErrorCode::TooLarge,
                    &format!(
                        "request line incomplete after {} ms, closing",
                        state.cfg.line_deadline_ms
                    ),
                );
                break;
            }
            LineEvent::Shutdown => {
                let _ = send_err(&mut stream, ErrorCode::ShuttingDown, "server shutting down");
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
            return match send_err(stream, code, &msg) {
                Ok(()) => Flow::Continue,
                Err(_) => Flow::Close,
            };
        }
    };
    let sent = match req.verb {
        Verb::Ping => send(stream, Obj::kind("pong")),
        Verb::Stats => send(stream, state.stats_obj()),
        Verb::Quit => {
            let mut o = Obj::kind("ok");
            o.push_str("msg", "bye");
            let _ = send(stream, o);
            return Flow::Close;
        }
        Verb::Shutdown => {
            let mut o = Obj::kind("ok");
            o.push_str("msg", "shutting down");
            let _ = send(stream, o);
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

/// The outcome of one budgeted engine run.
enum StepOutcome {
    /// Ran to its fuel's observation (the fueled semantics' sound answer).
    Done(String),
    /// Fuel/β valve ran dry mid-path; the partial observation is still a
    /// sound lower bound.
    Exhausted(String),
    /// A request limit tripped ([`StopCause`]).
    Stopped(StopCause),
    /// The engine panicked; contained.
    Panicked,
}

fn run_step(
    term: &TermRef,
    fuel: usize,
    betas: usize,
    deadline: Instant,
    quota: usize,
    state: &Arc<ServerState>,
    memo: &SharedInternTable,
) -> StepOutcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut budget = Budget::new(betas)
            .with_deadline(deadline)
            .with_cancel(state.shutdown.clone())
            .with_node_quota(quota);
        let r = engine::run(term, fuel, &mut budget, memo);
        (r, budget)
    }));
    match result {
        Err(_) => {
            state.panics_total.fetch_add(1, Ordering::Relaxed);
            StepOutcome::Panicked
        }
        Ok((r, budget)) => {
            if let Some(cause) = budget.stop_cause() {
                StepOutcome::Stopped(cause)
            } else if budget.exhausted() {
                StepOutcome::Exhausted(pretty(&r))
            } else {
                StepOutcome::Done(pretty(&r))
            }
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
        match send_err(stream, code, msg) {
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
    let quota = req.quota.unwrap_or(cfg.default_node_quota);
    let betas = req.betas.unwrap_or(usize::MAX);
    let term = match state.program(req.source.unwrap_or_default()) {
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
            return match send(stream, o) {
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
    let deadline = started + Duration::from_millis(deadline_ms);

    let flow = match req.verb {
        Verb::Eval => {
            let outcome = run_step(&term, fuel, betas, deadline, quota, state, &memo);
            // The engine work is over: release the fuel credits before the
            // reply write, so a client that has seen its reply can rely on
            // the gate having been released.
            drop(permit);
            let obj = match outcome {
                StepOutcome::Done(r) => {
                    let mut o = Obj::kind("ok");
                    o.push_str("result", &r)
                        .push_num("fuel", fuel as u64)
                        .push_num("wall_us", started.elapsed().as_micros() as u64);
                    o
                }
                StepOutcome::Exhausted(r) => {
                    let mut o = err_obj(
                        ErrorCode::FuelExhausted,
                        "fuel ran out; result is the partial observation",
                    );
                    o.push_str("result", &r).push_num("fuel", fuel as u64);
                    o
                }
                StepOutcome::Stopped(cause) => stop_reply(cause),
                StepOutcome::Panicked => {
                    err_obj(ErrorCode::InternalPanic, "evaluation panicked; contained")
                }
            };
            match send(stream, obj) {
                Ok(()) => Flow::Continue,
                Err(_) => Flow::Close,
            }
        }
        Verb::Watch => watch_loop(
            &term, fuel, betas, deadline, quota, req.step, state, stream, &memo,
        ),
        _ => unreachable!("handle_eval called for eval/watch only"),
    };
    state.maybe_collect();
    flow
}

/// Streams the fixpoint observations of `term` at increasing fuel. A
/// write failure means the client is gone (or stopped draining): the
/// remaining steps are cancelled immediately rather than computed into
/// the void.
#[allow(clippy::too_many_arguments)]
fn watch_loop(
    term: &TermRef,
    fuel: usize,
    betas: usize,
    deadline: Instant,
    quota: usize,
    step: Option<usize>,
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    memo: &SharedInternTable,
) -> Flow {
    let step = step.unwrap_or(1).max(1);
    let mut last: Option<String> = None;
    let mut steps = 0u64;
    let mut f = 0usize;
    loop {
        match run_step(term, f, betas, deadline, quota, state, memo) {
            StepOutcome::Done(r) | StepOutcome::Exhausted(r) => {
                if last.as_deref() != Some(&r) {
                    let mut o = Obj::kind("obs");
                    o.push_num("fuel", f as u64).push_str("result", &r);
                    if send(stream, o).is_err() {
                        // Disconnect mid-stream: stop evaluating.
                        return Flow::Close;
                    }
                    last = Some(r);
                }
                steps += 1;
            }
            StepOutcome::Stopped(cause) => {
                let _ = send(stream, stop_reply(cause));
                return Flow::Continue;
            }
            StepOutcome::Panicked => {
                let _ = send_err(
                    stream,
                    ErrorCode::InternalPanic,
                    "evaluation panicked; contained",
                );
                return Flow::Continue;
            }
        }
        if f >= fuel {
            break;
        }
        f = (f + step).min(fuel);
    }
    let mut o = Obj::kind("done");
    o.push_num("fuel", fuel as u64).push_num("steps", steps);
    match send(stream, o) {
        Ok(()) => Flow::Continue,
        Err(_) => Flow::Close,
    }
}
