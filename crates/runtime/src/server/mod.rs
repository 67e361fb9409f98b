//! `lambdav serve` — a fault-tolerant λ∨ evaluation service.
//!
//! The paper's λ∨ programs denote *monotone* functions of their input
//! prefixes, which is exactly the property a long-lived service wants:
//! every reply at fuel `k` is a sound lower bound of the true meaning, so
//! budget-limited answers are approximations, never lies. This module
//! turns the engine into a persistent thread-per-connection TCP server
//! where concurrent sessions share one warm
//! [`SharedInternTable`] memo — one arena and its β-memo behind one lock.
//! Each request evaluates through [`lambda_join_core::engine::run`], the
//! same id machine `lambdav run` uses, which hands the lock to a waiting
//! session between dispatches, so a long evaluation does not shut out
//! warm requests. Five robustness layers sit on top:
//!
//! 1. **Per-request budgets** — fuel, a wall-clock deadline, and an
//!    arena-node quota, enforced cooperatively inside the engine loop
//!    ([`lambda_join_core::engine::Budget`]); each limit has a distinct
//!    structured error code. The quota counts growth of the shared
//!    arena, so other sessions' interning counts toward it.
//! 2. **Admission control** — a bounded session crew plus the
//!    fuel-credit [`admission::Gate`]; shed requests get an `overloaded`
//!    reply with a `retry_after_ms` hint, never a dropped connection.
//! 3. **Failure isolation** — each request body runs under
//!    `catch_unwind`; a disconnecting or stalled client cancels its own
//!    evaluation and nothing else.
//! 4. **Memo GC under churn** — past a watermark on interner nodes plus
//!    canonical pointer-cache entries the shared memo is compacted with
//!    [`collected`](lambda_join_core::sharded::SharedInternTable::collected),
//!    keeping entries touched within the last N admitted requests, so the
//!    hot working set stays warm while one-off garbage is dropped.
//! 5. **A chaos and load harness** — `tests/server_chaos.rs` and the
//!    `loadgen` bench binary drive all of the above.
//!
//! The wire protocol is line-oriented with flat-JSON replies; see
//! [`protocol`].
//!
//! # Quickstart
//!
//! ```
//! use lambda_join_runtime::server::{serve, ServerConfig};
//! use std::io::{BufRead, BufReader, Write};
//!
//! let handle = serve(ServerConfig::default()).unwrap();
//! let mut conn = std::net::TcpStream::connect(handle.addr()).unwrap();
//! writeln!(conn, r#"eval fuel=8 "{{1}} \\/ {{2}}""#).unwrap();
//! let mut reply = String::new();
//! BufReader::new(conn.try_clone().unwrap()).read_line(&mut reply).unwrap();
//! assert!(reply.contains("\"kind\":\"ok\""));
//! handle.stop();
//! ```

pub mod admission;
pub mod protocol;
mod session;

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use lambda_join_core::parser;
use lambda_join_core::pool::Crew;
use lambda_join_core::sharded::SharedInternTable;
use lambda_join_core::term::TermRef;
use parking_lot::Mutex;

use protocol::{ErrorCode, Obj};

/// Tunables for one server instance. `Default` is sized for tests and
/// local use; the CLI exposes the load-bearing knobs as flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port.
    pub addr: String,
    /// Maximum concurrent sessions; further connections are shed with a
    /// clean `overloaded` reply.
    pub max_sessions: usize,
    /// Total fuel the admission gate lets in flight at once.
    pub max_outstanding_fuel: u64,
    /// Per-request fuel cap; requests above it are rejected as
    /// `bad_request` (retrying unchanged can never succeed).
    pub max_fuel: usize,
    /// Fuel used when a request names none.
    pub default_fuel: usize,
    /// Wall-clock deadline used when a request names none.
    pub default_deadline_ms: u64,
    /// Upper bound on any request's deadline.
    pub max_deadline_ms: u64,
    /// Arena-node growth quota used when a request names none.
    pub default_node_quota: usize,
    /// Request lines above this many bytes are rejected as `too_large`.
    pub max_line_bytes: usize,
    /// A partial request line older than this is a slowloris; the
    /// session is closed with a structured error.
    pub line_deadline_ms: u64,
    /// Sessions with no traffic for this long are closed.
    pub idle_timeout_ms: u64,
    /// OS-level write timeout; a client that stops draining its socket
    /// is disconnected rather than wedging the session.
    pub write_timeout_ms: u64,
    /// Interner nodes plus canonical pointer-cache entries above which a
    /// post-request compaction is attempted.
    pub gc_node_watermark: usize,
    /// How many admitted requests back an entry may last have been
    /// touched and still survive compaction.
    pub gc_keep_generations: u64,
    /// Base of the `retry_after_ms` hint on shed requests.
    pub retry_base_ms: u64,
    /// Snapshot file for warm boots (see [`lambda_join_core::snap`]).
    /// When set: loaded on boot if present (a corrupt file fails the
    /// boot; a missing one is a normal cold start), checkpointed on
    /// graceful shutdown and every
    /// [`snapshot_interval_ms`](ServerConfig::snapshot_interval_ms).
    /// Checkpoints persist the
    /// `collected()` working set — entries touched within the last
    /// [`gc_keep_generations`](ServerConfig::gc_keep_generations)
    /// requests — not the unbounded arena.
    pub snapshot_path: Option<std::path::PathBuf>,
    /// Interval between periodic snapshot checkpoints; `0` checkpoints
    /// only on graceful shutdown. Ignored without
    /// [`snapshot_path`](ServerConfig::snapshot_path).
    pub snapshot_interval_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions: 32,
            max_outstanding_fuel: 4096,
            max_fuel: 1 << 16,
            default_fuel: 64,
            default_deadline_ms: 2_000,
            max_deadline_ms: 30_000,
            default_node_quota: 4_000_000,
            max_line_bytes: 1 << 20,
            line_deadline_ms: 5_000,
            idle_timeout_ms: 30_000,
            write_timeout_ms: 2_000,
            gc_node_watermark: 1_000_000,
            gc_keep_generations: 64,
            retry_base_ms: 25,
            snapshot_path: None,
            snapshot_interval_ms: 0,
        }
    }
}

/// Total source bytes the request cache may hold. Inserting past it
/// flushes the whole cache; a single program larger than this is never
/// cached. This bounds source text, not retained memory: a parsed tree
/// can be many times larger than its source, and cached trees outlive
/// GC until the next flush.
pub(crate) const REQUEST_CACHE_BYTES: usize = 1 << 20;

/// Parsed programs by their decoded source text. A program's observation
/// at a given fuel depends only on the program and the fuel, so a
/// repeated request can reuse the first parse. Reusing the *allocation*
/// matters as much as skipping the parse: the engine's canonical
/// interning finds the tree in its pointer cache instead of walking (and
/// pinning) a fresh copy on every request.
#[derive(Default)]
pub(crate) struct RequestCache {
    programs: HashMap<String, TermRef>,
    /// Sum of the cached sources' lengths.
    bytes: usize,
}

impl RequestCache {
    fn get(&self, source: &str) -> Option<TermRef> {
        self.programs.get(source).cloned()
    }

    fn insert(&mut self, source: String, term: TermRef) {
        if source.len() > REQUEST_CACHE_BYTES || self.programs.contains_key(&source) {
            return;
        }
        if self.bytes + source.len() > REQUEST_CACHE_BYTES {
            self.programs.clear();
            self.bytes = 0;
        }
        self.bytes += source.len();
        self.programs.insert(source, term);
    }
}

/// Shared server state: config, the warm memo, counters, and the
/// shutdown flag (which doubles as the engine-level cancel flag of every
/// in-flight request).
pub(crate) struct ServerState {
    pub(crate) cfg: ServerConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) gate: admission::Gate,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) crew: Crew,
    started: Instant,
    /// The current memo handle. Sessions clone it (cheap: `Arc` inside);
    /// compaction swaps in a fresh table, after which old in-flight
    /// requests finish against the previous table and drop it.
    memo: Mutex<SharedInternTable>,
    /// Serialises compaction; contenders skip rather than queue.
    gc_busy: Mutex<()>,
    /// Closed, parsed programs by source text.
    pub(crate) request_cache: Mutex<RequestCache>,
    request_cache_hits: AtomicU64,
    request_cache_misses: AtomicU64,
    pub(crate) requests_total: AtomicU64,
    pub(crate) rejected_total: AtomicU64,
    pub(crate) panics_total: AtomicU64,
    gc_runs: AtomicU64,
    checkpoints: AtomicU64,
}

impl ServerState {
    /// A clone of the current shared memo handle.
    pub(crate) fn memo_handle(&self) -> SharedInternTable {
        self.memo.lock().clone()
    }

    /// The closed program `source` denotes: the cached tree when this
    /// text was served before, otherwise parsed, checked for free
    /// variables, and cached. Errors carry the reply's code and message
    /// and are never cached.
    pub(crate) fn program(&self, source: String) -> Result<TermRef, (ErrorCode, String)> {
        if let Some(term) = self.request_cache.lock().get(&source) {
            self.request_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(term);
        }
        self.request_cache_misses.fetch_add(1, Ordering::Relaxed);
        let term = parser::parse(&source).map_err(|e| (ErrorCode::ParseError, e.to_string()))?;
        let fv = term.free_vars();
        if !fv.is_empty() {
            let names: Vec<&str> = fv.iter().map(|v| &**v).collect();
            let msg = format!("program has free variables: {}", names.join(", "));
            return Err((ErrorCode::FreeVars, msg));
        }
        self.request_cache.lock().insert(source, term.clone());
        Ok(term)
    }

    /// Post-request GC: if the interner's nodes plus its canonical
    /// pointer-cache entries have grown past the watermark, compact the
    /// memo down to generation-recent entries and publish the fresh
    /// table. Pointer-cache entries count because each pins a request
    /// tree: textually different programs that intern to the same nodes
    /// grow memory without growing the node count. `try_lock` keeps at
    /// most one session compacting; everyone else returns to serving
    /// immediately. The footprint is read only if the memo is free: a
    /// session evaluating on it checks again when its request ends, so a
    /// warm request never queues behind a long evaluation here.
    pub(crate) fn maybe_collect(&self) {
        let snapshot = self.memo_handle();
        // One scoped guard: the table's other methods lock the same memo.
        let footprint = match snapshot.try_interner() {
            Some(arena) => arena.len() + arena.canon_ptr_len(),
            None => return,
        };
        if footprint <= self.cfg.gc_node_watermark {
            return;
        }
        if let Some(_busy) = self.gc_busy.try_lock() {
            let compacted = snapshot.collected(self.cfg.gc_keep_generations);
            *self.memo.lock() = compacted;
            self.gc_runs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Writes a snapshot checkpoint if the config names a path: the
    /// current memo's `collected()` working set, saved atomically (temp
    /// file + rename — a crash mid-checkpoint leaves the previous
    /// snapshot intact). Write errors are logged, not fatal: a serving
    /// process must outlive a full disk.
    pub(crate) fn checkpoint(&self) {
        let Some(path) = &self.cfg.snapshot_path else {
            return;
        };
        let memo = self.memo_handle();
        match lambda_join_core::snap::save_shared(&memo, self.cfg.gc_keep_generations, path) {
            Ok(_) => {
                self.checkpoints.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => eprintln!(
                "lambdav serve: checkpoint to {} failed: {e}",
                path.display()
            ),
        }
    }

    /// Flips the shutdown flag (cancelling in-flight evaluations at
    /// their next budget poll) and pokes the accept loop awake.
    pub(crate) fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // The accept loop blocks in `accept`; a throwaway connection
        // unblocks it so it can observe the flag. No signal handling
        // needed — shutdown is an ordinary protocol verb.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }

    /// The `stats` reply.
    pub(crate) fn stats_obj(&self) -> Obj {
        let memo = self.memo_handle();
        let (hits, misses) = memo.stats();
        // One scoped guard: the table's other methods lock the same memo.
        let (nodes, ptrs) = {
            let arena = memo.interner();
            (arena.len(), arena.canon_ptr_len())
        };
        let mut o = Obj::kind("stats");
        o.push_num("uptime_ms", self.started.elapsed().as_millis() as u64)
            .push_num("sessions", self.crew.active() as u64)
            .push_num("outstanding_fuel", self.gate.outstanding())
            .push_num("requests", self.requests_total.load(Ordering::Relaxed))
            .push_num("rejected", self.rejected_total.load(Ordering::Relaxed))
            .push_num("panics", self.panics_total.load(Ordering::Relaxed))
            .push_num("gc_runs", self.gc_runs.load(Ordering::Relaxed))
            .push_num("memo_entries", memo.len() as u64)
            .push_num("interner_nodes", nodes as u64)
            .push_num("canon_ptr_entries", ptrs as u64)
            .push_num("memo_hits", hits as u64)
            .push_num("memo_misses", misses as u64)
            .push_num("generation", memo.generation())
            .push_num("checkpoints", self.checkpoints.load(Ordering::Relaxed))
            .push_num(
                "request_cache_hits",
                self.request_cache_hits.load(Ordering::Relaxed),
            )
            .push_num(
                "request_cache_misses",
                self.request_cache_misses.load(Ordering::Relaxed),
            )
            .push_num(
                "request_cache_entries",
                self.request_cache.lock().programs.len() as u64,
            );
        o
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (with the OS-assigned port when the
    /// config asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to stop: no new sessions are admitted and
    /// in-flight evaluations are cancelled at their next budget poll.
    /// Returns without waiting; use [`stop`](ServerHandle::stop) to also
    /// drain.
    pub fn shutdown(&self) {
        self.state.trigger_shutdown();
    }

    /// Blocks until the server shuts down — via the `shutdown` protocol
    /// verb from a client, or [`shutdown`](ServerHandle::shutdown) from
    /// another thread. Returns `true` if every session drained cleanly.
    pub fn wait(mut self) -> bool {
        let drained = match self.accept.take() {
            Some(h) => h.join().is_ok(),
            None => true,
        };
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
        drained && self.state.crew.active() == 0
    }

    /// Shuts down and waits for the accept loop (which itself drains
    /// live sessions, bounded by a timeout). Returns `true` if every
    /// session exited within the drain window.
    pub fn stop(mut self) -> bool {
        self.state.trigger_shutdown();
        let drained = match self.accept.take() {
            Some(h) => h.join().is_ok(),
            None => true,
        };
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
        drained && self.state.crew.active() == 0
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.state.trigger_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
    }
}

/// Binds and starts a server, returning once it is accepting
/// connections.
///
/// When the config names a snapshot path and the file exists, the memo
/// is warm-booted from it before the listener starts accepting — the
/// first request replays cached derivations instead of re-deriving. A
/// corrupt or version-mismatched snapshot fails the boot (as
/// `InvalidData`) rather than silently serving cold; a missing file is
/// a normal cold start.
pub fn serve(cfg: ServerConfig) -> io::Result<ServerHandle> {
    let memo = match &cfg.snapshot_path {
        Some(path) if path.exists() => lambda_join_core::snap::load_shared(path)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {e}")))?,
        _ => SharedInternTable::new(),
    };
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServerState {
        gate: admission::Gate::new(cfg.max_outstanding_fuel, cfg.retry_base_ms),
        crew: Crew::new(cfg.max_sessions),
        shutdown: Arc::new(AtomicBool::new(false)),
        started: Instant::now(),
        memo: Mutex::new(memo),
        gc_busy: Mutex::new(()),
        request_cache: Mutex::default(),
        request_cache_hits: AtomicU64::new(0),
        request_cache_misses: AtomicU64::new(0),
        requests_total: AtomicU64::new(0),
        rejected_total: AtomicU64::new(0),
        panics_total: AtomicU64::new(0),
        gc_runs: AtomicU64::new(0),
        checkpoints: AtomicU64::new(0),
        addr,
        cfg,
    });

    let ticker = if state.cfg.snapshot_path.is_some() && state.cfg.snapshot_interval_ms > 0 {
        let tick_state = Arc::clone(&state);
        Some(
            thread::Builder::new()
                .name("lambdav-checkpoint".into())
                .spawn(move || checkpoint_loop(tick_state))?,
        )
    } else {
        None
    };

    let accept_state = Arc::clone(&state);
    let accept = thread::Builder::new()
        .name("lambdav-accept".into())
        .spawn(move || accept_loop(listener, accept_state))?;

    Ok(ServerHandle {
        addr,
        state,
        accept: Some(accept),
        ticker,
    })
}

/// Periodic checkpointing: sleeps in short shutdown-aware ticks and
/// writes a snapshot every `snapshot_interval_ms`.
fn checkpoint_loop(state: Arc<ServerState>) {
    let interval = Duration::from_millis(state.cfg.snapshot_interval_ms);
    let tick = Duration::from_millis(25).min(interval);
    let mut last = Instant::now();
    while !state.shutdown.load(Ordering::Acquire) {
        thread::sleep(tick);
        if last.elapsed() >= interval {
            state.checkpoint();
            last = Instant::now();
        }
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    for conn in listener.incoming() {
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        let mut stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Hand a clone to the session thread and keep the original so a
        // full crew can still answer with a structured shed reply.
        let for_task = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let task_state = Arc::clone(&state);
        if let Err(full) = state
            .crew
            .try_spawn(move || session::run_session(for_task, task_state))
        {
            state.rejected_total.fetch_add(1, Ordering::Relaxed);
            let _ =
                stream.set_write_timeout(Some(Duration::from_millis(state.cfg.write_timeout_ms)));
            let mut o = Obj::kind("err");
            o.push_str("code", ErrorCode::Overloaded.as_str())
                .push_str("msg", &format!("session limit {} reached", full.max))
                .push_num("retry_after_ms", state.cfg.retry_base_ms);
            use std::io::Write;
            let _ = stream.write_all(o.into_line().as_bytes());
        }
    }
    // Drain: sessions notice the flag at their next read tick.
    state.crew.join_all(Duration::from_secs(10));
    // Graceful-shutdown checkpoint: persist the warm working set after
    // the last session finished touching it.
    state.checkpoint();
}

#[cfg(test)]
mod tests {
    use super::protocol::FlatReply;
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    fn connect(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
        let conn = TcpStream::connect(handle.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        conn.set_nodelay(true).unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        (conn, reader)
    }

    fn round_trip(
        conn: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        line: &str,
    ) -> FlatReply {
        conn.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        FlatReply::parse(&reply).unwrap()
    }

    fn small_server() -> ServerHandle {
        serve(ServerConfig::default()).unwrap()
    }

    #[test]
    fn ping_eval_stats_round_trip() {
        let handle = small_server();
        let (mut conn, mut reader) = connect(&handle);

        assert_eq!(
            round_trip(&mut conn, &mut reader, "ping").kind(),
            Some("pong")
        );

        let r = round_trip(&mut conn, &mut reader, r#"eval fuel=8 "{1} \\/ {2}""#);
        assert_eq!(r.kind(), Some("ok"), "{r:?}");
        assert_eq!(r.str_of("result"), Some("{1, 2}"));

        let r = round_trip(&mut conn, &mut reader, "stats");
        assert_eq!(r.kind(), Some("stats"));
        assert_eq!(r.num_of("requests"), Some(1));

        assert!(handle.stop());
    }

    #[test]
    fn streaming_watch_sends_growing_observations() {
        let handle = small_server();
        let (mut conn, mut reader) = connect(&handle);
        let evens = r#"let rec evens _ = {0} \/ (for x in evens () . {x + 2}) in evens ()"#;
        writeln!(
            conn,
            "watch fuel=12 step=2 \"{}\"",
            evens.replace('\\', "\\\\")
        )
        .unwrap();
        let mut kinds = Vec::new();
        let mut obs = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let r = FlatReply::parse(&line).unwrap();
            kinds.push(r.kind().unwrap().to_string());
            if r.kind() == Some("obs") {
                obs.push(r.str_of("result").unwrap().to_string());
            }
            if r.kind() == Some("done") {
                break;
            }
        }
        assert!(
            obs.len() >= 2,
            "expected several distinct observations: {obs:?}"
        );
        assert!(kinds.iter().all(|k| k == "obs" || k == "done"));
        // Consecutive-dedup: all streamed observations are distinct.
        for w in obs.windows(2) {
            assert_ne!(w[0], w[1]);
        }
        assert!(handle.stop());
    }

    #[test]
    fn structured_errors_for_bad_requests() {
        let handle = small_server();
        let (mut conn, mut reader) = connect(&handle);

        let r = round_trip(&mut conn, &mut reader, "frobnicate");
        assert_eq!(r.error_code(), Some(ErrorCode::Malformed));

        let r = round_trip(&mut conn, &mut reader, r#"eval "let x = in""#);
        assert_eq!(r.error_code(), Some(ErrorCode::ParseError));

        let r = round_trip(&mut conn, &mut reader, r#"eval "x y""#);
        assert_eq!(r.error_code(), Some(ErrorCode::FreeVars));

        let r = round_trip(&mut conn, &mut reader, r#"eval fuel=999999999 "1""#);
        assert_eq!(r.error_code(), Some(ErrorCode::BadRequest));

        // The session survived all of that.
        assert_eq!(
            round_trip(&mut conn, &mut reader, "ping").kind(),
            Some("pong")
        );
        assert!(handle.stop());
    }

    #[test]
    fn fuel_exhaustion_carries_partial_observation() {
        let handle = small_server();
        let (mut conn, mut reader) = connect(&handle);
        let evens = r#"let rec evens _ = {0} \/ (for x in evens () . {x + 2}) in evens ()"#;
        writeln!(conn, "eval fuel=6 \"{}\"", evens.replace('\\', "\\\\")).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let r = FlatReply::parse(&line).unwrap();
        assert_eq!(r.error_code(), Some(ErrorCode::FuelExhausted), "{r:?}");
        let partial = r.str_of("result").unwrap();
        assert!(
            partial.contains('0'),
            "partial observation should show progress: {partial}"
        );
        assert!(handle.stop());
    }

    #[test]
    fn shutdown_verb_stops_the_server() {
        let handle = small_server();
        let addr = handle.addr();
        let (mut conn, mut reader) = connect(&handle);
        let r = round_trip(&mut conn, &mut reader, "shutdown");
        assert_eq!(r.kind(), Some("ok"));
        assert!(handle.stop());
        // New connections are refused (or reset) after shutdown.
        let late = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
        if let Ok(mut s) = late {
            let _ = writeln!(s, "ping");
            let mut buf = String::new();
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let n = BufReader::new(s).read_line(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "post-shutdown connection should see EOF, got {buf:?}");
        }
    }

    #[test]
    fn session_limit_sheds_with_structured_overloaded() {
        let cfg = ServerConfig {
            max_sessions: 1,
            ..ServerConfig::default()
        };
        let handle = serve(cfg).unwrap();
        let (mut conn, mut reader) = connect(&handle);
        // Occupy the single slot with a live session.
        assert_eq!(
            round_trip(&mut conn, &mut reader, "ping").kind(),
            Some("pong")
        );

        let (_c2, mut r2) = connect(&handle);
        let mut line = String::new();
        r2.read_line(&mut line).unwrap();
        let shed = FlatReply::parse(&line).unwrap();
        assert_eq!(shed.error_code(), Some(ErrorCode::Overloaded), "{shed:?}");
        assert!(shed.num_of("retry_after_ms").is_some());
        assert!(handle.stop());
    }

    #[test]
    fn admission_gate_sheds_fuel_storms() {
        let cfg = ServerConfig {
            max_outstanding_fuel: 100,
            max_fuel: 1 << 16,
            ..ServerConfig::default()
        };
        let handle = serve(cfg).unwrap();
        let (mut conn, mut reader) = connect(&handle);
        // A single request bigger than the whole gate is shed cleanly.
        let r = round_trip(&mut conn, &mut reader, r#"eval fuel=200 "1""#);
        assert_eq!(r.error_code(), Some(ErrorCode::Overloaded), "{r:?}");
        assert!(r.num_of("retry_after_ms").unwrap() > 0);
        // Small requests still go through.
        let r = round_trip(&mut conn, &mut reader, r#"eval fuel=8 "1""#);
        assert_eq!(r.kind(), Some("ok"));
        assert!(handle.stop());
    }

    #[test]
    fn deadline_exceeded_is_structured() {
        let cfg = ServerConfig {
            // Room for the big fuel budget to clear the admission gate.
            max_outstanding_fuel: 1 << 20,
            ..ServerConfig::default()
        };
        let handle = serve(cfg).unwrap();
        let (mut conn, mut reader) = connect(&handle);
        // An unbounded fixpoint with a tiny deadline: fuel high enough
        // that wall-clock trips first.
        let evens = r#"let rec evens _ = {0} \/ (for x in evens () . {x + 2}) in evens ()"#;
        writeln!(
            conn,
            "eval fuel=60000 deadline_ms=1 \"{}\"",
            evens.replace('\\', "\\\\")
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let r = FlatReply::parse(&line).unwrap();
        assert!(
            matches!(
                r.error_code(),
                Some(ErrorCode::DeadlineExceeded) | Some(ErrorCode::FuelExhausted)
            ),
            "tiny deadline should trip (or fuel run out first on a fast box): {r:?}"
        );
        assert!(handle.stop());
    }

    #[test]
    fn memo_gc_swaps_in_a_compacted_table() {
        let cfg = ServerConfig {
            gc_node_watermark: 16,
            gc_keep_generations: 1,
            ..ServerConfig::default()
        };
        let handle = serve(cfg).unwrap();
        let (mut conn, mut reader) = connect(&handle);
        // Distinct β-redexes churn the memo (and interner) past the
        // watermark — only applications populate the shared table.
        for i in 0..40 {
            let r = round_trip(
                &mut conn,
                &mut reader,
                &format!(r#"eval fuel=8 "(\\x. {{x}} \\/ {{x + 1}}) {i}""#),
            );
            assert_eq!(r.kind(), Some("ok"), "{r:?}");
        }
        let stats = round_trip(&mut conn, &mut reader, "stats");
        assert!(
            stats.num_of("gc_runs").unwrap() >= 1,
            "watermark 16 should have forced at least one collection: {stats:?}"
        );
        // The warm path still works post-GC.
        let r = round_trip(
            &mut conn,
            &mut reader,
            r#"eval fuel=8 "(\\x. {x} \\/ {x + 1}) 39""#,
        );
        assert_eq!(r.kind(), Some("ok"), "{r:?}");
        assert!(handle.stop());
    }

    /// Sends a `watch` line and returns its reply lines verbatim, up to
    /// and including `done`.
    fn watch_lines(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        conn.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut all = String::new();
        loop {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let done = FlatReply::parse(&reply).unwrap().kind() == Some("done");
            all.push_str(&reply);
            if done {
                return all;
            }
        }
    }

    #[test]
    fn request_cache_reuses_one_parse_across_connections() {
        let handle = small_server();
        let evens = r#"let rec evens _ = {0} \/ (for x in evens () . {x + 2}) in evens ()"#;
        let line = format!("watch fuel=9 step=3 \"{}\"", evens.replace('\\', "\\\\"));
        let (mut conn, mut reader) = connect(&handle);
        let first = watch_lines(&mut conn, &mut reader, &line);
        assert!(first.contains("\"kind\":\"obs\""), "{first}");
        let after_first = round_trip(&mut conn, &mut reader, "stats");
        let nodes = after_first.num_of("interner_nodes").unwrap();
        let ptrs = after_first.num_of("canon_ptr_entries").unwrap();
        assert!(ptrs > 0, "the first run canonicalises the program");

        // 999 more sends of the same text, over this connection and a
        // second one running concurrently.
        let second = std::thread::scope(|s| {
            let other = s.spawn(|| {
                let (mut conn, mut reader) = connect(&handle);
                (0..500)
                    .map(|_| watch_lines(&mut conn, &mut reader, &line))
                    .collect::<Vec<_>>()
            });
            let mut replies: Vec<String> = (0..499)
                .map(|_| watch_lines(&mut conn, &mut reader, &line))
                .collect();
            replies.extend(other.join().unwrap());
            replies
        });
        assert_eq!(second.len(), 999);
        assert!(
            second.iter().all(|r| *r == first),
            "every reply must be byte-identical to the first"
        );

        let stats = round_trip(&mut conn, &mut reader, "stats");
        assert!(
            stats.num_of("request_cache_hits").unwrap() >= 999,
            "{stats:?}"
        );
        assert_eq!(stats.num_of("request_cache_misses"), Some(1), "{stats:?}");
        assert_eq!(stats.num_of("request_cache_entries"), Some(1), "{stats:?}");
        assert_eq!(
            stats.num_of("interner_nodes"),
            Some(nodes),
            "a cached program interns nothing new: {stats:?}"
        );
        assert_eq!(
            stats.num_of("canon_ptr_entries"),
            Some(ptrs),
            "a cached program pins no new trees: {stats:?}"
        );
        assert!(handle.stop());
    }

    #[test]
    fn request_cache_stays_within_its_byte_bound() {
        let handle = small_server();
        let (mut conn, mut reader) = connect(&handle);
        let cached_bytes = || handle.state.request_cache.lock().bytes;

        // Parse and free-variable errors are never cached.
        for bad in [r#""let x = in""#, r#""x y""#, r#""let x = in""#] {
            let r = round_trip(&mut conn, &mut reader, &format!("eval {bad}"));
            assert_eq!(r.kind(), Some("err"), "{r:?}");
        }
        let stats = round_trip(&mut conn, &mut reader, "stats");
        assert_eq!(stats.num_of("request_cache_entries"), Some(0), "{stats:?}");
        assert_eq!(stats.num_of("request_cache_misses"), Some(3), "{stats:?}");

        // Distinct ~2 KiB programs: well past the bound in total.
        let pad = " ".repeat(2048);
        let mut peak_entries = 0;
        let mut flushed = false;
        for i in 0..REQUEST_CACHE_BYTES / 2048 + 64 {
            let r = round_trip(
                &mut conn,
                &mut reader,
                &format!(r#"eval fuel=4 "{{{i}}}{pad}""#),
            );
            assert_eq!(r.str_of("result"), Some(format!("{{{i}}}").as_str()));
            assert!(cached_bytes() <= REQUEST_CACHE_BYTES);
            let entries = handle.state.request_cache.lock().programs.len();
            flushed |= entries < peak_entries;
            peak_entries = peak_entries.max(entries);
        }
        assert!(flushed, "passing the bound flushes the cache");
        assert!(peak_entries * 2048 <= REQUEST_CACHE_BYTES);
        assert!(handle.stop());
    }

    #[test]
    fn pointer_cache_growth_forces_gc() {
        const WATERMARK: usize = 64;
        let cfg = ServerConfig {
            gc_node_watermark: WATERMARK,
            ..ServerConfig::default()
        };
        let handle = serve(cfg).unwrap();
        let (mut conn, mut reader) = connect(&handle);
        // Whitespace variants: every text misses the request cache and
        // parses to a fresh tree, but all intern to the same nodes.
        let variant = |i: usize| {
            format!(
                r#"eval fuel=8 "(\\x. {{x}} \\/ {{x + 1}}){}5""#,
                " ".repeat(i + 1)
            )
        };
        let r = round_trip(&mut conn, &mut reader, &variant(0));
        assert_eq!(r.kind(), Some("ok"), "{r:?}");
        let stats = round_trip(&mut conn, &mut reader, "stats");
        let nodes = stats.num_of("interner_nodes").unwrap() as usize;
        let ptrs = stats.num_of("canon_ptr_entries").unwrap() as usize;
        assert!(nodes + ptrs <= WATERMARK, "{stats:?}");
        assert_eq!(stats.num_of("gc_runs"), Some(0));

        for i in 1..=WATERMARK {
            let r = round_trip(&mut conn, &mut reader, &variant(i));
            assert_eq!(r.kind(), Some("ok"), "{r:?}");
            let stats = round_trip(&mut conn, &mut reader, "stats");
            if stats.num_of("gc_runs") == Some(0) {
                // Counting nodes alone would never collect.
                assert_eq!(stats.num_of("interner_nodes"), Some(nodes as i64));
            }
        }
        let stats = round_trip(&mut conn, &mut reader, "stats");
        assert!(
            stats.num_of("gc_runs").unwrap() >= 1,
            "pinned request trees should have forced a collection: {stats:?}"
        );
        assert!(handle.stop());
    }

    #[test]
    fn warm_boot_from_shutdown_checkpoint() {
        let path = std::env::temp_dir().join(format!(
            "lambdav-warm-boot-{}-{:?}.snap",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let cfg = ServerConfig {
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        };

        // First life: pay for a derivation, then stop — the graceful
        // shutdown writes the checkpoint.
        let handle = serve(cfg.clone()).unwrap();
        let (mut conn, mut reader) = connect(&handle);
        let r = round_trip(&mut conn, &mut reader, r#"eval fuel=8 "(\\x. x + 1) 41""#);
        assert_eq!(r.kind(), Some("ok"), "{r:?}");
        let cold = r.str_of("result").unwrap().to_string();
        let stats = round_trip(&mut conn, &mut reader, "stats");
        let entries = stats.num_of("memo_entries").unwrap();
        assert!(entries > 0, "the β-redex should have populated the memo");
        drop((conn, reader));
        assert!(handle.stop());
        assert!(path.exists(), "stop() should have checkpointed");

        // Second life: boots from the checkpoint — the memo is warm
        // before the first request arrives, and the same program answers
        // identically from cache.
        let handle = serve(cfg).unwrap();
        let (mut conn, mut reader) = connect(&handle);
        let stats = round_trip(&mut conn, &mut reader, "stats");
        assert_eq!(
            stats.num_of("memo_entries"),
            Some(entries),
            "warm boot should restore the memo verbatim: {stats:?}"
        );
        let hits_before = stats.num_of("memo_hits").unwrap();
        let r = round_trip(&mut conn, &mut reader, r#"eval fuel=8 "(\\y. y + 1) 41""#);
        assert_eq!(r.kind(), Some("ok"), "{r:?}");
        assert_eq!(r.str_of("result"), Some(cold.as_str()));
        let stats = round_trip(&mut conn, &mut reader, "stats");
        assert!(
            stats.num_of("memo_hits").unwrap() > hits_before,
            "the restored entry should answer the α-equivalent call: {stats:?}"
        );
        assert!(handle.stop());
        let _ = std::fs::remove_file(&path);
    }

    /// The §4 two-phase commit at fuel 16, as `lambdav run` prints it.
    const TPC_FUEL16: &str = include_str!("../../../core/tests/golden/two_phase_commit_fuel16.txt");

    /// Sends the two-phase commit at fuel 16 and returns its `result`.
    fn served_tpc(handle: &ServerHandle) -> String {
        let (mut conn, mut reader) = connect(handle);
        let program = lambda_join_core::encodings::two_phase_commit().to_string();
        let line = format!("eval fuel=16 \"{}\"", protocol::json_escape(&program));
        let r = round_trip(&mut conn, &mut reader, &line);
        // Fuel 16 cuts the protocol short: the reply carries the partial
        // observation.
        assert_eq!(r.error_code(), Some(ErrorCode::FuelExhausted));
        r.str_of("result").unwrap().to_string()
    }

    #[test]
    fn served_two_phase_commit_renders_like_lambdav_run() {
        // A fresh server.
        let handle = small_server();
        assert!(served_tpc(&handle) == TPC_FUEL16, "fresh server");
        assert!(handle.stop());

        // After forced compactions: every request passes the watermark.
        let cfg = ServerConfig {
            gc_node_watermark: 16,
            ..ServerConfig::default()
        };
        let handle = serve(cfg).unwrap();
        let (mut conn, mut reader) = connect(&handle);
        for pass in 0..3 {
            assert!(
                served_tpc(&handle) == TPC_FUEL16,
                "after {pass} compactions"
            );
            // The compaction runs after the reply is sent: wait for it.
            let started = Instant::now();
            while round_trip(&mut conn, &mut reader, "stats").num_of("gc_runs") < Some(pass + 1) {
                assert!(started.elapsed() < Duration::from_secs(10), "no compaction");
                thread::sleep(Duration::from_millis(1));
            }
        }
        drop((conn, reader));
        assert!(handle.stop());

        // After a warm boot from the shutdown checkpoint.
        let path = std::env::temp_dir().join(format!(
            "lambdav-tpc-boot-{}-{:?}.snap",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let cfg = ServerConfig {
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        };
        let handle = serve(cfg.clone()).unwrap();
        assert!(served_tpc(&handle) == TPC_FUEL16, "first life");
        assert!(handle.stop());
        let handle = serve(cfg).unwrap();
        assert!(served_tpc(&handle) == TPC_FUEL16, "warm boot");
        assert!(handle.stop());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn node_quota_is_enforced_over_the_wire() {
        let cfg = ServerConfig {
            max_outstanding_fuel: 1 << 20,
            ..ServerConfig::default()
        };
        let handle = serve(cfg).unwrap();
        let (mut conn, mut reader) = connect(&handle);
        // `evens` never converges; its growing sets mint arena nodes
        // until the quota trips (long before fuel or the deadline).
        let evens = lambda_join_core::encodings::evens().to_string();
        let line = format!(
            "eval fuel=60000 quota=64 \"{}\"",
            protocol::json_escape(&evens)
        );
        let r = round_trip(&mut conn, &mut reader, &line);
        assert_eq!(r.error_code(), Some(ErrorCode::QuotaExceeded), "{r:?}");
        // The session keeps serving.
        let r = round_trip(&mut conn, &mut reader, r#"eval fuel=8 "{1} \\/ {2}""#);
        assert_eq!(r.str_of("result"), Some("{1, 2}"), "{r:?}");
        assert!(handle.stop());
    }

    #[test]
    fn corrupt_snapshot_fails_boot_with_invalid_data() {
        let path = std::env::temp_dir().join(format!(
            "lambdav-corrupt-boot-{}-{:?}.snap",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, b"not a snapshot at all").unwrap();
        let cfg = ServerConfig {
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        };
        let err = match serve(cfg) {
            Err(e) => e,
            Ok(_) => panic!("corrupt snapshot should fail the boot"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
