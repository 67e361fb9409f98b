//! The `serve_warm` and `serve_cold` workloads: the shipped `lambdav`
//! binary as a child process, driven over TCP by a closed loop of two
//! connections on two client threads.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lambda_join_bench::loadclient::Client;
use lambda_join_core::engine::{self, Budget, NodeGauge};
use lambda_join_core::parser;
use lambda_join_core::rng::XorShift64;
use lambda_join_core::sharded::SharedInternTable;
use lambda_join_core::snap;
use lambda_join_core::term::TermRef;
use lambda_join_runtime::server::protocol::{parse_request, FlatReply, Obj, Verb};

use crate::calib::{round_trip_unit, Reference};
use crate::ledger::{median, peak_rss_mb, percentile, Metrics, Tracer};
use crate::requests::{
    cold_request, expected, oracle_thread, reply_matches, warm_pool, Expected, Kind, Reply,
    ReplyTally, Request,
};
use crate::{Run, Verdict};

/// Client connections (= client threads), at most the host's 2 cores.
const CONNECTIONS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Warm-up requests per set-up on the cold stream.
const COLD_WARMUP: u64 = 32;
/// The timed phase pauses at every multiple of this for checkpoint
/// restores.
const WINDOW: Duration = Duration::from_millis(500);
/// Checkpoint restores at each pause.
const RESTORES_PER_BOUNDARY: usize = 3;
/// `peak_rss_mb` is read once the timed phase has completed this many
/// requests, so that on a server whose memory grows with traffic it
/// measures what each request retains, not how fast the host ran.
const RSS_AT_REQUESTS: u64 = 50_000;
/// Round-trip units timed just before and just after the timed phase,
/// while no request is in flight.
const HOST_UNITS: usize = 8;
/// Traced runs alternate traced and untraced slices of this length, so
/// the tracing overhead is measured against the same drift.
const TRACE_SLICE: Duration = Duration::from_millis(250);
/// Requests of the timed stream the in-process replay re-executes.
const REPLAY_CAP: usize = 2_000;
/// The server defaults the replay mirrors (`ServerConfig::default()`).
const DEFAULT_DEADLINE: Duration = Duration::from_millis(2_000);
const DEFAULT_NODE_QUOTA: usize = 4_000_000;
const GC_NODE_WATERMARK: usize = 1_000_000;
const GC_KEEP_GENERATIONS: u64 = 64;

/// Which request stream a serve workload draws from.
pub enum Stream {
    /// Seeded picks from the fixed pool.
    Warm(Vec<Request>),
    /// Request `i` of the cold stream; never repeats.
    Cold(u64),
}

/// Cold warm-up requests live far above any index the timed phase
/// reaches, so their programs never coincide with timed ones. They come
/// from one fixed stream whatever the seed, so the checkpoint that
/// `restore_s` loads holds the same working set in every run.
const WARMUP_BASE: u64 = 1 << 32;
const WARMUP_SEED: u64 = 0x5EED;

impl Stream {
    fn request(&self, id: u64) -> Cow<'_, Request> {
        match self {
            Stream::Warm(pool) => Cow::Borrowed(&pool[id as usize]),
            Stream::Cold(_) if id >= WARMUP_BASE => Cow::Owned(cold_request(WARMUP_SEED, id)),
            Stream::Cold(seed) => Cow::Owned(cold_request(*seed, id)),
        }
    }

    fn warmup_ids(&self, setup: u64) -> Vec<u64> {
        match self {
            Stream::Warm(pool) => (0..pool.len() as u64).collect(),
            Stream::Cold(_) => (0..COLD_WARMUP)
                .map(|k| WARMUP_BASE + 100 * setup + k)
                .collect(),
        }
    }
}

// ------------------------------------------------------------ process --

/// A `lambdav serve` child. Dropping it kills the process and reaps it.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
}

impl Server {
    pub fn spawn(bin: &Path, snapshot: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--sessions",
                "8",
                "--snapshot",
            ])
            .arg(snapshot)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => {
                server.addr = addr.to_string();
                Ok(server)
            }
            _ => Err(format!("lambdav serve did not start: {line:?}")),
        }
    }

    pub fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Graceful stop through the `shutdown` verb (which checkpoints the
    /// memo to the snapshot path), then reaps the process.
    pub fn stop(mut self) -> Result<(), String> {
        let mut conn = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let r = conn.round_trip("shutdown")?;
        if r.kind() != Some("ok") {
            return Err(format!("shutdown refused: {r:?}"));
        }
        let mut child = self.child.take().expect("running child");
        let until = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(2)),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("lambdav serve did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

// ------------------------------------------------------------- client --

fn num(r: &FlatReply, k: &str) -> Result<u64, String> {
    r.num_of(k)
        .map(|n| n as u64)
        .ok_or_else(|| format!("reply lacks {k}: {r:?}"))
}

fn text(r: &FlatReply, k: &str) -> Result<String, String> {
    r.str_of(k)
        .map(str::to_string)
        .ok_or_else(|| format!("reply lacks {k}: {r:?}"))
}

/// Reads the reply to a request already sent. `Err` is a failure:
/// a dropped connection, a malformed reply, or a refused or shed request.
/// A `fuel_exhausted` reply carries a partial observation, which the
/// oracle judges like any other.
fn read_reply(conn: &mut Client, req: &Request) -> Result<(Reply, Option<u64>), String> {
    let refused = |r: &FlatReply| format!("{} reply: {r:?}", r.kind().unwrap_or("unknown"));
    if req.step.is_none() {
        let r = conn.recv()?;
        return match (r.kind(), r.str_of("code")) {
            (Some("ok"), _) => Ok((Reply::Eval(text(&r, "result")?), Some(num(&r, "wall_us")?))),
            (Some("err"), Some("fuel_exhausted")) => Ok((Reply::Eval(text(&r, "result")?), None)),
            _ => Err(refused(&r)),
        };
    }
    let mut obs = Vec::new();
    loop {
        let r = conn.recv()?;
        match r.kind() {
            Some("obs") => obs.push((num(&r, "fuel")?, text(&r, "result")?)),
            Some("done") => {
                let steps = num(&r, "steps")?;
                return Ok((Reply::Watch { obs, steps }, None));
            }
            _ => return Err(refused(&r)),
        }
    }
}

fn exchange(conn: &mut Client, req: &Request) -> Result<(Reply, Option<u64>), String> {
    conn.send(&req.line).map_err(|e| format!("write: {e}"))?;
    read_reply(conn, req)
}

/// One timed request as the client saw it.
struct Sample {
    id: u64,
    kind: Kind,
    start_ns: u64,
    latency_ns: u64,
    wall_us: Option<u64>,
    traced: bool,
    failed: bool,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    tallies: HashMap<u64, ReplyTally>,
    errors: Vec<String>,
    /// Checkpoint restores, three per pause: seconds, or what went wrong.
    restores: Vec<Result<f64, String>>,
    /// Round-trip units, one per pause.
    trips: Vec<Result<f64, String>>,
}

impl ClientLog {
    fn merge(&mut self, other: ClientLog) {
        self.samples.extend(other.samples);
        for (id, t) in other.tallies {
            let mine = self.tallies.entry(id).or_default();
            for (reply, n) in t.seen {
                mine.add(reply, n);
            }
        }
        self.errors.extend(other.errors);
        self.restores.extend(other.restores);
        self.trips.extend(other.trips);
    }
}

/// One in-process restore of a server checkpoint, proven by answering a
/// request from the restored memo.
struct Restore<'a> {
    checkpoint: &'a Path,
    req: Cow<'a, Request>,
    want: &'a Expected,
}

impl Restore<'_> {
    fn once(&self) -> Result<f64, String> {
        let t0 = Instant::now();
        let mut memo = snap::load_shared(self.checkpoint)
            .map_err(|e| format!("loading the server checkpoint: {e}"))?;
        let reply = Reply::Eval(run_engine(&self.req.term, self.req.fuel, &mut memo).to_string());
        let took = t0.elapsed().as_secs_f64();
        if reply_matches(self.want, &reply) {
            Ok(took)
        } else {
            Err(format!("restored memo answered {reply:?}"))
        }
    }
}

/// The timed closed loop: each connection sends its next request only
/// after the previous one's terminal reply. With `restore`, both
/// connections pause at every window boundary while connection 0
/// restores a checkpoint and times a round-trip unit, so both run
/// uncontended and sample the whole run rather than one moment of it. Also returns the server's
/// VmHWM at the [`RSS_AT_REQUESTS`]th completed request, if reached.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    addr: &str,
    server_pid: &str,
    stream: &Stream,
    seed: u64,
    seconds: f64,
    trace: bool,
    epoch: Instant,
    restore: Option<&Restore>,
) -> (ClientLog, Tracer, Duration, Option<f64>) {
    let started = Instant::now();
    let served = std::sync::atomic::AtomicU64::new(0);
    let rss = std::sync::OnceLock::new();
    let until = started + Duration::from_secs_f64(seconds);
    let next_cold = std::sync::atomic::AtomicU64::new(0);
    let boundaries = (seconds / WINDOW.as_secs_f64()).ceil() as u128 - 1;
    let pause = std::sync::Barrier::new(CONNECTIONS);
    let mut log = ClientLog::default();
    let mut tracer = Tracer::new(trace, epoch);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (next_cold, pause, served, rss) = (&next_cold, &pause, &served, &rss);
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut tracer = Tracer::new(trace, epoch);
                    let mut rng =
                        XorShift64::new(seed ^ 0x5EED_0000 ^ ((c as u64 + 1) * 0x9E37_79B9));
                    let mut conn = Client::connect(addr).ok();
                    let mut seq = 0u64;
                    let mut crossed = 0u128;
                    loop {
                        let now = Instant::now();
                        if let Some(restore) = restore {
                            // Every connection crosses every boundary, so the
                            // barrier always fills.
                            let w = now.duration_since(started).as_nanos() / WINDOW.as_nanos();
                            while crossed < w.min(boundaries) {
                                pause.wait();
                                if c == 0 {
                                    for _ in 0..RESTORES_PER_BOUNDARY {
                                        log.restores.push(restore.once());
                                    }
                                    log.trips.push(round_trip_unit());
                                }
                                pause.wait();
                                crossed += 1;
                            }
                        }
                        if now >= until {
                            break;
                        }
                        let traced = trace
                            && (now.duration_since(started).as_nanos() / TRACE_SLICE.as_nanos())
                                % 2
                                == 1;
                        let id = match stream {
                            Stream::Warm(pool) => rng.below(pool.len() as u64),
                            Stream::Cold(_) => {
                                next_cold.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                            }
                        };
                        let req = stream.request(id);
                        let t0 = Instant::now();
                        let out = match conn.as_mut() {
                            Some(conn) => exchange(conn, &req),
                            None => Err("not connected".into()),
                        };
                        let t1 = Instant::now();
                        let (wall_us, failed) = match out {
                            Ok((reply, wall_us)) => {
                                log.tallies.entry(id).or_default().add(reply, 1);
                                let n = served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                if n + 1 == RSS_AT_REQUESTS {
                                    let _ = rss.set(peak_rss_mb(server_pid));
                                }
                                (wall_us, false)
                            }
                            Err(e) => {
                                if log.errors.len() < 4 {
                                    log.errors.push(format!("{}: {e}", req.kind.name()));
                                }
                                // The stream may be out of sync; start over.
                                conn = Client::connect(addr).ok();
                                (None, true)
                            }
                        };
                        if traced {
                            let name = match req.kind {
                                Kind::Reaches => "serve.reaches",
                                Kind::Tpc => "serve.tpc",
                                Kind::Watch => "serve.watch",
                            };
                            tracer.record(name, t0, t1, None, ((c as u64) << 40) | seq);
                        }
                        seq += 1;
                        log.samples.push(Sample {
                            id,
                            kind: req.kind,
                            start_ns: t0.duration_since(epoch).as_nanos() as u64,
                            latency_ns: t1.duration_since(t0).as_nanos() as u64,
                            wall_us,
                            traced,
                            failed,
                        });
                    }
                    (log, tracer)
                })
            })
            .collect();
        for h in handles {
            let (l, t) = h.join().expect("client thread");
            log.merge(l);
            tracer.absorb(t);
        }
    });
    (log, tracer, started.elapsed(), rss.get().copied())
}

/// Reference answers for `ids`, computed on two oracle threads.
fn oracle(stream: &Arc<Stream>, ids: Vec<u64>) -> HashMap<u64, Expected> {
    let half = ids.len().div_ceil(2);
    let parts: Vec<Vec<u64>> = ids.chunks(half.max(1)).map(<[u64]>::to_vec).collect();
    let handles: Vec<_> = parts
        .into_iter()
        .map(|part| {
            let stream = Arc::clone(stream);
            oracle_thread(move || {
                part.into_iter()
                    .map(|id| (id, expected(&stream.request(id))))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("oracle thread"))
        .collect()
}

/// Judges tallied replies; returns how many replies were wrong.
pub(crate) fn judge(tallies: &HashMap<u64, ReplyTally>, want: &HashMap<u64, Expected>) -> u64 {
    tallies
        .iter()
        .flat_map(|(id, t)| t.seen.iter().map(move |(reply, n)| (id, reply, n)))
        .filter(|&(id, reply, _)| !reply_matches(&want[id], reply))
        .map(|(_, _, n)| *n)
        .sum()
}

/// Spawns a server and runs the warm-up pass: the `setup_s` interval.
fn set_up(
    bin: &Path,
    snapshot: &Path,
    stream: &Stream,
    want: &HashMap<u64, Expected>,
    setup: u64,
    verdict: &mut Verdict,
) -> Result<(Server, Client, Duration), String> {
    let t0 = Instant::now();
    let server = Server::spawn(bin, snapshot)?;
    let mut conn = Client::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let pong = conn.round_trip("ping")?;
    if pong.kind() != Some("pong") {
        return Err(format!("ping answered {pong:?}"));
    }
    for id in stream.warmup_ids(setup) {
        let req = stream.request(id);
        verdict.attempted += 1;
        match exchange(&mut conn, &req) {
            Ok((reply, _)) if reply_matches(&want[&id], &reply) => {}
            Ok((reply, _)) => verdict.fail(format!(
                "warm-up {}: wrong reply {reply:?}",
                req.kind.name()
            )),
            Err(e) => verdict.fail(format!("warm-up {}: {e}", req.kind.name())),
        }
    }
    Ok((server, conn, t0.elapsed()))
}

fn stats(conn: &mut Client) -> Result<FlatReply, String> {
    let r = conn.round_trip("stats")?;
    match r.kind() {
        Some("stats") => Ok(r),
        _ => Err(format!("stats answered {r:?}")),
    }
}

/// Checkpoint files of one run, removed when the run ends.
struct Checkpoints(Vec<PathBuf>);

impl Drop for Checkpoints {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Client latencies in µs; a failed request counts as infinitely slow.
fn latencies_us<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Vec<f64> {
    samples
        .into_iter()
        .map(|s| {
            if s.failed {
                f64::INFINITY
            } else {
                s.latency_ns as f64 / 1e3
            }
        })
        .collect()
}

pub fn run(
    run: &Run,
    cold: bool,
    metrics: &mut Metrics,
    verdict: &mut Verdict,
) -> Result<Tracer, String> {
    let stream = Arc::new(if cold {
        Stream::Cold(run.seed)
    } else {
        Stream::Warm(warm_pool())
    });
    let setups = if run.trace { 1 } else { SETUPS };
    // One fresh checkpoint path per set-up: each server boots cold and
    // writes its warmed working set there when it shuts down.
    let checkpoints = Checkpoints(
        (0..setups)
            .map(|s| {
                run.out_dir
                    .join(format!("serve-{}-{s}.snap", std::process::id()))
            })
            .collect(),
    );
    for path in &checkpoints.0 {
        let _ = std::fs::remove_file(path);
    }
    let warmup_ids: Vec<u64> = (0..setups as u64)
        .flat_map(|s| stream.warmup_ids(s))
        .collect();
    let mut want = oracle(&stream, warmup_ids);

    let mut setup_times = Vec::new();
    let mut kept = None;
    for (s, path) in checkpoints.0.iter().enumerate() {
        let (server, conn, took) = set_up(&run.lambdav, path, &stream, &want, s as u64, verdict)?;
        setup_times.push(took.as_secs_f64());
        if s + 1 == setups {
            kept = Some((server, conn));
        } else {
            drop(conn);
            server.stop()?;
        }
    }
    let (server, mut conn) = kept.expect("at least one set-up");
    // Restore: the checkpoint the previous set-up's server wrote at
    // shutdown (its warmed working set), proven by answering that
    // set-up's last warm-up `reaches` from it.
    let restore = match setups.checked_sub(2) {
        Some(setup) if !run.trace => {
            let probe = stream
                .warmup_ids(setup as u64)
                .into_iter()
                .rev()
                .find(|&id| stream.request(id).kind == Kind::Reaches)
                .ok_or("the warm-up pass sends no reaches request")?;
            Some(Restore {
                checkpoint: &checkpoints.0[setup],
                req: stream.request(probe),
                want: &want[&probe],
            })
        }
        _ => None,
    };
    let mut trips = Reference::round_trip();
    for _ in 0..HOST_UNITS {
        trips.push(round_trip_unit()?);
    }
    let before = stats(&mut conn)?;
    // The server closes a session idle for 30 s; the timed phase may be
    // longer, so the closing `stats` uses a fresh connection.
    drop(conn);
    let epoch = Instant::now();
    let (log, mut tracer, elapsed, rss_at) = closed_loop(
        &server.addr,
        &server.pid(),
        &stream,
        run.seed,
        run.seconds,
        run.trace,
        epoch,
        restore.as_ref(),
    );
    let mut conn = Client::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let after = stats(&mut conn)?;
    let rss = rss_at.unwrap_or_else(|| {
        eprintln!("serve: fewer than {RSS_AT_REQUESTS} requests; peak_rss_mb read at the end");
        peak_rss_mb(&server.pid())
    });
    drop(conn);
    server.stop()?;
    for _ in 0..HOST_UNITS {
        trips.push(round_trip_unit()?);
    }

    // Judge every reply of the timed phase against the reference.
    let missing: Vec<u64> = log
        .tallies
        .keys()
        .filter(|id| !want.contains_key(id))
        .copied()
        .collect();
    want.extend(oracle(&stream, missing));
    let protocol_failures = log.samples.iter().filter(|s| s.failed).count() as u64;
    let wrong = judge(&log.tallies, &want);
    verdict.attempted += log.samples.len() as u64;
    verdict.failed += protocol_failures + wrong;
    for e in &log.errors {
        verdict.note(e.clone());
    }
    if wrong > 0 {
        verdict.note(format!(
            "{wrong} replies differ from the reference evaluator"
        ));
    }
    let mut restores = Vec::new();
    for r in &log.restores {
        verdict.attempted += 1;
        match r {
            Ok(took) => restores.push(*took),
            Err(e) => verdict.fail(e.clone()),
        }
    }
    for unit in log.trips {
        trips.push(unit?);
    }
    let correct = log.samples.len() as u64 - protocol_failures - wrong;
    eprintln!(
        "serve: {} requests ({correct} correct) in {:.2} s over {CONNECTIONS} connections; \
         round-trip unit {:.4} s",
        log.samples.len(),
        elapsed.as_secs_f64(),
        trips.unit_s()
    );

    if !run.trace {
        // Each figure is the median over the windows between pauses of
        // that window's figure, so a burst of host interference moves
        // few windows and not the result; then it is scaled to the
        // reference host by the round-trip unit.
        let mut windows: Vec<Vec<&Sample>> =
            vec![Vec::new(); (run.seconds / WINDOW.as_secs_f64()) as usize];
        for s in &log.samples {
            if let Some(w) = windows.get_mut((s.start_ns / WINDOW.as_nanos() as u64) as usize) {
                w.push(s);
            }
        }
        windows.retain(|w| !w.is_empty());
        let per_window = |f: &dyn Fn(&[&Sample]) -> f64| {
            median(&windows.iter().map(|w| f(w)).collect::<Vec<_>>())
        };
        let latency = |w: &[&Sample], p: f64| percentile(&latencies_us(w.iter().copied()), p);
        let watch = |w: &[&Sample]| {
            percentile(
                &latencies_us(w.iter().copied().filter(|s| s.kind == Kind::Watch)),
                50.0,
            )
        };
        let correct_share = correct as f64 / log.samples.len().max(1) as f64;
        let scale = trips.scale();
        metrics.put("setup_s", median(&setup_times) * scale, "s");
        metrics.put(
            "throughput_rps",
            per_window(&|w| w.len() as f64 * correct_share / WINDOW.as_secs_f64()) / scale,
            "1/s",
        );
        metrics.put(
            "latency_p50_us",
            per_window(&|w| latency(w, 50.0)) * scale,
            "us",
        );
        metrics.put(
            "latency_p99_us",
            per_window(&|w| latency(w, 99.0)) * scale,
            "us",
        );
        metrics.put("fixpoint_s", per_window(&watch) / 1e6 * scale, "s");
        metrics.put("restore_s", median(&restores) * scale, "s");
        metrics.put("peak_rss_mb", rss, "MB");
        return Ok(tracer);
    }

    // ---- traced run: the per-layer ledger ----
    let delta = |k: &str| num(&after, k).unwrap_or(0) as f64 - num(&before, k).unwrap_or(0) as f64;
    let (hits, misses) = (delta("memo_hits"), delta("memo_misses"));
    metrics.put(
        "failed_share",
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        "share",
    );
    metrics.put(
        "runtime.server.memo_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    metrics.put("runtime.server.memo_misses", misses, "count");
    metrics.put(
        "runtime.server.interner_nodes_growth",
        delta("interner_nodes"),
        "count",
    );
    metrics.put("runtime.server.gc_runs", delta("gc_runs"), "count");
    metrics.put("runtime.server.rejected", delta("rejected"), "count");
    metrics.put("host.round_trip_unit_s", trips.unit_s(), "s");
    let (wall, outside): (Vec<f64>, Vec<f64>) = log
        .samples
        .iter()
        .filter_map(|s| {
            let wall = s.wall_us? as f64;
            Some((wall, 1.0 - wall * 1e3 / s.latency_ns.max(1) as f64))
        })
        .unzip();
    metrics.put("runtime.server.wall_us_p50", percentile(&wall, 50.0), "us");
    metrics.put(
        "runtime.server.outside_share",
        percentile(&outside, 50.0),
        "share",
    );
    for kind in Kind::ALL {
        let xs = latencies_us(log.samples.iter().filter(|s| s.traced && s.kind == kind));
        metrics.put(
            format!("serve.{}.latency_p50_us", kind.name()),
            percentile(&xs, 50.0),
            "us",
        );
    }
    let traced_p50 = percentile(&latencies_us(log.samples.iter().filter(|s| s.traced)), 50.0);
    let untraced_p50 = percentile(
        &latencies_us(log.samples.iter().filter(|s| !s.traced)),
        50.0,
    );
    metrics.put("serve.latency_samples", log.samples.len() as f64, "count");

    // Replay the warm-up and then the timed stream, in send order,
    // through the calls a session makes, over one shared memo.
    let mut order: Vec<(u64, u64)> = log.samples.iter().map(|s| (s.start_ns, s.id)).collect();
    order.sort_unstable();
    let timed: Vec<u64> = order.iter().take(REPLAY_CAP).map(|&(_, id)| id).collect();
    let ledger = replay(&stream, &stream.warmup_ids(0), &timed, &want, &mut tracer);
    if ledger.wrong > 0 {
        verdict.break_run(format!(
            "in-process replay: {} replies differ from the reference",
            ledger.wrong
        ));
    }
    let total: f64 = ledger.layers.iter().flatten().sum();
    let mut layer_p50_sum = 0.0;
    for (name, times) in LAYERS.iter().zip(&ledger.layers) {
        let p50 = percentile(times, 50.0);
        layer_p50_sum += p50;
        metrics.put(format!("{name}_us"), p50, "us");
        metrics.put(
            format!("{name}_share"),
            times.iter().sum::<f64>() / total.max(1e-9),
            "share",
        );
    }
    metrics.put(
        "replay.unaccounted_share",
        (traced_p50 - layer_p50_sum) / traced_p50.max(1e-9),
        "share",
    );
    metrics.put(
        "trace.overhead_share",
        traced_p50 / untraced_p50.max(1e-9) - 1.0,
        "share",
    );
    Ok(tracer)
}

/// The per-request layers of a session, in call order.
pub const LAYERS: [&str; 6] = [
    "runtime.server.protocol.parse_request",
    "core.parser.parse",
    "core.term.free_vars",
    "core.engine.run",
    "core.display.render",
    "runtime.server.protocol.reply",
];

/// One budgeted engine run with the server's default limits, as
/// `session.rs` makes it.
fn run_engine(term: &TermRef, fuel: usize, memo: &mut SharedInternTable) -> TermRef {
    let gauge: NodeGauge = {
        let handle = memo.clone();
        Arc::new(move || handle.interner().len())
    };
    let mut budget = Budget::new(usize::MAX)
        .with_deadline(Instant::now() + DEFAULT_DEADLINE)
        .with_node_quota(DEFAULT_NODE_QUOTA)
        .with_node_gauge(gauge);
    engine::run(term, fuel, &mut budget, memo)
}

struct ReplayLedger {
    /// Per layer, per replayed request: microseconds.
    layers: [Vec<f64>; 6],
    wrong: u64,
}

/// Re-executes requests through the public calls `session.rs` makes:
/// `parse_request`, `parser::parse`, `free_vars`, `engine::run` over a
/// `SharedInternTable`, `Display`, and `Obj::finish`.
fn replay(
    stream: &Stream,
    warmup: &[u64],
    timed: &[u64],
    want: &HashMap<u64, Expected>,
    tracer: &mut Tracer,
) -> ReplayLedger {
    let mut memo = SharedInternTable::new();
    let mut ledger = ReplayLedger {
        layers: Default::default(),
        wrong: 0,
    };
    let mut tallies: HashMap<u64, ReplyTally> = HashMap::new();
    for (n, &id) in warmup.iter().chain(timed).enumerate() {
        let timing = n >= warmup.len();
        let req = stream.request(id);
        let mut t = [Duration::ZERO; 6];
        let t0 = Instant::now();
        let parsed = parse_request(&req.line).expect("benchmark requests are well-formed");
        let t1 = Instant::now();
        let term =
            parser::parse(parsed.source.as_deref().unwrap_or_default()).expect("requests parse");
        let t2 = Instant::now();
        let fv = term.free_vars();
        assert!(fv.is_empty(), "requests are closed");
        let t3 = Instant::now();
        t[0] = t1 - t0;
        t[1] = t2 - t1;
        t[2] = t3 - t2;
        memo.begin_generation();
        let fuel = parsed.fuel.unwrap_or(64);
        let eval = |f: usize, t: &mut [Duration; 6], memo: &mut SharedInternTable| {
            let a = Instant::now();
            let r = run_engine(&term, f, memo);
            let b = Instant::now();
            let text = r.to_string();
            t[3] += b - a;
            t[4] += b.elapsed();
            text
        };
        let reply = match parsed.verb {
            Verb::Watch => {
                let mut obs: Vec<(u64, String)> = Vec::new();
                let points = req.watch_points();
                for &f in &points {
                    let text = eval(f, &mut t, &mut memo);
                    if obs.last().is_none_or(|(_, last)| *last != text) {
                        let a = Instant::now();
                        let mut o = Obj::kind("obs");
                        o.push_num("fuel", f as u64).push_str("result", &text);
                        std::hint::black_box(o.finish());
                        t[5] += a.elapsed();
                        obs.push((f as u64, text));
                    }
                }
                let a = Instant::now();
                let mut o = Obj::kind("done");
                o.push_num("fuel", fuel as u64)
                    .push_num("steps", points.len() as u64);
                std::hint::black_box(o.finish());
                t[5] += a.elapsed();
                Reply::Watch {
                    obs,
                    steps: points.len() as u64,
                }
            }
            _ => {
                let text = eval(fuel, &mut t, &mut memo);
                let a = Instant::now();
                let mut o = Obj::kind("ok");
                o.push_str("result", &text).push_num("fuel", fuel as u64);
                std::hint::black_box(o.finish());
                t[5] += a.elapsed();
                Reply::Eval(text)
            }
        };
        if memo.interner().len() > GC_NODE_WATERMARK {
            memo = memo.collected(GC_KEEP_GENERATIONS);
        }
        tallies.entry(id).or_default().add(reply, 1);
        if timing {
            let req_id = (1u64 << 62) | n as u64;
            let mut at = t0;
            let parent = tracer.record(
                "replay.request",
                t0,
                t0 + t.iter().sum::<Duration>(),
                None,
                req_id,
            );
            for (k, d) in t.iter().enumerate() {
                ledger.layers[k].push(d.as_nanos() as f64 / 1e3);
                tracer.record(LAYERS[k], at, at + *d, parent, req_id);
                at += *d;
            }
        }
    }
    ledger.wrong = judge(&tallies, want);
    ledger
}
