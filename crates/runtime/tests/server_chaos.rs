//! Chaos suite for `lambdav serve`: deterministic seeded fault injection
//! in the style of the CRDT cluster scheduler — malformed frames,
//! mid-stream disconnects, fuel bombs, deep-nesting parser bombs,
//! slowloris writers, and admission storms — asserting three invariants
//! throughout:
//!
//! 1. the server process never panics or wedges (every test ends with a
//!    clean drain);
//! 2. every rejection is a *structured* error drawn from the published
//!    code set — no dropped connections without a reply, no garbage;
//! 3. abuse does not destroy service for others: after the storm, a
//!    fresh connection's warm-cache latency is within 2x of the
//!    pre-chaos baseline.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use lambda_join_core::encodings::{self, Graph};
use lambda_join_core::rng::XorShift64;
use lambda_join_runtime::server::protocol::{json_escape, ErrorCode, FlatReply};
use lambda_join_runtime::server::{serve, ServerConfig, ServerHandle};

// ---------------------------------------------------------- test client --

/// Tests that assert on latency hold this exclusively; every other test
/// holds it shared. The harness runs tests side by side, and on a small
/// host another test's client and server threads compete with the timed
/// client for CPU, which shows up as tail latency the server under test
/// did not cause.
static CPU: RwLock<()> = RwLock::new(());

fn shared_cpu() -> RwLockReadGuard<'static, ()> {
    CPU.read().unwrap_or_else(PoisonError::into_inner)
}

fn exclusive_cpu() -> RwLockWriteGuard<'static, ()> {
    CPU.write().unwrap_or_else(PoisonError::into_inner)
}

struct Client {
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let conn = TcpStream::connect(handle.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        conn.set_nodelay(true).unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        Client { conn, reader }
    }

    fn send(&mut self, line: &str) {
        self.conn.write_all(line.as_bytes()).expect("send");
        self.conn.write_all(b"\n").expect("send newline");
    }

    /// Reads one reply; panics on EOF or malformed JSON (the server must
    /// never emit either in response to a complete request line).
    fn recv(&mut self) -> FlatReply {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read reply");
        assert!(n > 0, "server closed the connection without a reply");
        FlatReply::parse(&line).unwrap_or_else(|e| panic!("unparseable reply {line:?}: {e}"))
    }

    fn round_trip(&mut self, line: &str) -> FlatReply {
        self.send(line);
        self.recv()
    }
}

fn quote(src: &str) -> String {
    format!("\"{}\"", json_escape(src))
}

fn reach_line() -> String {
    let src = encodings::reaches(&Graph::cycle(6), 0).to_string();
    format!("eval fuel={} {}", 24 * 6, quote(&src))
}

fn evens_watch_line(fuel: usize) -> String {
    format!(
        "watch fuel={fuel} {}",
        quote(&encodings::evens().to_string())
    )
}

/// Asserts the reply is a structured error from the published code set.
fn assert_structured_err(reply: &FlatReply) -> ErrorCode {
    assert_eq!(reply.kind(), Some("err"), "expected err reply: {reply:?}");
    reply
        .error_code()
        .unwrap_or_else(|| panic!("error code outside the published set: {reply:?}"))
}

/// Minimum round-trip latency of the (memo-warm) reach request over `n`
/// tries on a fresh connection.
fn warm_reach_latency(handle: &ServerHandle, n: usize) -> Duration {
    let mut client = Client::connect(handle);
    let line = reach_line();
    // One untimed request to fill the memo / touch the pointer caches.
    let _ = client.round_trip(&line);
    let mut best = Duration::MAX;
    for _ in 0..n {
        let t0 = Instant::now();
        let r = client.round_trip(&line);
        assert!(matches!(r.kind(), Some("ok") | Some("err")), "{r:?}");
        best = best.min(t0.elapsed());
    }
    best
}

// --------------------------------------------------------------- faults --

#[test]
fn malformed_frames_get_structured_errors_and_session_survives() {
    let _cpu = shared_cpu();
    let handle = serve(ServerConfig::default()).unwrap();
    let mut client = Client::connect(&handle);
    let mut rng = XorShift64::new(0xC4A0_5001);

    let fragments = [
        "explode",
        "eval",
        "eval fuel=",
        "eval fuel=-3 \"1\"",
        "eval feul=9 \"1\"",
        "eval \"unclosed",
        "eval \"1\" junk",
        "watch step=x \"1\"",
        "\u{1}\u{2}\u{3}",
        "eval fuel=9 \"\\q\"",
        "}{",
        "ping extra=\"",
    ];
    for round in 0..64 {
        let frame = if rng.chance(50) {
            fragments[rng.below(fragments.len() as u64) as usize].to_string()
        } else {
            // Random printable garbage.
            (0..rng.below(40) + 1)
                .map(|_| (b'!' + rng.below(90) as u8) as char)
                .collect()
        };
        if frame.trim().is_empty() || frame == "ping" {
            continue;
        }
        let reply = client.round_trip(&frame);
        match reply.kind() {
            Some("err") => {
                assert_structured_err(&reply);
            }
            // A garbage frame can accidentally be a well-formed verb
            // (e.g. "stats"); any structured reply is acceptable.
            Some(_) => {}
            None => panic!("round {round}: reply without kind: {reply:?}"),
        }
    }
    // The session took 64 bad frames and still serves.
    assert_eq!(client.round_trip("ping").kind(), Some("pong"));
    assert!(
        handle.stop(),
        "server failed to drain after malformed frames"
    );
}

#[test]
fn deep_nesting_parser_bombs_are_rejected_not_fatal() {
    let _cpu = shared_cpu();
    let handle = serve(ServerConfig::default()).unwrap();
    let mut client = Client::connect(&handle);

    let paren_bomb = format!("{}1{}", "(".repeat(5_000), ")".repeat(5_000));
    let lam_bomb = format!("{}1", "\\\\x. (".repeat(2_000)); // unbalanced on purpose
    let frz_bomb = format!("{}{{1}}{}", "frz (".repeat(3_000), ")".repeat(3_000));
    for bomb in [&paren_bomb, &lam_bomb, &frz_bomb] {
        let reply = client.round_trip(&format!("eval fuel=8 {}", quote(bomb)));
        let code = assert_structured_err(&reply);
        assert!(
            matches!(code, ErrorCode::ParseError | ErrorCode::Malformed),
            "bomb should die in the parser, got {code:?}"
        );
    }
    // The depth cap protected the native stack; the session lives.
    assert_eq!(client.round_trip("ping").kind(), Some("pong"));
    assert!(handle.stop());
}

#[test]
fn fuel_bombs_are_rejected_with_bad_request_or_overloaded() {
    let _cpu = shared_cpu();
    let cfg = ServerConfig {
        max_fuel: 1 << 12,
        max_outstanding_fuel: 1 << 10,
        ..ServerConfig::default()
    };
    let handle = serve(cfg).unwrap();
    let mut client = Client::connect(&handle);

    // Over the per-request cap: permanent rejection.
    let r = client.round_trip(&format!("eval fuel=999999999999 {}", quote("1")));
    assert_eq!(assert_structured_err(&r), ErrorCode::BadRequest);

    // Under the cap but over the gate: shed with a retry hint.
    let r = client.round_trip(&format!("eval fuel=4000 {}", quote("1")));
    assert_eq!(assert_structured_err(&r), ErrorCode::Overloaded);
    assert!(r.num_of("retry_after_ms").unwrap() > 0);

    // Reasonable requests still served.
    let r = client.round_trip(&format!("eval fuel=8 {}", quote("{1} \\/ {2}")));
    assert_eq!(r.kind(), Some("ok"));
    assert!(handle.stop());
}

#[test]
fn slowloris_writer_is_cut_off_with_a_structured_error() {
    let _cpu = shared_cpu();
    let cfg = ServerConfig {
        line_deadline_ms: 250,
        ..ServerConfig::default()
    };
    let handle = serve(cfg).unwrap();
    let conn = TcpStream::connect(handle.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut w = conn.try_clone().unwrap();
    // Drip half a request and stall past the per-line deadline.
    w.write_all(b"eval fuel=8 \"{1} ").unwrap();
    std::thread::sleep(Duration::from_millis(600));
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line).unwrap();
    let reply = FlatReply::parse(&line).expect("slowloris cutoff must still be structured");
    assert_eq!(assert_structured_err(&reply), ErrorCode::TooLarge);
    // And the server still serves fresh clients.
    let mut client = Client::connect(&handle);
    assert_eq!(client.round_trip("ping").kind(), Some("pong"));
    assert!(handle.stop());
}

#[test]
fn oversized_frames_are_rejected_with_too_large() {
    let _cpu = shared_cpu();
    const CAP: usize = 1 << 10;
    let cfg = ServerConfig {
        max_line_bytes: CAP,
        ..ServerConfig::default()
    };
    let handle = serve(cfg).unwrap();
    /// An `eval` line of exactly `len` bytes before its newline.
    fn line_of(len: usize) -> String {
        let head = "eval fuel=8 \"{1}";
        let line = format!("{head}{}\"", " ".repeat(len - head.len() - 1));
        assert_eq!(line.len(), len);
        line
    }
    let huge = format!("eval fuel=8 {}", quote(&"{1} \\/ ".repeat(4_000)));
    // A frame far over the cap arrives over several reads; one just over
    // it arrives, newline and all, in one.
    for frame in [huge, line_of(CAP + 1)] {
        let conn = TcpStream::connect(handle.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut w = conn.try_clone().unwrap();
        // The server may reject and close while we are still writing; a
        // broken pipe here is fine — the structured reply is already queued.
        let _ = w.write_all(format!("{frame}\n").as_bytes());
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).unwrap();
        let reply = FlatReply::parse(&line).expect("oversize rejection must be structured");
        assert_eq!(
            assert_structured_err(&reply),
            ErrorCode::TooLarge,
            "{} bytes",
            frame.len()
        );
    }
    // A line exactly at the cap is served.
    let mut client = Client::connect(&handle);
    let r = client.round_trip(&line_of(CAP));
    assert_eq!(r.str_of("result"), Some("{1}"), "{r:?}");
    assert!(handle.stop());
}

#[test]
fn split_and_coalesced_request_lines_each_get_one_reply() {
    let _cpu = shared_cpu();
    const CAP: usize = 1 << 16;
    let cfg = ServerConfig {
        max_line_bytes: CAP,
        ..ServerConfig::default()
    };
    let handle = serve(cfg).unwrap();
    let mut client = Client::connect(&handle);
    // A line one byte under the cap, in 256 small writes: the reader
    // finds its newline once, however many reads the line took.
    let head = "eval fuel=8 \"{1}";
    let line = format!("{head}{}\"\n", " ".repeat(CAP - 2 - head.len()));
    assert_eq!(line.len(), CAP);
    for chunk in line.as_bytes().chunks(CAP / 256) {
        client.conn.write_all(chunk).expect("send chunk");
    }
    let r = client.recv();
    assert_eq!(r.str_of("result"), Some("{1}"), "{r:?}");
    // Two requests in one write get one reply each, in order.
    client
        .conn
        .write_all(b"eval fuel=8 \"{2}\"\neval fuel=8 \"{3}\"\n")
        .expect("send pair");
    for want in ["{2}", "{3}"] {
        let r = client.recv();
        assert_eq!(r.str_of("result"), Some(want), "{r:?}");
    }
    // Nothing else is queued: the next reply answers the next request.
    assert_eq!(client.round_trip("ping").kind(), Some("pong"));
    assert!(handle.stop());
}

#[test]
fn mid_stream_disconnects_leave_the_server_live() {
    let _cpu = shared_cpu();
    let cfg = ServerConfig {
        // Abandoned watches hold their fuel permits until the write
        // error or deadline cancels them; give the gate room for all 8
        // overlapping ghosts and a short deadline so they die fast.
        max_outstanding_fuel: 1 << 16,
        default_deadline_ms: 500,
        ..ServerConfig::default()
    };
    let handle = serve(cfg).unwrap();
    for _ in 0..8 {
        let mut client = Client::connect(&handle);
        client.send(&evens_watch_line(2_000));
        // Read one observation, then vanish mid-stream.
        let first = client.recv();
        assert_eq!(first.kind(), Some("obs"), "{first:?}");
        drop(client);
    }
    // Every abandoned watch is cancelled (write error or deadline);
    // the crew drains and fresh sessions work.
    let mut client = Client::connect(&handle);
    assert_eq!(client.round_trip("ping").kind(), Some("pong"));
    drop(client);
    assert!(
        handle.stop(),
        "abandoned watch streams must not wedge the drain"
    );
}

/// A `watch` writes the observations it has ready before each engine
/// run, so a stream whose prefix is cached still streams: the cached
/// prefix reaches the client at once, not when the last run ends.
#[test]
fn a_watch_past_its_cached_prefix_streams_before_its_deadline() {
    let _cpu = shared_cpu();
    const DEADLINE_MS: u64 = 1_000;
    let cfg = ServerConfig {
        max_outstanding_fuel: 1 << 20,
        ..ServerConfig::default()
    };
    let handle = serve(cfg).unwrap();
    let mut client = Client::connect(&handle);
    let evens = quote(&encodings::evens().to_string());
    // Cache the observations at fuel 0..=6.
    client.send(&format!("watch fuel=6 step=1 {evens}"));
    while client.recv().kind() == Some("obs") {}

    // `evens` never converges, so fuel 60000 in steps of 1 outlasts the
    // deadline by far.
    client.send(&format!(
        "watch fuel=60000 step=1 deadline_ms={DEADLINE_MS} {evens}"
    ));
    let first = client.recv();
    assert_eq!(first.kind(), Some("obs"), "{first:?}");
    let first_at = Instant::now();
    let terminal = loop {
        let r = client.recv();
        if r.kind() != Some("obs") {
            break r;
        }
    };
    let terminal_at = Instant::now();
    assert_eq!(
        assert_structured_err(&terminal),
        ErrorCode::DeadlineExceeded,
        "{terminal:?}"
    );
    let lead = terminal_at - first_at;
    assert!(
        lead >= Duration::from_millis(DEADLINE_MS / 2),
        "the first observation arrived only {lead:?} before the terminal line"
    );
    assert!(handle.stop());
}

#[test]
fn budget_storm_sheds_cleanly_and_recovers() {
    let _cpu = shared_cpu();
    let cfg = ServerConfig {
        max_outstanding_fuel: 256,
        max_sessions: 16,
        ..ServerConfig::default()
    };
    let handle = serve(cfg).unwrap();

    let (ok, shed) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..8 {
            let handle = &handle;
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(handle);
                let line = evens_watch_line(200).replace("watch", "eval");
                let (mut ok, mut shed) = (0u32, 0u32);
                for _ in 0..6 {
                    let r = client.round_trip(&line);
                    match r.kind() {
                        Some("ok") => ok += 1,
                        Some("err") => {
                            let code = assert_structured_err(&r);
                            match code {
                                ErrorCode::Overloaded => {
                                    assert!(r.num_of("retry_after_ms").unwrap() > 0);
                                    shed += 1;
                                }
                                ErrorCode::FuelExhausted | ErrorCode::DeadlineExceeded => ok += 1,
                                other => panic!("storm reply with code {other:?}: {r:?}"),
                            }
                        }
                        other => panic!("storm reply kind {other:?}: {r:?}"),
                    }
                }
                (ok, shed)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("storm client panicked"))
            .fold((0u32, 0u32), |(a, b), (c, d)| (a + c, b + d))
    });
    assert!(ok > 0, "the storm should not starve everyone");
    assert!(
        shed > 0,
        "8 clients x fuel 200 against a 256-fuel gate must shed sometimes"
    );
    // After the storm the gate is fully released.
    let mut client = Client::connect(&handle);
    let r = client.round_trip("stats");
    assert_eq!(r.num_of("outstanding_fuel"), Some(0), "{r:?}");
    assert!(handle.stop());
}

/// Round-trip latencies of `n` warm `reach` requests on `client`, sorted.
fn warm_reach_samples(client: &mut Client, n: usize) -> Vec<Duration> {
    let line = reach_line();
    let mut samples: Vec<Duration> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            let r = client.round_trip(&line);
            assert!(r.str_of("result").is_some(), "{r:?}");
            t0.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples
}

/// The in-flight fuel the admission gate reports.
fn outstanding_fuel(client: &mut Client) -> i64 {
    let stats = client.round_trip("stats");
    stats
        .num_of("outstanding_fuel")
        .expect("stats carries outstanding_fuel")
}

/// An admitted evaluation that runs for seconds shares the memo lock with
/// warm clients: its β-probes must not starve theirs. A second connection
/// times warm `reach` round trips while the long evaluation is provably
/// in flight, against a baseline taken with no antagonist.
#[test]
fn admitted_long_evaluation_does_not_starve_warm_clients() {
    let _cpu = exclusive_cpu();
    const FUEL: i64 = 60_000;
    const SAMPLES: usize = 600;
    let cfg = ServerConfig {
        max_fuel: 1 << 17,
        max_outstanding_fuel: 1 << 20,
        ..ServerConfig::default()
    };
    let handle = serve(cfg).unwrap();
    let mut warm = Client::connect(&handle);
    let _ = warm.round_trip(&reach_line()); // fill the memo
    let base = warm_reach_samples(&mut warm, SAMPLES);

    // `evens` never converges, so the evaluation runs to its deadline.
    let mut long = Client::connect(&handle);
    long.send(&format!(
        "eval fuel={FUEL} deadline_ms=2000 {}",
        quote(&encodings::evens().to_string())
    ));
    let admitted = Instant::now();
    while outstanding_fuel(&mut warm) < FUEL {
        assert!(
            admitted.elapsed() < Duration::from_secs(5),
            "the long evaluation was never admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let during = warm_reach_samples(&mut warm, SAMPLES);
    assert!(
        outstanding_fuel(&mut warm) >= FUEL,
        "the long evaluation ended before the warm samples did"
    );

    let r = long.recv();
    assert!(
        matches!(
            assert_structured_err(&r),
            ErrorCode::DeadlineExceeded | ErrorCode::FuelExhausted
        ),
        "{r:?}"
    );
    let pick = |s: &[Duration], q: usize| s[(s.len() - 1) * q / 100];
    for (name, q) in [("median", 50), ("p99", 99)] {
        let (b, d) = (pick(&base, q), pick(&during, q));
        assert!(
            d <= b * 2 + Duration::from_millis(2),
            "warm {name} starved by a running evaluation: baseline {b:?}, during {d:?}"
        );
    }
    drop((warm, long));
    assert!(handle.stop());
}

// ----------------------------------------------------------- the storm --

/// The full mixed chaos storm: seeded random interleaving of every fault
/// class against one server, concurrent with honest traffic, ending with
/// the liveness + degradation check.
#[test]
fn chaos_storm_never_wedges_and_warm_latency_survives() {
    let _cpu = exclusive_cpu();
    let cfg = ServerConfig {
        max_fuel: 1 << 12,
        max_outstanding_fuel: 1 << 14,
        line_deadline_ms: 300,
        ..ServerConfig::default()
    };
    let handle = serve(cfg).unwrap();

    // Pre-chaos baseline on a fresh connection.
    let pre = warm_reach_latency(&handle, 20);

    std::thread::scope(|scope| {
        for seed in 0..4u64 {
            let handle = &handle;
            scope.spawn(move || {
                let mut rng = XorShift64::new(0xBAD5_EED0 + seed);
                for _ in 0..12 {
                    match rng.below(6) {
                        // Honest request.
                        0 => {
                            let mut c = Client::connect(handle);
                            let r = c.round_trip(&reach_line());
                            assert!(matches!(r.kind(), Some("ok") | Some("err")), "{r:?}");
                        }
                        // Malformed frame.
                        1 => {
                            let mut c = Client::connect(handle);
                            let r = c.round_trip("eval feul=9 \"1\"");
                            assert_structured_err(&r);
                        }
                        // Parser bomb.
                        2 => {
                            let mut c = Client::connect(handle);
                            let bomb = format!("{}1{}", "(".repeat(2_000), ")".repeat(2_000));
                            let r = c.round_trip(&format!("eval fuel=8 {}", quote(&bomb)));
                            assert_structured_err(&r);
                        }
                        // Fuel bomb.
                        3 => {
                            let mut c = Client::connect(handle);
                            let r = c.round_trip(&format!("eval fuel=99999999 {}", quote("1")));
                            assert_structured_err(&r);
                        }
                        // Mid-stream disconnect.
                        4 => {
                            let mut c = Client::connect(handle);
                            c.send(&evens_watch_line(1_000));
                            let _ = c.recv();
                            drop(c);
                        }
                        // Half a frame, then vanish (fast slowloris).
                        _ => {
                            let conn = TcpStream::connect(handle.addr()).unwrap();
                            let mut w = conn.try_clone().unwrap();
                            let _ = w.write_all(b"eval fuel=8 \"{1}");
                            drop(conn);
                        }
                    }
                }
            });
        }
    });

    // Liveness: a fresh connection still gets warm-cache service, within
    // 2x of the pre-chaos baseline.
    let post = warm_reach_latency(&handle, 20);
    assert!(
        post <= pre * 2 + Duration::from_millis(2),
        "post-chaos warm latency degraded: pre {pre:?} post {post:?}"
    );

    // No panics leaked into the counters, and everything drains.
    let mut client = Client::connect(&handle);
    let stats = client.round_trip("stats");
    assert_eq!(stats.num_of("panics"), Some(0), "{stats:?}");
    drop(client);
    assert!(handle.stop(), "chaos storm wedged the drain");
}
