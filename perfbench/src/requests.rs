//! The serve request streams and their oracle.
//!
//! Every request is built as a λ∨ term with the workspace's term builders
//! and sent as its displayed text. The oracle evaluates the *built* term
//! with the recursive reference evaluator (`bigstep::spec`), never with the
//! serving path, so a bug in display, parsing, the frame machine or the
//! memo shows up as a mismatch.

use lambda_join_bench::loadclient::wire_quote;
use lambda_join_core::bigstep::spec::eval_fuel_recursive;
use lambda_join_core::builder::*;
use lambda_join_core::encodings::{self, Graph};
use lambda_join_core::parser;
use lambda_join_core::rng::XorShift64;
use lambda_join_core::term::TermRef;

/// The request kinds the per-kind latency split reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Reaches,
    Tpc,
    Watch,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Reaches, Kind::Tpc, Kind::Watch];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Reaches => "reaches",
            Kind::Tpc => "tpc",
            Kind::Watch => "watch",
        }
    }
}

/// One request: the wire line plus what the oracle needs.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub line: String,
    pub term: TermRef,
    pub fuel: usize,
    /// `Some(step)` for a streamed `watch`.
    pub step: Option<usize>,
}

impl Request {
    fn eval(kind: Kind, term: TermRef, fuel: usize) -> Request {
        let line = format!("eval fuel={fuel} {}", wire_quote(&term.to_string()));
        Request {
            kind,
            line,
            term,
            fuel,
            step: None,
        }
    }

    fn watch(term: TermRef, fuel: usize, step: usize) -> Request {
        let line = format!(
            "watch fuel={fuel} step={step} {}",
            wire_quote(&term.to_string())
        );
        Request {
            kind: Kind::Watch,
            line,
            term,
            fuel,
            step: Some(step),
        }
    }

    /// The fuel points a `watch` evaluates, exactly as the server walks
    /// them: 0, step, 2·step, …, capped at the request's fuel.
    pub fn watch_points(&self) -> Vec<usize> {
        let step = self.step.unwrap_or(1).max(1);
        let mut points = vec![0];
        let mut f = 0;
        while f < self.fuel {
            f = (f + step).min(self.fuel);
            points.push(f);
        }
        points
    }
}

/// The fixed `serve_warm` pool: reaches on small graphs, the §4
/// two-phase commit, and a streamed `evens` watch.
pub fn warm_pool() -> Vec<Request> {
    let reach = |g: Graph| {
        let fuel = 24 * g.edges.len();
        Request::eval(Kind::Reaches, encodings::reaches(&g, 0), fuel)
    };
    vec![
        reach(Graph::cycle(6)),
        reach(Graph::line(8)),
        reach(Graph::binary_tree(3)),
        reach(lambda_join_bench::workloads::diamond_chain(4)),
        Request::eval(Kind::Tpc, encodings::two_phase_commit(), 16),
        Request::watch(encodings::evens(), 12, 3),
    ]
}

/// Request `index` of the `serve_cold` stream for `seed`. Node labels and
/// stream starts are offset by the index, so no program repeats within a
/// stream and nothing one request tables is reused by another.
pub fn cold_request(seed: u64, index: u64) -> Request {
    let mut rng = XorShift64::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC01D);
    let base = 16 * index as i64 + 1_000;
    let n = 5 + rng.below(6) as i64;
    match rng.below(20) {
        // A random DAG: each node points at one or two later nodes.
        0..=7 => {
            let edges = (0..n)
                .map(|i| {
                    let mut out = Vec::new();
                    if i + 1 < n {
                        for _ in 0..1 + rng.below(2) {
                            let t = i + 1 + rng.below((n - i - 1) as u64) as i64;
                            if !out.contains(&(base + t)) {
                                out.push(base + t);
                            }
                        }
                    }
                    (base + i, out)
                })
                .collect();
            let start = base + rng.below(n as u64 / 2) as i64;
            Request::eval(
                Kind::Reaches,
                encodings::reaches(&Graph { edges }, start),
                8 * n as usize,
            )
        }
        // A random functional graph: one successor each, cycles allowed.
        8..=13 => {
            let edges = (0..n)
                .map(|i| (base + i, vec![base + rng.below(n as u64) as i64]))
                .collect();
            let start = base + rng.below(n as u64) as i64;
            Request::eval(
                Kind::Reaches,
                encodings::reaches(&Graph { edges }, start),
                8 * n as usize,
            )
        }
        // `evens` generalised: the set {k, k+d, k+2d, …}.
        14..=16 => {
            let d = 1 + rng.below(9) as i64;
            let body = join(
                set(vec![int(base)]),
                big_join("x", force(var("evens")), set(vec![add(var("x"), int(d))])),
            );
            let fuel = 8 + rng.below(9) as usize;
            let step = 1 + rng.below(4) as usize;
            Request::watch(force(fix("evens", lam("_", body))), fuel, step)
        }
        // `fromN k`, the paper's stream of naturals from k.
        _ => {
            let fuel = 8 + rng.below(9) as usize;
            let step = 1 + rng.below(4) as usize;
            Request::watch(app(encodings::from_n(), int(base)), fuel, step)
        }
    }
}

/// What a correct server replies, per the reference evaluator.
#[derive(Debug, Clone)]
pub enum Expected {
    /// The observation at the request's fuel.
    Eval(TermRef),
    /// The streamed observations (consecutive duplicates dropped, as the
    /// server drops them) and the number of fuel points evaluated.
    Watch {
        obs: Vec<(u64, TermRef)>,
        steps: u64,
    },
}

/// Runs the reference evaluator for `req`. Its native stack grows with
/// fuel, so callers run it on a thread with a large stack (see
/// [`oracle_thread`]).
pub fn expected(req: &Request) -> Expected {
    match req.step {
        None => Expected::Eval(eval_fuel_recursive(&req.term, req.fuel)),
        Some(_) => {
            let points = req.watch_points();
            let mut obs: Vec<(u64, TermRef)> = Vec::new();
            for &f in &points {
                let r = eval_fuel_recursive(&req.term, f);
                if obs.last().is_none_or(|(_, last)| !last.alpha_eq(&r)) {
                    obs.push((f as u64, r));
                }
            }
            Expected::Watch {
                obs,
                steps: points.len() as u64,
            }
        }
    }
}

/// Spawns `f` on a thread whose stack fits the reference evaluator.
pub fn oracle_thread<T: Send + 'static>(
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::JoinHandle<T> {
    std::thread::Builder::new()
        .name("oracle".into())
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn oracle thread")
}

/// A complete, well-formed reply to one request, reduced to what the
/// oracle judges (timing fields such as `wall_us` are dropped).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Reply {
    /// An `ok` or `fuel_exhausted` reply and its observation.
    Eval(String),
    /// The `obs` lines of a watch and the `steps` of its `done`.
    Watch { obs: Vec<(u64, String)>, steps: u64 },
}

/// Whether `reply` is α-equal to the oracle's answer. A reply whose
/// observation does not even parse is wrong.
pub fn reply_matches(want: &Expected, reply: &Reply) -> bool {
    let same = |text: &str, t: &TermRef| parser::parse(text).is_ok_and(|got| got.alpha_eq(t));
    match (want, reply) {
        (Expected::Eval(t), Reply::Eval(text)) => same(text, t),
        (
            Expected::Watch { obs, steps },
            Reply::Watch {
                obs: got,
                steps: got_steps,
            },
        ) => {
            steps == got_steps
                && obs.len() == got.len()
                && obs
                    .iter()
                    .zip(got)
                    .all(|((f, t), (g, text))| f == g && same(text, t))
        }
        _ => false,
    }
}

/// Distinct replies seen for one request, with how often each came back;
/// the warm loop sees the same few replies thousands of times and judges
/// each distinct one once.
#[derive(Debug, Default)]
pub struct ReplyTally {
    pub seen: Vec<(Reply, u64)>,
}

impl ReplyTally {
    pub fn add(&mut self, reply: Reply, times: u64) {
        match self.seen.iter_mut().find(|(r, _)| *r == reply) {
            Some((_, n)) => *n += times,
            None => self.seen.push((reply, times)),
        }
    }
}
