//! Server-driven passes: the open-loop generator (`serve-finegrained`)
//! and the closed-loop clients (`prefill-packed`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use milo_engine::PackedMoeModel;
use milo_moe::ResilienceContext;
use milo_serve::{ForwardError, ForwardModel, Request, Server, ServerConfig, ServerStats, Ticket};
use milo_tensor::{pool, Matrix};

use crate::workload::{Drive, Workload};

/// Delay between starting the server and the first scheduled arrival.
const LEAD: Duration = Duration::from_millis(20);

/// When the forward call(s) the server made for one request ran.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// Start of the first call.
    pub start: Instant,
    /// End of the last call.
    pub end: Instant,
    /// Calls made (more than one only after a retry).
    pub forwards: u32,
}

/// The model the server drives: the packed model's own
/// `ForwardModel::forward`, run at the workload's pool width, with every
/// call stamped so queue wait and service time can be told apart. Calls
/// are matched to requests through their prompts, which are distinct.
struct TimedModel {
    inner: Arc<PackedMoeModel>,
    pool_width: usize,
    index: HashMap<Vec<u32>, usize>,
    stamps: Mutex<Vec<Option<Stamp>>>,
}

impl ForwardModel for TimedModel {
    fn forward(&self, tokens: &[u32], ctx: &ResilienceContext) -> Result<Matrix, ForwardError> {
        let start = Instant::now();
        let out = pool::with_threads(self.pool_width, || {
            ForwardModel::forward(&*self.inner, tokens, ctx)
        });
        let end = Instant::now();
        if let Some(&i) = self.index.get(tokens) {
            let mut stamps = self.stamps.lock().expect("a worker panicked holding the stamps");
            let stamp = stamps[i].get_or_insert(Stamp { start, end, forwards: 0 });
            stamp.end = end;
            stamp.forwards += 1;
        }
        out
    }
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A response arrived.
    Ok,
    /// `Server::submit` refused it.
    Refused,
    /// Admitted, then ended with a typed error.
    Failed,
}

/// One request as its client saw it.
#[derive(Debug, Clone)]
pub struct Record {
    /// Prompt tokens.
    pub tokens: usize,
    /// When the schedule said to send it (closed loop: when it was sent).
    pub due: Instant,
    /// When `Server::submit` was called.
    pub sent: Instant,
    /// When `Server::submit` returned.
    pub submitted: Instant,
    /// When `Ticket::wait` returned, or the refusal came back.
    pub done: Instant,
    /// How it ended.
    pub outcome: Outcome,
    /// The forward call(s) the server made for it.
    pub stamp: Option<Stamp>,
}

impl Record {
    /// Latency, timed from when the request was due.
    pub fn latency(&self) -> Duration {
        self.done - self.due
    }
}

/// Everything one server-driven pass observed.
pub struct ServePass {
    /// One record per request, in schedule order.
    pub records: Vec<Record>,
    /// Server counters at shutdown.
    pub stats: ServerStats,
    /// First due time to last completion.
    pub wall: Duration,
    /// How late the generator sent each request, in ms (open loop only).
    pub lag_ms: Vec<f64>,
    /// Logits of the sampled requests, for the correctness gate.
    pub sampled: Vec<(usize, Matrix)>,
}

fn submit(server: &Server, prompt: &[u32]) -> (Instant, Option<Ticket>, Instant) {
    let sent = Instant::now();
    let ticket = server.submit(Request::new(prompt.to_vec())).ok();
    (sent, ticket, Instant::now())
}

fn finish(
    tokens: usize,
    due: Instant,
    sent: Instant,
    ticket: Option<Ticket>,
    submitted: Instant,
    keep: bool,
) -> (Record, Option<Matrix>) {
    let (outcome, logits) = match ticket {
        None => (Outcome::Refused, None),
        Some(t) => match t.wait() {
            Ok(resp) => (Outcome::Ok, keep.then_some(resp.logits)),
            Err(_) => (Outcome::Failed, None),
        },
    };
    let done = if outcome == Outcome::Refused { submitted } else { Instant::now() };
    (Record { tokens, due, sent, submitted, done, outcome, stamp: None }, logits)
}

/// Runs every prompt through a fresh `Server` over `model` as `w`
/// drives it, keeping the logits of the requests listed in `sample`.
///
/// # Panics
///
/// If `w` is not server-driven, or `arrivals` is missing for an open
/// loop.
pub fn run(
    w: &Workload,
    model: &Arc<PackedMoeModel>,
    prompts: &[Vec<u32>],
    arrivals: Option<&[Duration]>,
    sample: &[usize],
) -> ServePass {
    let timed = Arc::new(TimedModel {
        inner: Arc::clone(model),
        pool_width: w.pool_width,
        index: prompts.iter().enumerate().map(|(i, p)| (p.clone(), i)).collect(),
        stamps: Mutex::new(vec![None; prompts.len()]),
    });
    let server = Server::start(
        Arc::clone(&timed) as Arc<dyn ForwardModel>,
        ServerConfig { workers: w.workers, ..ServerConfig::default() },
    );
    let keep = |i: usize| sample.binary_search(&i).is_ok();
    let mut lag_ms = Vec::new();

    let mut results: Vec<(usize, Record, Option<Matrix>)> = match w.drive {
        Drive::OpenLoop { .. } => {
            let arrivals = arrivals.expect("open loop needs an arrival schedule");
            let start = Instant::now() + LEAD;
            lag_ms.reserve(prompts.len());
            std::thread::scope(|s| {
                let mut waiters = Vec::with_capacity(prompts.len());
                for (i, prompt) in prompts.iter().enumerate() {
                    let due = start + arrivals[i];
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let (sent, ticket, submitted) = submit(&server, prompt);
                    lag_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                    let kept = keep(i);
                    waiters.push(s.spawn(move || {
                        let (rec, logits) =
                            finish(prompt.len(), due, sent, ticket, submitted, kept);
                        (i, rec, logits)
                    }));
                }
                waiters.into_iter().map(|h| h.join().expect("waiter thread panicked")).collect()
            })
        }
        Drive::ClosedLoop { clients } => {
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|_| {
                        s.spawn(|| {
                            let mut mine = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(prompt) = prompts.get(i) else { break mine };
                                let (sent, ticket, submitted) = submit(&server, prompt);
                                let (rec, logits) =
                                    finish(prompt.len(), sent, sent, ticket, submitted, keep(i));
                                mine.push((i, rec, logits));
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread panicked"))
                    .collect()
            })
        }
        Drive::Decode { .. } => panic!("{} is not a server-driven workload", w.name),
    };
    let stats = server.shutdown();

    results.sort_by_key(|(i, ..)| *i);
    let stamps = timed.stamps.lock().expect("a worker panicked holding the stamps");
    let mut records = Vec::with_capacity(results.len());
    let mut sampled = Vec::new();
    for (i, mut rec, logits) in results {
        rec.stamp = stamps[i];
        records.push(rec);
        if let Some(l) = logits {
            sampled.push((i, l));
        }
    }
    let first = records.iter().map(|r| r.due).min();
    let last = records.iter().map(|r| r.done).max();
    let wall = match (first, last) {
        (Some(a), Some(b)) => b.saturating_duration_since(a),
        _ => Duration::ZERO,
    };
    ServePass { records, stats, wall, lag_ms, sampled }
}
