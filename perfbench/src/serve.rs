//! `serve_openloop`: the eos-serve micro-batcher (1 worker × 1 thread,
//! `max_batch` 32, `max_wait` 200 µs) answering the serve_bench model
//! (ResNet 1×8 on 3×16×16 inputs, restored from EOSW bytes) while one
//! generator thread submits on a fixed schedule at three fixed rates.
//!
//! The rates are absolute numbers, not fractions of a capacity measured
//! at run time: re-deriving them from the code under test would hide a
//! gain. Latency runs from each request's due time, so a stalled
//! generator or a full queue shows as latency, and the generator's own
//! lateness is reported.

use crate::measure::{ms, percentile, Outcome, Setup};
use eos_nn::{save_weights_bytes, Architecture, ConvNet, Layer};
use eos_serve::{InferenceModel, ServeConfig, ServeError, Server, Ticket};
use eos_tensor::{normal, Rng64, Tensor};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SHAPE: (usize, usize, usize) = (3, 16, 16);
pub const IN_LEN: usize = 3 * 16 * 16;
pub const CLASSES: usize = 4;

/// Offered rates (requests/s) and each phase's share of the run. Light
/// keeps batches at 1, busy keeps the batcher coalescing below capacity,
/// overload offers more than one worker thread can serve. Traced runs
/// on a 2-core host measured mean batch sizes of 1.0, 1.9 to 4.2 and 28
/// to 31 at these rates (`serve.batch_size_{light,busy,overload}`); at
/// 1000 requests/s the busy batches averaged 1.3, hardly batching.
const PHASES: [(&str, f64, f64); 3] = [
    ("light", 100.0, 0.2),
    ("busy", 3000.0, 0.3),
    ("overload", 8000.0, 0.5),
];
/// Requests answered later than this after their due time miss it;
/// goodput counts only requests that meet it. Twice the longest wait the
/// bounded queue imposes at the slowest capacity measured on a 2-core
/// host (~45 ms), so a latency blow-up shows while host speed alone
/// does not push requests across the limit.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// Bounded submit queue: past it the server sheds with a typed error.
const QUEUE_CAP: usize = 128;
/// Distinct request inputs, cycled by the generator.
const INPUTS: usize = 256;
/// Every this-many-th answer is kept and re-checked afterwards.
const SAMPLE_EVERY: usize = 37;
/// Set-ups timed after each round of the schedule (and as many at the
/// start, besides the one that builds the measured server).
const SETUP_PER_ROUND: usize = 1;
/// An accepted ticket still unresolved this long after its phase's end
/// is lost: far above the latency limit plus the ~45 ms the bounded
/// queue takes to drain at the slowest capacity seen.
const LOST_AFTER: Duration = Duration::from_secs(5);
/// Rounds of the light → busy → overload sequence per schedule.
const CYCLES: usize = 10;

fn arch() -> Architecture {
    Architecture::ResNet {
        blocks_per_stage: 1,
        width: 8,
    }
}

/// An untrained replica the EOSW blob is restored into.
pub fn fresh_net() -> Box<dyn Layer> {
    Box::new(ConvNet::new(arch(), SHAPE, CLASSES, &mut Rng64::new(0)))
}

/// The served model's EOSW bytes: a seeded net whose batch-norm running
/// statistics were moved by two train-mode forwards.
pub fn checkpoint(seed: u64) -> Vec<u8> {
    let mut rng = Rng64::new(seed);
    let mut net = ConvNet::new(arch(), SHAPE, CLASSES, &mut rng);
    for _ in 0..2 {
        let x = normal(&[16, IN_LEN], 0.0, 1.0, &mut rng);
        let _ = net.forward(&x, true);
    }
    save_weights_bytes(&mut net)
}

fn start(blob: &Arc<[u8]>) -> Server {
    let blob = Arc::clone(blob);
    Server::start(
        ServeConfig {
            max_batch: 32,
            max_wait: Duration::from_micros(200),
            queue_cap: QUEUE_CAP,
            workers: 1,
            threads_per_worker: 1,
        },
        move |_| {
            InferenceModel::from_eosw_bytes(fresh_net(), IN_LEN, &blob)
                .expect("serving checkpoint restores")
        },
    )
}

/// One set-up: the serving checkpoint built, a server started on it and
/// warmed with 32 requests.
fn set_up(seed: u64) -> (Server, Arc<[u8]>) {
    let blob: Arc<[u8]> = checkpoint(seed).into();
    let server = start(&blob);
    let warm = normal(&[1, IN_LEN], 0.0, 1.0, &mut Rng64::new(seed));
    for _ in 0..32 {
        server
            .predict(warm.data().to_vec())
            .expect("warm-up request");
    }
    (server, blob)
}

#[derive(Default)]
struct Phase {
    offered: u64,
    /// Submissions the server took (each returned a ticket).
    accepted: u64,
    /// Tickets that resolved, with an answer or an error.
    resolved: u64,
    shed: u64,
    /// Refused submissions, errored tickets, lost tickets and answers
    /// carrying another request's id.
    failed: u64,
    lost: u64,
    misrouted: u64,
    seconds: f64,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    ids: Vec<u64>,
    samples: Vec<(usize, Vec<f32>)>,
    /// Batches run and requests in them, from the trace (traced only).
    batches: u64,
    batched: u64,
}

impl Phase {
    fn goodput(&self) -> f64 {
        let good = self
            .latency_ms
            .iter()
            .filter(|&&l| l <= LATENCY_LIMIT_MS)
            .count();
        good as f64 / self.seconds
    }

    fn add(&mut self, p: Phase) {
        self.offered += p.offered;
        self.accepted += p.accepted;
        self.resolved += p.resolved;
        self.shed += p.shed;
        self.failed += p.failed;
        self.lost += p.lost;
        self.misrouted += p.misrouted;
        self.seconds += p.seconds;
        self.latency_ms.extend(p.latency_ms);
        self.late_ms.extend(p.late_ms);
        self.ids.extend(p.ids);
        self.samples.extend(p.samples);
        self.batches += p.batches;
        self.batched += p.batched;
    }
}

/// What the collector thread saw while redeeming a phase's tickets.
#[derive(Default)]
struct Redeemed {
    resolved: u64,
    failed: u64,
    lost: u64,
    misrouted: u64,
    latency_ms: Vec<f64>,
    ids: Vec<u64>,
    samples: Vec<(usize, Vec<f32>)>,
}

/// Count and sum of the trace's batch-size histogram so far.
fn batch_hist() -> (u64, u64) {
    eos_trace::snapshot()
        .histogram("serve.batch_size")
        .map_or((0, 0), |h| (h.count, h.sum))
}

/// One open-loop phase: `rate` requests/s for `length`. The generator
/// (this thread) never waits for answers; a collector thread redeems
/// tickets in submission order, which is the order one worker resolves
/// them in. A ticket still unresolved [`LOST_AFTER`] past the phase's
/// end counts as lost.
fn run_phase(server: &Server, inputs: &[Vec<f32>], rate: f64, length: Duration) -> Phase {
    let total = (length.as_secs_f64() * rate).round().max(1.0) as usize;
    let (tx, rx) = mpsc::channel::<(Instant, usize, Ticket)>();
    let mut phase = Phase {
        offered: total as u64,
        seconds: total as f64 / rate,
        late_ms: Vec::with_capacity(total),
        ..Phase::default()
    };
    let traced = eos_trace::enabled();
    let hist0 = if traced { batch_hist() } else { (0, 0) };
    let start = Instant::now();
    let deadline = start + length + LOST_AFTER;
    let got = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut got = Redeemed {
                latency_ms: Vec::with_capacity(total),
                ids: Vec::with_capacity(total),
                ..Redeemed::default()
            };
            for (due, i, ticket) in rx {
                let id = ticket.id();
                match ticket.wait_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Some(Ok(p)) => {
                        got.resolved += 1;
                        got.latency_ms.push(ms(due.elapsed()));
                        got.misrouted += u64::from(p.id != id);
                        got.ids.push(p.id);
                        if i % SAMPLE_EVERY == 0 {
                            got.samples.push((i % INPUTS, p.logits));
                        }
                    }
                    Some(Err(e)) => {
                        eprintln!("request {i} failed: {e}");
                        got.resolved += 1;
                        got.failed += 1;
                    }
                    None => {
                        eprintln!("request {i} unanswered {LOST_AFTER:?} after its phase");
                        got.lost += 1;
                    }
                }
            }
            got
        });
        for i in 0..total {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            phase
                .late_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
            match server.submit(inputs[i % INPUTS].clone()) {
                Ok(t) => {
                    phase.accepted += 1;
                    tx.send((due, i, t)).expect("collector alive");
                }
                Err(ServeError::Overloaded { .. }) => phase.shed += 1,
                Err(e) => {
                    eprintln!("submit {i} failed: {e}");
                    phase.failed += 1;
                }
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    if traced {
        let hist1 = batch_hist();
        phase.batches = hist1.0 - hist0.0;
        phase.batched = hist1.1 - hist0.1;
    }
    phase.resolved = got.resolved;
    phase.lost = got.lost;
    phase.misrouted = got.misrouted;
    phase.failed += got.failed + got.lost + got.misrouted;
    phase.latency_ms = got.latency_ms;
    phase.ids = got.ids;
    phase.samples = got.samples;
    phase
}

/// Runs the three phases in [`CYCLES`] rounds, each phase `budget ×
/// share / CYCLES` long per round, and merges each phase's rounds;
/// `between` runs after every round. The host's speed drifts over tens
/// of seconds; cycling spreads every phase over the whole run instead of
/// one stretch of it.
fn schedule(
    server: &Server,
    inputs: &[Vec<f32>],
    budget: Duration,
    between: &mut dyn FnMut(),
) -> Vec<Phase> {
    let mut merged: Vec<Phase> = PHASES.iter().map(|_| Phase::default()).collect();
    for _ in 0..CYCLES {
        for (total, &(_, rate, share)) in merged.iter_mut().zip(&PHASES) {
            total.add(run_phase(
                server,
                inputs,
                rate,
                budget.mul_f64(share / CYCLES as f64),
            ));
        }
        between();
    }
    merged
}

/// Checks the phases' answers and accounting, adding to `out`.
fn verify(
    out: &mut Outcome,
    phases: &[Phase],
    reference: &mut InferenceModel,
    inputs: &[Vec<f32>],
) {
    let mut wrong = 0u64;
    let mut once = true;
    let mut balanced = true;
    for p in phases {
        out.attempted += p.offered;
        out.failed += p.failed;
        balanced &= p.accepted == p.resolved;
        let mut ids = p.ids.clone();
        ids.sort_unstable();
        ids.dedup();
        once &= p.misrouted == 0 && ids.len() == p.ids.len();
        for (i, logits) in &p.samples {
            let x = Tensor::from_vec(inputs[*i].clone(), &[1, IN_LEN]);
            let want = reference.forward(&x);
            let same = want.data().len() == logits.len()
                && want
                    .data()
                    .iter()
                    .zip(logits)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            wrong += u64::from(!same);
        }
    }
    out.failed += wrong;
    out.check("sampled answers equal InferenceModel::forward", wrong == 0);
    out.check(
        "every answer carries its own ticket's id, and no id twice",
        once,
    );
    out.check("every accepted ticket resolved, none lost", balanced);
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Setup::default();
    let (server, blob) = setup.time(1, || set_up(seed));
    // Spare set-ups, timed between rounds of the schedule so the median
    // samples the whole run; each spare server is shut down untimed.
    let mut spare_setups = || {
        for _ in 0..SETUP_PER_ROUND {
            let (spare, _) = setup.time(1, || set_up(seed));
            spare.shutdown();
        }
    };
    spare_setups();
    let mut rng = Rng64::new(seed ^ 0x1A9D);
    let inputs: Vec<Vec<f32>> = (0..INPUTS)
        .map(|_| normal(&[1, IN_LEN], 0.0, 1.0, &mut rng).data().to_vec())
        .collect();
    let mut reference = InferenceModel::from_eosw_bytes(fresh_net(), IN_LEN, &blob)
        .expect("serving checkpoint restores");

    if trace {
        // Half the budget each for the untraced and the traced schedule.
        let untraced = schedule(&server, &inputs, budget / 2, &mut spare_setups);
        eos_trace::reset();
        eos_trace::set_enabled(true);
        let traced = schedule(&server, &inputs, budget / 2, &mut || {});
        eos_trace::set_enabled(false);
        server.shutdown();
        let snap = eos_trace::snapshot();
        verify(&mut out, &untraced, &mut reference, &inputs);
        verify(&mut out, &traced, &mut reference, &inputs);
        let over = PHASES.len() - 1;
        out.layer(
            "trace.overhead_pct",
            100.0 * (untraced[over].goodput() / traced[over].goodput() - 1.0),
        );
        let batch_size = out
            .hist(&snap, "serve.batch_size")
            .map_or(0.0, |h| h.mean());
        out.layer("serve.batch_size_mean", batch_size);
        for (p, (name, _, _)) in traced.iter().zip(PHASES) {
            let mean = if p.batches > 0 {
                p.batched as f64 / p.batches as f64
            } else {
                0.0
            };
            out.layer(&format!("serve.batch_size_{name}"), mean);
        }
        let depth = hist_p99(out.hist(&snap, "serve.queue_depth"));
        out.layer("serve.queue_depth_p99", depth);
        out.layer(
            "serve.shed",
            traced.iter().map(|p| p.shed).sum::<u64>() as f64,
        );
        let late: Vec<f64> = traced
            .iter()
            .flat_map(|p| p.late_ms.iter().copied())
            .collect();
        out.layer("serve.gen_late_ms", percentile(&late, 99.0));
        // Compute share of request latency: every request of a batch
        // waits for that batch's forward.
        let batch_ns = out.span_ns(&snap, "serve.batch");
        let waited_ms: f64 = traced.iter().flat_map(|p| p.latency_ms.iter()).sum();
        if waited_ms > 0.0 {
            out.layer(
                "trace.accounted_pct",
                100.0 * batch_ns / 1e6 * batch_size / waited_ms,
            );
        }
        out.layer(
            "tensor.par.dispatched",
            snap.counter("pool.jobs.dispatched") as f64,
        );
        let inline = out.ticked(&snap, "pool.jobs.inline");
        out.layer("tensor.par.inline", inline);
        return out;
    }

    let phases = schedule(&server, &inputs, budget, &mut spare_setups);
    server.shutdown();
    verify(&mut out, &phases, &mut reference, &inputs);
    let [light, busy, over] = [&phases[0], &phases[1], &phases[2]];
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.late_ms.iter().copied())
        .collect();
    let pct = |p: &Phase, q: f64| percentile(&p.latency_ms, q);
    let shed = phases.iter().map(|p| p.shed).sum::<u64>() as f64;
    out.metric("setup_s", setup.median_s(), "s");
    out.metric("work_per_s", over.goodput(), "1/s");
    // The busy phase's latencies stay out of the bounded metrics: near
    // the batch-1 capacity they follow the host's speed swings (busy p50
    // spread 0.45 over five seeds on a 2-core host, 0.05 over ten others).
    out.metric("op_ms", pct(light, 50.0), "ms");
    out.detail = vec![
        ("serve_light_p50_ms", pct(light, 50.0), "ms"),
        ("serve_busy_p50_ms", pct(busy, 50.0), "ms"),
        ("serve_busy_p90_ms", pct(busy, 90.0), "ms"),
        ("serve_busy_p95_ms", pct(busy, 95.0), "ms"),
        ("serve_busy_p99_ms", pct(busy, 99.0), "ms"),
        ("serve_overload_p50_ms", pct(over, 50.0), "ms"),
        ("serve_overload_p90_ms", pct(over, 90.0), "ms"),
        ("serve_overload_p99_ms", pct(over, 99.0), "ms"),
        ("serve_goodput_rps", over.goodput(), "1/s"),
        ("serve_shed", shed, "count"),
        ("serve_busy_shed", busy.shed as f64, "count"),
        ("serve_gen_late_p99_ms", percentile(&late, 99.0), "ms"),
    ];
    out.raw = vec![("setup_s", setup.samples())];
    out
}

/// Upper edge of the log2 bucket holding the 99th-percentile
/// observation (bucket `b` covers values of bit length `b`).
fn hist_p99(h: Option<&eos_trace::HistSnapshot>) -> f64 {
    let Some(h) = h else { return 0.0 };
    let target = (h.count as f64 * 0.99).ceil() as u64;
    let mut seen = 0;
    for &(bucket, count) in &h.buckets {
        seen += count;
        if seen >= target {
            return match bucket {
                0 => 0.0,
                b => (u64::MAX >> (64 - b.min(64))) as f64,
            };
        }
    }
    h.max as f64
}
