//! The repository benchmark.
//!
//! ```text
//! cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_backbone --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Four workloads, each driven from this one process inside the thread
//! budget [`THREADS`] (see `perfbench/README.md` for why each exists and
//! what each metric should move):
//!
//! - `train_backbone`: phase-1 LDAM-DRW backbone training with per-epoch
//!   EOST checkpoints.
//! - `augment_finetune`: the Table II sampler lineup fine-tuning heads on
//!   one pre-trained backbone's embeddings.
//! - `serve_openloop`: the micro-batching server under an open-loop
//!   generator at three fixed rates.
//! - `suite_smoke`: a cold smoke-scale suite over all 13 tables, 2 jobs.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the workload once untraced and once traced (for the
//! tracing overhead), times the public calls of each crate from here,
//! and reports the per-layer metrics. The metric names and units are
//! read from `BENCHMARK.json`. Every run checks its outputs; the last
//! line of stdout is the JSON result.

mod finetune;
mod measure;
mod probe;
mod serve;
mod suite;
mod train;

use measure::{Host, Outcome, Spec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Counts allocations while [`COUNTING`] is on, for the per-step
/// allocation metric; frees are not counted.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made while `f` runs (on any thread).
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (r, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

/// The worker-pool budget (`EOS_NUM_THREADS`) of every workload: the two
/// cores of the host the benchmark was sized on. There a training at a
/// budget of 1 spread about three times as wide from run to run as one at
/// 2 (`perfbench/README.md`, Steadiness).
pub const THREADS: usize = 2;

const WORKLOADS: [&str; 4] = [
    "train_backbone",
    "augment_finetune",
    "serve_openloop",
    "suite_smoke",
];

/// The per-layer metrics (by name prefix) each workload reaches; a
/// traced run must measure all of them, and the others read 0.
fn reaches(workload: &str) -> &'static [&'static str] {
    match workload {
        "train_backbone" => &[
            "nn.step.",
            "nn.layer.",
            "nn.allocs_per_step",
            "nn.eost.",
            "tensor.gemm.",
            "tensor.im2col.",
            "tensor.conv_direct.",
            "tensor.scratch.",
            "tensor.par.",
            "core.phase1_s",
            "data.",
            "trace.",
        ],
        "augment_finetune" => &[
            "tensor.par.",
            "core.balance_eos_ms",
            "core.finetune_head_ms",
            "core.evaluate_ms",
            "core.extract_embeddings_ms",
            "core.gap_report_ms",
            "neighbors.",
            "resample.",
            "data.",
            "trace.",
        ],
        "serve_openloop" => &[
            "nn.eval.",
            "nn.eosw.",
            "tensor.gemm.ms",
            "tensor.im2col.",
            "tensor.conv_direct.",
            "tensor.par.dispatched",
            "tensor.par.inline",
            "serve.",
            "trace.",
        ],
        "suite_smoke" => &["exp.", "data.", "tensor.par.", "trace."],
        _ => unreachable!("parse_cli admits only known workloads"),
    }
}

struct Cli {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s >= 1)
                        .ok_or_else(|| format!("bad seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}' (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A throwaway working directory inside the benchmark's own directory:
/// the suite's CSVs, caches, journals and checkpoints land here, never in
/// the repository's `results/`. Removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = Spec::get() {
        eprintln!("error: BENCHMARK.json: {e}");
        std::process::exit(1);
    }
    // The thread budget must be in place before anything touches the
    // worker pool, which reads it once.
    std::env::set_var("EOS_NUM_THREADS", THREADS.to_string());
    eos_trace::set_enabled(false);

    let host = Host::probe(THREADS);
    let checkout = std::env::current_dir().expect("current directory is readable");
    let work = WorkDir::create(cli.workload).unwrap_or_else(|e| {
        eprintln!("error: cannot create the work directory: {e}");
        std::process::exit(1);
    });
    std::env::set_current_dir(work.path()).expect("entering the work directory");
    let budget = Duration::from_secs(cli.seconds);
    let mut out: Outcome = match cli.workload {
        "train_backbone" => train::run(cli.seed, budget, cli.trace, work.path()),
        "augment_finetune" => finetune::run(cli.seed, budget, cli.trace),
        "serve_openloop" => serve::run(cli.seed, budget, cli.trace),
        "suite_smoke" => suite::run(cli.seed, budget, cli.trace, work.path()),
        _ => unreachable!("parse_cli admits only known workloads"),
    };
    if cli.trace {
        match cli.workload {
            "train_backbone" => probe::train(cli.seed, &mut out, work.path()),
            "serve_openloop" => probe::serve(cli.seed, &mut out),
            _ => {}
        }
        out.finish_layers(reaches(cli.workload));
    } else {
        out.metric("peak_rss_mb", measure::peak_rss_mb(), "MB");
    }
    out.check_against_spec(cli.trace);
    std::env::set_current_dir(&checkout).expect("returning to the checkout");
    drop(work);

    let rendered = measure::render(&out, &host, cli.workload, cli.seed, cli.trace);
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let file = results.join(format!(
        "{}-seed{}-trace{}-{}.json",
        cli.workload,
        cli.seed,
        u8::from(cli.trace),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&results)
        .and_then(|()| std::fs::write(&file, format!("{}\n", rendered.record)))
    {
        eprintln!("warning: cannot write {}: {e}", file.display());
    }
    print!("{}", rendered.report);
    println!("{}", rendered.record);
    println!("{}", rendered.result);
    if !out.correct() {
        std::process::exit(1);
    }
}
