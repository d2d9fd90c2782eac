//! `train_backbone`: phase one of the three-phase framework, as the
//! experiment engine runs it — `ThreePhase::try_train_ckpt` with LDAM-DRW
//! and an every-epoch EOST checkpointer — on the CIFAR-10 analogue at
//! `PipelineConfig::small`.

use crate::measure::{median, ms, percentile, Outcome, Setup};
use eos_core::{PipelineConfig, ThreePhase};
use eos_data::{Dataset, SynthSpec};
use eos_nn::{fnv1a, save_weights_bytes, Checkpointer, LossKind};
use eos_tensor::Rng64;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-up repetitions per burst. A workload times a burst of set-ups
/// before each unit of work it repeats, and reports their median.
pub const SETUP_BURST: usize = 3;
/// Data set-ups timed back to back in one repetition (~15 ms each).
const DATA_BATCH: usize = 4;

/// A generated and standardised train/test pair plus what producing it
/// cost.
pub struct Prepared {
    pub train: Dataset,
    pub test: Dataset,
    pub generate_ms: f64,
    pub standardize_ms: f64,
}

/// Generates `spec` from `seed` and standardises both splits with the
/// train statistics, exactly as the experiment harness prepares data.
pub fn prepare(spec: &SynthSpec, seed: u64) -> Prepared {
    let t0 = Instant::now();
    let (mut train, mut test) = spec.generate(seed);
    let generate_ms = ms(t0.elapsed());
    let t1 = Instant::now();
    let (mean, std) = train.feature_stats();
    train.standardize(&mean, &std);
    test.standardize(&mean, &std);
    Prepared {
        train,
        test,
        generate_ms,
        standardize_ms: ms(t1.elapsed()),
    }
}

/// Times one burst of data set-ups into `setup`; returns the last
/// prepared copy.
pub fn prepare_burst(spec: &SynthSpec, seed: u64, setup: &mut Setup) -> Prepared {
    let mut last = None;
    for _ in 0..SETUP_BURST {
        last = Some(setup.time(DATA_BATCH, || prepare(spec, seed)));
    }
    last.expect("SETUP_BURST > 0")
}

struct Trained {
    digest: u64,
    epoch_ms: Vec<f64>,
    phase1_s: f64,
}

/// One cold phase-1 training into a fresh checkpoint directory.
fn train_once(
    train: &Dataset,
    cfg: &PipelineConfig,
    seed: u64,
    dir: &Path,
) -> Result<Trained, String> {
    let _ = std::fs::remove_dir_all(dir);
    let marks = Arc::new(Mutex::new(Vec::with_capacity(cfg.backbone_epochs)));
    let hook = Arc::clone(&marks);
    let ckpt = Checkpointer::new(dir, "bb").after_epoch(move |_| {
        hook.lock().expect("epoch marks lock").push(Instant::now());
    });
    let mut rng = Rng64::new(seed);
    let t0 = Instant::now();
    let result = ThreePhase::try_train_ckpt(train, LossKind::Ldam, cfg, &mut rng, Some(ckpt));
    let _ = std::fs::remove_dir_all(dir);
    let mut tp = result.map_err(|e| e.to_string())?;
    let marks = marks.lock().expect("epoch marks lock").clone();
    if marks.len() != cfg.backbone_epochs {
        return Err(format!(
            "{} epoch boundaries for {} epochs",
            marks.len(),
            cfg.backbone_epochs
        ));
    }
    let mut prev = t0;
    let epoch_ms = marks
        .iter()
        .map(|&m| {
            let d = ms(m - prev);
            prev = m;
            d
        })
        .collect();
    Ok(Trained {
        digest: fnv1a(&save_weights_bytes(&mut tp.net)),
        epoch_ms,
        phase1_s: (prev - t0).as_secs_f64(),
    })
}

pub fn run(seed: u64, budget: Duration, trace: bool, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let cfg = PipelineConfig::small();
    let spec = SynthSpec::cifar10_like(1);
    let mut setup = Setup::default();
    let data = prepare_burst(&spec, seed, &mut setup);
    let samples = data.train.len() as f64;
    let ckpt_dir = work.join("ckpt");

    if trace {
        out.layer("data.generate_ms", data.generate_ms);
        out.layer("data.standardize_ms", data.standardize_ms);
        out.attempted = 2;
        let untraced = train_once(&data.train, &cfg, seed, &ckpt_dir);
        eos_trace::reset();
        eos_trace::set_enabled(true);
        let traced = {
            let _root = eos_trace::span("bench.train");
            train_once(&data.train, &cfg, seed, &ckpt_dir)
        };
        eos_trace::set_enabled(false);
        let snap = eos_trace::snapshot();
        match (untraced, traced) {
            (Ok(u), Ok(t)) => {
                out.check(
                    "trained weights identical traced and untraced",
                    u.digest == t.digest,
                );
                out.layer(
                    "trace.overhead_pct",
                    100.0 * (t.phase1_s / u.phase1_s - 1.0),
                );
                out.layer("core.phase1_s", t.phase1_s);
            }
            (u, t) => {
                out.failed += u.is_err() as u64 + t.is_err() as u64;
            }
        }
        crate::probe::pool_metrics(&mut out, &snap, "bench.train");
        crate::probe::accounted(&mut out, &snap, "bench.train");
        return out;
    }

    let mut digests = Vec::new();
    let mut per_s = Vec::new();
    let mut epoch_ms = Vec::new();
    let t0 = Instant::now();
    // At least two trainings, so the digest comparison has a partner;
    // then more while another fits the time budget.
    while digests.len() < 2
        || t0.elapsed() + t0.elapsed() / digests.len() as u32 <= budget + budget / 10
    {
        if !digests.is_empty() {
            prepare_burst(&spec, seed, &mut setup);
        }
        out.attempted += 1;
        match train_once(&data.train, &cfg, seed, &ckpt_dir) {
            Ok(t) => {
                per_s.push(samples * cfg.backbone_epochs as f64 / t.phase1_s);
                epoch_ms.extend(t.epoch_ms);
                digests.push(t.digest);
            }
            Err(e) => {
                eprintln!("training failed: {e}");
                out.failed += 1;
                break;
            }
        }
    }
    out.check(
        "trained weights identical across trainings",
        digests.windows(2).all(|w| w[0] == w[1]),
    );
    // Every epoch does the same work, and a busy co-tenant on the shared
    // host only ever adds time to one, for stretches of seconds to
    // minutes. The median and the upper percentiles of the epoch time
    // follow how busy the host was during the run; the fastest epoch is
    // the program's own speed.
    let fastest_ms = percentile(&epoch_ms, 0.0);
    out.metric("setup_s", setup.median_s(), "s");
    out.metric("work_per_s", samples / (fastest_ms / 1e3), "1/s");
    out.metric("op_ms", fastest_ms, "ms");
    out.detail = vec![
        ("train_samples_per_s", median(&per_s), "1/s"),
        ("epoch_min_ms", fastest_ms, "ms"),
        ("epoch_p50_ms", percentile(&epoch_ms, 50.0), "ms"),
        ("epoch_p95_ms", percentile(&epoch_ms, 95.0), "ms"),
        ("trainings", digests.len() as f64, "count"),
    ];
    out.raw = vec![
        ("setup_s", setup.samples()),
        ("train_samples_per_s", per_s),
        ("epoch_ms", epoch_ms),
    ];
    out
}
