//! The run-plan executor: prepared-dataset memoisation, cache-backed
//! backbone acquisition, journaled experiment cells, and the trace
//! counters the verification gates assert on.

use crate::exp::cache::ArtifactCache;
use crate::exp::error::EngineError;
use crate::exp::faults::{retry_io, FaultKind, FaultPlan};
use crate::exp::journal::{cell_fingerprint, Journal, Rows};
use crate::exp::sched;
use crate::runner::prepared_dataset;
use eos_core::{PipelineConfig, Scale, ThreePhase};
use eos_data::Dataset;
use eos_nn::{Architecture, Checkpointer, LossKind, TrainError};
use eos_tensor::Rng64;
use eos_trace::codec::Fnv;
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default bound on how long a claim loser waits for the producer's
/// entry before failing the cell with
/// [`EngineError::LockTimeout`]. Generous — a live producer is usually a
/// training run — but finite, so a wedged peer can no longer hang the
/// suite forever.
const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_secs(3600);

/// A boxed experiment-cell task as handed to the scheduler: journaled,
/// fault-injected, returning its table rows or a typed error.
pub type CellTask<'s> = Box<dyn FnOnce() -> Result<Rows, EngineError> + Send + 's>;

/// One backbone a table needs: which dataset analogue, which training
/// loss, and (for Table V) which architecture if not the scale default.
/// Tables expose their full list via a `plan()` function so the suite can
/// dedupe trainings across tables before running any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackbonePlan {
    /// Dataset analogue name.
    pub dataset: &'static str,
    /// Backbone training loss.
    pub loss: LossKind,
    /// Architecture override; `None` uses the scale's default.
    pub arch: Option<Architecture>,
}

impl BackbonePlan {
    /// The common case: scale-default architecture.
    pub fn new(dataset: &'static str, loss: LossKind) -> Self {
        BackbonePlan {
            dataset,
            loss,
            arch: None,
        }
    }
}

fn mix_arch(h: &mut Fnv, arch: Architecture) {
    h.str(arch.name());
    match arch {
        Architecture::ResNet {
            blocks_per_stage,
            width,
        } => {
            h.u64(blocks_per_stage as u64).u64(width as u64);
        }
        Architecture::WideResNet { k } => {
            h.u64(k as u64);
        }
        Architecture::DenseNet {
            growth,
            layers_per_block,
        } => {
            h.u64(growth as u64).u64(layers_per_block as u64);
        }
    }
}

/// Content-addressed identity of a trained backbone: dataset bits, loss,
/// every configuration field that phase one reads, and the master seed.
/// Head-only fields (`head_epochs`, `head_lr`) are deliberately excluded —
/// they do not affect the artifact being cached.
pub fn backbone_fingerprint(
    train: &Dataset,
    loss: LossKind,
    cfg: &PipelineConfig,
    seed: u64,
) -> u64 {
    let mut h = Fnv::new();
    h.str("backbone/v1")
        .u64(train.fingerprint())
        .str(loss.name());
    mix_arch(&mut h, cfg.arch);
    h.u64(cfg.backbone_epochs as u64)
        .u64(cfg.batch_size as u64)
        .f32(cfg.lr)
        .f32(cfg.momentum)
        .f32(cfg.weight_decay)
        .u64(cfg.drw_epoch as u64)
        .u64(seed);
    h.finish()
}

/// Executes a run plan: hands out prepared datasets (memoised per
/// process) and trained backbones (deduplicated through the on-disk
/// artifact cache, so a warm rerun trains nothing). All cache traffic is
/// recorded on `exp.*` trace counters regardless of whether tracing
/// output is enabled, and [`Engine::finish`] prints the totals the
/// verification gates grep for.
///
/// The engine is `Send + Sync`: every method takes `&self`, the dataset
/// memo sits behind a mutex, and backbone acquisition coordinates through
/// the cache's per-fingerprint claim locks — so scheduler workers (and
/// whole concurrent processes sharing `$EOS_CACHE_DIR`) can drive one
/// engine without ever training the same backbone twice.
///
/// Failure surfaces as typed [`EngineError`]s instead of panics:
/// transient IO is retried with backoff, corrupt cache entries fall back
/// to retraining, claim waits are bounded by
/// [`Engine::with_lock_timeout`], and every completed experiment cell is
/// journaled (see [`Engine::cell`]) so an interrupted run resumes
/// without recomputation.
pub struct Engine {
    /// Experiment scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Outer job-level parallelism (`--jobs`); 1 is fully serial.
    pub jobs: usize,
    cache: Option<ArtifactCache>,
    journal: Option<Journal>,
    faults: Arc<FaultPlan>,
    lock_timeout: Duration,
    ckpt_every: usize,
    datasets: Mutex<HashMap<&'static str, Arc<(Dataset, Dataset)>>>,
}

impl Engine {
    /// Engine for the parsed command line: scale, seed and job count from
    /// the flags, cache at the default location unless `--no-cache` was
    /// given, fault plan from `$EOS_FAULTS` (exits with a usage message
    /// on a malformed spec).
    pub fn new(args: &crate::Args) -> Self {
        let faults = match FaultPlan::from_env() {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("error: bad EOS_FAULTS spec: {e}");
                std::process::exit(2);
            }
        };
        let ckpt_every = match std::env::var("EOS_CKPT_EVERY") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("error: bad EOS_CKPT_EVERY '{v}' (expected a non-negative integer)");
                    std::process::exit(2);
                }
            },
            Err(_) => 1,
        };
        let cache = (!args.no_cache).then(ArtifactCache::at_default);
        Engine::with_cache(args.scale, args.seed, cache)
            .with_jobs(args.jobs)
            .with_faults(faults)
            .with_ckpt_every(ckpt_every)
    }

    /// Engine with an explicit cache (or `None` to always train fresh),
    /// serial until [`Engine::with_jobs`] raises the job count. The cell
    /// journal lives beside the cache (`<cache>/journal/`); a cache-less
    /// engine journals nothing and recomputes every cell.
    pub fn with_cache(scale: Scale, seed: u64, cache: Option<ArtifactCache>) -> Self {
        let journal = cache.as_ref().map(|c| Journal::at(c.dir().join("journal")));
        Engine {
            scale,
            seed,
            jobs: 1,
            cache,
            journal,
            faults: Arc::new(FaultPlan::empty()),
            lock_timeout: DEFAULT_LOCK_TIMEOUT,
            ckpt_every: 1,
            datasets: Mutex::new(HashMap::new()),
        }
    }

    /// Sets the outer job-level parallelism (clamped to ≥ 1).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Arms a fault-injection plan on the engine and its cache.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        let faults = Arc::new(faults);
        if let Some(cache) = &mut self.cache {
            cache.set_faults(Arc::clone(&faults));
        }
        self.faults = faults;
        self
    }

    /// Bounds how long [`Engine::backbone`] waits on another worker's
    /// claim before failing with [`EngineError::LockTimeout`].
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Sets the training-checkpoint cadence: a backbone training saves an
    /// EOST checkpoint every `n` completed epochs (plus always at the
    /// final epoch). `0` disables mid-training checkpoints entirely; the
    /// default is 1. Overridable at the CLI via `$EOS_CKPT_EVERY`.
    pub fn with_ckpt_every(mut self, every: usize) -> Self {
        self.ckpt_every = every;
        self
    }

    /// The scale's pipeline configuration.
    pub fn cfg(&self) -> PipelineConfig {
        self.scale.pipeline()
    }

    /// The prepared (generated + standardised) train/test pair for a
    /// dataset analogue, memoised for the life of the process. Two jobs
    /// racing on an unmemoised name may both generate it (deterministic,
    /// so merely redundant); the first insert wins and both get the same
    /// instance on every later call.
    pub fn dataset(&self, name: &'static str) -> Arc<(Dataset, Dataset)> {
        if let Some(pair) = lock(&self.datasets).get(name) {
            return Arc::clone(pair);
        }
        let made = Arc::new(prepared_dataset(name, self.scale, self.seed));
        Arc::clone(lock(&self.datasets).entry(name).or_insert(made))
    }

    /// A trained backbone for `(train, loss, cfg)`: loaded from the cache
    /// when an intact entry exists, trained (and stored) otherwise. The
    /// backbone's RNG stream is seeded by its own fingerprint, so the
    /// trained weights — and everything derived from them — are identical
    /// whether this call hit, missed, or waited for another worker.
    ///
    /// Under contention the call first tries to claim the fingerprint's
    /// lock file; a loser polls until the winner's entry appears (stored
    /// atomically, so no torn reads), the lock goes stale and it takes
    /// over, or the bounded wait expires ([`EngineError::LockTimeout`]).
    /// Transient IO errors are retried with backoff; an error that
    /// outlives the retries fails the call with [`EngineError::Io`].
    /// Counter semantics for the uncontended path are unchanged: exactly
    /// one of `exp.backbone.{hit,miss,corrupt}` per call, plus
    /// `exp.backbone.trained` when a training actually ran.
    pub fn backbone(
        &self,
        train: &Dataset,
        loss: LossKind,
        cfg: &PipelineConfig,
    ) -> Result<ThreePhase, EngineError> {
        let fp = backbone_fingerprint(train, loss, cfg, self.seed);
        let Some(cache) = &self.cache else {
            return self.train_backbone(fp, train, loss, cfg);
        };
        let read_what = format!("cache read {fp:016x}");
        // First peek — the only load whose miss/corrupt outcome is
        // counted, so serial runs keep the one-counter-per-call contract.
        match retry_io(&read_what, || cache.load_backbone(fp, cfg, train)) {
            Ok(Some((tp, bytes))) => {
                eos_trace::counter("exp.backbone.hit").add(1);
                eos_trace::counter("exp.cache.bytes_read").add(bytes);
                return Ok(tp);
            }
            Ok(None) => {
                eos_trace::counter("exp.backbone.miss").add(1);
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                eos_trace::counter("exp.backbone.corrupt").add(1);
                eprintln!(
                    "[exp] discarding cache entry {}: {e}",
                    cache.backbone_path(fp).display()
                );
            }
            Err(e) => return Err(EngineError::io(read_what, e)),
        }
        let deadline = Instant::now() + self.lock_timeout;
        let mut wait = Duration::from_millis(5);
        loop {
            match retry_io(&format!("cache claim {fp:016x}"), || cache.try_claim(fp)) {
                Ok(Some(_guard)) => {
                    // Another worker may have stored the entry between
                    // our peek and this claim; honour it so no backbone
                    // ever trains twice. (A corrupt or unreadable entry
                    // falls through to retraining, which overwrites it
                    // atomically.)
                    if let Ok(Some((tp, bytes))) = cache.load_backbone(fp, cfg, train) {
                        eos_trace::counter("exp.backbone.hit").add(1);
                        eos_trace::counter("exp.cache.bytes_read").add(bytes);
                        return Ok(tp);
                    }
                    let mut tp = self.train_backbone(fp, train, loss, cfg)?;
                    match retry_io(&format!("cache write {fp:016x}"), || {
                        cache.store_backbone(fp, &mut tp)
                    }) {
                        Ok(bytes) => {
                            eos_trace::counter("exp.cache.bytes_written").add(bytes);
                            self.clear_checkpoints(fp);
                        }
                        // A failed store costs the next run a retrain —
                        // and the checkpoints stay, so even that retrain
                        // replays zero epochs.
                        Err(e) => eprintln!("[exp] could not store cache entry {fp:016x}: {e}"),
                    }
                    // The guard drops here — after the entry is visible,
                    // so a waiter released by the unlock finds it.
                    return Ok(tp);
                }
                Ok(None) => {
                    // A live producer holds the claim: poll for its
                    // entry with gentle backoff, up to the timeout.
                    if Instant::now() >= deadline {
                        eos_trace::counter("exp.lock.wait_timeout").add(1);
                        return Err(EngineError::LockTimeout {
                            fp,
                            waited: self.lock_timeout,
                        });
                    }
                    std::thread::sleep(wait);
                    wait = (wait * 2).min(Duration::from_millis(100));
                    if let Ok(Some((tp, bytes))) = cache.load_backbone(fp, cfg, train) {
                        eos_trace::counter("exp.backbone.hit").add(1);
                        eos_trace::counter("exp.cache.bytes_read").add(bytes);
                        return Ok(tp);
                    }
                }
                Err(e) => {
                    // Claim machinery unavailable (unwritable cache dir):
                    // train uncoordinated rather than fail the run.
                    eprintln!("[exp] cannot claim {fp:016x} ({e}); training uncoordinated");
                    let mut tp = self.train_backbone(fp, train, loss, cfg)?;
                    if let Ok(bytes) = cache.store_backbone(fp, &mut tp) {
                        eos_trace::counter("exp.cache.bytes_written").add(bytes);
                        self.clear_checkpoints(fp);
                    }
                    return Ok(tp);
                }
            }
        }
    }

    /// The checkpointer a backbone training runs under, or `None` when
    /// the engine is cache-less or checkpoints are disabled. Checkpoints
    /// live in the cache's `ckpt/` subdirectory, stemmed by the backbone
    /// fingerprint, so a killed training resumes from its last completed
    /// epoch when the same fingerprint trains again. The after-epoch hook
    /// arms the `train.epoch` fault point: an abort/panic fires *after*
    /// that epoch's checkpoint is on disk — exactly the mid-training kill
    /// the crash-resume gate stages.
    fn checkpointer(&self, fp: u64) -> Option<Checkpointer> {
        let cache = self.cache.as_ref()?;
        if self.ckpt_every == 0 {
            return None;
        }
        let faults = Arc::clone(&self.faults);
        let label = format!("backbone {fp:016x}");
        Some(
            Checkpointer::new(cache.ckpt_dir(), format!("bb_{fp:016x}"))
                .every(self.ckpt_every)
                .after_epoch(move |epochs_done| {
                    match faults.fire("train.epoch", &label) {
                        None => {}
                        Some(FaultKind::Panic) => {
                            panic!("injected panic fault at train.epoch {epochs_done} ({label})")
                        }
                        Some(FaultKind::Abort) => {
                            eprintln!(
                                "[faults] aborting process at train.epoch {epochs_done} ({label})"
                            );
                            std::process::abort();
                        }
                        // Epoch boundaries have no IO or loss of their own
                        // to corrupt; only the kill kinds apply here.
                        Some(kind) => eprintln!(
                            "[faults] ignoring {kind:?} at train.epoch {epochs_done} ({label}): \
                             only panic/abort apply at epoch boundaries"
                        ),
                    }
                }),
        )
    }

    /// Removes the finished training's checkpoints once its final entry
    /// is durable in the cache — they are superseded by `bb_<fp>.eosc`.
    fn clear_checkpoints(&self, fp: u64) {
        if let Some(ckpt) = self.checkpointer(fp) {
            ckpt.clear();
        }
    }

    /// Phase-one training on the fingerprint-seeded stream, resuming from
    /// the newest intact EOST checkpoint when one exists (a previous run
    /// of this fingerprint was killed mid-training). Divergence (a
    /// non-finite loss, real or injected at the `train` fault point)
    /// surfaces as [`EngineError::TrainDivergence`].
    fn train_backbone(
        &self,
        fp: u64,
        train: &Dataset,
        loss: LossKind,
        cfg: &PipelineConfig,
    ) -> Result<ThreePhase, EngineError> {
        let what = format!("backbone {fp:016x}");
        match self.faults.fire("train", &what) {
            None => {}
            Some(FaultKind::Diverge) | Some(FaultKind::Corrupt) => {
                return Err(EngineError::TrainDivergence {
                    what: format!("{what} (injected)"),
                    source: TrainError {
                        epoch: 0,
                        batch: 0,
                        loss_name: "injected",
                        value: f32::NAN,
                    },
                });
            }
            Some(FaultKind::Io) => {
                return Err(EngineError::io(
                    what,
                    io::Error::other("injected io fault at train"),
                ));
            }
            Some(FaultKind::Panic) => panic!("injected panic fault at train ({what})"),
            Some(FaultKind::Abort) => {
                eprintln!("[faults] aborting process at train ({what})");
                std::process::abort();
            }
        }
        let tp = {
            let _span = eos_trace::span("exp.backbone_train");
            ThreePhase::try_train_ckpt(train, loss, cfg, &mut Rng64::new(fp), self.checkpointer(fp))
                .map_err(|f| EngineError::TrainDivergence {
                    what: format!("{what} (after {} completed epochs)", f.completed.len()),
                    source: f.error,
                })?
        };
        eos_trace::counter("exp.backbone.trained").add(1);
        Ok(tp)
    }

    /// Wraps one experiment cell for the scheduler: journal replay,
    /// fault injection at the cell boundary, and typed-error isolation.
    ///
    /// `label` names the cell within its table (`"celeba/Ce"`); the full
    /// label `table/label` keys the fault plan and the failure report.
    /// If the journal holds the cell's rows (fingerprinted over table,
    /// label, scale and seed) they are replayed without computing;
    /// otherwise `compute` runs and its rows are journaled before being
    /// returned — so a rerun after a crash skips every finished cell and
    /// still renders byte-identical tables.
    pub fn cell<'s, F>(&'s self, table: &'static str, label: String, compute: F) -> CellTask<'s>
    where
        F: FnOnce() -> Result<Rows, EngineError> + Send + 's,
    {
        Box::new(move || self.run_cell(table, &label, compute))
    }

    fn run_cell(
        &self,
        table: &'static str,
        label: &str,
        compute: impl FnOnce() -> Result<Rows, EngineError>,
    ) -> Result<Rows, EngineError> {
        let full = format!("{table}/{label}");
        match self.faults.fire("cell", &full) {
            None => {}
            Some(FaultKind::Panic) => panic!("injected panic fault at cell '{full}'"),
            Some(FaultKind::Abort) => {
                eprintln!("[faults] aborting process at cell '{full}'");
                std::process::abort();
            }
            Some(FaultKind::Io) | Some(FaultKind::Corrupt) | Some(FaultKind::Diverge) => {
                return Err(EngineError::io(
                    format!("cell '{full}'"),
                    io::Error::other("injected fault at cell boundary"),
                ));
            }
        }
        let fp = cell_fingerprint(table, label, self.scale.name(), self.seed);
        if let Some(journal) = &self.journal {
            match journal.load(fp) {
                Ok(Some(rows)) => {
                    eos_trace::counter("exp.cell.replayed").add(1);
                    return Ok(rows);
                }
                Ok(None) => {}
                Err(e) => {
                    // Corrupt or unreadable journal entry: recompute
                    // (identical bits — cells are pure in their spec).
                    eos_trace::counter("exp.cell.journal_corrupt").add(1);
                    eprintln!(
                        "[exp] discarding journal entry {}: {e}",
                        journal.cell_path(fp).display()
                    );
                }
            }
        }
        let rows = compute()?;
        if let Some(journal) = &self.journal {
            match retry_io(&format!("journal write '{full}'"), || {
                journal.store(fp, &rows)
            }) {
                Ok(bytes) => eos_trace::counter("exp.journal.bytes_written").add(bytes),
                // A failed journal write costs a rerun this cell's
                // recompute, nothing else.
                Err(e) => eprintln!("[exp] could not journal cell '{full}': {e}"),
            }
        }
        eos_trace::counter("exp.cell.computed").add(1);
        Ok(rows)
    }

    /// Trains every backbone in `plans` that the cache does not already
    /// hold, deduplicating by fingerprint first — the suite collects the
    /// plans of all tables and pays each shared training exactly once.
    /// With `jobs > 1` the distinct trainings run concurrently on the job
    /// scheduler; the claim protocol keeps concurrent *processes* from
    /// duplicating work too.
    ///
    /// Prewarm failures are logged and *not* fatal: the cells that need
    /// the failed backbone will re-attempt it and report the typed error
    /// in context.
    pub fn prewarm(&self, plans: &[BackbonePlan]) {
        let mut seen = Vec::new();
        let mut work = Vec::new();
        for plan in plans {
            let pair = self.dataset(plan.dataset);
            let mut cfg = self.cfg();
            if let Some(arch) = plan.arch {
                cfg.arch = arch;
            }
            let fp = backbone_fingerprint(&pair.0, plan.loss, &cfg, self.seed);
            if seen.contains(&fp) {
                continue;
            }
            seen.push(fp);
            work.push((pair, plan.loss, cfg));
        }
        let outcomes = sched::run_jobs(
            self.jobs,
            work.into_iter()
                .map(|(pair, loss, cfg)| move || self.backbone(&pair.0, loss, &cfg).map(drop))
                .collect(),
        );
        for outcome in outcomes {
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("[exp] prewarm: [{}] {e} (cell will retry)", e.kind()),
                Err(p) => eprintln!(
                    "[exp] prewarm: task panicked: {} (cell will retry)",
                    p.message
                ),
            }
        }
    }

    /// Prints the cache-traffic totals for this process to stderr in the
    /// fixed format the verification gates parse:
    /// `[exp:tag] backbones trained: N, cache hits: H, ...`, then the
    /// cell scoreboard `[exp:tag] cells computed: C, replayed: R, ...`
    /// (the resume gate greps the replayed count) — plus a
    /// scheduler-utilisation line when the job scheduler ran.
    pub fn finish(&self, tag: &str) {
        let snap = eos_trace::snapshot();
        eprintln!(
            "[exp:{tag}] backbones trained: {}, cache hits: {}, misses: {}, corrupt: {}, \
             bytes read: {}, bytes written: {}",
            snap.counter("exp.backbone.trained"),
            snap.counter("exp.backbone.hit"),
            snap.counter("exp.backbone.miss"),
            snap.counter("exp.backbone.corrupt"),
            snap.counter("exp.cache.bytes_read"),
            snap.counter("exp.cache.bytes_written"),
        );
        eprintln!(
            "[exp:{tag}] cells computed: {}, replayed: {}, failed: {}, faults injected: {}, \
             io retries: {}",
            snap.counter("exp.cell.computed"),
            snap.counter("exp.cell.replayed"),
            snap.counter("exp.cell.failed"),
            snap.counter("exp.fault.injected"),
            snap.counter("exp.fault.retry"),
        );
        eprintln!(
            "[exp:{tag}] epochs trained: {}, checkpoints saved: {}, loaded: {}, corrupt: {}, \
             ckpt bytes: {}",
            snap.counter("train.epochs"),
            snap.counter("train.ckpt.saved"),
            snap.counter("train.ckpt.loaded"),
            snap.counter("train.ckpt.corrupt"),
            snap.counter("train.ckpt.bytes"),
        );
        let dispatched = snap.counter("exp.job.dispatched");
        if dispatched > 0 {
            let (busy, idle) = (
                snap.counter("exp.job.busy_ns"),
                snap.counter("exp.job.idle_ns"),
            );
            let util = 100.0 * busy as f64 / ((busy + idle) as f64).max(1.0);
            eprintln!(
                "[exp:{tag}] scheduler: {} jobs dispatched, {} completed, \
                 worker busy {:.2}s, idle {:.2}s, utilisation {util:.0}%",
                dispatched,
                snap.counter("exp.job.completed"),
                busy as f64 / 1e9,
                idle as f64 / 1e9,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_backbone_inputs() {
        let (train, _) = prepared_dataset("celeba", Scale::Smoke, 1);
        let cfg = Scale::Smoke.pipeline();
        let base = backbone_fingerprint(&train, LossKind::Ce, &cfg, 42);
        assert_eq!(base, backbone_fingerprint(&train, LossKind::Ce, &cfg, 42));
        assert_ne!(base, backbone_fingerprint(&train, LossKind::Ldam, &cfg, 42));
        assert_ne!(base, backbone_fingerprint(&train, LossKind::Ce, &cfg, 43));
        let mut wide = cfg;
        wide.arch = Architecture::WideResNet { k: 1 };
        assert_ne!(base, backbone_fingerprint(&train, LossKind::Ce, &wide, 42));
        let mut longer = cfg;
        longer.backbone_epochs += 1;
        assert_ne!(
            base,
            backbone_fingerprint(&train, LossKind::Ce, &longer, 42)
        );
        // Head-only knobs do NOT move the backbone fingerprint.
        let mut head = cfg;
        head.head_epochs += 5;
        head.head_lr *= 2.0;
        assert_eq!(base, backbone_fingerprint(&train, LossKind::Ce, &head, 42));
        // Different data, different identity.
        let (other, _) = prepared_dataset("svhn", Scale::Smoke, 1);
        assert_ne!(base, backbone_fingerprint(&other, LossKind::Ce, &cfg, 42));
    }

    #[test]
    fn dataset_memo_returns_the_same_instance() {
        let eng = Engine::with_cache(Scale::Smoke, 1, None);
        let a = eng.dataset("celeba");
        let b = eng.dataset("celeba");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn engine_is_send_and_sync() {
        // Compile-time gate: scheduler workers share one engine by
        // reference across threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
    }

    #[test]
    fn cacheless_engine_recomputes_cells() {
        let eng = Engine::with_cache(Scale::Smoke, 1, None);
        let mut calls = 0;
        for _ in 0..2 {
            let task = eng.cell("test", "a".into(), || {
                calls += 1;
                Ok(vec![vec!["x".into()]])
            });
            assert_eq!(task().unwrap(), vec![vec!["x".to_string()]]);
        }
        assert_eq!(calls, 2, "no journal without a cache");
    }

    /// Pinned fingerprints: they key the on-disk cache and seed every
    /// cell's RNG stream, so a change here shifts the experiment output.
    #[test]
    fn golden_fingerprints() {
        let (train, _) = prepared_dataset("celeba", Scale::Smoke, 1);
        let cfg = Scale::Smoke.pipeline();
        assert_eq!(train.fingerprint(), 0x2bae93b18a595114);
        assert_eq!(
            backbone_fingerprint(&train, LossKind::Ce, &cfg, 42),
            0xa269ab8eabd7dec0
        );
        let spec = crate::exp::ExperimentSpec {
            table: "table2",
            dataset: "celeba",
            loss: LossKind::Ldam,
            sampler: crate::exp::SamplerSpec::eos(10),
            scale: Scale::Smoke,
            seed: 42,
        };
        assert_eq!(spec.fingerprint(), 0xc6468673ab3ccdfa);
        assert_eq!(
            crate::exp::mix_rng(7, &["a", "b"]).next_u64(),
            0x5e750103d0255d
        );
    }
}
