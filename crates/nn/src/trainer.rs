//! Mini-batch training loop shared by the experiments, with
//! epoch-granular crash-safe checkpointing.
//!
//! The resume contract: a run killed at any epoch boundary and restarted
//! via [`try_train_epochs_resumable`] produces final weights byte-identical
//! to the uninterrupted run, at every thread count. Everything the loop
//! consumes between epochs — weights + BN statistics, SGD momentum
//! velocity, the shuffle RNG, the cumulative sample permutation, the
//! LR-schedule position and the DRW installation flag — is captured in a
//! [`TrainState`] and persisted as an `EOST` artifact by [`Checkpointer`].

use crate::layer::Layer;
use crate::loss::Loss;
use crate::optim::{LrSchedule, Sgd};
use crate::serialize::{
    load_train_state_bytes, load_weights, save_train_state_bytes, save_weights_bytes, TrainState,
};
use eos_tensor::{Rng64, Tensor};
use std::io;
use std::path::PathBuf;

/// Configuration of a training run.
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate (scheduled per epoch when `schedule` is set).
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Optional learning-rate schedule.
    pub schedule: Option<Box<dyn LrSchedule>>,
    /// Epoch at which deferred class re-weighting switches on (LDAM-DRW);
    /// `None` disables. The weights themselves come with the call.
    pub drw_epoch: Option<usize>,
    /// Optional epoch-boundary checkpointing. When set, the loop saves an
    /// `EOST` snapshot after every `every`-th epoch (and the last), and
    /// [`try_train_epochs_resumable`] restores the newest valid one
    /// before training.
    pub checkpoint: Option<Checkpointer>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 5e-4,
            schedule: None,
            drw_epoch: None,
            checkpoint: None,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub loss: f32,
    /// Plain training accuracy over the epoch (running, pre-update batches).
    pub accuracy: f32,
}

/// A training run diverged: the loss came back non-finite. Checked in
/// release builds too — training on NaN silently corrupts every weight,
/// and a `debug_assert` would let `--release` experiment runs do exactly
/// that for the remaining epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainError {
    /// Zero-based epoch of the offending batch.
    pub epoch: usize,
    /// Zero-based batch index within the epoch.
    pub batch: usize,
    /// [`Loss::name`] of the criterion in use.
    pub loss_name: &'static str,
    /// The non-finite loss value (NaN or ±∞).
    pub value: f32,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "non-finite {} loss {} at epoch {}, batch {}",
            self.loss_name, self.value, self.epoch, self.batch
        )
    }
}

impl std::error::Error for TrainError {}

/// A failed training run: the typed divergence diagnosis plus the stats
/// of every epoch that *did* complete, so failure reports (and resumed
/// runs) can show how far training got instead of discarding it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainFailure {
    /// What went wrong.
    pub error: TrainError,
    /// Stats of the fully completed epochs before the failure.
    pub completed: Vec<EpochStats>,
}

impl std::fmt::Display for TrainFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} epochs completed)",
            self.error,
            self.completed.len()
        )
    }
}

impl std::error::Error for TrainFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

// ---------------------------------------------------------------------------
// Checkpointer

/// Epoch-boundary `EOST` checkpoint writer with a retention policy.
///
/// Files land in `dir` as `{stem}.ep{NNNNN}.eost`, written atomically
/// (temp + rename) so a crash mid-save never leaves a half-written entry
/// under the final name. Restores walk entries newest-first and fall
/// back past corrupt, truncated or incompatible files — a damaged latest
/// checkpoint costs the epochs since the previous one, never the run.
pub struct Checkpointer {
    dir: PathBuf,
    stem: String,
    every: usize,
    keep: usize,
    after_epoch: Option<Box<dyn Fn(usize) + Send + Sync>>,
}

impl Checkpointer {
    /// A checkpointer writing `{stem}.ep*.eost` under `dir`, saving every
    /// epoch and keeping the last 2 entries.
    pub fn new(dir: impl Into<PathBuf>, stem: impl Into<String>) -> Self {
        Checkpointer {
            dir: dir.into(),
            stem: stem.into(),
            every: 1,
            keep: 2,
            after_epoch: None,
        }
    }

    /// Save a checkpoint every `n` epochs (the final epoch always saves).
    pub fn every(mut self, n: usize) -> Self {
        assert!(n >= 1, "checkpoint interval must be >= 1");
        self.every = n;
        self
    }

    /// Retain the newest `k` checkpoints, pruning older ones after each
    /// save. Keeping at least 2 preserves a fallback entry should the
    /// newest one be damaged.
    pub fn keep(mut self, k: usize) -> Self {
        assert!(k >= 1, "must keep at least one checkpoint");
        self.keep = k;
        self
    }

    /// Hook invoked with the completed-epoch count after each epoch (post
    /// checkpoint save). The fault-injection harness uses it to kill a
    /// training mid-schedule at a deterministic boundary.
    pub fn after_epoch(mut self, f: impl Fn(usize) + Send + Sync + 'static) -> Self {
        self.after_epoch = Some(Box::new(f));
        self
    }

    /// The directory checkpoints are written to.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn due(&self, epochs_done: usize, total_epochs: usize) -> bool {
        epochs_done.is_multiple_of(self.every) || epochs_done == total_epochs
    }

    fn path_for(&self, epochs_done: usize) -> PathBuf {
        self.dir
            .join(format!("{}.ep{:05}.eost", self.stem, epochs_done))
    }

    /// Existing checkpoint entries as `(epochs_done, path)`, newest first.
    pub fn entries(&self) -> Vec<(usize, PathBuf)> {
        let prefix = format!("{}.ep", self.stem);
        let mut out = Vec::new();
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return out;
        };
        for entry in rd.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(digits) = name
                .strip_prefix(&prefix)
                .and_then(|r| r.strip_suffix(".eost"))
            else {
                continue;
            };
            let Ok(epoch) = digits.parse::<usize>() else {
                continue;
            };
            out.push((epoch, entry.path()));
        }
        out.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        out
    }

    /// Atomically writes `state` and prunes entries beyond the retention
    /// policy. Counted under `train.ckpt.{saved,bytes}`.
    pub fn save(&self, state: &TrainState) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let bytes = save_train_state_bytes(state);
        let path = self.path_for(state.epochs_done);
        eos_trace::write_atomic(&path, &bytes)?;
        eos_trace::counter("train.ckpt.saved").add(1);
        eos_trace::counter("train.ckpt.bytes").add(bytes.len() as u64);
        for (_, stale) in self.entries().into_iter().skip(self.keep) {
            let _ = std::fs::remove_file(stale);
        }
        Ok(path)
    }

    /// Removes every checkpoint of this stem — called once the training's
    /// final artifact has been durably stored elsewhere.
    pub fn clear(&self) {
        for (_, path) in self.entries() {
            let _ = std::fs::remove_file(path);
        }
    }

    fn fire_after_epoch(&self, epochs_done: usize) {
        if let Some(hook) = &self.after_epoch {
            hook(epochs_done);
        }
    }
}

// ---------------------------------------------------------------------------
// Training loops

/// Trains `net` on `(x, y)` with mini-batch SGD.
///
/// Convenience wrapper over [`try_train_epochs`] that panics (with the
/// epoch/batch/loss diagnostics of [`TrainError`]) if the run diverges.
pub fn train_epochs(
    net: &mut dyn Layer,
    loss: &mut dyn Loss,
    x: &Tensor,
    y: &[usize],
    cfg: &TrainConfig,
    drw_weights: Option<Vec<f32>>,
    rng: &mut Rng64,
) -> Vec<EpochStats> {
    try_train_epochs(net, loss, x, y, cfg, drw_weights, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// One pass over the data: schedule the LR, install DRW weights when the
/// epoch matches, reshuffle the cumulative `order`, and run the batches.
/// Shared verbatim by every public loop so their behaviour — and their
/// bit-exact RNG/optimiser stream — cannot drift apart.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    net: &mut dyn Layer,
    loss: &mut dyn Loss,
    x: &Tensor,
    y: &[usize],
    cfg: &TrainConfig,
    drw_weights: Option<&[f32]>,
    opt: &mut Sgd,
    order: &mut [usize],
    rng: &mut Rng64,
    epoch: usize,
) -> Result<EpochStats, TrainError> {
    let _epoch_span = eos_trace::span("train.epoch");
    if let Some(s) = &cfg.schedule {
        opt.lr = s.lr_at(epoch);
    }
    if let (Some(de), Some(w)) = (cfg.drw_epoch, drw_weights) {
        if epoch == de {
            loss.set_class_weights(Some(w.to_vec()));
        }
    }
    // Learning rate in microunits (histograms are integer-valued).
    eos_trace::hist!("train.lr_micro", (opt.lr as f64 * 1e6) as u64);
    rng.shuffle(order);
    let n = y.len();
    let mut total_loss = 0.0f64;
    let mut correct = 0usize;
    let mut batches = 0usize;
    // Label and prediction buffers are reused across batches so the
    // steady-state step stays allocation-free.
    let mut by: Vec<usize> = Vec::with_capacity(cfg.batch_size);
    let mut preds: Vec<usize> = Vec::with_capacity(cfg.batch_size);
    for chunk in order.chunks(cfg.batch_size) {
        let _batch_span = eos_trace::span("train.batch");
        let bx = x.select_rows(chunk);
        by.clear();
        by.extend(chunk.iter().map(|&i| y[i]));
        net.zero_grad();
        let logits = net.forward(&bx, true);
        let (l, dlogits) = loss.loss_and_grad(&logits, &by);
        if !l.is_finite() {
            return Err(TrainError {
                epoch,
                batch: batches,
                loss_name: loss.name(),
                value: l,
            });
        }
        net.backward_params(&dlogits);
        opt.step_visit(net);
        total_loss += l as f64;
        batches += 1;
        eos_trace::count!("train.batches", 1);
        // Loss in milliunits, clamped at zero (log2 buckets are u64).
        eos_trace::hist!("train.batch_loss_milli", (l.max(0.0) as f64 * 1e3) as u64);
        logits.argmax_rows_into(&mut preds);
        correct += preds.iter().zip(&by).filter(|(p, t)| p == t).count();
    }
    Ok(EpochStats {
        epoch,
        loss: (total_loss / batches.max(1) as f64) as f32,
        accuracy: correct as f32 / n as f32,
    })
}

/// The epoch driver shared by [`try_train_epochs`] and
/// [`try_train_epochs_resumable`]: runs `start_epoch..cfg.epochs`,
/// extending `history`, saving due checkpoints and firing the
/// after-epoch hook. Checkpoint save failures are reported but never
/// fatal — a full disk must not kill a training that is otherwise fine.
#[allow(clippy::too_many_arguments)]
fn train_loop(
    net: &mut dyn Layer,
    loss: &mut dyn Loss,
    x: &Tensor,
    y: &[usize],
    cfg: &TrainConfig,
    drw_weights: Option<&[f32]>,
    rng: &mut Rng64,
    opt: &mut Sgd,
    order: &mut [usize],
    mut history: Vec<EpochStats>,
    start_epoch: usize,
) -> Result<Vec<EpochStats>, TrainFailure> {
    if cfg.checkpoint.is_some() {
        assert!(
            y.len() <= u32::MAX as usize,
            "checkpointed sample order is u32-indexed"
        );
    }
    for epoch in start_epoch..cfg.epochs {
        match run_epoch(net, loss, x, y, cfg, drw_weights, opt, order, rng, epoch) {
            Ok(stats) => history.push(stats),
            Err(error) => {
                return Err(TrainFailure {
                    error,
                    completed: history,
                })
            }
        }
        eos_trace::counter("train.epochs").add(1);
        if let Some(ckpt) = &cfg.checkpoint {
            let epochs_done = epoch + 1;
            if ckpt.due(epochs_done, cfg.epochs) {
                let drw_installed =
                    drw_weights.is_some() && cfg.drw_epoch.is_some_and(|de| epochs_done > de);
                let (rng_words, rng_spare) = rng.state();
                let state = TrainState {
                    epochs_done,
                    lr: opt.lr,
                    drw_installed,
                    rng_words,
                    rng_spare,
                    weights: save_weights_bytes(net),
                    velocity: opt.velocity().to_vec(),
                    order: order.iter().map(|&i| i as u32).collect(),
                    history: history.clone(),
                };
                if let Err(e) = ckpt.save(&state) {
                    eprintln!("[ckpt] failed to save epoch-{epochs_done} checkpoint: {e}");
                }
            }
            ckpt.fire_after_epoch(epochs_done);
        }
    }
    Ok(history)
}

/// Trains `net` on `(x, y)` with mini-batch SGD.
///
/// The generic `forward`/`backward` come from [`Layer`], so the same loop
/// trains a full [`crate::ConvNet`]'s `Sequential`+head composition (via a
/// wrapper) or a bare classifier head on embeddings. `drw_weights` are the
/// class weights installed at `cfg.drw_epoch`. Stops with [`TrainFailure`]
/// — the divergence diagnosis plus the completed-epoch history — on the
/// first non-finite batch loss, before the poisoned gradients reach the
/// optimiser. Saves checkpoints when `cfg.checkpoint` is set, but always
/// starts from scratch; use [`try_train_epochs_resumable`] to restore.
pub fn try_train_epochs(
    net: &mut dyn Layer,
    loss: &mut dyn Loss,
    x: &Tensor,
    y: &[usize],
    cfg: &TrainConfig,
    drw_weights: Option<Vec<f32>>,
    rng: &mut Rng64,
) -> Result<Vec<EpochStats>, TrainFailure> {
    assert_eq!(x.dim(0), y.len(), "sample/label count mismatch");
    assert!(cfg.batch_size > 0 && cfg.epochs > 0);
    let n = y.len();
    let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut order: Vec<usize> = (0..n).collect();
    train_loop(
        net,
        loss,
        x,
        y,
        cfg,
        drw_weights.as_deref(),
        rng,
        &mut opt,
        &mut order,
        Vec::with_capacity(cfg.epochs),
        0,
    )
}

/// Why a checkpoint entry cannot seed this run. Distinct from corruption
/// only in the log message — either way the restore walks on to the
/// previous entry.
fn validate_state(
    state: &TrainState,
    cfg: &TrainConfig,
    drw_weights: Option<&[f32]>,
    n: usize,
    param_lens: &[usize],
) -> Result<(), String> {
    if state.epochs_done == 0 {
        return Err("checkpoint records zero completed epochs".into());
    }
    if state.epochs_done > cfg.epochs {
        return Err(format!(
            "checkpoint has {} completed epochs but the run is configured for {}",
            state.epochs_done, cfg.epochs
        ));
    }
    if state.order.len() != n {
        return Err(format!(
            "checkpoint order covers {} samples, dataset has {n}",
            state.order.len()
        ));
    }
    let mut seen = vec![false; n];
    for &i in &state.order {
        let i = i as usize;
        if i >= n || seen[i] {
            return Err("checkpoint order is not a permutation of the dataset".into());
        }
        seen[i] = true;
    }
    if !state.velocity.is_empty() {
        if state.velocity.len() != param_lens.len() {
            return Err(format!(
                "checkpoint has {} velocity buffers, model has {} parameters",
                state.velocity.len(),
                param_lens.len()
            ));
        }
        for (i, (v, &len)) in state.velocity.iter().zip(param_lens).enumerate() {
            if v.len() != len {
                return Err(format!(
                    "velocity buffer {i} has {} elements, parameter has {len}",
                    v.len()
                ));
            }
        }
    }
    let expect_drw =
        drw_weights.is_some() && cfg.drw_epoch.is_some_and(|de| state.epochs_done > de);
    if state.drw_installed != expect_drw {
        return Err(format!(
            "checkpoint DRW-installed flag is {} but the configuration implies {}",
            state.drw_installed, expect_drw
        ));
    }
    Ok(())
}

/// [`try_train_epochs`], resuming from the newest valid checkpoint in
/// `cfg.checkpoint` when one exists.
///
/// Restores weights + BN statistics, momentum velocity, the shuffle RNG,
/// the sample permutation, the LR position and the DRW state, then
/// continues from the recorded epoch — producing final weights
/// byte-identical to an uninterrupted run. Corrupt, truncated or
/// configuration-incompatible entries are skipped (counted under
/// `train.ckpt.corrupt`) in favour of the previous one; with no usable
/// entry the run starts from scratch. Never panics on a damaged file.
pub fn try_train_epochs_resumable(
    net: &mut dyn Layer,
    loss: &mut dyn Loss,
    x: &Tensor,
    y: &[usize],
    cfg: &TrainConfig,
    drw_weights: Option<Vec<f32>>,
    rng: &mut Rng64,
) -> Result<Vec<EpochStats>, TrainFailure> {
    assert_eq!(x.dim(0), y.len(), "sample/label count mismatch");
    assert!(cfg.batch_size > 0 && cfg.epochs > 0);
    let n = y.len();
    let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut order: Vec<usize> = (0..n).collect();
    let mut history: Vec<EpochStats> = Vec::with_capacity(cfg.epochs);
    let mut start_epoch = 0usize;
    if let Some(ckpt) = &cfg.checkpoint {
        let param_lens: Vec<usize> = net.params().iter().map(|p| p.value.len()).collect();
        for (entry_epoch, path) in ckpt.entries() {
            let attempt = std::fs::read(&path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| load_train_state_bytes(&bytes).map_err(|e| e.to_string()))
                .and_then(|state| {
                    validate_state(&state, cfg, drw_weights.as_deref(), n, &param_lens)
                        .map(|()| state)
                })
                .and_then(|state| {
                    // load_weights mutates the net as it reads, so a blob
                    // that fails partway must roll back to the snapshot
                    // before the next entry is tried.
                    let rollback = save_weights_bytes(net);
                    match load_weights(net, state.weights.as_slice()) {
                        Ok(()) => Ok(state),
                        Err(e) => {
                            load_weights(net, rollback.as_slice())
                                .expect("rolling back to the pre-restore weights");
                            Err(e.to_string())
                        }
                    }
                });
            match attempt {
                Ok(state) => {
                    opt.lr = state.lr;
                    opt.set_velocity(state.velocity);
                    if state.drw_installed {
                        let w = drw_weights
                            .clone()
                            .expect("validate_state checked presence");
                        loss.set_class_weights(Some(w));
                    }
                    *rng = Rng64::from_state(state.rng_words, state.rng_spare);
                    order = state.order.iter().map(|&i| i as usize).collect();
                    history = state.history;
                    start_epoch = state.epochs_done;
                    eos_trace::counter("train.ckpt.loaded").add(1);
                    break;
                }
                Err(why) => {
                    eos_trace::counter("train.ckpt.corrupt").add(1);
                    eprintln!(
                        "[ckpt] skipping checkpoint {} (epoch {entry_epoch}): {why}",
                        path.display()
                    );
                }
            }
        }
    }
    train_loop(
        net,
        loss,
        x,
        y,
        cfg,
        drw_weights.as_deref(),
        rng,
        &mut opt,
        &mut order,
        history,
        start_epoch,
    )
}

/// Trains like [`try_train_epochs`] but evaluates plain accuracy on a
/// validation set after every epoch and stops early when it fails to
/// improve for `patience` consecutive epochs. Returns the history (one
/// entry per *completed* epoch) and the best validation accuracy
/// observed.
///
/// One optimiser and one cumulative shuffle order persist across the
/// whole run, so momentum velocity carries over epoch boundaries and the
/// first `k` epochs are bit-identical to [`try_train_epochs`]'s first
/// `k`. DRW weights install at `cfg.drw_epoch` exactly as in the plain
/// loop, and divergence surfaces as a typed [`TrainFailure`] rather than
/// a panic.
#[allow(clippy::too_many_arguments)]
pub fn train_with_early_stopping(
    net: &mut dyn Layer,
    loss: &mut dyn Loss,
    x: &Tensor,
    y: &[usize],
    val_x: &Tensor,
    val_y: &[usize],
    cfg: &TrainConfig,
    patience: usize,
    drw_weights: Option<Vec<f32>>,
    rng: &mut Rng64,
) -> Result<(Vec<EpochStats>, f32), TrainFailure> {
    assert_eq!(x.dim(0), y.len(), "sample/label count mismatch");
    assert_eq!(val_x.dim(0), val_y.len());
    assert!(cfg.batch_size > 0 && cfg.epochs > 0);
    assert!(patience >= 1);
    let n = y.len();
    let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut order: Vec<usize> = (0..n).collect();
    let mut history = Vec::new();
    let mut best = f32::NEG_INFINITY;
    let mut since_best = 0usize;
    for epoch in 0..cfg.epochs {
        match run_epoch(
            net,
            loss,
            x,
            y,
            cfg,
            drw_weights.as_deref(),
            &mut opt,
            &mut order,
            rng,
            epoch,
        ) {
            Ok(stats) => history.push(stats),
            Err(error) => {
                return Err(TrainFailure {
                    error,
                    completed: history,
                })
            }
        }
        eos_trace::counter("train.epochs").add(1);
        let preds = net.forward(val_x, false).argmax_rows();
        let correct = preds.iter().zip(val_y).filter(|(p, t)| p == t).count();
        let acc = correct as f32 / val_y.len().max(1) as f32;
        if acc > best {
            best = acc;
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= patience {
                break;
            }
        }
    }
    Ok((history, best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::CrossEntropyLoss;
    use crate::models::mlp;
    use eos_tensor::normal;

    /// Two well-separated Gaussian blobs; any sane trainer should fit them.
    fn blobs(n_per: usize, rng: &mut Rng64) -> (Tensor, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            let centre = if class == 0 { -2.0 } else { 2.0 };
            for _ in 0..n_per {
                rows.push(normal(&[2], centre, 0.5, rng));
                labels.push(class);
            }
        }
        (Tensor::stack_rows(&rows), labels)
    }

    fn param_bits(net: &mut dyn Layer) -> Vec<u32> {
        net.params()
            .iter()
            .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn trains_to_high_accuracy_on_separable_data() {
        let mut rng = Rng64::new(42);
        let (x, y) = blobs(40, &mut rng);
        let mut net = mlp(&[2, 8, 2], &mut rng);
        let mut loss = CrossEntropyLoss::new();
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 0.1,
            ..TrainConfig::default()
        };
        let hist = train_epochs(&mut net, &mut loss, &x, &y, &cfg, None, &mut rng);
        let last = hist.last().unwrap();
        assert!(last.accuracy > 0.95, "final accuracy {}", last.accuracy);
        assert!(
            hist.first().unwrap().loss > last.loss,
            "loss should decrease"
        );
    }

    #[test]
    fn drw_installs_weights_at_epoch() {
        // With absurd weights on class 1 installed at epoch 0, the model
        // should predict class 1 everywhere.
        let mut rng = Rng64::new(7);
        let (x, y) = blobs(20, &mut rng);
        let mut net = mlp(&[2, 4, 2], &mut rng);
        let mut loss = CrossEntropyLoss::new();
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 8,
            lr: 0.1,
            drw_epoch: Some(0),
            ..TrainConfig::default()
        };
        let _ = train_epochs(
            &mut net,
            &mut loss,
            &x,
            &y,
            &cfg,
            Some(vec![0.0, 100.0]),
            &mut rng,
        );
        let preds = net.forward(&x, false).argmax_rows();
        assert!(preds.iter().all(|&p| p == 1), "extreme weights dominate");
    }

    #[test]
    fn early_stopping_halts_on_plateau() {
        // Validation labels are pure noise: accuracy cannot improve, so
        // training must stop after `patience` epochs, well short of the
        // configured 50.
        let mut rng = Rng64::new(21);
        let (x, y) = blobs(20, &mut rng);
        let val_x = eos_tensor::normal(&[20, 2], 0.0, 1.0, &mut rng);
        let val_y: Vec<usize> = (0..20).map(|i| i % 2).collect();
        let mut net = mlp(&[2, 4, 2], &mut rng);
        let mut loss = CrossEntropyLoss::new();
        let cfg = TrainConfig {
            epochs: 50,
            batch_size: 8,
            lr: 0.05,
            ..TrainConfig::default()
        };
        let (history, best) = train_with_early_stopping(
            &mut net, &mut loss, &x, &y, &val_x, &val_y, &cfg, 3, None, &mut rng,
        )
        .unwrap();
        assert!(
            history.len() < 50,
            "should stop early, ran {}",
            history.len()
        );
        assert!((0.0..=1.0).contains(&best));
    }

    #[test]
    fn early_stopping_runs_to_completion_when_improving() {
        // Validation drawn from the same separable blobs: accuracy keeps
        // (or reaches) a high plateau; with generous patience the run
        // completes every epoch.
        let mut rng = Rng64::new(22);
        let (x, y) = blobs(30, &mut rng);
        let (vx, vy) = blobs(10, &mut rng);
        let mut net = mlp(&[2, 8, 2], &mut rng);
        let mut loss = CrossEntropyLoss::new();
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: 8,
            lr: 0.1,
            ..TrainConfig::default()
        };
        let (history, best) = train_with_early_stopping(
            &mut net, &mut loss, &x, &y, &vx, &vy, &cfg, 8, None, &mut rng,
        )
        .unwrap();
        assert_eq!(history.len(), 8);
        assert!(best > 0.9, "best val acc {best}");
    }

    #[test]
    fn early_stopping_matches_plain_training_bit_for_bit() {
        // Regression for two trainer-state bugs: the early-stopping loop
        // used to rebuild a fresh one-epoch config (zeroing SGD momentum
        // at every epoch boundary) and to hardcode DRW off. With one
        // optimiser threaded through and DRW honoured, a run that never
        // triggers the patience must be bit-identical to try_train_epochs
        // under the same schedule, DRW epoch and RNG stream.
        struct Halving;
        impl LrSchedule for Halving {
            fn lr_at(&self, epoch: usize) -> f32 {
                0.1 / (1 << epoch.min(4)) as f32
            }
        }
        let mut data_rng = Rng64::new(23);
        let (x, y) = blobs(15, &mut data_rng);
        let (vx, vy) = blobs(5, &mut data_rng);
        let drw = Some(vec![1.0, 3.0]);

        let mut plain_net = mlp(&[2, 6, 2], &mut Rng64::new(77));
        let mut plain_loss = CrossEntropyLoss::new();
        let plain_cfg = TrainConfig {
            epochs: 6,
            batch_size: 8,
            schedule: Some(Box::new(Halving)),
            drw_epoch: Some(2),
            ..TrainConfig::default()
        };
        let plain_hist = try_train_epochs(
            &mut plain_net,
            &mut plain_loss,
            &x,
            &y,
            &plain_cfg,
            drw.clone(),
            &mut Rng64::new(88),
        )
        .unwrap();

        let mut es_net = mlp(&[2, 6, 2], &mut Rng64::new(77));
        let mut es_loss = CrossEntropyLoss::new();
        let es_cfg = TrainConfig {
            epochs: 6,
            batch_size: 8,
            schedule: Some(Box::new(Halving)),
            drw_epoch: Some(2),
            ..TrainConfig::default()
        };
        let (es_hist, _) = train_with_early_stopping(
            &mut es_net,
            &mut es_loss,
            &x,
            &y,
            &vx,
            &vy,
            &es_cfg,
            100,
            drw,
            &mut Rng64::new(88),
        )
        .unwrap();

        assert_eq!(es_hist.len(), plain_hist.len(), "run was cut short");
        assert_eq!(es_hist, plain_hist, "per-epoch stats diverged");
        assert_eq!(
            param_bits(&mut es_net),
            param_bits(&mut plain_net),
            "early stopping drifted from the plain loop (momentum or DRW lost)"
        );
    }

    /// Returns a finite loss for `poison_after` batches, then NaN.
    struct PoisonedLoss {
        calls: std::cell::Cell<usize>,
        poison_after: usize,
    }
    impl crate::loss::Loss for PoisonedLoss {
        fn loss_and_grad(&self, logits: &Tensor, _labels: &[usize]) -> (f32, Tensor) {
            let call = self.calls.get();
            self.calls.set(call + 1);
            let l = if call < self.poison_after {
                1.0
            } else {
                f32::NAN
            };
            (l, Tensor::zeros(logits.dims()))
        }
        fn set_class_weights(&mut self, _weights: Option<Vec<f32>>) {}
        fn name(&self) -> &'static str {
            "Poisoned"
        }
    }

    #[test]
    fn non_finite_loss_surfaces_a_structured_error_in_release_too() {
        // 20 samples / batch 8 = 3 batches per epoch; poison call 4
        // (epoch 1, batch 1) and check the error pinpoints it — and that
        // the completed epoch-0 stats survive alongside it. This path
        // must not depend on debug assertions.
        let mut rng = Rng64::new(30);
        let (x, y) = blobs(10, &mut rng);
        let mut net = mlp(&[2, 2], &mut rng);
        let mut loss = PoisonedLoss {
            calls: std::cell::Cell::new(0),
            poison_after: 4,
        };
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 8,
            ..TrainConfig::default()
        };
        let failure = try_train_epochs(&mut net, &mut loss, &x, &y, &cfg, None, &mut rng)
            .expect_err("NaN loss must abort training");
        assert_eq!(failure.error.epoch, 1);
        assert_eq!(failure.error.batch, 1);
        assert_eq!(failure.error.loss_name, "Poisoned");
        assert!(failure.error.value.is_nan());
        assert_eq!(failure.completed.len(), 1, "epoch 0 finished cleanly");
        assert_eq!(failure.completed[0].epoch, 0);
        assert!(
            failure.to_string().contains("epoch 1, batch 1")
                && failure.to_string().contains("1 epochs completed"),
            "{failure}"
        );
    }

    #[test]
    fn early_stopping_surfaces_typed_error_with_partial_history() {
        // Same poisoning through the early-stopping loop: no panic, a
        // typed failure, and the completed epoch retained.
        let mut rng = Rng64::new(32);
        let (x, y) = blobs(10, &mut rng);
        let (vx, vy) = blobs(4, &mut rng);
        let mut net = mlp(&[2, 2], &mut rng);
        let mut loss = PoisonedLoss {
            calls: std::cell::Cell::new(0),
            poison_after: 3,
        };
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 8,
            ..TrainConfig::default()
        };
        let failure = train_with_early_stopping(
            &mut net, &mut loss, &x, &y, &vx, &vy, &cfg, 10, None, &mut rng,
        )
        .expect_err("NaN loss must abort training");
        assert_eq!(failure.error.epoch, 1);
        assert_eq!(failure.error.batch, 0);
        assert_eq!(failure.completed.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-finite Poisoned loss")]
    fn train_epochs_panics_on_divergence() {
        let mut rng = Rng64::new(31);
        let (x, y) = blobs(6, &mut rng);
        let mut net = mlp(&[2, 2], &mut rng);
        let mut loss = PoisonedLoss {
            calls: std::cell::Cell::new(0),
            poison_after: 0,
        };
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let _ = train_epochs(&mut net, &mut loss, &x, &y, &cfg, None, &mut rng);
    }

    #[test]
    fn schedule_is_applied() {
        // A schedule returning 0 must freeze the network.
        struct Zero;
        impl crate::optim::LrSchedule for Zero {
            fn lr_at(&self, _epoch: usize) -> f32 {
                1e-12
            }
        }
        let mut rng = Rng64::new(9);
        let (x, y) = blobs(10, &mut rng);
        let mut net = mlp(&[2, 2], &mut rng);
        let before: Vec<f32> = net.params().iter().map(|p| p.value.sum()).collect();
        let mut loss = CrossEntropyLoss::new();
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 8,
            schedule: Some(Box::new(Zero)),
            weight_decay: 0.0,
            ..TrainConfig::default()
        };
        let _ = train_epochs(&mut net, &mut loss, &x, &y, &cfg, None, &mut rng);
        let after: Vec<f32> = net.params().iter().map(|p| p.value.sum()).collect();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-4, "params moved under zero lr");
        }
    }
}
