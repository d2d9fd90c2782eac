//! Content-addressed on-disk artifact store.
//!
//! One file per trained backbone under `results/cache/` (override with
//! `EOS_CACHE_DIR`), named by the backbone fingerprint:
//! `bb_<fp>.eosc`. Each entry is a sealed `EOSC` artifact (layout in
//! [`eos_trace::codec`]) holding the EOSW weight blob of the trained
//! network plus the extracted train-set embeddings and labels. Body:
//!
//! ```text
//! u64 fp | u64 num_classes | u64-prefixed EOSW blob | tensor train_fe
//!   | u64 n | n x u32 label
//! ```
//!
//! A truncated, bit-flipped or structurally impossible entry fails the
//! load with an `Err` — callers treat that as a miss and retrain, so a
//! corrupt cache can cost time but never correctness.
//!
//! # Cross-worker claims
//!
//! Concurrent jobs — in one process or across processes sharing
//! `$EOS_CACHE_DIR` — coordinate through a lock file per fingerprint
//! (`bb_<fp>.lock`), created with `O_CREAT|O_EXCL` so exactly one claimant
//! wins. The winner holds a [`ClaimGuard`] whose heartbeat thread rewrites
//! the lock file periodically (refreshing its mtime); losers poll until
//! the entry appears (entries land atomically via temp + rename) or the
//! lock goes stale — a heartbeat older than [`ArtifactCache::stale_after`]
//! means the owner died, and any waiter may take the lock over. Takeover
//! races are safe: removal is idempotent and re-claiming goes through the
//! same exclusive create.
//!
//! # Hygiene
//!
//! [`ArtifactCache::gc`] lists entries with size and age, removes
//! orphaned temp files, stale locks and checksum-corrupt entries, and can
//! evict oldest-first down to a byte cap (`suite --cache-gc`). The
//! `ckpt/` subdirectory — mid-training EOST checkpoints, see
//! [`ArtifactCache::ckpt_dir`] — is swept too: corrupt checkpoints and
//! checkpoints superseded by a finished entry go, in-flight resume points
//! stay (and never count against the cap).

use crate::exp::faults::FaultPlan;
use eos_core::{PipelineConfig, ThreePhase};
use eos_data::Dataset;
use eos_nn::{load_weights, put_tensor, save_weights_bytes, take_tensor, ConvNet};
use eos_tensor::Rng64;
use eos_trace::codec::{bad, unseal, Reader, Writer};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

const MAGIC: &[u8; 4] = b"EOSC";
const VERSION: u32 = 1;

/// Default time without a heartbeat after which a lock is considered
/// abandoned. Heartbeats fire every quarter of this, so a live owner is
/// never mistaken for a dead one short of a multi-second stall.
const DEFAULT_STALE_AFTER: Duration = Duration::from_secs(30);

/// The artifact store rooted at one directory.
pub struct ArtifactCache {
    dir: PathBuf,
    /// Lock files whose heartbeat is older than this are abandoned and
    /// may be taken over.
    stale_after: Duration,
    /// Fault-injection plan checked at the read/write/claim points
    /// (empty in production unless `EOS_FAULTS` arms it).
    faults: Arc<FaultPlan>,
}

impl ArtifactCache {
    /// Store at the default location: `$EOS_CACHE_DIR` if set, else
    /// `results/cache/`.
    pub fn at_default() -> Self {
        let dir = std::env::var_os("EOS_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new("results").join("cache"));
        ArtifactCache::at(dir)
    }

    /// Store rooted at an explicit directory (tests, tooling).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        ArtifactCache {
            dir: dir.into(),
            stale_after: DEFAULT_STALE_AFTER,
            faults: Arc::new(FaultPlan::empty()),
        }
    }

    /// Arms a fault-injection plan on the cache's IO points. The engine
    /// shares its own plan with its cache so one `EOS_FAULTS` spec
    /// covers the whole stack.
    pub fn set_faults(&mut self, faults: Arc<FaultPlan>) {
        self.faults = faults;
    }

    /// Overrides the stale-lock threshold. Tests use a few tens of
    /// milliseconds so takeover is exercised without backdating mtimes
    /// (which `std` cannot do portably).
    pub fn with_stale_after(mut self, d: Duration) -> Self {
        self.stale_after = d.max(Duration::from_millis(1));
        self
    }

    /// The current stale-lock threshold.
    pub fn stale_after(&self) -> Duration {
        self.stale_after
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the backbone entry with the given fingerprint.
    pub fn backbone_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("bb_{fp:016x}.eosc"))
    }

    /// Directory in-flight training checkpoints (EOST files) live in,
    /// beside the finished entries. The engine stems each training's
    /// checkpoints by its backbone fingerprint (`ckpt/bb_<fp>.ep*.eost`),
    /// so a killed training resumes from here and [`ArtifactCache::gc`]
    /// can tell which checkpoints a finished `bb_<fp>.eosc` supersedes.
    pub fn ckpt_dir(&self) -> PathBuf {
        self.dir.join("ckpt")
    }

    /// Path of the claim lock guarding the entry with the given
    /// fingerprint.
    pub fn lock_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("bb_{fp:016x}.lock"))
    }

    /// Attempts to claim the right to produce entry `fp`. `Ok(Some)`
    /// hands back a [`ClaimGuard`] — the caller is now the sole producer
    /// and must either store the entry or drop the guard so another
    /// worker can take over. `Ok(None)` means another live claimant holds
    /// the lock; poll [`ArtifactCache::load_backbone`] and retry. A lock
    /// whose heartbeat stopped for longer than [`stale_after`] is removed
    /// and re-claimed here (the takeover race is settled by the exclusive
    /// create — at most one caller wins).
    ///
    /// [`stale_after`]: ArtifactCache::with_stale_after
    pub fn try_claim(&self, fp: u64) -> io::Result<Option<ClaimGuard>> {
        self.faults.fire_io("cache.claim", &format!("{fp:016x}"))?;
        std::fs::create_dir_all(&self.dir)?;
        let path = self.lock_path(fp);
        // Two attempts: the first may fail on a stale lock, which we
        // remove; the second settles the takeover race.
        for attempt in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => {
                    eos_trace::counter("exp.lock.claimed").add(1);
                    if attempt > 0 {
                        eos_trace::counter("exp.lock.takeover").add(1);
                    }
                    drop(file);
                    return Ok(Some(ClaimGuard::start(path, self.stale_after)?));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if attempt > 0 || !self.lock_is_stale(&path) {
                        eos_trace::counter("exp.lock.contended").add(1);
                        return Ok(None);
                    }
                    // Stale: the owner died without cleaning up. Remove
                    // and retry; NotFound just means another waiter beat
                    // us to the removal.
                    match std::fs::remove_file(&path) {
                        Ok(()) => {}
                        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("second claim attempt always returns");
    }

    /// True when the lock file at `path` exists and its last heartbeat
    /// (mtime) is older than the stale threshold. A vanished lock or an
    /// unreadable mtime reads as "not stale" — the next claim attempt
    /// resolves it.
    fn lock_is_stale(&self, path: &Path) -> bool {
        let Ok(meta) = std::fs::metadata(path) else {
            return false;
        };
        let Ok(mtime) = meta.modified() else {
            return false;
        };
        SystemTime::now()
            .duration_since(mtime)
            .map(|age| age > self.stale_after)
            .unwrap_or(false)
    }

    /// Serialises a trained pipeline (weights + train embeddings +
    /// labels) under `fp`. The write is atomic (temp + rename), so a
    /// crashed run never leaves a torn entry under the content address.
    /// Returns the entry size in bytes.
    pub fn store_backbone(&self, fp: u64, tp: &mut ThreePhase) -> io::Result<u64> {
        self.faults.fire_io("cache.write", &format!("{fp:016x}"))?;
        let mut w = Writer::new(MAGIC, VERSION);
        w.u64(fp)
            .u64(tp.num_classes as u64)
            .bytes(&save_weights_bytes(&mut tp.net));
        put_tensor(&mut w, &tp.train_fe);
        w.u64(tp.train_y.len() as u64);
        for &label in &tp.train_y {
            w.u32(label as u32);
        }
        let payload = w.seal();
        std::fs::create_dir_all(&self.dir)?;
        eos_trace::write_atomic(&self.backbone_path(fp), &payload)?;
        Ok(payload.len() as u64)
    }

    /// Loads the entry stored under `fp` and re-assembles the pipeline
    /// against `train` (which supplies the input shape and the labels to
    /// cross-check). `Ok(None)` means no entry exists; `Err` means an
    /// entry exists but is truncated, corrupt, or inconsistent with the
    /// requested configuration — the caller retrains in both cases.
    /// On success also returns the entry size in bytes.
    pub fn load_backbone(
        &self,
        fp: u64,
        cfg: &PipelineConfig,
        train: &Dataset,
    ) -> io::Result<Option<(ThreePhase, u64)>> {
        self.faults.fire_io("cache.read", &format!("{fp:016x}"))?;
        let path = self.backbone_path(fp);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let tp = self.parse_backbone(fp, &bytes, cfg, train)?;
        Ok(Some((tp, bytes.len() as u64)))
    }

    fn parse_backbone(
        &self,
        fp: u64,
        bytes: &[u8],
        cfg: &PipelineConfig,
        train: &Dataset,
    ) -> io::Result<ThreePhase> {
        let mut r = Reader::open_sealed(bytes, MAGIC, VERSION)?;
        if r.u64()? != fp {
            return Err(bad("fingerprint mismatch (entry stored under wrong name)"));
        }
        let num_classes = r.usize()?;
        if num_classes != train.num_classes {
            return Err(bad(format!(
                "entry has {num_classes} classes, dataset has {}",
                train.num_classes
            )));
        }
        // Structure the network exactly as training would have, then
        // restore the trained parameters and batch-norm statistics.
        let mut net = ConvNet::new(cfg.arch, train.shape, num_classes, &mut Rng64::new(fp));
        load_weights(&mut net, r.bytes()?)?;
        let train_fe = take_tensor(&mut r)?;
        let n_labels = r.count(4)?;
        if n_labels != train.len() {
            return Err(bad(format!(
                "entry has {n_labels} samples, dataset has {}",
                train.len()
            )));
        }
        let mut train_y = Vec::with_capacity(n_labels);
        for _ in 0..n_labels {
            train_y.push(r.u32()? as usize);
        }
        r.finish()?;
        if train_y != train.y {
            return Err(bad("cached labels disagree with the dataset"));
        }
        Ok(ThreePhase::from_parts(net, train_fe, train_y, num_classes))
    }

    /// Sweeps the cache directory: removes orphaned temp files (from
    /// crashed atomic writes), stale lock files and checksum-corrupt
    /// entries, then — if `cap` is given — evicts intact entries oldest
    /// first until the survivors fit under `cap` bytes. Returns what was
    /// kept and what was reclaimed. A missing directory is an empty,
    /// clean cache.
    pub fn gc(&self, cap: Option<u64>) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(e),
        };
        let mut kept: Vec<GcEntry> = Vec::new();
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            let meta = entry.metadata()?;
            if !meta.is_file() {
                continue;
            }
            let age = meta
                .modified()
                .ok()
                .and_then(|m| SystemTime::now().duration_since(m).ok())
                .unwrap_or(Duration::ZERO);
            let bytes = meta.len();
            let reason = if name.contains(".tmp.") {
                // `write_atomic` temp name that never got renamed.
                Some("orphaned temp file")
            } else if name.ends_with(".lock") {
                if age > self.stale_after {
                    Some("stale lock")
                } else {
                    // A live claim; leave it alone and don't count it.
                    continue;
                }
            } else if name.ends_with(".eosc") {
                if unseal(&std::fs::read(&path)?).is_ok() {
                    None
                } else {
                    Some("corrupt entry")
                }
            } else {
                // Not ours; never touch it.
                continue;
            };
            let item = GcEntry { name, bytes, age };
            match reason {
                Some(why) => report.remove(&self.dir, item, why)?,
                None => kept.push(item),
            }
        }
        if let Some(cap) = cap {
            // Oldest mtime evicts first; ties break on name so the sweep
            // is deterministic.
            kept.sort_by(|a, b| b.age.cmp(&a.age).then_with(|| a.name.cmp(&b.name)));
            let mut total: u64 = kept.iter().map(|e| e.bytes).sum();
            while total > cap {
                let Some(oldest) = kept.first().cloned() else {
                    break;
                };
                kept.remove(0);
                total -= oldest.bytes;
                report.remove(&self.dir, oldest, "over size cap")?;
            }
        }
        // Training checkpoints are transient: keep only intact ones whose
        // training has not finished yet. They sit outside the size cap —
        // an in-flight training's resume point must not be evicted by a
        // cache-pressure sweep.
        self.gc_checkpoints(&mut report, &mut kept)?;
        kept.sort_by(|a, b| a.name.cmp(&b.name));
        report.kept = kept;
        Ok(report)
    }

    /// Sweeps the `ckpt/` subdirectory: orphaned temps, checksum-corrupt
    /// EOST files (sealed like EOSC, so [`unseal`] checks both), and
    /// checkpoints whose training already produced its final
    /// `bb_<fp>.eosc` entry. Reported names are prefixed `ckpt/`.
    fn gc_checkpoints(&self, report: &mut GcReport, kept: &mut Vec<GcEntry>) -> io::Result<()> {
        let entries = match std::fs::read_dir(self.ckpt_dir()) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            let meta = entry.metadata()?;
            if !meta.is_file() {
                continue;
            }
            let age = meta
                .modified()
                .ok()
                .and_then(|m| SystemTime::now().duration_since(m).ok())
                .unwrap_or(Duration::ZERO);
            let reason = if name.contains(".tmp.") {
                Some("orphaned temp file")
            } else if name.ends_with(".eost") {
                let finished = name
                    .split_once(".ep")
                    .is_some_and(|(stem, _)| self.dir.join(format!("{stem}.eosc")).exists());
                if finished {
                    Some("superseded checkpoint")
                } else if unseal(&std::fs::read(&path)?).is_ok() {
                    None
                } else {
                    Some("corrupt entry")
                }
            } else {
                // Not ours; never touch it.
                continue;
            };
            let item = GcEntry {
                name: format!("ckpt/{name}"),
                bytes: meta.len(),
                age,
            };
            match reason {
                Some(why) => report.remove(&self.dir, item, why)?,
                None => kept.push(item),
            }
        }
        Ok(())
    }
}

/// One file the garbage collector looked at.
#[derive(Clone, Debug)]
pub struct GcEntry {
    /// File name within the cache directory.
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Time since last modification.
    pub age: Duration,
}

/// What [`ArtifactCache::gc`] kept and reclaimed.
#[derive(Default, Debug)]
pub struct GcReport {
    /// Intact entries still in the cache, sorted by name.
    pub kept: Vec<GcEntry>,
    /// Deleted files with the reason each was removed.
    pub removed: Vec<(GcEntry, &'static str)>,
    /// Total bytes freed.
    pub reclaimed_bytes: u64,
}

impl GcReport {
    fn remove(&mut self, dir: &Path, item: GcEntry, why: &'static str) -> io::Result<()> {
        match std::fs::remove_file(dir.join(&item.name)) {
            Ok(()) => {}
            // Another process swept it first; count it anyway.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        self.reclaimed_bytes += item.bytes;
        self.removed.push((item, why));
        Ok(())
    }

    /// Total bytes of the surviving entries.
    pub fn kept_bytes(&self) -> u64 {
        self.kept.iter().map(|e| e.bytes).sum()
    }
}

/// Exclusive right to produce one cache entry, backed by the lock file.
/// A heartbeat thread refreshes the lock's mtime every quarter of the
/// stale threshold; dropping the guard stops the heartbeat and removes
/// the lock. If the process dies instead, the heartbeat dies with it and
/// the lock goes stale for the next claimant.
pub struct ClaimGuard {
    path: PathBuf,
    /// Dropping the sender wakes the heartbeat thread immediately.
    stop: Option<Sender<()>>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
}

impl ClaimGuard {
    fn start(path: PathBuf, stale_after: Duration) -> io::Result<Self> {
        let (stop, rx) = std::sync::mpsc::channel::<()>();
        let beat_path = path.clone();
        let interval = (stale_after / 4).max(Duration::from_millis(1));
        let heartbeat = std::thread::Builder::new()
            .name("eos-cache-heartbeat".into())
            .spawn(move || loop {
                match rx.recv_timeout(interval) {
                    // Sender dropped: the guard is going away.
                    Err(RecvTimeoutError::Disconnected) | Ok(()) => return,
                    Err(RecvTimeoutError::Timeout) => {
                        // Rewrite refreshes mtime; the content is only a
                        // debugging aid. A failed beat (dir swept away)
                        // is harmless — claims resolve via create_new.
                        let _ = std::fs::write(&beat_path, format!("{}\n", std::process::id()));
                    }
                }
            });
        let heartbeat = match heartbeat {
            Ok(h) => h,
            Err(e) => {
                // No heartbeat means the claim would go stale under a
                // live owner; release the lock and report instead.
                let _ = std::fs::remove_file(&path);
                return Err(e);
            }
        };
        Ok(ClaimGuard {
            path,
            stop: Some(stop),
            heartbeat: Some(heartbeat),
        })
    }
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        // Stop the heartbeat *before* removing the lock so a final beat
        // cannot resurrect the file.
        drop(self.stop.take());
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.path);
        eos_trace::counter("exp.lock.released").add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_data::SynthSpec;
    use eos_nn::LossKind;
    use eos_trace::codec::Fnv;

    fn tiny_setup() -> (Dataset, Dataset, PipelineConfig) {
        let mut spec = SynthSpec::celeba_like(1);
        spec.n_max_train = 30;
        spec.imbalance_ratio = 4.0;
        spec.n_test_per_class = 8;
        let (mut train, mut test) = spec.generate(17);
        let (mean, std) = train.feature_stats();
        train.standardize(&mean, &std);
        test.standardize(&mean, &std);
        let mut cfg = PipelineConfig::smoke();
        cfg.backbone_epochs = 2;
        (train, test, cfg)
    }

    /// Minimal byte string whose FNV-1a tail verifies — enough for the
    /// gc sweep, which checks the checksum but never parses structure.
    fn checkpoint_bytes() -> Vec<u8> {
        let mut payload = b"EOST-shaped test payload".to_vec();
        let mut h = Fnv::new();
        h.bytes(&payload);
        payload.extend_from_slice(&h.finish().to_le_bytes());
        payload
    }

    fn temp_cache(tag: &str) -> ArtifactCache {
        let dir = std::env::temp_dir().join(format!("eos_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::at(dir)
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let (train, test, cfg) = tiny_setup();
        let cache = temp_cache("roundtrip");
        let fp = 0xABCD_EF01_2345_6789;
        let mut tp = ThreePhase::train(&train, LossKind::Ce, &cfg, &mut Rng64::new(fp));
        let stored = cache.store_backbone(fp, &mut tp).unwrap();
        assert!(stored > 0);
        let (mut back, loaded) = cache.load_backbone(fp, &cfg, &train).unwrap().unwrap();
        assert_eq!(stored, loaded);
        assert_eq!(back.train_fe.data(), tp.train_fe.data(), "embeddings");
        assert_eq!(back.train_y, tp.train_y);
        // Inference through the restored network is bit-exact.
        assert_eq!(
            back.embed(&test).data(),
            tp.embed(&test).data(),
            "test embeddings"
        );
        assert_eq!(
            back.baseline_eval(&test).predictions,
            tp.baseline_eval(&test).predictions
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn missing_entry_is_a_clean_miss() {
        let (train, _, cfg) = tiny_setup();
        let cache = temp_cache("miss");
        assert!(cache.load_backbone(7, &cfg, &train).unwrap().is_none());
    }

    #[test]
    fn truncated_and_corrupt_entries_fail_loudly_not_fatally() {
        let (train, _, cfg) = tiny_setup();
        let cache = temp_cache("corrupt");
        let fp = 99;
        let mut tp = ThreePhase::train(&train, LossKind::Ce, &cfg, &mut Rng64::new(fp));
        cache.store_backbone(fp, &mut tp).unwrap();
        let path = cache.backbone_path(fp);
        let good = std::fs::read(&path).unwrap();

        // Truncation at several depths, including inside the checksum.
        for cut in [4, good.len() / 2, good.len() - 3] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(
                cache.load_backbone(fp, &cfg, &train).is_err(),
                "cut at {cut} accepted"
            );
        }
        // A single flipped bit in the weight blob.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(cache.load_backbone(fp, &cfg, &train).is_err());
        // Restored intact entry loads again.
        std::fs::write(&path, &good).unwrap();
        assert!(cache.load_backbone(fp, &cfg, &train).unwrap().is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn claim_is_exclusive_and_released_on_drop() {
        let cache = temp_cache("claim");
        let fp = 0xC1A1;
        let guard = cache.try_claim(fp).unwrap();
        assert!(guard.is_some(), "first claim must win");
        assert!(cache.lock_path(fp).exists());
        // A second claimant (fresh lock) must be turned away.
        assert!(cache.try_claim(fp).unwrap().is_none());
        drop(guard);
        assert!(!cache.lock_path(fp).exists(), "drop must remove the lock");
        // The lock is free again.
        let again = cache.try_claim(fp).unwrap();
        assert!(again.is_some());
        drop(again);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stale_lock_is_taken_over_but_live_lock_is_not() {
        let cache = temp_cache("stale").with_stale_after(Duration::from_millis(60));
        let fp = 0x57A1E;
        // A dead claimant: a bare lock file with no heartbeat behind it.
        std::fs::create_dir_all(cache.dir()).unwrap();
        std::fs::write(cache.lock_path(fp), b"dead\n").unwrap();
        assert!(
            cache.try_claim(fp).unwrap().is_none(),
            "fresh lock must be honoured even without an owner"
        );
        std::thread::sleep(Duration::from_millis(120));
        let taken = cache.try_claim(fp).unwrap();
        assert!(taken.is_some(), "stale lock must be taken over");
        // The new owner's heartbeat keeps the lock fresh past the
        // threshold, so nobody can steal it while it works.
        std::thread::sleep(Duration::from_millis(120));
        assert!(cache.try_claim(fp).unwrap().is_none(), "heartbeat ignored");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_sweeps_junk_and_enforces_the_cap() {
        let (train, _, cfg) = tiny_setup();
        let cache = temp_cache("gc").with_stale_after(Duration::from_millis(50));
        let mut tp = ThreePhase::train(&train, LossKind::Ce, &cfg, &mut Rng64::new(1));
        let size_a = cache.store_backbone(0xA, &mut tp).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let size_b = cache.store_backbone(0xB, &mut tp).unwrap();
        assert_eq!(size_a, size_b);
        // Junk: an orphaned temp file, a stale lock and a corrupt entry.
        std::fs::write(cache.dir().join(".bb_junk.eosc.tmp.1"), b"half").unwrap();
        std::fs::write(cache.lock_path(0xDEAD), b"dead\n").unwrap();
        std::fs::write(cache.backbone_path(0xC), b"EOSCgarbage").unwrap();
        // A foreign file must survive every sweep.
        std::fs::write(cache.dir().join("README"), b"not ours").unwrap();
        // Checkpoint junk: a corrupt EOST, a checkpoint whose training
        // finished (entry 0xA exists), an orphaned temp — plus one intact
        // in-flight checkpoint (no finished 0xF entry) that must survive.
        let ckpt = cache.ckpt_dir();
        std::fs::create_dir_all(&ckpt).unwrap();
        std::fs::write(ckpt.join("bb_00000000000000ff.ep00001.eost"), b"torn").unwrap();
        std::fs::write(
            ckpt.join(format!("bb_{:016x}.ep00002.eost", 0xAu64)),
            checkpoint_bytes(),
        )
        .unwrap();
        std::fs::write(ckpt.join(".bb_x.eost.tmp.2"), b"half").unwrap();
        let live = format!("bb_{:016x}.ep00001.eost", 0xFu64);
        std::fs::write(ckpt.join(&live), checkpoint_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(80));

        let report = cache.gc(None).unwrap();
        assert_eq!(report.kept.len(), 3, "two intact entries + live ckpt");
        assert_eq!(
            report.removed.len(),
            6,
            "temp + stale lock + corrupt entry + ckpt temp/corrupt/superseded"
        );
        assert!(report.reclaimed_bytes > 0);
        assert!(cache.dir().join("README").exists());
        assert!(!cache.lock_path(0xDEAD).exists());
        assert!(ckpt.join(&live).exists(), "in-flight checkpoint kept");
        let reasons: Vec<&str> = report.removed.iter().map(|(_, why)| *why).collect();
        assert!(reasons.contains(&"superseded checkpoint"));

        // Cap that fits exactly one entry: the older (0xA) is evicted;
        // the in-flight checkpoint does not count against the cap.
        let report = cache.gc(Some(size_b)).unwrap();
        assert_eq!(report.kept.len(), 2);
        assert!(report
            .kept
            .iter()
            .any(|e| e.name == format!("bb_{:016x}.eosc", 0xBu64)));
        assert!(report.kept.iter().any(|e| e.name == format!("ckpt/{live}")));
        assert!(!cache.backbone_path(0xA).exists());
        assert!(cache.backbone_path(0xB).exists());
        assert!(ckpt.join(&live).exists());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn rejects_entry_inconsistent_with_the_dataset() {
        let (train, _, cfg) = tiny_setup();
        let cache = temp_cache("mismatch");
        let fp = 5;
        let mut tp = ThreePhase::train(&train, LossKind::Ce, &cfg, &mut Rng64::new(fp));
        cache.store_backbone(fp, &mut tp).unwrap();
        // Same file asked for under a different dataset (fewer rows).
        let subset = train.subset(&(0..train.len() / 2).collect::<Vec<_>>());
        assert!(cache.load_backbone(fp, &cfg, &subset).is_err());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Golden EOSC bytes of a small untrained pipeline assembled with
    /// [`ThreePhase::from_parts`] under a fixed fingerprint. The entry
    /// must load back to the same weights, embeddings and labels.
    #[test]
    fn golden_eosc_bytes() {
        let (train, _, cfg) = tiny_setup();
        let fp = 0x60_1DE4;
        let net = ConvNet::new(
            cfg.arch,
            train.shape,
            train.num_classes,
            &mut Rng64::new(fp),
        );
        let fe = eos_tensor::normal(
            &[train.len(), net.feature_dim()],
            0.0,
            1.0,
            &mut Rng64::new(3),
        );
        let mut tp = ThreePhase::from_parts(net, fe, train.y.clone(), train.num_classes);
        let cache = temp_cache("golden");
        cache.store_backbone(fp, &mut tp).unwrap();
        let bytes = std::fs::read(cache.backbone_path(fp)).unwrap();
        assert_eq!(
            (bytes.len(), eos_nn::fnv1a(&bytes)),
            (27488, 0xd782ea76ce301d4a)
        );
        let (mut back, _) = cache.load_backbone(fp, &cfg, &train).unwrap().unwrap();
        assert_eq!(back.train_fe.data(), tp.train_fe.data());
        assert_eq!(back.train_y, tp.train_y);
        assert_eq!(
            save_weights_bytes(&mut back.net),
            save_weights_bytes(&mut tp.net)
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
