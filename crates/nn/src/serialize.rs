//! Model weight serialization: the `EOSW` and `EOST` schemas over the
//! shared artifact codec ([`eos_trace::codec`], which documents the
//! common `magic | u32 version | body | u64 FNV-1a` layout).
//!
//! * `EOSW` (unsealed) — trainable parameters in the layer's stable
//!   order plus non-trainable state (batch-norm running statistics), so
//!   a saved network reproduces inference exactly. This is what lets
//!   phase one of the framework be trained once and the classifier head
//!   fine-tuned many times in later processes. Body:
//!   `u64 n_params | n_params x tensor | u64 n_extra | n_extra x f32`,
//!   where a tensor is `u32 rank | rank x u64 dim | f32 payload`.
//! * `EOST` (sealed) — a full mid-training snapshot ([`TrainState`]).
//!   Body: `u64 epochs_done | f32 lr | u8 drw_installed | u8 has_spare |
//!   4 x u64 rng word | u64 spare bits | u64-prefixed EOSW blob |
//!   u64 n x (u64 len | len x f32 velocity) | u64 n x u32 order |
//!   u64 n x (u64 epoch | f32 loss | f32 accuracy)`. Restoring one
//!   continues training bit-identically from the epoch boundary it was
//!   taken at — the substrate of the crash-safe resume contract.

use crate::layer::Layer;
use crate::trainer::EpochStats;
use eos_tensor::Tensor;
pub use eos_trace::codec::fnv1a;
use eos_trace::codec::{bad, Reader, Writer};
use std::io::{self, Write};

const MAGIC: &[u8; 4] = b"EOSW";
const VERSION: u32 = 1;
/// Upper bound on a stored tensor's rank. Nothing in the workspace goes
/// past rank 2; the bound keeps a corrupt rank field from driving a
/// multi-gigabyte dims allocation before the shape check can reject it.
const MAX_RANK: usize = 8;

/// Writes a layer's parameters and extra state to `writer`.
pub fn save_weights(layer: &mut dyn Layer, mut writer: impl Write) -> io::Result<()> {
    writer.write_all(&save_weights_bytes(layer))
}

/// [`save_weights`] rendered into a byte buffer — the in-memory half of
/// the checkpoint round-trip API used by artifact caches.
pub fn save_weights_bytes(layer: &mut dyn Layer) -> Vec<u8> {
    let mut w = Writer::new(MAGIC, VERSION);
    let params = layer.params();
    w.u64(params.len() as u64);
    for p in &params {
        put_tensor(&mut w, &p.value);
    }
    let extra = layer.extra_state();
    w.u64(extra.len() as u64).f32s(&extra);
    w.finish()
}

/// Restores parameters and extra state written by [`save_weights`] into a
/// structurally identical layer. Fails loudly on any shape mismatch.
pub fn load_weights(layer: &mut dyn Layer, bytes: &[u8]) -> io::Result<()> {
    let mut r = Reader::open(bytes, MAGIC, VERSION)?;
    let count = r.u64()?;
    let mut params = layer.params();
    if count != params.len() as u64 {
        return Err(bad(format!(
            "file has {count} parameters, model has {}",
            params.len()
        )));
    }
    for (i, p) in params.iter_mut().enumerate() {
        let t = take_tensor(&mut r)
            .map_err(|e| io::Error::new(e.kind(), format!("parameter {i}: {e}")))?;
        if t.dims() != p.value.dims() {
            return Err(bad(format!(
                "parameter shape mismatch: file {:?}, model {:?}",
                t.dims(),
                p.value.dims()
            )));
        }
        p.value.data_mut().copy_from_slice(t.data());
    }
    let extra_len = r.u64()?;
    let expected = layer.extra_state().len();
    if extra_len != expected as u64 {
        return Err(bad(format!(
            "extra state length mismatch: file {extra_len}, model {expected}"
        )));
    }
    let extra = r.f32s(expected)?;
    if extra.iter().any(|v| !v.is_finite()) {
        return Err(bad("non-finite value in extra state"));
    }
    layer.load_extra_state(&extra);
    // A well-formed blob ends exactly at the extra state; anything after
    // it means the blob and the model disagree about the structure in a
    // way the per-parameter checks happened not to catch.
    r.finish()
}

/// Appends one tensor record (rank, dims, f32 payload) — the encoding of
/// every `EOSW` parameter — to an artifact under construction.
pub fn put_tensor(w: &mut Writer, t: &Tensor) {
    w.u32(t.dims().len() as u32);
    for &d in t.dims() {
        w.u64(d as u64);
    }
    w.f32s(t.data());
}

/// Reads one tensor record written by [`put_tensor`]: bounded rank,
/// overflow-checked dims, a payload bounded by the bytes left, and a
/// finiteness check on every value.
pub fn take_tensor(r: &mut Reader<'_>) -> io::Result<Tensor> {
    let rank = r.u32()? as usize;
    if rank > MAX_RANK {
        return Err(bad(format!(
            "tensor claims rank {rank} (corrupt length field?)"
        )));
    }
    let mut dims = Vec::with_capacity(rank);
    let mut len = 1usize;
    for _ in 0..rank {
        let d = r.usize()?;
        len = len
            .checked_mul(d)
            .ok_or_else(|| bad("tensor dims overflow (corrupt dim field?)"))?;
        dims.push(d);
    }
    let data = r.f32s(len)?;
    if data.iter().any(|v| !v.is_finite()) {
        return Err(bad("non-finite value in tensor"));
    }
    Ok(Tensor::from_vec(data, &dims))
}

/// Writes one tensor record on its own. Together with [`read_tensor`]
/// this lets callers persist auxiliary arrays (extracted embeddings,
/// cached statistics) without inventing a second format.
pub fn write_tensor(mut writer: impl Write, t: &Tensor) -> io::Result<()> {
    let mut w = Writer::default();
    put_tensor(&mut w, t);
    writer.write_all(&w.finish())
}

/// Reads a tensor written by [`write_tensor`]; `bytes` must hold exactly
/// one record.
pub fn read_tensor(bytes: &[u8]) -> io::Result<Tensor> {
    let mut r = Reader::new(bytes);
    let t = take_tensor(&mut r)?;
    r.finish()?;
    Ok(t)
}

// ---------------------------------------------------------------------------
// EOST: epoch-boundary training checkpoints.

const TRAIN_MAGIC: &[u8; 4] = b"EOST";
const TRAIN_VERSION: u32 = 1;
/// Cap on the epoch counter, far above anything the workspace trains;
/// the history length must match it.
const MAX_EPOCHS: usize = 1 << 20;

/// Everything [`crate::trainer::try_train_epochs_resumable`] needs to
/// continue a run bit-identically from an epoch boundary.
///
/// The weights travel as an opaque `EOSW` blob (parameters + BN running
/// stats), so the structural validation of [`load_weights`] — shape
/// checks, finiteness, trailing-byte detection — applies unchanged when
/// the snapshot is restored into a network.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Number of fully completed epochs (the resume point).
    pub epochs_done: usize,
    /// Optimiser learning rate after the last completed epoch (the
    /// LR-schedule position; re-derived from the schedule on resume, but
    /// stored so schedule-free runs restore the exact value).
    pub lr: f32,
    /// Whether the DRW class weights have been installed in the loss.
    pub drw_installed: bool,
    /// The xoshiro256** state words of the shuffle RNG.
    pub rng_words: [u64; 4],
    /// The RNG's cached Box–Muller spare, if any.
    pub rng_spare: Option<f64>,
    /// `EOSW` blob: parameters + batch-norm running statistics.
    pub weights: Vec<u8>,
    /// SGD momentum velocity, one buffer per parameter in visitation
    /// order; empty when no step has run.
    pub velocity: Vec<Vec<f32>>,
    /// The cumulative sample permutation. The trainer shuffles one
    /// `order` vector in place across epochs, so resuming from a fresh
    /// identity permutation would change every later epoch's batches.
    pub order: Vec<u32>,
    /// Per-epoch stats of the completed epochs (`len == epochs_done`).
    pub history: Vec<EpochStats>,
}

/// Serialises a [`TrainState`] into a sealed `EOST` byte buffer.
pub fn save_train_state_bytes(state: &TrainState) -> Vec<u8> {
    let mut w = Writer::new(TRAIN_MAGIC, TRAIN_VERSION);
    w.u64(state.epochs_done as u64)
        .f32(state.lr)
        .u8(state.drw_installed as u8)
        .u8(state.rng_spare.is_some() as u8);
    for word in state.rng_words {
        w.u64(word);
    }
    w.u64(state.rng_spare.unwrap_or(0.0).to_bits())
        .bytes(&state.weights)
        .u64(state.velocity.len() as u64);
    for v in &state.velocity {
        w.u64(v.len() as u64).f32s(v);
    }
    w.u64(state.order.len() as u64);
    for &i in &state.order {
        w.u32(i);
    }
    w.u64(state.history.len() as u64);
    for h in &state.history {
        w.u64(h.epoch as u64).f32(h.loss).f32(h.accuracy);
    }
    w.seal()
}

/// Parses an `EOST` buffer back into a [`TrainState`].
///
/// The trailing checksum is verified before anything else, so a
/// truncated or bit-flipped file fails cleanly here — the checkpointer
/// treats any error as "this entry is corrupt, fall back to the
/// previous one". Structural and finiteness validation follows; the
/// embedded weights blob is validated later by [`load_weights`] when
/// it is restored into a concrete network.
pub fn load_train_state_bytes(bytes: &[u8]) -> io::Result<TrainState> {
    let mut r = Reader::open_sealed(bytes, TRAIN_MAGIC, TRAIN_VERSION)?;
    let epochs_done = r.usize()?;
    if epochs_done > MAX_EPOCHS {
        return Err(bad(format!(
            "EOST claims {epochs_done} completed epochs (corrupt field?)"
        )));
    }
    let lr = r.f32()?;
    if !lr.is_finite() {
        return Err(bad("non-finite learning rate in EOST"));
    }
    let (drw, has_spare) = (r.u8()?, r.u8()?);
    if drw > 1 || has_spare > 1 {
        return Err(bad("EOST boolean flag out of range"));
    }
    let mut rng_words = [0u64; 4];
    for word in &mut rng_words {
        *word = r.u64()?;
    }
    let spare_bits = r.u64()?;
    let rng_spare = (has_spare == 1).then(|| f64::from_bits(spare_bits));
    if rng_spare.is_some_and(|s| !s.is_finite()) {
        return Err(bad("non-finite RNG spare in EOST"));
    }
    let weights = r.bytes()?.to_vec();
    let n_vel = r.count(8)?;
    let mut velocity = Vec::with_capacity(n_vel);
    for i in 0..n_vel {
        let len = r.usize()?;
        let v = r.f32s(len)?;
        if v.iter().any(|x| !x.is_finite()) {
            return Err(bad(format!("non-finite value in velocity buffer {i}")));
        }
        velocity.push(v);
    }
    let order_len = r.count(4)?;
    let mut order = Vec::with_capacity(order_len);
    for _ in 0..order_len {
        order.push(r.u32()?);
    }
    let n_hist = r.count(16)?;
    if n_hist != epochs_done {
        return Err(bad(format!(
            "EOST history has {n_hist} entries for {epochs_done} completed epochs"
        )));
    }
    let mut history = Vec::with_capacity(n_hist);
    for i in 0..n_hist {
        let epoch = r.usize()?;
        let loss = r.f32()?;
        let accuracy = r.f32()?;
        if epoch != i {
            return Err(bad(format!("EOST history entry {i} claims epoch {epoch}")));
        }
        if !loss.is_finite() || !accuracy.is_finite() {
            return Err(bad(format!("non-finite stats in history entry {i}")));
        }
        history.push(EpochStats {
            epoch,
            loss,
            accuracy,
        });
    }
    r.finish()?;
    Ok(TrainState {
        epochs_done,
        lr,
        drw_installed: drw == 1,
        rng_words,
        rng_spare,
        weights,
        velocity,
        order,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Architecture, ConvNet};
    use eos_tensor::{normal, Rng64};

    fn tiny_net(seed: u64) -> ConvNet {
        ConvNet::new(
            Architecture::ResNet {
                blocks_per_stage: 1,
                width: 4,
            },
            (3, 8, 8),
            3,
            &mut Rng64::new(seed),
        )
    }

    #[test]
    fn roundtrip_restores_exact_outputs() {
        let mut rng = Rng64::new(0);
        let mut a = tiny_net(1);
        // Push some data through in training mode so BN running stats are
        // non-trivial (the part naive param-only serialization loses).
        let x = normal(&[8, 3 * 64], 0.0, 1.0, &mut rng);
        let _ = a.forward(&x, true);
        let expected = a.forward(&x, false);

        let mut buf = Vec::new();
        save_weights(&mut a, &mut buf).unwrap();
        let mut b = tiny_net(999); // different init, same structure
        load_weights(&mut b, buf.as_slice()).unwrap();
        let got = b.forward(&x, false);
        assert_eq!(expected.data(), got.data(), "bit-exact inference");
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut net = tiny_net(1);
        let err = load_weights(&mut net, &b"NOPE"[..]).unwrap_err();
        assert!(err.to_string().contains("not an EOSW"));
    }

    #[test]
    fn rejects_structural_mismatch() {
        let mut a = tiny_net(1);
        let mut buf = Vec::new();
        save_weights(&mut a, &mut buf).unwrap();
        let mut b = ConvNet::new(
            Architecture::ResNet {
                blocks_per_stage: 1,
                width: 8, // wider: different shapes
            },
            (3, 8, 8),
            3,
            &mut Rng64::new(0),
        );
        assert!(load_weights(&mut b, buf.as_slice()).is_err());
    }

    #[test]
    fn roundtrip_every_architecture_family() {
        for arch in [
            Architecture::ResNet {
                blocks_per_stage: 1,
                width: 4,
            },
            Architecture::WideResNet { k: 1 },
            Architecture::DenseNet {
                growth: 4,
                layers_per_block: 2,
            },
        ] {
            let mut rng = Rng64::new(7);
            let mut a = ConvNet::new(arch, (3, 8, 8), 3, &mut rng);
            let x = normal(&[4, 3 * 64], 0.0, 1.0, &mut rng);
            let _ = a.forward(&x, true); // accumulate BN statistics
            let mut buf = Vec::new();
            save_weights(&mut a, &mut buf).unwrap();
            let mut b = ConvNet::new(arch, (3, 8, 8), 3, &mut Rng64::new(1234));
            load_weights(&mut b, buf.as_slice()).unwrap();
            assert_eq!(
                a.forward(&x, false).data(),
                b.forward(&x, false).data(),
                "{} roundtrip",
                arch.name()
            );
        }
    }

    #[test]
    fn rejects_truncated_header() {
        let mut net = tiny_net(1);
        // Magic only, then EOF where the version should be.
        let err = load_weights(&mut net, &b"EOSW"[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut net = tiny_net(1);
        let mut buf = Vec::new();
        save_weights(&mut net, &mut buf).unwrap();
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = load_weights(&mut net, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn rejects_garbage_rank_without_allocating_for_it() {
        let mut net = tiny_net(1);
        let mut buf = Vec::new();
        save_weights(&mut net, &mut buf).unwrap();
        // First parameter's rank field (after magic+version+count).
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = load_weights(&mut net, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("rank"), "{err}");
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut a = tiny_net(1);
        let mut buf = Vec::new();
        save_weights(&mut a, &mut buf).unwrap();
        buf.push(0);
        let mut b = tiny_net(2);
        let err = load_weights(&mut b, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn rejects_non_finite_parameter_values() {
        let mut a = tiny_net(1);
        a.params()[0].value.data_mut()[0] = f32::NAN;
        let mut buf = Vec::new();
        save_weights(&mut a, &mut buf).unwrap();
        let mut b = tiny_net(2);
        let err = load_weights(&mut b, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn tensor_roundtrip_is_bit_exact() {
        let mut rng = Rng64::new(9);
        let t = normal(&[5, 7], 0.0, 3.0, &mut rng);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        let back = read_tensor(buf.as_slice()).unwrap();
        assert_eq!(back.dims(), t.dims());
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn tensor_read_rejects_truncation_and_garbage() {
        let t = Tensor::ones(&[3, 4]);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        // Truncated payload.
        let err = read_tensor(&buf[..buf.len() - 2]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // Garbage rank.
        let mut corrupt = buf.clone();
        corrupt[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_tensor(corrupt.as_slice())
            .unwrap_err()
            .to_string()
            .contains("rank"));
        // Garbage dim driving an absurd allocation.
        let mut huge = buf.clone();
        huge[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_tensor(huge.as_slice())
            .unwrap_err()
            .to_string()
            .contains("overflow"));
        // Non-finite payload.
        let mut nan = buf.clone();
        let end = nan.len();
        nan[end - 4..].copy_from_slice(&f32::NAN.to_le_bytes());
        assert!(read_tensor(nan.as_slice())
            .unwrap_err()
            .to_string()
            .contains("non-finite"));
    }

    fn sample_state() -> TrainState {
        let mut net = tiny_net(3);
        let x = normal(&[4, 3 * 64], 0.0, 1.0, &mut Rng64::new(8));
        let _ = net.forward(&x, true); // non-trivial BN stats
        let mut rng = Rng64::new(12);
        let _ = rng.normal(); // cache a spare so both flag paths are hit
        let (rng_words, rng_spare) = rng.state();
        TrainState {
            epochs_done: 2,
            lr: 0.025,
            drw_installed: true,
            rng_words,
            rng_spare,
            weights: save_weights_bytes(&mut net),
            velocity: vec![vec![0.5, -0.25], vec![], vec![1e-3]],
            order: vec![3, 0, 2, 1],
            history: vec![
                EpochStats {
                    epoch: 0,
                    loss: 1.2,
                    accuracy: 0.4,
                },
                EpochStats {
                    epoch: 1,
                    loss: 0.8,
                    accuracy: 0.6,
                },
            ],
        }
    }

    #[test]
    fn train_state_roundtrip_is_exact() {
        let state = sample_state();
        let bytes = save_train_state_bytes(&state);
        let back = load_train_state_bytes(&bytes).unwrap();
        assert_eq!(back, state);

        // The no-spare flag path round-trips too.
        let mut no_spare = state;
        no_spare.rng_spare = None;
        no_spare.drw_installed = false;
        let back = load_train_state_bytes(&save_train_state_bytes(&no_spare)).unwrap();
        assert_eq!(back, no_spare);
    }

    #[test]
    fn train_state_rejects_truncation_and_bit_flips() {
        let bytes = save_train_state_bytes(&sample_state());
        // Any truncation breaks the checksum (or leaves less than one).
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            let err = load_train_state_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut at {cut}");
        }
        // A single flipped bit anywhere in the body breaks the checksum.
        for pos in [4, 12, bytes.len() / 3, bytes.len() - 9] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            let err = load_train_state_bytes(&corrupt).unwrap_err();
            assert!(err.to_string().contains("checksum"), "flip at {pos}: {err}");
        }
        // A flipped checksum itself is also caught.
        let mut corrupt = bytes.clone();
        let end = corrupt.len();
        corrupt[end - 1] ^= 1;
        assert!(load_train_state_bytes(&corrupt)
            .unwrap_err()
            .to_string()
            .contains("checksum"));
    }

    #[test]
    fn train_state_rejects_valid_checksum_over_bad_structure() {
        // Re-checksummed corruption gets past the hash, so the
        // structural checks must catch it.
        let reseal = |mut body: Vec<u8>| {
            let checksum = fnv1a(&body);
            body.extend_from_slice(&checksum.to_le_bytes());
            body
        };
        let state = sample_state();
        let sealed = save_train_state_bytes(&state);
        let body = sealed[..sealed.len() - 8].to_vec();

        // Wrong magic.
        let mut b = body.clone();
        b[..4].copy_from_slice(b"NOPE");
        assert!(load_train_state_bytes(&reseal(b))
            .unwrap_err()
            .to_string()
            .contains("not an EOST"));
        // Wrong version.
        let mut b = body.clone();
        b[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(load_train_state_bytes(&reseal(b))
            .unwrap_err()
            .to_string()
            .contains("version 9"));
        // Absurd epoch count.
        let mut b = body.clone();
        b[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(load_train_state_bytes(&reseal(b))
            .unwrap_err()
            .to_string()
            .contains("completed epochs"));
        // History length disagreeing with the epoch counter.
        let mut bad_hist = state.clone();
        bad_hist.epochs_done = 1;
        let sealed = save_train_state_bytes(&bad_hist);
        assert!(load_train_state_bytes(&sealed)
            .unwrap_err()
            .to_string()
            .contains("history"));
        // Trailing junk before the checksum.
        let mut b = body;
        b.push(0);
        assert!(load_train_state_bytes(&reseal(b))
            .unwrap_err()
            .to_string()
            .contains("trailing"));
    }

    #[test]
    fn claimed_lengths_fail_against_the_bytes_left() {
        // A resealed EOST whose sample order claims 2^31 - 1 elements:
        // the claim is checked against the bytes that remain before an
        // order buffer is sized from it.
        let mut state = sample_state();
        state.epochs_done = 0;
        state.history.clear();
        state.order.clear();
        let sealed = save_train_state_bytes(&state);
        let mut body = sealed[..sealed.len() - 8].to_vec();
        // The body ends with the order length and the history count.
        let at = body.len() - 16;
        body[at..at + 8].copy_from_slice(&((1u64 << 31) - 1).to_le_bytes());
        let checksum = fnv1a(&body);
        body.extend_from_slice(&checksum.to_le_bytes());
        let err = load_train_state_bytes(&body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        // A 12-byte tensor record claiming [1 << 30] and no payload.
        let mut claim = 1u32.to_le_bytes().to_vec();
        claim.extend_from_slice(&(1u64 << 30).to_le_bytes());
        let err = read_tensor(&claim).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors: the EOST tail is sealed
        // with this function, so pin the constants here.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    /// Golden EOSW bytes: length and FNV-1a digest of `tiny_net(1)`'s
    /// blob after one train-mode forward. Any change to the wire format
    /// moves these, which would orphan every stored artifact.
    #[test]
    fn golden_eosw_bytes() {
        let mut net = tiny_net(1);
        let x = normal(&[8, 3 * 64], 0.0, 1.0, &mut Rng64::new(0));
        let _ = net.forward(&x, true);
        let bytes = save_weights_bytes(&mut net);
        assert_eq!((bytes.len(), fnv1a(&bytes)), (21504, 0x659b1a756184db8a));
        let mut back = tiny_net(999);
        load_weights(&mut back, bytes.as_slice()).unwrap();
        assert_eq!(save_weights_bytes(&mut back), bytes);
    }

    /// Golden EOST bytes of [`sample_state`], which must also load back
    /// to an equal state.
    #[test]
    fn golden_eost_bytes() {
        let state = sample_state();
        let bytes = save_train_state_bytes(&state);
        assert_eq!((bytes.len(), fnv1a(&bytes)), (21690, 0xee7dcf24e2d48e81));
        assert_eq!(load_train_state_bytes(&bytes).unwrap(), state);
    }
}
