//! The per-layer probes that end the traced runs of `train_backbone`
//! and `serve_openloop`. Training steps are timed on `ConvNet` itself;
//! the per-layer split comes from a mirror of the backbone assembled
//! from the public layer constructors (so each layer can be timed on its
//! own), checked bit-identical to `ConvNet` before any of its numbers
//! are reported. The tensor kernels are timed at each workload's own
//! convolution geometry, the EOST codec for training, and the EOSW
//! restore and the model's forward for serving.

use crate::measure::{median, ms, Outcome};
use eos_nn::{
    fnv1a, load_train_state_bytes, load_weights, save_weights_bytes, Architecture, BasicBlock,
    BatchNorm2d, Checkpointer, Conv2d, ConvNet, EpochStats, GlobalAvgPool, Layer, Linear, LossKind,
    Param, Relu, Sgd, TrainState,
};
use eos_serve::InferenceModel;
use eos_tensor::{
    conv2d_direct_into, gemm_nt_into, im2col_into, normal, scratch, Conv2dGeometry, Rng64, Tensor,
};
use std::path::Path;
use std::time::Instant;

/// Layer paths of a one-block-per-stage CIFAR ResNet plus its head, in
/// `resnet_cifar` order.
const PATHS: [&str; 8] = [
    "stem.conv",
    "stem.bn",
    "stem.relu",
    "block1",
    "block2",
    "block3",
    "pool",
    "head",
];

/// The training geometry of `train_backbone` (CIFAR-10 analogue,
/// `PipelineConfig::small`).
const TRAIN_SHAPE: (usize, usize, usize) = (3, 8, 8);
const TRAIN_CLASSES: usize = 10;
const WIDTH: usize = 8;
const BATCH: usize = 32;
const WARM_STEPS: usize = 4;
const TIMED_STEPS: usize = 24;

/// `resnet_cifar(in_shape, 1, width)` followed by the linear head, built
/// layer by layer from the public constructors in the same order (and
/// so from the same random draws) as `ConvNet::new`.
struct Mirror {
    layers: Vec<Box<dyn Layer>>,
}

impl Mirror {
    fn new(in_shape: (usize, usize, usize), classes: usize, rng: &mut Rng64) -> Mirror {
        let (c, h, w) = in_shape;
        let stem = Conv2dGeometry {
            in_channels: c,
            height: h,
            width: w,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let mut layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(stem, WIDTH, false, rng)),
            Box::new(BatchNorm2d::new(WIDTH, h * w)),
            Box::new(Relu::new()),
        ];
        let (mut cur_c, mut cur_h, mut cur_w) = (WIDTH, h, w);
        for stage in 0..3 {
            let out_c = WIDTH << stage;
            let stride = if stage > 0 { 2 } else { 1 };
            layers.push(Box::new(BasicBlock::new(
                cur_c, out_c, cur_h, cur_w, stride, rng,
            )));
            cur_h /= stride;
            cur_w /= stride;
            cur_c = out_c;
        }
        layers.push(Box::new(GlobalAvgPool::new(cur_c, cur_h * cur_w)));
        layers.push(Box::new(Linear::new(cur_c, classes, true, rng)));
        Mirror { layers }
    }

    /// Forward pass adding each layer's wall time (ms) into `times`.
    fn forward_timed(&mut self, x: &Tensor, train: bool, times: &mut [f64; 8]) -> Tensor {
        let mut h: Option<Tensor> = None;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let t0 = Instant::now();
            let next = layer.forward(h.as_ref().unwrap_or(x), train);
            times[i] += ms(t0.elapsed());
            h = Some(next);
        }
        h.expect("mirror has layers")
    }

    /// Backward pass adding each layer's wall time (ms) into `times`;
    /// returns the input gradient.
    fn backward_timed(&mut self, grad: &Tensor, times: &mut [f64; 8]) -> Tensor {
        let mut g: Option<Tensor> = None;
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let t0 = Instant::now();
            let next = layer.backward(g.as_ref().unwrap_or(grad));
            times[i] += ms(t0.elapsed());
            g = Some(next);
        }
        g.expect("mirror has layers")
    }
}

impl Layer for Mirror {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_timed(x, train, &mut [0.0; 8])
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_timed(grad, &mut [0.0; 8])
    }

    fn params(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    fn out_features(&self, in_features: usize) -> usize {
        self.layers
            .iter()
            .fold(in_features, |w, l| l.out_features(w))
    }

    fn extra_state(&self) -> Vec<f32> {
        self.layers.iter().flat_map(|l| l.extra_state()).collect()
    }
}

fn arch() -> Architecture {
    Architecture::ResNet {
        blocks_per_stage: 1,
        width: WIDTH,
    }
}

fn grad_digest(net: &mut dyn Layer) -> u64 {
    let mut bytes = Vec::new();
    net.visit_params(&mut |p| {
        for v in p.grad.data() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    });
    fnv1a(&bytes)
}

/// Class counts with the benchmark's 100:1 exponential profile, for the
/// LDAM margins of the probe's loss.
fn ldam_counts() -> Vec<usize> {
    (0..TRAIN_CLASSES)
        .map(|c| (500.0 * 0.01f64.powf(c as f64 / (TRAIN_CLASSES - 1) as f64)).round() as usize)
        .collect()
}

/// Two LDAM training steps and eval forwards on `ConvNet` and on the
/// mirror from the same seed; every logit, loss, gradient and weight
/// digest must match bit for bit.
fn fidelity(seed: u64) -> Result<(), String> {
    let mut net = ConvNet::new(arch(), TRAIN_SHAPE, TRAIN_CLASSES, &mut Rng64::new(seed));
    let mut mirror = Mirror::new(TRAIN_SHAPE, TRAIN_CLASSES, &mut Rng64::new(seed));
    let feat = TRAIN_SHAPE.0 * TRAIN_SHAPE.1 * TRAIN_SHAPE.2;
    let x = normal(&[BATCH, feat], 0.0, 1.0, &mut Rng64::new(seed ^ 0xF1DE));
    let y: Vec<usize> = (0..BATCH).map(|i| i % TRAIN_CLASSES).collect();
    let counts = ldam_counts();
    let (loss_a, loss_b) = (LossKind::Ldam.build(&counts), LossKind::Ldam.build(&counts));
    let (mut opt_a, mut opt_b) = (Sgd::new(0.05, 0.9, 5e-4), Sgd::new(0.05, 0.9, 5e-4));
    for step in 0..2 {
        Layer::zero_grad(&mut net);
        mirror.zero_grad();
        let (la, lb) = (net.forward(&x, true), mirror.forward(&x, true));
        if la.bits_digest() != lb.bits_digest() {
            return Err(format!("train logits differ at step {step}"));
        }
        let ((va, da), (vb, db)) = (loss_a.loss_and_grad(&la, &y), loss_b.loss_and_grad(&lb, &y));
        if va.to_bits() != vb.to_bits() || da.bits_digest() != db.bits_digest() {
            return Err(format!("loss or its gradient differs at step {step}"));
        }
        let _ = net.backward(&da);
        let _ = mirror.backward(&db);
        if grad_digest(&mut net) != grad_digest(&mut mirror) {
            return Err(format!("parameter gradients differ at step {step}"));
        }
        opt_a.step_visit(&mut net);
        opt_b.step_visit(&mut mirror);
    }
    if fnv1a(&save_weights_bytes(&mut net)) != fnv1a(&save_weights_bytes(&mut mirror)) {
        return Err("weights differ after two SGD steps".into());
    }
    if net.forward(&x, false).bits_digest() != mirror.forward(&x, false).bits_digest() {
        return Err("eval logits differ".into());
    }
    let (shape, classes) = (crate::serve::SHAPE, crate::serve::CLASSES);
    let mut serve_net = ConvNet::new(arch(), shape, classes, &mut Rng64::new(seed));
    let mut serve_mirror = Mirror::new(shape, classes, &mut Rng64::new(seed));
    for batch in [1, BATCH] {
        let x = normal(
            &[batch, crate::serve::IN_LEN],
            0.0,
            1.0,
            &mut Rng64::new(seed),
        );
        if serve_net.infer(&x).bits_digest() != serve_mirror.infer(&x).bits_digest() {
            return Err(format!(
                "serving-geometry eval logits differ at batch {batch}"
            ));
        }
    }
    Ok(())
}

/// A pool of seeded training rows and the LDAM loss for the probe's
/// steps at the `train_backbone` geometry.
struct StepData {
    x: Tensor,
    y: Vec<usize>,
    order: Vec<usize>,
    loss: Box<dyn eos_nn::Loss>,
}

impl StepData {
    fn new(rng: &mut Rng64) -> StepData {
        let feat = TRAIN_SHAPE.0 * TRAIN_SHAPE.1 * TRAIN_SHAPE.2;
        let pool = 16 * BATCH;
        let x = normal(&[pool, feat], 0.0, 1.0, rng);
        let mut order: Vec<usize> = (0..pool).collect();
        rng.shuffle(&mut order);
        StepData {
            x,
            y: (0..pool).map(|i| i % TRAIN_CLASSES).collect(),
            order,
            loss: LossKind::Ldam.build(&ldam_counts()),
        }
    }

    /// Row indices of the `i`-th batch.
    fn chunk(&self, i: usize) -> &[usize] {
        let batches = self.order.len() / BATCH;
        &self.order[(i % batches) * BATCH..][..BATCH]
    }
}

/// One training step on `ConvNet` in the trainer's order (select rows,
/// forward, loss, backward, SGD step and gradient reset), adding each
/// part's wall time (ms) into `split`.
fn convnet_step(
    net: &mut ConvNet,
    opt: &mut Sgd,
    data: &StepData,
    by: &mut Vec<usize>,
    i: usize,
    split: &mut [f64; 5],
) {
    let chunk = data.chunk(i);
    let t = Instant::now();
    let bx = data.x.select_rows(chunk);
    by.clear();
    by.extend(chunk.iter().map(|&r| data.y[r]));
    split[0] += ms(t.elapsed());
    let t = Instant::now();
    let logits = net.forward(&bx, true);
    split[1] += ms(t.elapsed());
    let t = Instant::now();
    let (_, dlogits) = data.loss.loss_and_grad(&logits, by);
    split[2] += ms(t.elapsed());
    let t = Instant::now();
    let _ = net.backward(&dlogits);
    split[3] += ms(t.elapsed());
    let t = Instant::now();
    opt.step_visit(net);
    Layer::zero_grad(net);
    split[4] += ms(t.elapsed());
}

/// Train-mode step split, allocations, GEMM and scratch-pool counts per
/// step, all on `ConvNet`; then per-layer forward/backward times on the
/// mirror.
fn train_steps(seed: u64, out: &mut Outcome) {
    let mut rng = Rng64::new(seed ^ 0x57E9);
    let data = StepData::new(&mut rng);
    let mut net = ConvNet::new(arch(), TRAIN_SHAPE, TRAIN_CLASSES, &mut Rng64::new(seed));
    let mut opt = Sgd::new(0.05, 0.9, 5e-4);
    let mut by: Vec<usize> = Vec::with_capacity(BATCH);
    for i in 0..WARM_STEPS {
        convnet_step(&mut net, &mut opt, &data, &mut by, i, &mut [0.0; 5]);
    }
    let mut split = [0.0f64; 5];
    let misses0 = scratch::stats().1;
    let ((), allocs) = crate::count_allocs(|| {
        for i in 0..TIMED_STEPS {
            convnet_step(
                &mut net,
                &mut opt,
                &data,
                &mut by,
                WARM_STEPS + i,
                &mut split,
            );
        }
    });
    let misses = scratch::stats().1 - misses0;
    let n = TIMED_STEPS as f64;
    for (name, v) in ["select", "fwd", "loss", "bwd", "sgd"].iter().zip(split) {
        out.layer(&format!("nn.step.{name}_ms"), v / n);
    }
    out.layer("nn.allocs_per_step", allocs as f64 / n);
    out.layer("tensor.scratch.misses_per_step", misses as f64 / n);

    // GEMM accounting needs the tracing counters; a few more steps with
    // recording on keep it out of the timed steps above.
    const COUNTED: usize = 4;
    eos_trace::reset();
    eos_trace::set_enabled(true);
    for i in 0..COUNTED {
        convnet_step(&mut net, &mut opt, &data, &mut by, i, &mut [0.0; 5]);
    }
    eos_trace::set_enabled(false);
    let snap = eos_trace::snapshot();
    let calls = out.ticked(&snap, "gemm.calls");
    let flops = out.hist(&snap, "gemm.flops").map_or(0, |h| h.sum);
    out.layer("tensor.gemm.calls_per_step", calls / COUNTED as f64);
    out.layer(
        "tensor.gemm.gflop_per_step",
        flops as f64 / COUNTED as f64 / 1e9,
    );

    // The same steps on the mirror, timed layer by layer.
    let mut mirror = Mirror::new(TRAIN_SHAPE, TRAIN_CLASSES, &mut Rng64::new(seed));
    let mut opt = Sgd::new(0.05, 0.9, 5e-4);
    let (mut fwd, mut bwd) = ([0.0f64; 8], [0.0f64; 8]);
    for i in 0..WARM_STEPS + TIMED_STEPS {
        if i == WARM_STEPS {
            (fwd, bwd) = ([0.0; 8], [0.0; 8]);
        }
        let chunk = data.chunk(i);
        let bx = data.x.select_rows(chunk);
        by.clear();
        by.extend(chunk.iter().map(|&r| data.y[r]));
        let logits = mirror.forward_timed(&bx, true, &mut fwd);
        let (_, dlogits) = data.loss.loss_and_grad(&logits, &by);
        let _ = mirror.backward_timed(&dlogits, &mut bwd);
        opt.step_visit(&mut mirror);
        mirror.zero_grad();
    }
    for (i, path) in PATHS.iter().enumerate() {
        out.layer(&format!("nn.layer.{path}.fwd_ms"), fwd[i] / n);
        out.layer(&format!("nn.layer.{path}.bwd_ms"), bwd[i] / n);
    }
}

/// Mean ms per call of `f` over `reps` calls, after one warm-up call.
fn mean_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    ms(t0.elapsed()) / reps as f64
}

/// Eval-mode per-layer times on the serving geometry at batch 1 and 32.
fn eval_layers(seed: u64, out: &mut Outcome) {
    let mut mirror = Mirror::new(
        crate::serve::SHAPE,
        crate::serve::CLASSES,
        &mut Rng64::new(seed),
    );
    for (batch, reps, tag) in [(1usize, 200usize, "b1"), (BATCH, 20, "b32")] {
        let x = normal(
            &[batch, crate::serve::IN_LEN],
            0.0,
            1.0,
            &mut Rng64::new(seed),
        );
        let _ = mirror.forward(&x, false);
        let mut times = [0.0f64; 8];
        for _ in 0..reps {
            let _ = mirror.forward_timed(&x, false, &mut times);
        }
        for (path, t) in PATHS.iter().zip(times) {
            out.layer(&format!("nn.eval.{path}.{tag}_ms"), t / reps as f64);
        }
    }
}

/// Direct kernel timings at the block-1 convolution geometry of one net
/// (`side`×`side` feature maps), per batch of 32 images.
fn kernels(seed: u64, side: usize, out: &mut Outcome) {
    const REPS: usize = 10;
    let mut rng = Rng64::new(seed ^ 0xC0A7);
    let geom = Conv2dGeometry {
        in_channels: WIDTH,
        height: side,
        width: side,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let (patches, plen) = (geom.patch_count(), geom.patch_len());
    let image_len = WIDTH * side * side;
    let images = normal(&[BATCH, image_len], 0.0, 1.0, &mut rng);
    let weight = normal(&[WIDTH, plen], 0.0, 0.1, &mut rng);
    let img = |i: usize| &images.data()[i * image_len..(i + 1) * image_len];
    let mut cols = vec![0.0f32; BATCH * patches * plen];
    let mut outb = vec![0.0f32; WIDTH * patches];
    let unfold = mean_ms(REPS, || {
        for (i, c) in cols.chunks_mut(patches * plen).enumerate() {
            im2col_into(img(i), &geom, c);
        }
    });
    let gemm = mean_ms(REPS, || {
        for c in cols.chunks(patches * plen) {
            gemm_nt_into(weight.data(), c, &mut outb, plen, patches);
        }
    });
    let direct = mean_ms(REPS, || {
        for i in 0..BATCH {
            conv2d_direct_into(img(i), weight.data(), &mut outb, &geom);
        }
    });
    std::hint::black_box(&outb);
    out.layer("tensor.gemm.ms", gemm);
    out.layer("tensor.im2col.ms", unfold);
    out.layer("tensor.conv_direct.ms", direct);
}

/// EOST checkpoint save and load (parse plus weight restore) of the
/// training net.
fn eost(seed: u64, out: &mut Outcome, work: &Path) {
    const REPS: usize = 7;
    let mut rng = Rng64::new(seed);
    let mut net = ConvNet::new(arch(), TRAIN_SHAPE, TRAIN_CLASSES, &mut rng);
    let velocity: Vec<Vec<f32>> = net.params().iter().map(|p| vec![0.5; p.len()]).collect();
    let (rng_words, rng_spare) = rng.state();
    let state = TrainState {
        epochs_done: 1,
        lr: 0.05,
        drw_installed: false,
        rng_words,
        rng_spare,
        weights: save_weights_bytes(&mut net),
        velocity,
        order: (0..1489).collect(),
        history: vec![EpochStats {
            epoch: 0,
            loss: 1.0,
            accuracy: 0.5,
        }],
    };
    let ckpt = Checkpointer::new(work.join("probe_ckpt"), "probe");
    let mut save = Vec::new();
    let mut load = Vec::new();
    let mut bytes = 0u64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let path = ckpt.save(&state).expect("probe checkpoint writes");
        save.push(ms(t0.elapsed()));
        let t0 = Instant::now();
        let raw = std::fs::read(&path).expect("probe checkpoint reads");
        let back = load_train_state_bytes(&raw).expect("probe checkpoint parses");
        load_weights(&mut net, back.weights.as_slice()).expect("probe weights restore");
        load.push(ms(t0.elapsed()));
        bytes = raw.len() as u64;
    }
    ckpt.clear();
    out.layer("nn.eost.save_ms", median(&save));
    out.layer("nn.eost.load_ms", median(&load));
    out.layer("nn.eost.bytes", bytes as f64);
}

/// EOSW restore of the serving model and its forward at batch 1 and 32.
fn serving_model(seed: u64, out: &mut Outcome) {
    const REPS: usize = 7;
    let blob = crate::serve::checkpoint(seed);
    let mut restore = Vec::new();
    let mut model = None;
    for _ in 0..REPS {
        let fresh = crate::serve::fresh_net();
        let t0 = Instant::now();
        model = Some(
            InferenceModel::from_eosw_bytes(fresh, crate::serve::IN_LEN, &blob)
                .expect("serving checkpoint restores"),
        );
        restore.push(ms(t0.elapsed()));
    }
    out.layer("nn.eosw.load_ms", median(&restore));
    let mut model = model.expect("REPS > 0");
    let mut rng = Rng64::new(seed ^ 0x5E4F);
    for (batch, reps, name) in [
        (1usize, 200usize, "serve.forward_b1_ms"),
        (BATCH, 20, "serve.forward_b32_ms"),
    ] {
        let x = normal(&[batch, crate::serve::IN_LEN], 0.0, 1.0, &mut rng);
        out.layer(
            name,
            mean_ms(reps, || {
                std::hint::black_box(model.forward(&x));
            }),
        );
    }
}

/// Runs the mirror-net fidelity check into `out`; false if it failed.
fn faithful(seed: u64, out: &mut Outcome) -> bool {
    let verdict = fidelity(seed);
    if let Err(why) = &verdict {
        eprintln!("mirror-net fidelity check failed: {why}");
    }
    out.check("mirror net bit-identical to ConvNet", verdict.is_ok());
    verdict.is_ok()
}

/// The `train_backbone` probe: step split and per-layer training times,
/// per-step counts, the kernels at the 8×8 training geometry, and EOST.
pub fn train(seed: u64, out: &mut Outcome, work: &Path) {
    if faithful(seed, out) {
        train_steps(seed, out);
        kernels(seed, TRAIN_SHAPE.1, out);
        eost(seed, out, work);
    }
}

/// The `serve_openloop` probe: eval-mode per-layer times, the kernels at
/// the 16×16 serving geometry, EOSW restore and the model's forward.
pub fn serve(seed: u64, out: &mut Outcome) {
    if faithful(seed, out) {
        eval_layers(seed, out);
        kernels(seed, crate::serve::SHAPE.1, out);
        serving_model(seed, out);
    }
}

/// Worker-pool attribution of the traced part: jobs dispatched to the
/// pool, jobs run inline, and the share of the root span's wall time the
/// pool's helper threads spent busy. With [`crate::THREADS`] above one
/// the pool must have dispatched work and kept its helpers busy.
pub fn pool_metrics(out: &mut Outcome, snap: &eos_trace::Snapshot, root: &str) {
    let dispatched = out.ticked(snap, "pool.jobs.dispatched");
    out.layer("tensor.par.dispatched", dispatched);
    let inline = out.ticked(snap, "pool.jobs.inline");
    out.layer("tensor.par.inline", inline);
    let wall = out.span_ns(snap, root);
    let helpers = (crate::THREADS - 1) as f64;
    let share = if wall > 0.0 && helpers > 0.0 {
        out.ticked(snap, "pool.worker_busy_ns") / (wall * helpers)
    } else {
        0.0
    };
    out.layer("tensor.par.busy_share", share);
}

/// Share of the root span covered by its direct child spans — the
/// blocking steps the benchmark wrapped.
pub fn accounted(out: &mut Outcome, snap: &eos_trace::Snapshot, root: &str) {
    let total = out.span_ns(snap, root);
    let covered: u64 = snap.children_of(root).iter().map(|s| s.total_ns).sum();
    if total > 0.0 {
        out.layer("trace.accounted_pct", 100.0 * covered as f64 / total);
    }
}
