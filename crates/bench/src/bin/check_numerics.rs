//! Numerical correctness gate: gradchecks every `Layer` implementation and
//! every loss in the workspace, spot-checks the gap/metric formulas against
//! hand-computed values, and pins a golden-determinism digest of a tiny
//! end-to-end training step across thread counts and kernel dispatch paths.
//!
//! Step sizes follow the f32 central-difference error model (truncation
//! `O(h²)` plus cancellation `O(ε/h)`, minimised near `h ≈ 1e-2` for
//! unit-scale activations); layers whose loss surface has kinks — max-pool
//! window ties, BN-centred ReLUs — use smaller steps on data drawn clear of
//! the kinks. See DESIGN.md for the selection rationale.
//!
//! `--smoke` trims the BN running-stat burn-in; every gradcheck and digest
//! comparison still runs, so `scripts/verify.sh` gets the full gate.

use eos_bench::JsonRecord;
use eos_core::{generalization_gap, ConfusionMatrix};
use eos_gan::{bce_with_logits, mse_loss_and_grad, ConvexMix};
use eos_nn::{
    gradcheck_fn, gradcheck_layer, gradcheck_loss, Architecture, AsymmetricLoss, BasicBlock,
    BatchNorm1d, BatchNorm2d, Conv2d, ConvNet, CrossEntropyLoss, Dropout, FocalLoss, GlobalAvgPool,
    Layer, LdamLoss, LeakyRelu, Linear, Loss, MaxPool2d, Relu, Sgd, Sigmoid, Tanh,
};
use eos_tensor::{normal, par, set_force_scalar_kernel, Conv2dGeometry, Rng64, Tensor};

/// Gradcheck threshold: every analytic/numeric comparison in the gate must
/// land below this maximum relative error.
const THRESHOLD: f32 = 1e-2;

/// Running tally of gate results; any failure flips the process exit code.
struct Gate {
    checks: u64,
    worst: f32,
    worst_name: String,
    failed: bool,
}

impl Gate {
    fn new() -> Self {
        Gate {
            checks: 0,
            worst: 0.0,
            worst_name: String::new(),
            failed: false,
        }
    }

    /// Records one gradcheck result against the shared threshold.
    fn grad(&mut self, check: &eos_nn::GradCheck) {
        self.checks += 1;
        let e = check.max_rel_error();
        if e > self.worst {
            self.worst = e;
            self.worst_name = format!("{}: {}", check.name, check.worst().target);
        }
        if !check.passes(THRESHOLD) {
            let w = check.worst();
            eprintln!(
                "FAIL: {}: {} rel error {} >= {THRESHOLD}",
                check.name, w.target, w.rel_error
            );
            self.failed = true;
        } else {
            println!(
                "  ok {:<28} max rel error {:.2e}",
                check.name,
                check.max_rel_error()
            );
        }
    }

    /// Records an exact-value spot check (`|got − want| ≤ tol`).
    fn value(&mut self, name: &str, got: f64, want: f64, tol: f64) {
        self.checks += 1;
        if (got - want).abs() > tol {
            eprintln!("FAIL: {name}: got {got}, want {want} (tol {tol})");
            self.failed = true;
        } else {
            println!("  ok {name:<28} {got}");
        }
    }

    /// Records a condition that must hold.
    fn claim(&mut self, name: &str, ok: bool) {
        self.checks += 1;
        if ok {
            println!("  ok {name}");
        } else {
            eprintln!("FAIL: {name}");
            self.failed = true;
        }
    }
}

fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
    Conv2dGeometry {
        in_channels: c,
        height: h,
        width: w,
        kernel: k,
        stride: s,
        pad: p,
    }
}

/// Gradchecks every `Layer` implementation in `eos-nn` plus the public
/// `ConvexMix` head from `eos-gan`.
fn check_layers(gate: &mut Gate) {
    println!("layers:");
    let x34 = normal(&[3, 4], 0.0, 1.0, &mut Rng64::new(50));
    let c32 = normal(&[3, 2], 0.0, 1.0, &mut Rng64::new(51));
    for bias in [true, false] {
        gate.grad(&gradcheck_layer(
            if bias { "linear+bias" } else { "linear" },
            &mut || Box::new(Linear::new(4, 2, bias, &mut Rng64::new(52))),
            &x34,
            &c32,
            1e-2,
        ));
    }

    // Conv2d across the stride/padding space the networks actually use.
    for (name, g) in [
        ("conv2d s1 p1", geom(2, 5, 4, 3, 1, 1)),
        ("conv2d s2 p1", geom(2, 5, 4, 3, 2, 1)),
        ("conv2d s2 p0", geom(1, 4, 4, 2, 2, 0)),
    ] {
        let probe = Conv2d::new(g, 3, true, &mut Rng64::new(60));
        let x = normal(&[2, probe.in_len()], 0.0, 1.0, &mut Rng64::new(61));
        let c = normal(&[2, probe.out_len()], 0.0, 1.0, &mut Rng64::new(62));
        gate.grad(&gradcheck_layer(
            name,
            &mut || Box::new(Conv2d::new(g, 3, true, &mut Rng64::new(60))),
            &x,
            &c,
            1e-2,
        ));
    }

    // BatchNorm in training mode: the backward must account for every
    // element's contribution to the batch statistics.
    let xb = normal(&[6, 3], 0.5, 1.2, &mut Rng64::new(70));
    let cb = normal(&[6, 3], 0.0, 1.0, &mut Rng64::new(71));
    gate.grad(&gradcheck_layer(
        "batchnorm1d",
        &mut || Box::new(BatchNorm1d::new(3)),
        &xb,
        &cb,
        1e-2,
    ));
    let xb2 = normal(&[4, 2 * 4], 0.5, 1.2, &mut Rng64::new(72));
    let cb2 = normal(&[4, 2 * 4], 0.0, 1.0, &mut Rng64::new(73));
    gate.grad(&gradcheck_layer(
        "batchnorm2d",
        &mut || Box::new(BatchNorm2d::new(2, 4)),
        &xb2,
        &cb2,
        1e-2,
    ));

    // Pooling: normal draws put 2x2-window ties (max-pool kinks) at
    // probability zero; eps 1e-3 keeps probe steps from creating them.
    let xp = normal(&[3, 2 * 4 * 4], 0.0, 1.0, &mut Rng64::new(80));
    let cp = normal(&[3, 2 * 2 * 2], 0.0, 1.0, &mut Rng64::new(81));
    gate.grad(&gradcheck_layer(
        "maxpool2d",
        &mut || Box::new(MaxPool2d::new(2, 4, 4)),
        &xp,
        &cp,
        1e-3,
    ));
    let cg = normal(&[3, 2], 0.0, 1.0, &mut Rng64::new(82));
    gate.grad(&gradcheck_layer(
        "global_avg_pool",
        &mut || Box::new(GlobalAvgPool::new(2, 16)),
        &xp,
        &cg,
        1e-2,
    ));

    // Activations: small eps keeps probes on one side of the ReLU kinks.
    let xa = normal(&[4, 6], 0.0, 1.0, &mut Rng64::new(83));
    let ca = normal(&[4, 6], 0.0, 1.0, &mut Rng64::new(84));
    gate.grad(&gradcheck_layer(
        "relu",
        &mut || Box::new(Relu::new()),
        &xa,
        &ca,
        1e-3,
    ));
    gate.grad(&gradcheck_layer(
        "leaky_relu",
        &mut || Box::new(LeakyRelu::new(0.2)),
        &xa,
        &ca,
        1e-3,
    ));
    gate.grad(&gradcheck_layer(
        "tanh",
        &mut || Box::new(Tanh::new()),
        &xa,
        &ca,
        1e-2,
    ));
    gate.grad(&gradcheck_layer(
        "sigmoid",
        &mut || Box::new(Sigmoid::new()),
        &xa,
        &ca,
        1e-2,
    ));

    // Dropout: rebuilding from the same seed replays the identical mask on
    // every probe, so the piecewise region is fixed.
    for p in [0.25, 0.6] {
        gate.grad(&gradcheck_layer(
            &format!("dropout p={p}"),
            &mut || Box::new(Dropout::new(p, 123)),
            &xa,
            &ca,
            1e-2,
        ));
    }

    // Residual blocks: eps 3e-3 with data drawn clear of the BN-centred
    // output-ReLU kinks (see the resnet unit test for the eps sweep).
    let xr = normal(&[4, 2 * 16], 0.0, 1.0, &mut Rng64::new(200));
    let cri = normal(&[4, 2 * 16], 0.0, 1.0, &mut Rng64::new(201));
    gate.grad(&gradcheck_layer(
        "basic_block identity",
        &mut || Box::new(BasicBlock::new(2, 2, 4, 4, 1, &mut Rng64::new(102))),
        &xr,
        &cri,
        3e-3,
    ));
    let crp = normal(&[4, 3 * 4], 0.0, 1.0, &mut Rng64::new(203));
    gate.grad(&gradcheck_layer(
        "basic_block projection",
        &mut || Box::new(BasicBlock::new(2, 3, 4, 4, 2, &mut Rng64::new(104))),
        &xr,
        &crp,
        3e-3,
    ));

    // GAMO's convex-combination head (softmax backward through a matmul).
    let anchors = normal(&[5, 3], 0.0, 1.0, &mut Rng64::new(90));
    let xm = normal(&[4, 5], 0.0, 1.0, &mut Rng64::new(91));
    let cm = normal(&[4, 3], 0.0, 1.0, &mut Rng64::new(92));
    gate.grad(&gradcheck_layer(
        "convex_mix",
        &mut || Box::new(ConvexMix::new(anchors.clone())),
        &xm,
        &cm,
        1e-2,
    ));
}

/// Gradchecks all four classification losses (weighted and unweighted)
/// plus the two GAN-side loss functions.
fn check_losses(gate: &mut Gate) {
    println!("losses:");
    let logits = normal(&[5, 3], 0.0, 1.5, &mut Rng64::new(40));
    let labels = [0usize, 2, 1, 1, 0];
    let weights = vec![0.25f32, 1.0, 4.0];

    let mut ce = CrossEntropyLoss::new();
    gate.grad(&gradcheck_loss("ce", &ce, &logits, &labels, 1e-2));
    ce.set_class_weights(Some(weights.clone()));
    gate.grad(&gradcheck_loss("ce weighted", &ce, &logits, &labels, 1e-2));

    for gamma in [0.0f32, 2.0] {
        let mut focal = FocalLoss::new(gamma);
        gate.grad(&gradcheck_loss(
            &format!("focal g={gamma}"),
            &focal,
            &logits,
            &labels,
            1e-2,
        ));
        focal.set_class_weights(Some(weights.clone()));
        gate.grad(&gradcheck_loss(
            &format!("focal g={gamma} weighted"),
            &focal,
            &logits,
            &labels,
            1e-2,
        ));
    }

    let counts = [40usize, 10, 4];
    let ldam = LdamLoss::new(&counts, 0.5, 10.0);
    gate.grad(&gradcheck_loss("ldam", &ldam, &logits, &labels, 1e-3));

    let asl = AsymmetricLoss::paper_defaults();
    gate.grad(&gradcheck_loss(
        "asl defaults",
        &asl,
        &logits,
        &labels,
        1e-2,
    ));
    let asl2 = AsymmetricLoss::new(1.0, 2.0, 0.0);
    gate.grad(&gradcheck_loss(
        "asl no-clip",
        &asl2,
        &logits,
        &labels,
        1e-2,
    ));

    // Saturated logits: the regime where clamped-probability losses used
    // to flatten while their gradients kept slope (the defect this gate
    // originally flagged in LDAM). The log-sum-exp / softplus forms must
    // stay consistent with finite differences here.
    let hot = normal(&[5, 3], 0.0, 8.0, &mut Rng64::new(44));
    gate.grad(&gradcheck_loss(
        "ce saturated",
        &CrossEntropyLoss::new(),
        &hot,
        &labels,
        1e-2,
    ));
    gate.grad(&gradcheck_loss(
        "focal g=2 saturated",
        &FocalLoss::new(2.0),
        &hot,
        &labels,
        1e-2,
    ));
    gate.grad(&gradcheck_loss(
        "ldam saturated",
        &LdamLoss::new(&counts, 0.5, 10.0),
        &hot,
        &labels,
        3e-3,
    ));
    gate.grad(&gradcheck_loss(
        "asl saturated",
        &AsymmetricLoss::paper_defaults(),
        &hot,
        &labels,
        1e-3,
    ));

    // GAN discriminator loss: sigmoid BCE on logits, mixed real/fake
    // targets, checked through the generic function helper.
    let glog = normal(&[6, 1], 0.0, 1.5, &mut Rng64::new(41));
    let targets = [1.0f32, 0.0, 1.0, 1.0, 0.0, 0.0];
    gate.grad(&gradcheck_fn("bce_with_logits", &glog, 1e-2, &mut |z| {
        bce_with_logits(z, &targets)
    }));

    // BAGAN autoencoder reconstruction loss.
    let recon = normal(&[4, 6], 0.0, 1.0, &mut Rng64::new(42));
    let target = normal(&[4, 6], 0.0, 1.0, &mut Rng64::new(43));
    gate.grad(&gradcheck_fn("mse", &recon, 1e-2, &mut |z| {
        mse_loss_and_grad(z, &target)
    }));
}

/// Spot-checks the gap and metric formulas against hand-computed values.
fn check_formulas(gate: &mut Gate) {
    println!("formulas:");
    // Two classes, one feature. Class 0: train range [0,1], test range
    // [-0.25, 1.5] -> 0.25 below + 0.5 above = 0.75. Class 1: test inside
    // train -> 0. Mean = 0.375.
    let train_fe = Tensor::from_vec(vec![0.0, 1.0, -2.0, 2.0], &[4, 1]);
    let train_y = [0usize, 0, 1, 1];
    let test_fe = Tensor::from_vec(vec![-0.25, 1.5, 0.0], &[3, 1]);
    let test_y = [0usize, 0, 1];
    let gaps = generalization_gap(&train_fe, &train_y, &test_fe, &test_y, 2);
    gate.value("gap class0", gaps.per_class[0], 0.75, 1e-9);
    gate.value("gap class1", gaps.per_class[1], 0.0, 1e-9);
    gate.value("gap mean", gaps.mean, 0.375, 1e-9);

    // Recalls 0.9 (9/10 of class 0) and 0.5 (1/2 of class 1):
    // BAC = 0.7, G-mean = sqrt(0.45), accuracy = 10/12.
    // Precisions: 9/10 and 1/2, so per-class F1s are 0.9 and 0.5 and the
    // macro-F1 is 0.7.
    let y_true: Vec<usize> = [vec![0usize; 10], vec![1usize; 2]].concat();
    let y_pred: Vec<usize> = [vec![0usize; 9], vec![1], vec![1], vec![0]].concat();
    let cm = ConfusionMatrix::from_predictions(&y_true, &y_pred, 2);
    gate.value("balanced_accuracy", cm.balanced_accuracy(), 0.7, 1e-9);
    gate.value("g_mean", cm.g_mean(), 0.45f64.sqrt(), 1e-9);
    gate.value("accuracy", cm.accuracy(), 10.0 / 12.0, 1e-9);
    gate.value("macro_f1", cm.macro_f1(), 0.7, 1e-9);
}

/// Verifies BatchNorm's train/eval consistency: after enough train-mode
/// batches from a fixed distribution, eval-mode output must match the
/// train-mode normalisation of that distribution.
fn check_batchnorm_stats(gate: &mut Gate, smoke: bool) {
    println!("batchnorm running stats:");
    let mut bn = BatchNorm1d::new(3);
    let mut rng = Rng64::new(7);
    let burn_in = if smoke { 200 } else { 1000 };
    for _ in 0..burn_in {
        let x = normal(&[32, 3], 2.0, 1.5, &mut rng);
        let _ = bn.forward(&x, true);
    }
    // Fresh batch, eval mode: running stats should normalise N(2, 1.5)
    // close to N(0, 1) (gamma = 1, beta = 0 untrained).
    let x = normal(&[512, 3], 2.0, 1.5, &mut rng);
    let y = bn.forward(&x, false);
    let mean = y.mean();
    let var = y
        .data()
        .iter()
        .map(|v| (v - mean) * (v - mean))
        .sum::<f32>()
        / y.len() as f32;
    gate.value("bn eval mean", mean as f64, 0.0, 0.1);
    gate.value("bn eval var", var as f64, 1.0, 0.15);
}

/// Digest of one short training run: two SGD steps on a tiny ResNet,
/// folding the loss bits, the logits and every parameter into one value.
fn train_digest(threads: usize, force_scalar: bool) -> u64 {
    par::set_num_threads(threads);
    set_force_scalar_kernel(force_scalar);
    let mut rng = Rng64::new(33);
    let arch = Architecture::ResNet {
        blocks_per_stage: 1,
        width: 4,
    };
    let mut net = ConvNet::new(arch, (3, 8, 8), 3, &mut rng);
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let loss = CrossEntropyLoss::new();
    let x = normal(&[8, 3 * 64], 0.0, 1.0, &mut Rng64::new(34));
    let y = [0usize, 1, 2, 0, 1, 2, 0, 1];
    // Folds whole u64 words, not bytes, so this stays apart from
    // `eos_trace::codec::Fnv`: the golden digest 0xbbfea0249f2c8ea5 depends on it.
    let mut digest = 0xcbf29ce484222325u64;
    let mut fold = |v: u64| {
        digest ^= v;
        digest = digest.wrapping_mul(0x100000001b3);
    };
    for _ in 0..2 {
        net.zero_grad();
        let logits = net.forward(&x, true);
        let (l, dl) = loss.loss_and_grad(&logits, &y);
        net.backward_params(&dl);
        opt.step_visit(&mut net);
        fold(l.to_bits() as u64);
        fold(logits.bits_digest());
    }
    net.visit_params(&mut |p| fold(p.value.bits_digest()));
    digest
}

/// Golden determinism: the training digest must be identical across thread
/// counts and across the AVX2/scalar kernel dispatch.
fn check_determinism(gate: &mut Gate) {
    println!("golden determinism:");
    let ambient = par::num_threads();
    let golden = train_digest(1, false);
    gate.claim(
        "digest reproducible at t=1",
        golden == train_digest(1, false),
    );
    for threads in [2usize, 4, 8] {
        gate.claim(
            &format!("digest stable at t={threads}"),
            golden == train_digest(threads, false),
        );
    }
    gate.claim(
        "digest stable scalar kernel",
        golden == train_digest(4, true),
    );
    set_force_scalar_kernel(false);
    par::set_num_threads(ambient);
    println!("  golden digest {golden:#018x}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut gate = Gate::new();

    check_layers(&mut gate);
    check_losses(&mut gate);
    check_formulas(&mut gate);
    check_batchnorm_stats(&mut gate, smoke);
    check_determinism(&mut gate);

    println!(
        "{} checks, worst gradcheck {:.2e} ({})",
        gate.checks, gate.worst, gate.worst_name
    );

    let mut rec = JsonRecord::new();
    rec.str("bench", "check_numerics")
        .int("checks", gate.checks)
        .num("worst_rel_error", gate.worst as f64)
        .str("worst_target", &gate.worst_name)
        .num("threshold", THRESHOLD as f64)
        .bool("passed", !gate.failed);
    rec.write("CHECK_numerics");

    if gate.failed {
        eprintln!("FAIL: numerical correctness gate");
        std::process::exit(1);
    }
    println!("numerical correctness gate passed");
}
