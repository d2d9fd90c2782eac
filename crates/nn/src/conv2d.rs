//! 2-D convolution via a batched, panel-packed `im2col` GEMM lowering.

use crate::layer::{Layer, Param};
use eos_tensor::{
    conv2d_direct_into, conv2d_input_grad_into, conv2d_weight_grad_into, gemm_prepacked_into,
    im2col_batch_panels_into, kaiming_uniform, par, scratch, Conv2dGeometry, Rng64, Tensor,
    PANEL_WIDTH,
};

/// Convolution over `(batch, C·H·W)` rows, each interpreted as a `C×H×W`
/// volume; outputs `(batch, O·H'·W')` rows.
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    geom: Conv2dGeometry,
    out_channels: usize,
    cache: ConvCache,
}

/// Target footprint of one image group's packed panels: half a typical
/// L2, leaving the other half for the group's inputs and outputs, so the
/// unfold → GEMM handoff never round-trips through DRAM.
const GROUP_PANEL_BYTES: usize = 1 << 20;

/// The lowering's cache, kept across forwards so a steady-state loop
/// (training or serving) allocates nothing.
#[derive(Default)]
struct ConvCache {
    /// The panel-packed patch matrix ([`im2col_batch_panels_into`]),
    /// fully overwritten by each unfold; only the prefix a forward needs
    /// is used, so it only grows. After a training forward it holds the
    /// whole batch, which the backward pass reads the weight gradient
    /// from in place. After an eval forward it holds one image group.
    panels: Vec<f32>,
    /// Batch size of the training forward `panels` holds, until the
    /// backward pass consumes it; `None` after an eval forward.
    train_batch: Option<usize>,
}

impl Conv2d {
    /// Creates a convolution with square kernels and Kaiming-uniform
    /// initialised weights. `geom` fixes the expected input volume.
    pub fn new(geom: Conv2dGeometry, out_channels: usize, bias: bool, rng: &mut Rng64) -> Self {
        assert!(out_channels > 0);
        let fan_in = geom.patch_len();
        let weight = Param::new(kaiming_uniform(&[out_channels, fan_in], fan_in, rng));
        let bias = bias.then(|| Param::new_no_decay(Tensor::zeros(&[out_channels])));
        Conv2d {
            weight,
            bias,
            geom,
            out_channels,
            cache: ConvCache::default(),
        }
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> Conv2dGeometry {
        self.geom
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Flat width of the expected input rows (`C·H·W`).
    pub fn in_len(&self) -> usize {
        self.geom.in_channels * self.geom.height * self.geom.width
    }

    /// Flat width of the produced output rows (`O·H'·W'`).
    pub fn out_len(&self) -> usize {
        self.out_channels * self.geom.patch_count()
    }

    /// Direct access to the `(out_channels, C·K·K)` weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Accumulates dW (read in place from the cached panels) and db of the
    /// training forward the cache holds, consuming it; returns its batch
    /// size. db adds each image's per-channel sums in image order, the
    /// same order dW's partials are reduced in.
    fn param_grads(&mut self, grad: &Tensor) -> usize {
        let n = self
            .cache
            .train_batch
            .take()
            .expect("Conv2d::backward without a training forward");
        assert_eq!(grad.dims(), &[n, self.out_len()]);
        let panels = &self.cache.panels[..self.geom.panels_len(n)];
        conv2d_weight_grad_into(grad.data(), panels, &self.geom, self.weight.grad.data_mut());
        let (osp, out_len) = (self.geom.patch_count(), self.out_len());
        if let Some(b) = &mut self.bias {
            for g in grad.data().chunks_exact(out_len) {
                for (gv, grow) in b.grad.data_mut().iter_mut().zip(g.chunks_exact(osp)) {
                    *gv += grow.iter().sum::<f32>();
                }
            }
        }
        n
    }
}

impl Layer for Conv2d {
    /// One lowering for training and inference: the batch unfolds into
    /// one panel-packed patch matrix (global column `image·H'W' + patch`,
    /// so images may straddle panels and any `H'·W'` works) and one wide
    /// GEMM runs per image group. The microkernel gives every output
    /// column its own accumulator over ascending taps, so each image's
    /// output is bit-identical to a per-image `W · colsᵀ` at any group
    /// size and thread count. Batched inference on wide unit-stride planes
    /// skips the lowering for the bit-identical direct convolution.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.rank(), 2, "Conv2d expects (batch, C*H*W)");
        assert_eq!(
            x.dim(1),
            self.in_len(),
            "Conv2d fed rows of {} values, expected {}",
            x.dim(1),
            self.in_len()
        );
        let n = x.dim(0);
        let geom = self.geom;
        let (osp, plen, oc) = (geom.patch_count(), geom.patch_len(), self.out_channels);
        let (in_len, out_len) = (self.in_len(), self.out_len());
        let w = self.weight.value.data();
        let bias = self.bias.as_ref().map(|b| b.value.data());
        let add_bias = |y: &mut [f32]| {
            if let Some(bv) = bias {
                for (row, &b) in y.chunks_exact_mut(osp).zip(bv) {
                    row.iter_mut().for_each(|v| *v += b);
                }
            }
        };
        let cache = &mut self.cache;
        cache.train_batch = train.then_some(n);
        let mut out = Tensor::zeros(&[n, out_len]);
        if !train
            && n > 1
            && geom.stride == 1
            && geom.out_width().is_multiple_of(2 * PANEL_WIDTH)
            && geom.out_height().is_multiple_of(2)
        {
            // Batched inference on wide spatial planes: direct
            // register-blocked convolution, no patch matrix at all,
            // bit-identical to the lowering (see `conv2d_direct_into`)
            // and about 2.5x faster than it on a batch of 16×16 planes.
            // Training always lowers: the backward pass reads the panels.
            par::par_chunks_mut(out.data_mut(), out_len, |i, orow| {
                conv2d_direct_into(x.row_slice(i), w, orow, &geom);
                add_bias(orow);
            });
            return out;
        }
        // Images per GEMM: as many as keep a group's panels cache-resident
        // between the unfold that writes them and the GEMM that reads
        // them, in steps of `align` images so every group starts on a
        // panel boundary of the batch layout.
        let align = (1..=PANEL_WIDTH)
            .find(|a| (a * osp).is_multiple_of(PANEL_WIDTH))
            .expect("PANEL_WIDTH images always fill whole panels");
        let budget = GROUP_PANEL_BYTES / (osp * plen * std::mem::size_of::<f32>());
        let group = (budget / align * align).max(align).min(n).max(1);
        let panels_len = geom.panels_len(if train { n } else { group });
        if cache.panels.len() < panels_len {
            cache.panels.resize(panels_len, 0.0);
        }
        let mut wide = scratch::take_zeroed(oc * geom.panels_len(group) / plen);
        for g0 in (0..n).step_by(group) {
            let g = (n - g0).min(group);
            let gn = (g * osp).next_multiple_of(PANEL_WIDTH);
            let p0 = if train { g0 * osp * plen } else { 0 };
            let panels = &mut cache.panels[p0..p0 + gn * plen];
            im2col_batch_panels_into(&x.data()[g0 * in_len..(g0 + g) * in_len], &geom, panels);
            gemm_prepacked_into(w, panels, &mut wide[..oc * gn], plen, gn);
            // The wide GEMM is channel-major over the group; gather each
            // image's `(O, H'·W')` block back into its output row.
            let wide = &wide;
            par::par_chunks_mut(
                &mut out.data_mut()[g0 * out_len..(g0 + g) * out_len],
                out_len,
                |i, orow| {
                    for (o, dst) in orow.chunks_exact_mut(osp).enumerate() {
                        dst.copy_from_slice(&wide[o * gn + i * osp..][..osp]);
                    }
                    add_bias(orow);
                },
            );
        }
        scratch::give(wide);
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let n = self.param_grads(grad);
        let mut dx = Tensor::zeros(&[n, self.in_len()]);
        conv2d_input_grad_into(
            grad.data(),
            self.weight.value.data(),
            &self.geom,
            dx.data_mut(),
        );
        dx
    }

    /// The parameter gradients alone: a first layer's input gradient is
    /// never read, so it is not computed.
    fn backward_params(&mut self, grad: &Tensor) {
        self.param_grads(grad);
    }

    fn params(&mut self) -> Vec<&mut Param> {
        let mut ps = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            ps.push(b);
        }
        ps
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn out_features(&self, in_features: usize) -> usize {
        assert_eq!(in_features, self.in_len());
        self.out_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_tensor::{
        central_difference, col2im, im2col, normal, rel_error, set_force_scalar_kernel,
    };

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

    #[test]
    fn one_by_one_kernel_is_channel_mix() {
        // A 1x1 conv with weight [[2.0]] doubles the single channel.
        let mut rng = Rng64::new(0);
        let mut conv = Conv2d::new(geom(1, 2, 2, 1, 1, 0), 1, false, &mut rng);
        conv.params()[0].value = Tensor::from_vec(vec![2.0], &[1, 1]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn averaging_kernel_smooths() {
        // 3x3 kernel of 1/9 on constant input reproduces the constant in
        // the interior (padding shrinks border sums).
        let mut rng = Rng64::new(0);
        let mut conv = Conv2d::new(geom(1, 3, 3, 3, 1, 1), 1, false, &mut rng);
        conv.params()[0].value = Tensor::full(&[1, 9], 1.0 / 9.0);
        let x = Tensor::full(&[1, 9], 9.0);
        let y = conv.forward(&x, false);
        assert_eq!(y.dims(), &[1, 9]);
        assert!((y.at(&[0, 4]) - 9.0).abs() < 1e-5, "interior pixel");
        assert!((y.at(&[0, 0]) - 4.0).abs() < 1e-5, "corner sees 4 pixels");
    }

    #[test]
    fn stride_two_downsamples() {
        let mut rng = Rng64::new(0);
        let mut conv = Conv2d::new(geom(2, 4, 4, 3, 2, 1), 5, true, &mut rng);
        let x = normal(&[3, 32], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, false);
        assert_eq!(y.dims(), &[3, 5 * 2 * 2]);
    }

    #[test]
    fn train_and_inference_forward_agree() {
        // Training always lowers; inference lowers the same way on small
        // planes and convolves directly on 16-wide ones. Every pairing
        // must match bit for bit, at batch 1 and batched.
        let mut rng = Rng64::new(11);
        for g in [geom(2, 4, 4, 3, 1, 1), geom(3, 16, 16, 3, 1, 1)] {
            let mut conv = Conv2d::new(g, 4, true, &mut rng);
            for n in [1, 3] {
                let x = normal(&[n, conv.in_len()], 0.0, 1.0, &mut rng);
                let y_train = conv.forward(&x, true);
                let y_eval = conv.forward(&x, false);
                assert_eq!(y_train.data(), y_eval.data(), "{g:?} batch {n}");
            }
        }
    }

    #[test]
    fn harness_gradcheck_stride_and_padding_variants() {
        use crate::gradcheck::gradcheck_layer;
        // Unit stride + pad, stride 2, and no padding, on a non-square
        // volume; every variant must pass on input, weight and bias.
        for (g, name) in [
            (geom(2, 5, 4, 3, 1, 1), "s1 p1"),
            (geom(2, 5, 4, 3, 2, 1), "s2 p1"),
            (geom(1, 4, 4, 2, 2, 0), "s2 p0"),
        ] {
            let x = normal(
                &[2, g.in_channels * g.height * g.width],
                0.0,
                1.0,
                &mut Rng64::new(60),
            );
            let probe = Conv2d::new(g, 3, true, &mut Rng64::new(61));
            let c = normal(&[2, probe.out_len()], 0.0, 1.0, &mut Rng64::new(62));
            let check = gradcheck_layer(
                name,
                &mut || Box::new(Conv2d::new(g, 3, true, &mut Rng64::new(61))),
                &x,
                &c,
                1e-2,
            );
            assert_eq!(check.checks.len(), 3, "{name}: input + weight + bias");
            check.assert_below(1e-2);
        }
    }

    #[test]
    fn gradcheck_input_weight_bias() {
        let mut rng = Rng64::new(7);
        let g = geom(2, 4, 3, 3, 2, 1);
        let mut conv = Conv2d::new(g, 3, true, &mut rng);
        let x = normal(&[2, g.in_channels * g.height * g.width], 0.0, 1.0, &mut rng);
        let c = normal(&[2, conv.out_len()], 0.0, 1.0, &mut rng);

        conv.zero_grad();
        let _ = conv.forward(&x, true);
        let dx = conv.backward(&c);

        let w0 = conv.weight().clone();
        let b0 = conv.bias.as_ref().unwrap().value.clone();
        let run = |w: &Tensor, b: &Tensor, xin: &Tensor| -> f32 {
            let mut c2 = Conv2d::new(g, 3, true, &mut Rng64::new(0));
            c2.params()[0].value = w.clone();
            c2.params()[1].value = b.clone();
            c2.forward(xin, false).dot(&c)
        };

        let ndx = central_difference(&x, 1e-2, |p| run(&w0, &b0, p));
        assert!(rel_error(&dx, &ndx) < 2e-2, "conv input grad");

        let ndw = central_difference(&w0, 1e-2, |p| run(p, &b0, &x));
        assert!(
            rel_error(&conv.params()[0].grad, &ndw) < 2e-2,
            "conv weight grad"
        );

        let ndb = central_difference(&b0, 1e-2, |p| run(&w0, p, &x));
        assert!(
            rel_error(&conv.params()[1].grad, &ndb) < 2e-2,
            "conv bias grad"
        );
    }

    #[test]
    fn batch_independence() {
        // Each sample's output depends only on its own row.
        let mut rng = Rng64::new(3);
        let g = geom(1, 3, 3, 3, 1, 1);
        let mut conv = Conv2d::new(g, 2, false, &mut rng);
        let a = normal(&[1, 9], 0.0, 1.0, &mut rng);
        let b = normal(&[1, 9], 0.0, 1.0, &mut rng);
        let both = Tensor::concat_rows(&[&a, &b]);
        let y_both = conv.forward(&both, false);
        let y_a = conv.forward(&a, false);
        assert_eq!(y_both.row_slice(0), y_a.row_slice(0));
    }

    #[test]
    fn batched_eval_path_matches_per_image_bits() {
        // 4×4 input with pad 1 keeps a 4×4 = 16-patch output: two whole
        // GEMM panels per image. Every row of a batched eval forward must
        // be bit-identical to forwarding that image alone.
        let mut rng = Rng64::new(21);
        let g = geom(3, 4, 4, 3, 1, 1);
        let mut conv = Conv2d::new(g, 5, true, &mut rng);
        let x = normal(&[6, 48], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, false);
        for i in 0..6 {
            let xi = Tensor::from_vec(x.row_slice(i).to_vec(), &[1, 48]);
            let yi = conv.forward(&xi, false);
            assert_eq!(y.row_slice(i), yi.row_slice(0), "image {i}");
        }
        // And the train-mode forward (the same lowering over the whole
        // batch) agrees too.
        let y_train = conv.forward(&x, true);
        assert_eq!(y.data(), y_train.data());
    }

    #[test]
    fn straddling_panel_shapes_stay_batch_invariant() {
        // A 3×3 output is 9 patches — not a whole panel — so images
        // straddle panels and the last one is zero-padded; eval must
        // still be composition invariant, across several image groups.
        let mut rng = Rng64::new(22);
        let g = geom(2, 3, 3, 3, 1, 1);
        let mut conv = Conv2d::new(g, 4, true, &mut rng);
        for n in [5, 2000] {
            let x = normal(&[n, 18], 0.0, 1.0, &mut rng);
            let y = conv.forward(&x, false);
            for i in [0, 1, n / 2, n - 1] {
                let xi = Tensor::from_vec(x.row_slice(i).to_vec(), &[1, 18]);
                let yi = conv.forward(&xi, false);
                assert_eq!(y.row_slice(i), yi.row_slice(0), "batch {n}, image {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "without a training forward")]
    fn backward_after_an_eval_forward_is_rejected() {
        let mut rng = Rng64::new(23);
        let g = geom(1, 3, 3, 3, 1, 1);
        let mut conv = Conv2d::new(g, 2, false, &mut rng);
        let x = normal(&[2, 9], 0.0, 1.0, &mut rng);
        let _ = conv.forward(&x, true);
        let y = conv.forward(&x, false);
        let _ = conv.backward(&y);
    }

    /// Output, dX, dW and db of one training step computed image by image
    /// with the reference lowering: `im2col`, the `Tensor` GEMMs and
    /// `col2im`, with dW/db summed in image order.
    fn per_image_reference(conv: &Conv2d, x: &Tensor, gy: &Tensor) -> [Vec<f32>; 4] {
        let g = conv.geometry();
        let (osp, oc) = (g.patch_count(), conv.out_channels());
        let w = conv.weight();
        let b = conv.bias.as_ref().unwrap().value.data();
        let (mut y, mut dx) = (Vec::new(), Vec::new());
        let (mut dw, mut db) = (vec![0.0f32; w.len()], vec![0.0f32; oc]);
        for i in 0..x.dim(0) {
            let cols = im2col(x.row_slice(i), &g);
            let mut yi = w.matmul_nt(&cols);
            for (row, &bo) in yi.data_mut().chunks_exact_mut(osp).zip(b) {
                row.iter_mut().for_each(|v| *v += bo);
            }
            y.extend_from_slice(yi.data());
            let gi = Tensor::from_vec(gy.row_slice(i).to_vec(), &[oc, osp]);
            for (acc, &v) in dw.iter_mut().zip(gi.matmul(&cols).data()) {
                *acc += v;
            }
            for (acc, grow) in db.iter_mut().zip(gi.data().chunks_exact(osp)) {
                *acc += grow.iter().sum::<f32>();
            }
            dx.extend(col2im(&gi.matmul_tn(w), &g));
        }
        [y, dx, dw, db]
    }

    #[test]
    fn train_conv_is_bit_identical_to_a_per_image_reference() {
        // Every `resnet_cifar` geometry of the 3×8×8 training net, plus
        // 16×16 planes whose batch spans several image groups, channel
        // counts that are not whole vectors and odd planes, at batch sizes
        // that leave whole, shared and zero-padded panels, across thread
        // budgets and both micro-kernels. Output gradients are normal
        // draws, all zero, or normal draws with `-0.0` sprinkled in.
        for (g, oc) in [
            (geom(3, 8, 8, 3, 1, 1), 8),    // stem
            (geom(8, 8, 8, 3, 1, 1), 8),    // 8×8 stride 1
            (geom(8, 8, 8, 3, 2, 1), 16),   // 3×3 stride 2
            (geom(8, 8, 8, 1, 2, 0), 16),   // 1×1 stride-2 projection
            (geom(16, 4, 4, 3, 2, 1), 32),  // 2×2 output: 4 patches per panel
            (geom(32, 2, 2, 3, 1, 1), 32),  // 2×2 stride 1
            (geom(16, 16, 16, 3, 1, 1), 8), // several image groups per batch
            (geom(4, 8, 8, 3, 1, 1), 4),    // 4-channel layers
            (geom(12, 7, 7, 3, 2, 1), 3),   // 3×3 stride 2 on an odd plane
            (geom(3, 7, 7, 3, 2, 1), 12),   // 3 in, 12 out
            (geom(12, 7, 7, 1, 2, 0), 4),   // 1×1 stride 2 on an odd plane
        ] {
            let in_len = g.in_channels * g.height * g.width;
            let out_len = oc * g.patch_count();
            for (n, grads) in [1, 3, 32]
                .into_iter()
                .flat_map(|n| ["normal", "zero", "signed zeros"].map(|k| (n, k)))
            {
                let x = normal(&[n, in_len], 0.0, 1.0, &mut Rng64::new(70));
                let mut gy = normal(&[n, out_len], 0.0, 1.0, &mut Rng64::new(71));
                match grads {
                    "zero" => gy.fill_(0.0),
                    "signed zeros" => gy.data_mut().iter_mut().step_by(3).for_each(|v| *v = -0.0),
                    _ => {}
                }
                let want =
                    per_image_reference(&Conv2d::new(g, oc, true, &mut Rng64::new(72)), &x, &gy);
                for threads in [1, 2, 4] {
                    for force_scalar in [false, true] {
                        let mut conv = Conv2d::new(g, oc, true, &mut Rng64::new(72));
                        set_force_scalar_kernel(force_scalar);
                        let (y, dx) = par::with_thread_budget(threads, || {
                            let y = conv.forward(&x, true);
                            (y, conv.backward(&gy))
                        });
                        set_force_scalar_kernel(false);
                        let ps = conv.params();
                        let got = [y.data(), dx.data(), ps[0].grad.data(), ps[1].grad.data()];
                        for (name, (got, want)) in
                            ["y", "dx", "dW", "db"].iter().zip(got.iter().zip(&want))
                        {
                            assert!(
                                got.iter()
                                    .map(|v| v.to_bits())
                                    .eq(want.iter().map(|v| v.to_bits())),
                                "{g:?} batch {n} {grads} grads threads {threads} \
                                 scalar {force_scalar}: {name}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = Rng64::new(1);
        let mut conv = Conv2d::new(geom(3, 8, 8, 3, 1, 1), 16, true, &mut rng);
        assert_eq!(conv.param_count(), 16 * 3 * 3 * 3 + 16);
    }
}
