//! Convolution kernels: the `im2col` lowering and the backward pass.
//!
//! A convolution over an `N×C×H×W` batch with `K×K` kernels, stride `s` and
//! padding `p` is computed as a GEMM between the unfolded input patches
//! and the flattened weight matrix. The layers unfold a whole batch
//! straight into the GEMM's panel-packed layout
//! ([`im2col_batch_panels_into`]); the row-major per-image [`im2col`] is
//! the reference it is tested against. The backward pass reads those
//! panels in place for the weight gradient ([`conv2d_weight_grad_into`])
//! and computes the input gradient directly
//! ([`conv2d_input_grad_into`]); [`col2im`], the adjoint scatter of
//! `im2col`, is the reference both are tested against.

use crate::matmul::{wide_kernels, PANEL_WIDTH};
use crate::tensor::Tensor;
use crate::{par, scratch};

/// Static geometry of a 2-D convolution: input size, kernel, stride, pad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Output spatial height.
    pub fn out_height(&self) -> usize {
        (self.height + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output spatial width.
    pub fn out_width(&self) -> usize {
        (self.width + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Rows of the unfolded patch matrix per image: `out_h * out_w`.
    pub fn patch_count(&self) -> usize {
        self.out_height() * self.out_width()
    }

    /// Columns of the unfolded patch matrix: `C * K * K`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Length of the panel-packed patch matrix of `images` images (see
    /// [`im2col_batch_panels_into`]): `images·H'·W'` columns rounded up to
    /// whole [`crate::PANEL_WIDTH`] panels, `C·K·K` taps each.
    pub fn panels_len(&self, images: usize) -> usize {
        (images * self.patch_count()).next_multiple_of(PANEL_WIDTH) * self.patch_len()
    }

    fn check(&self) {
        assert!(self.kernel > 0 && self.stride > 0, "degenerate geometry");
        assert!(
            self.height + 2 * self.pad >= self.kernel && self.width + 2 * self.pad >= self.kernel,
            "kernel larger than padded input"
        );
    }
}

/// Unfolds one image (`C×H×W`, flattened) into a `(out_h*out_w) × (C*K*K)`
/// patch matrix.
pub fn im2col(image: &[f32], geom: &Conv2dGeometry) -> Tensor {
    geom.check();
    let mut out = vec![0.0f32; geom.patch_count() * geom.patch_len()];
    im2col_into(image, geom, &mut out);
    Tensor::from_vec(out, &[geom.patch_count(), geom.patch_len()])
}

/// [`im2col`] into a caller-owned buffer of `patch_count() × patch_len()`
/// elements, so batch loops can reuse one scratch allocation per worker
/// instead of allocating per image. The buffer is fully overwritten.
pub fn im2col_into(image: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    geom.check();
    let (c, h, w) = (geom.in_channels, geom.height, geom.width);
    assert_eq!(image.len(), c * h * w, "image buffer size mismatch");
    let (oh, ow) = (geom.out_height(), geom.out_width());
    let (k, s, p) = (geom.kernel, geom.stride, geom.pad);
    assert_eq!(out.len(), oh * ow * geom.patch_len(), "im2col buffer size");
    out.fill(0.0);
    let mut row = 0usize;
    for oy in 0..oh {
        for ox in 0..ow {
            let base = row * geom.patch_len();
            let iy0 = (oy * s) as isize - p as isize;
            let ix0 = (ox * s) as isize - p as isize;
            let mut col = 0usize;
            for ch in 0..c {
                let plane = &image[ch * h * w..(ch + 1) * h * w];
                for ky in 0..k {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        col += k;
                        continue;
                    }
                    let rowbase = iy as usize * w;
                    for kx in 0..k {
                        let ix = ix0 + kx as isize;
                        if ix >= 0 && ix < w as isize {
                            out[base + col] = plane[rowbase + ix as usize];
                        }
                        col += 1;
                    }
                }
            }
            row += 1;
        }
    }
}

/// Floats per panel-chunk of [`im2col_batch_panels_into`]'s parallel
/// unfold: a shape-only target (never the thread count), large enough to
/// amortise dispatch, small enough that a training batch splits across
/// the pool.
const UNFOLD_CHUNK: usize = 1 << 14;

/// Unfolds a batch of images (rows of `C·H·W`, back to back) into the
/// **transposed, panel-packed** patch matrix [`crate::gemm_prepacked_into`]
/// reads as its right-hand side. Patch `j` of image `i` is global column
/// `c = i·H'·W' + j`, and its tap `p` lands at
/// `(c / W)·patch_len·W + p·W + (c % W)` where `W` is
/// [`crate::PANEL_WIDTH`]. Images may straddle panels, so any `H'·W'`
/// works; columns past the batch in the last panel are zero. This fuses
/// the unfold with the GEMM's own right-hand-side packing, so the
/// convolution never materialises (then re-reads and re-packs) an
/// intermediate patch matrix. The buffer ([`Conv2dGeometry::panels_len`]
/// of the batch) is fully overwritten, padding taps included. The unfold
/// runs panel-chunked across the pool; every written value is a pure
/// function of its `(column, tap)` coordinates, so the bytes do not
/// depend on the chunking.
pub fn im2col_batch_panels_into(images: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    geom.check();
    let ilen = geom.in_channels * geom.height * geom.width;
    assert_eq!(images.len() % ilen, 0, "image buffer not whole images");
    let cols = images.len() / ilen * geom.patch_count();
    let panel = geom.patch_len() * PANEL_WIDTH;
    assert_eq!(
        out.len(),
        geom.panels_len(images.len() / ilen),
        "panel buffer size"
    );
    let per_chunk = (UNFOLD_CHUNK / panel).max(1);
    crate::par::par_chunks_mut(out, per_chunk * panel, |ci, chunk| {
        chunk.fill(0.0);
        let c0 = ci * per_chunk * PANEL_WIDTH;
        let c1 = (c0 + chunk.len() / geom.patch_len()).min(cols);
        unfold_columns(images, geom, c0, c1, chunk);
    });
}

/// Writes global patch columns `c0..c1` (`c0` on a panel boundary) of the
/// batch into `out`, whose first panel holds column `c0`. Positions
/// [`im2col_batch_panels_into`] does not visit keep the caller's zero
/// fill.
fn unfold_columns(images: &[f32], geom: &Conv2dGeometry, c0: usize, c1: usize, out: &mut [f32]) {
    let nr = PANEL_WIDTH;
    let (c, h, w) = (geom.in_channels, geom.height, geom.width);
    let ilen = c * h * w;
    let (oh, ow) = (geom.out_height(), geom.out_width());
    let (k, s, p) = (geom.kernel, geom.stride, geom.pad);
    let (pc, plen) = (oh * ow, geom.patch_len());
    if s == 1 && ow % nr == 0 {
        // Panel-outer traversal: with unit stride and panel-aligned rows
        // a panel's `nr` patches share one output row of one image, and
        // each tap's valid columns clip to a contiguous span of it. Each
        // `plen × nr` panel is written start to finish before the next
        // one is touched, so the (large) destination streams through
        // cache once while the (small) source planes stay resident.
        for (col, panel) in (c0..c1).step_by(nr).zip(out.chunks_exact_mut(plen * nr)) {
            let image = &images[(col / pc) * ilen..][..ilen];
            let (oy, xb) = ((col % pc) / ow, (col % pc) % ow);
            for ch in 0..c {
                let plane = &image[ch * h * w..(ch + 1) * h * w];
                for ky in 0..k {
                    let iy = (oy + ky) as isize - p as isize;
                    if iy < 0 || iy >= h as isize {
                        continue; // padding rows stay at the zero fill
                    }
                    let src = &plane[iy as usize * w..][..w];
                    for kx in 0..k {
                        if kx >= w + p {
                            continue;
                        }
                        let tap = (ch * k + ky) * k + kx;
                        // Valid ox satisfy `0 <= ox + kx - p < w`,
                        // clipped to this panel's columns.
                        let a = p.saturating_sub(kx).max(xb);
                        let b = (w - 1 + p - kx).min(xb + nr - 1);
                        if a > b {
                            continue;
                        }
                        let take = b + 1 - a;
                        let dst = &mut panel[tap * nr + (a - xb)..][..take];
                        let s0 = a + kx - p;
                        if take == PANEL_WIDTH {
                            // Compile-time width: a single vector move
                            // instead of a length-dispatched memcpy.
                            let blk: &[f32; PANEL_WIDTH] =
                                src[s0..s0 + PANEL_WIDTH].try_into().unwrap();
                            dst.copy_from_slice(blk);
                        } else {
                            dst.copy_from_slice(&src[s0..s0 + take]);
                        }
                    }
                }
            }
        }
        return;
    }
    // Tap-outer traversal over each image's share of the columns: for one
    // kernel column `kx` the valid output range is a precomputable
    // interval, so the inner loops carry no per-element bounds checks —
    // padding positions are never visited.
    let mut col = c0;
    while col < c1 {
        let (i, j0) = (col / pc, col % pc);
        let j1 = pc.min(j0 + (c1 - col));
        let image = &images[i * ilen..][..ilen];
        // Chunk-local column of this image's patch `j0`.
        let base = col - c0;
        for kx in 0..k.min(w + p) {
            // Valid ox satisfy `0 <= ox*s + kx - p < w`.
            let lo = p.saturating_sub(kx).div_ceil(s);
            let hi = ((w - 1 + p - kx) / s).min(ow - 1);
            for oy in j0 / ow..=(j1 - 1) / ow {
                let row0 = oy * ow;
                // Clip to this image's columns `j0..j1` too.
                let (a, b) = (lo.max(j0.saturating_sub(row0)), hi.min(j1 - 1 - row0));
                for ky in 0..k {
                    let iy = (oy * s + ky) as isize - p as isize;
                    if a > b || iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ch in 0..c {
                        let src = &image[ch * h * w + iy as usize * w..][..w];
                        let tap = (ch * k + ky) * k + kx;
                        for ox in a..=b {
                            let lc = base + row0 + ox - j0;
                            out[(lc / nr) * plen * nr + tap * nr + lc % nr] = src[ox * s + kx - p];
                        }
                    }
                }
            }
        }
        col += j1 - j0;
    }
}

/// Direct (un-lowered) convolution of one image: `out[o] = Σ_p w[o, p] ·
/// shift_p(image)` — the inference fast path that never materialises a
/// patch matrix at all.
///
/// `weight` is the flattened `O × (C·K·K)` kernel, `out` the `O ×
/// (H'·W')` channel-major output (fully overwritten). **Bit-identical**
/// to unfolding with [`im2col`] and multiplying with
/// [`crate::gemm_nt_into`]: the input is first copied into an explicitly
/// zero-padded plane (so padding taps contribute the same `w · 0.0`
/// products the zero-filled patch matrix feeds the GEMM), and every
/// output element is one register accumulator starting from `+0.0` that
/// adds separate-`mul`-then-`add` products over ascending tap index
/// `p = (ch·K + ky)·K + kx` — exactly the GEMM's reduction order, with
/// no fused multiply-add on any path.
///
/// The register-blocked fast kernel serves unit stride with `W'` a whole
/// number of vector rows; other geometries fall through to a portable
/// interval-clipped loop with the same accumulation order.
pub fn conv2d_direct_into(image: &[f32], weight: &[f32], out: &mut [f32], geom: &Conv2dGeometry) {
    geom.check();
    let (c, h, w) = (geom.in_channels, geom.height, geom.width);
    assert_eq!(image.len(), c * h * w, "image buffer size mismatch");
    let plen = geom.patch_len();
    assert_eq!(weight.len() % plen, 0, "weight not whole O×CKK rows");
    assert_eq!(
        out.len() * plen,
        weight.len() * geom.patch_count(),
        "output buffer size mismatch"
    );
    let (ph, pw) = (h + 2 * geom.pad, w + 2 * geom.pad);
    let mut padded = scratch::take_zeroed(c * ph * pw);
    for ch in 0..c {
        let plane = &image[ch * h * w..(ch + 1) * h * w];
        let dst = &mut padded[ch * ph * pw..];
        for y in 0..h {
            dst[(y + geom.pad) * pw + geom.pad..][..w].copy_from_slice(&plane[y * w..][..w]);
        }
    }
    #[cfg(target_arch = "x86_64")]
    if wide_kernels() {
        // SAFETY: `wide_kernels` just checked for avx2 at runtime.
        unsafe {
            conv2d_direct_avx2(&padded, weight, out, geom);
        }
        scratch::give(padded);
        return;
    }
    conv2d_direct_kernel(&padded, weight, out, geom);
    scratch::give(padded);
}

/// Lanes of one accumulator vector: the output columns one direct-conv
/// block spans, and the channel lanes of the backward kernels. One full
/// AVX2 `f32` vector per block keeps the whole block in registers across
/// the reduction.
const LANES: usize = 8;

/// [`conv2d_direct_kernel`] compiled with AVX2 enabled (never `fma`, for
/// the same bit-identity argument as the GEMM's wide micro-kernel): the
/// block-wide inner updates use full-width vector registers while every
/// element still performs separate `mul` then `add`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn conv2d_direct_avx2(padded: &[f32], weight: &[f32], out: &mut [f32], geom: &Conv2dGeometry) {
    conv2d_direct_kernel(padded, weight, out, geom);
}

/// One `R`-row × `OW`-column register block of the direct convolution:
/// `R·OW` accumulators start at `+0.0`, sweep the taps once in ascending
/// `p` order (each weight broadcast feeding all `R` rows), and store to
/// the output plane exactly once. Requires `OW == W'` (rows are full
/// output rows) and `oy + R <= H'`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn direct_block<const OW: usize, const R: usize>(
    padded: &[f32],
    wrow: &[f32],
    oplane: &mut [f32],
    oy: usize,
    c: usize,
    k: usize,
    ph: usize,
    pw: usize,
) {
    let mut acc = [[0.0f32; OW]; R];
    let mut pidx = 0usize;
    for ch in 0..c {
        let plane = &padded[ch * ph * pw..(ch + 1) * ph * pw];
        for ky in 0..k {
            let srows = &plane[(oy + ky) * pw..];
            for kx in 0..k {
                let wv = wrow[pidx];
                pidx += 1;
                for (r, row) in acc.iter_mut().enumerate() {
                    let sv: &[f32; OW] = srows[r * pw + kx..][..OW].try_into().unwrap();
                    for (a, &x) in row.iter_mut().zip(sv) {
                        *a += wv * x;
                    }
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        oplane[(oy + r) * OW..(oy + r + 1) * OW].copy_from_slice(row);
    }
}

/// Body of [`conv2d_direct_into`] over the zero-padded input. For unit
/// stride with `W'` a whole number of [`LANES`] blocks, each
/// block of output columns accumulates in registers across the whole tap
/// loop (double-width blocks first, to amortise the weight broadcast
/// over two vectors) and stores once. Other geometries use an
/// interval-free scalar loop over the padded plane — identical
/// per-element operation sequence, just without the register blocking.
#[inline(always)]
fn conv2d_direct_kernel(padded: &[f32], weight: &[f32], out: &mut [f32], geom: &Conv2dGeometry) {
    let c = geom.in_channels;
    let (oh, ow) = (geom.out_height(), geom.out_width());
    let (k, s) = (geom.kernel, geom.stride);
    let (ph, pw) = (geom.height + 2 * geom.pad, geom.width + 2 * geom.pad);
    let plen = geom.patch_len();
    let osp = oh * ow;
    let fast = s == 1 && ow % LANES == 0;
    for (o, oplane) in out.chunks_exact_mut(osp).enumerate() {
        let wrow = &weight[o * plen..][..plen];
        // Four vector accumulators per block (the same register budget
        // as the GEMM micro-kernel's 4×8 tile) so one weight broadcast
        // feeds four vectors' worth of columns: wide planes take two
        // 16-column rows per block, vector-narrow planes four 8-column
        // rows. Adjacent output rows are contiguous in the output plane;
        // their source rows are one padded row apart.
        if fast && ow == 2 * LANES && oh % 2 == 0 {
            for oy in (0..oh).step_by(2) {
                direct_block::<16, 2>(padded, wrow, oplane, oy, c, k, ph, pw);
            }
            continue;
        }
        if fast && ow == LANES && oh % 4 == 0 {
            for oy in (0..oh).step_by(4) {
                direct_block::<8, 4>(padded, wrow, oplane, oy, c, k, ph, pw);
            }
            continue;
        }
        for oy in 0..oh {
            let dst = &mut oplane[oy * ow..][..ow];
            if fast {
                let mut xb = 0;
                // Double-width blocks: one weight broadcast feeds two
                // vectors' worth of columns.
                while xb + 2 * LANES <= ow {
                    let mut acc = [0.0f32; 2 * LANES];
                    let mut pidx = 0usize;
                    for ch in 0..c {
                        let plane = &padded[ch * ph * pw..(ch + 1) * ph * pw];
                        for ky in 0..k {
                            let srow = &plane[(oy + ky) * pw..][..pw];
                            for kx in 0..k {
                                let wv = wrow[pidx];
                                pidx += 1;
                                let sv = &srow[xb + kx..][..2 * LANES];
                                for (a, &x) in acc.iter_mut().zip(sv) {
                                    *a += wv * x;
                                }
                            }
                        }
                    }
                    dst[xb..xb + 2 * LANES].copy_from_slice(&acc);
                    xb += 2 * LANES;
                }
                while xb < ow {
                    let mut acc = [0.0f32; LANES];
                    let mut pidx = 0usize;
                    for ch in 0..c {
                        let plane = &padded[ch * ph * pw..(ch + 1) * ph * pw];
                        for ky in 0..k {
                            let srow = &plane[(oy + ky) * pw..][..pw];
                            for kx in 0..k {
                                let wv = wrow[pidx];
                                pidx += 1;
                                let sv = &srow[xb + kx..][..LANES];
                                for (a, &x) in acc.iter_mut().zip(sv) {
                                    *a += wv * x;
                                }
                            }
                        }
                    }
                    dst[xb..xb + LANES].copy_from_slice(&acc);
                    xb += LANES;
                }
            } else {
                for (ox, d) in dst.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    let mut pidx = 0usize;
                    for ch in 0..c {
                        let plane = &padded[ch * ph * pw..(ch + 1) * ph * pw];
                        for ky in 0..k {
                            let srow = &plane[(oy * s + ky) * pw..][..pw];
                            for kx in 0..k {
                                acc += wrow[pidx] * srow[ox * s + kx];
                                pidx += 1;
                            }
                        }
                    }
                    *d = acc;
                }
            }
        }
    }
}

/// Weight gradient of a training batch, read in place from the forward
/// pass's cached panels: `dw += Σ_i G_i · cols_i`. `grad` holds the batch's
/// output gradients `G_i` (rows of `O·H'·W'`, each an `O × H'W'` matrix),
/// `panels` the batch's patch matrix as [`im2col_batch_panels_into`] wrote
/// it ([`Conv2dGeometry::panels_len`] of the batch), and `dw` the
/// `O × C·K·K` accumulator.
///
/// **Bit-identical** to one `G_i · cols_i` GEMM per image added into `dw`
/// in image order: each image's partial `dW_i[o, t]` is one accumulator
/// that starts from `+0.0` and adds `G_i[o, j] · cols_i[j, t]` over patches
/// `j` ascending, the partials are computed in parallel into private slots,
/// and the slots are added into `dw` serially in image order. Lanes run
/// over output channels, so no lane ever reassociates. The only per-image
/// repack is the small `H'W' × O` transpose of `G_i`: patch values are
/// broadcast straight out of the panels, where tap `t` of a panel's
/// [`crate::PANEL_WIDTH`] patches sits at `t·PANEL_WIDTH + lane`.
pub fn conv2d_weight_grad_into(
    grad: &[f32],
    panels: &[f32],
    geom: &Conv2dGeometry,
    dw: &mut [f32],
) {
    geom.check();
    let (osp, plen) = (geom.patch_count(), geom.patch_len());
    assert_eq!(dw.len() % plen, 0, "weight gradient not whole O×CKK rows");
    let oc = dw.len() / plen;
    assert_eq!(
        grad.len() % (oc * osp),
        0,
        "output gradient not whole images"
    );
    let n = grad.len() / (oc * osp);
    assert_eq!(panels.len(), geom.panels_len(n), "panel buffer size");
    eos_trace::count!("conv.wgrad.calls", 1);
    eos_trace::hist!("conv.wgrad.flops", 2 * (n * oc * osp * plen) as u64);
    if n == 0 {
        return;
    }
    // One slot per image: its partial, tap-major (`C·K·K` rows of the
    // output channels padded to whole vectors, so the kernel stores whole
    // vectors), then its `Gᵀ` in the same padded rows (the padding lanes
    // stay zero).
    let op = oc.next_multiple_of(LANES);
    let part_len = plen * op;
    let slot_len = part_len + osp * op;
    let mut slots = scratch::take_zeroed(n * slot_len);
    par::par_chunks_mut(&mut slots, slot_len, |i, slot| {
        let (part, gt) = slot.split_at_mut(part_len);
        transpose_into(&grad[i * oc * osp..][..oc * osp], osp, gt, op);
        #[cfg(target_arch = "x86_64")]
        if wide_kernels() {
            // SAFETY: `wide_kernels` just checked for avx2 at runtime.
            return unsafe { weight_grad_avx2(gt, op, panels, i * osp, part) };
        }
        weight_grad_kernel(gt, op, panels, i * osp, part);
    });
    // `dw + dW_0 + dW_1 + …` element by element (the first add commutes),
    // summed in the slots' tap-major layout, where the adds run over whole
    // vectors, and transposed back into `dw` once.
    let (sum, rest) = slots.split_at_mut(slot_len);
    let sum = &mut sum[..part_len];
    for (o, row) in dw.chunks_exact(plen).enumerate() {
        for (s, &d) in sum.chunks_exact_mut(op).zip(row) {
            s[o] += d;
        }
    }
    for slot in rest.chunks_exact(slot_len) {
        for (s, &v) in sum.iter_mut().zip(&slot[..part_len]) {
            *s += v;
        }
    }
    for (o, row) in dw.chunks_exact_mut(plen).enumerate() {
        for (d, s) in row.iter_mut().zip(sum.chunks_exact(op)) {
            *d = s[o];
        }
    }
    scratch::give(slots);
}

/// Writes the `rows × cols` matrix `m` transposed into `out`, whose rows
/// are `stride >= rows` wide; lanes past `rows` are left as they are.
fn transpose_into(m: &[f32], cols: usize, out: &mut [f32], stride: usize) {
    for (r, row) in m.chunks_exact(cols).enumerate() {
        for (dst, &v) in out.chunks_exact_mut(stride).zip(row) {
            dst[r] = v;
        }
    }
}

/// Taps per dW register block: `WGRAD_TAPS` accumulator vectors, so each
/// patch's `Gᵀ` vector is loaded once and multiplied by that many
/// broadcast panel values.
const WGRAD_TAPS: usize = 8;

/// [`weight_grad_kernel`] compiled with AVX2 enabled, never `fma`, for the
/// same bit-identity argument as the GEMM's wide micro-kernel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn weight_grad_avx2(gt: &[f32], op: usize, panels: &[f32], col0: usize, part: &mut [f32]) {
    weight_grad_kernel(gt, op, panels, col0, part);
}

/// One image's tap-major `dW_iᵀ` (`part`, `C·K·K` rows of `op` lanes:
/// the output channels padded to whole vectors) from its `Gᵀ` (`gt`,
/// `H'W'` rows of `op` lanes) and its patches, global panel columns
/// `col0..col0 + H'W'`.
#[inline(always)]
fn weight_grad_kernel(gt: &[f32], op: usize, panels: &[f32], col0: usize, part: &mut [f32]) {
    let plen = part.len() / op;
    for ob in (0..op).step_by(LANES) {
        let mut t = 0;
        while t + WGRAD_TAPS <= plen {
            weight_grad_block::<WGRAD_TAPS>(gt, op, ob, panels, col0, t, part);
            t += WGRAD_TAPS;
        }
        for t in t..plen {
            weight_grad_block::<1>(gt, op, ob, panels, col0, t, part);
        }
    }
}

/// Taps `t0..t0 + T` × the output-channel vector at lane `ob`, held in
/// registers over the whole ascending patch sweep and stored once.
#[inline(always)]
fn weight_grad_block<const T: usize>(
    gt: &[f32],
    op: usize,
    ob: usize,
    panels: &[f32],
    col0: usize,
    t0: usize,
    part: &mut [f32],
) {
    let (nr, plen) = (PANEL_WIDTH, part.len() / op);
    let mut acc = [[0.0f32; LANES]; T];
    for (j, grow) in gt.chunks_exact(op).enumerate() {
        let col = col0 + j;
        let taps = &panels[(col / nr * plen + t0) * nr + col % nr..][..(T - 1) * nr + 1];
        let gv: &[f32; LANES] = grow[ob..ob + LANES].try_into().unwrap();
        for (r, a) in acc.iter_mut().enumerate() {
            let x = taps[r * nr];
            for (a, &g) in a.iter_mut().zip(gv) {
                *a += g * x;
            }
        }
    }
    for (r, a) in acc.iter().enumerate() {
        part[(t0 + r) * op + ob..][..LANES].copy_from_slice(a);
    }
}

/// Input gradient of a training batch, computed directly:
/// `dx_i = col2im(G_iᵀ · W)` for every image without building the
/// patch-gradient matrix. `grad` holds the batch's output gradients (rows
/// of `O·H'·W'`), `weight` the `O × C·K·K` kernel, and `dx` the batch's
/// `C·H·W` rows (fully overwritten).
///
/// **Bit-identical** to that GEMM-then-scatter sequence. Each contribution
/// `Σ_o G_i[o, j] · W[o, t]` is one accumulator that starts from `+0.0`
/// and runs over `o` ascending, as the GEMM's is; each input pixel starts
/// from `+0.0` and adds its contributions in ascending patch order `j`, as
/// [`col2im`]'s patch-major scatter does. For one pixel, ascending `j` is
/// kernel row `ky` descending, then kernel column `kx` descending, over
/// the taps that land inside the image, so the kernel sweeps the taps in
/// that order and adds each tap's contributions into a pixel-major
/// `H·W × C` accumulator, which it then transposes into `dx`. Lanes run
/// over input channels, so no lane ever reassociates. Images run in
/// parallel.
pub fn conv2d_input_grad_into(grad: &[f32], weight: &[f32], geom: &Conv2dGeometry, dx: &mut [f32]) {
    geom.check();
    let (c, hw) = (geom.in_channels, geom.height * geom.width);
    let (osp, plen) = (geom.patch_count(), geom.patch_len());
    let kk = geom.kernel * geom.kernel;
    assert_eq!(weight.len() % plen, 0, "weight not whole O×CKK rows");
    let oc = weight.len() / plen;
    assert_eq!(
        grad.len() % (oc * osp),
        0,
        "output gradient not whole images"
    );
    let n = grad.len() / (oc * osp);
    assert_eq!(dx.len(), n * c * hw, "input gradient size mismatch");
    // Counted as the `Gᵀ · W` GEMM it replaces.
    eos_trace::count!("conv.dgrad.calls", 1);
    eos_trace::hist!("conv.dgrad.flops", 2 * (n * osp * oc * plen) as u64);
    // The kernel regrouped by tap with input channels as lanes, padded to
    // whole vectors with zeros: `wt[(q·O + o)·cp + ch] = W[o, ch·K·K + q]`.
    let cp = c.next_multiple_of(LANES);
    let mut wt = scratch::take_zeroed(kk * oc * cp);
    for (o, wrow) in weight.chunks_exact(plen).enumerate() {
        for (ch, taps) in wrow.chunks_exact(kk).enumerate() {
            for (q, &v) in taps.iter().enumerate() {
                wt[(q * oc + o) * cp + ch] = v;
            }
        }
    }
    // One slot per image: its `Gᵀ`, then its zeroed pixel accumulator.
    let slot_len = osp * oc + hw * cp;
    let mut slots = scratch::take_zeroed(n * slot_len);
    par::par_chunks_mut2(dx, c * hw, &mut slots, slot_len, |i, dxrow, slot| {
        let (gt, acc) = slot.split_at_mut(osp * oc);
        transpose_into(&grad[i * oc * osp..][..oc * osp], osp, gt, oc);
        input_grad_dispatch(gt, &wt, geom, acc);
        for (ch, plane) in dxrow.chunks_exact_mut(hw).enumerate() {
            for (d, px) in plane.iter_mut().zip(acc.chunks_exact(cp)) {
                *d = px[ch];
            }
        }
    });
    scratch::give(slots);
    scratch::give(wt);
}

/// Runs the widest bit-identical [`input_grad_kernel`] the CPU supports.
fn input_grad_dispatch(gt: &[f32], wt: &[f32], geom: &Conv2dGeometry, acc: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if wide_kernels() {
        // SAFETY: `wide_kernels` just checked for avx2 at runtime.
        return unsafe { input_grad_avx2(gt, wt, geom, acc) };
    }
    input_grad_kernel(gt, wt, geom, acc);
}

/// [`input_grad_kernel`] compiled with AVX2 enabled, never `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn input_grad_avx2(gt: &[f32], wt: &[f32], geom: &Conv2dGeometry, acc: &mut [f32]) {
    input_grad_kernel(gt, wt, geom, acc);
}

/// One image's pixel-major input gradient (`acc`, `H·W` rows of whole
/// channel vectors, zeroed by the caller) from its `Gᵀ` (`gt`, `H'W' × O`)
/// and the tap-regrouped kernel `wt`. Taps run `ky` then `kx` descending;
/// for each, the output positions whose tap lands inside the image form a
/// rectangle, swept row by row in register blocks of patches.
#[inline(always)]
fn input_grad_kernel(gt: &[f32], wt: &[f32], geom: &Conv2dGeometry, acc: &mut [f32]) {
    let (h, w) = (geom.height, geom.width);
    let (oh, ow) = (geom.out_height(), geom.out_width());
    let (k, s, p) = (geom.kernel, geom.stride, geom.pad);
    let cp = acc.len() / (h * w);
    let oc = gt.len() / (oh * ow);
    // Valid output indices for a kernel offset `kk` along an axis of
    // `len` inputs and `olen` outputs: `0 <= o·s + kk - p < len`.
    let span = |kk: usize, len: usize, olen: usize| {
        (kk < len + p).then(|| {
            (
                p.saturating_sub(kk).div_ceil(s),
                ((len - 1 + p - kk) / s).min(olen - 1),
            )
        })
    };
    for ky in (0..k).rev() {
        let Some((ylo, yhi)) = span(ky, h, oh) else {
            continue;
        };
        for kx in (0..k).rev() {
            let Some((xlo, xhi)) = span(kx, w, ow) else {
                continue;
            };
            let wk = &wt[(ky * k + kx) * oc * cp..][..oc * cp];
            for oy in ylo..=yhi {
                let iy = oy * s + ky - p;
                // Patch `oy·W' + ox` lands on pixel `iy·W + ox·s + kx - p`.
                let at = |ox: usize| (oy * ow + ox, iy * w + ox * s + kx - p);
                for cb in (0..cp).step_by(LANES) {
                    let mut ox = xlo;
                    while ox + 4 <= xhi + 1 {
                        input_grad_block::<4>(gt, wk, cb, at(ox), s, acc, cp);
                        ox += 4;
                    }
                    if ox + 2 <= xhi + 1 {
                        input_grad_block::<2>(gt, wk, cb, at(ox), s, acc, cp);
                        ox += 2;
                    }
                    if ox <= xhi {
                        input_grad_block::<1>(gt, wk, cb, at(ox), s, acc, cp);
                    }
                }
            }
        }
    }
}

/// `R` consecutive patches from `(j0, px0)` (patch, pixel) × the input
/// channel vector at lane `cb`: each patch's contribution
/// `Σ_o Gᵀ[j, o] · wk[o, cb..]` accumulates in registers from `+0.0` over
/// `o` ascending, then adds into its pixel in `acc` (rows of `cp` lanes;
/// consecutive patches land `s` pixels apart).
#[inline(always)]
fn input_grad_block<const R: usize>(
    gt: &[f32],
    wk: &[f32],
    cb: usize,
    (j0, px0): (usize, usize),
    s: usize,
    acc: &mut [f32],
    cp: usize,
) {
    let oc = wk.len() / cp;
    let rows: [&[f32]; R] = std::array::from_fn(|r| &gt[(j0 + r) * oc..][..oc]);
    let mut sum = [[0.0f32; LANES]; R];
    for (o, wrow) in wk.chunks_exact(cp).enumerate() {
        let wv: &[f32; LANES] = wrow[cb..cb + LANES].try_into().unwrap();
        for (sr, row) in sum.iter_mut().zip(&rows) {
            let g = row[o];
            for (a, &wl) in sr.iter_mut().zip(wv) {
                *a += g * wl;
            }
        }
    }
    for (r, sr) in sum.iter().enumerate() {
        let dst = &mut acc[(px0 + r * s) * cp + cb..][..LANES];
        for (d, &v) in dst.iter_mut().zip(sr) {
            *d += v;
        }
    }
}

/// Adjoint of [`im2col`]: scatter-adds a `(out_h*out_w) × (C*K*K)` patch
/// gradient back into a `C×H×W` image gradient, patch by patch in
/// ascending order. The reference [`conv2d_input_grad_into`] is tested
/// against.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeometry) -> Vec<f32> {
    geom.check();
    let (c, h, w) = (geom.in_channels, geom.height, geom.width);
    let (oh, ow) = (geom.out_height(), geom.out_width());
    let data = cols.data();
    assert_eq!(data.len(), oh * ow * geom.patch_len(), "cols size mismatch");
    let (k, s, p) = (geom.kernel, geom.stride, geom.pad);
    let mut image = vec![0.0f32; c * h * w];
    let mut row = 0usize;
    for oy in 0..oh {
        for ox in 0..ow {
            let base = row * geom.patch_len();
            let iy0 = (oy * s) as isize - p as isize;
            let ix0 = (ox * s) as isize - p as isize;
            let mut col = 0usize;
            for ch in 0..c {
                for ky in 0..k {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        col += k;
                        continue;
                    }
                    let rowbase = ch * h * w + iy as usize * w;
                    for kx in 0..k {
                        let ix = ix0 + kx as isize;
                        if ix >= 0 && ix < w as isize {
                            image[rowbase + ix as usize] += data[base + col];
                        }
                        col += 1;
                    }
                }
            }
            row += 1;
        }
    }
    image
}
#[cfg(test)]
mod tests {
    use super::*;

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
    fn output_sizes() {
        let g = geom(3, 8, 8, 3, 1, 1);
        assert_eq!((g.out_height(), g.out_width()), (8, 8));
        let g = geom(3, 8, 8, 3, 2, 1);
        assert_eq!((g.out_height(), g.out_width()), (4, 4));
        let g = geom(1, 5, 5, 5, 1, 0);
        assert_eq!((g.out_height(), g.out_width()), (1, 1));
    }

    #[test]
    fn identity_kernel_extracts_pixels() {
        // 1x1 kernel, stride 1, no pad: patch matrix is the image itself.
        let img: Vec<f32> = (0..9).map(|x| x as f32).collect();
        let g = geom(1, 3, 3, 1, 1, 0);
        let cols = im2col(&img, &g);
        assert_eq!(cols.dims(), &[9, 1]);
        assert_eq!(cols.data(), img.as_slice());
    }

    #[test]
    fn patches_are_correct_with_padding() {
        // 2x2 image, 3x3 kernel, pad 1 -> 4 patches centred on each pixel.
        let img = vec![1.0, 2.0, 3.0, 4.0];
        let g = geom(1, 2, 2, 3, 1, 1);
        let cols = im2col(&img, &g);
        assert_eq!(cols.dims(), &[4, 9]);
        // Patch at output (0,0): padded neighbourhood of pixel (0,0).
        assert_eq!(
            cols.row_slice(0),
            &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0]
        );
        // Patch at output (1,1): neighbourhood of pixel (1,1).
        assert_eq!(
            cols.row_slice(3),
            &[1.0, 2.0, 0.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn multi_channel_layout() {
        // Two channels: patch columns are channel-major then ky, kx.
        let img = vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let g = geom(2, 2, 2, 2, 1, 0);
        let cols = im2col(&img, &g);
        assert_eq!(cols.dims(), &[1, 8]);
        assert_eq!(
            cols.row_slice(0),
            &[1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0]
        );
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let g = geom(2, 5, 4, 3, 2, 1);
        let n = g.in_channels * g.height * g.width;
        let x: Vec<f32> = (0..n).map(|i| ((i * 7 + 3) % 11) as f32 - 5.0).collect();
        let cols = im2col(&x, &g);
        let ylen = cols.len();
        let y = Tensor::from_vec(
            (0..ylen).map(|i| ((i * 5 + 1) % 13) as f32 - 6.0).collect(),
            cols.dims(),
        );
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &g);
        let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn im2col_into_overwrites_stale_scratch() {
        let img = vec![1.0, 2.0, 3.0, 4.0];
        let g = geom(1, 2, 2, 3, 1, 1);
        let fresh = im2col(&img, &g);
        let mut scratch = vec![9.9f32; fresh.len()];
        im2col_into(&img, &g, &mut scratch);
        assert_eq!(scratch.as_slice(), fresh.data());
    }

    #[test]
    #[should_panic(expected = "kernel larger")]
    fn rejects_kernel_larger_than_input() {
        im2col(&[0.0; 4], &geom(1, 2, 2, 5, 1, 0));
    }

    /// The batch panel layout built element by element from per-image
    /// [`im2col`]: column `i·H'W' + j`, zero past the batch.
    fn panels_from_im2col(images: &[f32], g: &Conv2dGeometry) -> Vec<u32> {
        let (pc, plen, nr) = (g.patch_count(), g.patch_len(), PANEL_WIDTH);
        let ilen = g.in_channels * g.height * g.width;
        let mut want = vec![0.0f32; g.panels_len(images.len() / ilen)];
        for (i, image) in images.chunks_exact(ilen).enumerate() {
            let cols = im2col(image, g);
            for j in 0..pc {
                let c = i * pc + j;
                for p in 0..plen {
                    want[(c / nr) * plen * nr + p * nr + c % nr] = cols.at(&[j, p]);
                }
            }
        }
        want.iter().map(|v| v.to_bits()).collect()
    }

    fn test_images(n: usize, g: &Conv2dGeometry) -> Vec<f32> {
        let len = n * g.in_channels * g.height * g.width;
        (0..len).map(|i| (i as f32 * 0.31).sin()).collect()
    }

    #[test]
    fn batch_panel_writer_matches_im2col_on_ragged_layouts() {
        for (g, batches) in [
            (geom(1, 8, 8, 3, 1, 1), &[1, 3][..]), // ow = 8: unit-stride fast path
            (geom(3, 16, 16, 3, 1, 1), &[2]),      // ow = 16: two panels per row
            (geom(2, 4, 4, 3, 1, 1), &[1, 3]),     // ow = 4: panels span two rows
            (geom(4, 2, 2, 3, 1, 1), &[1, 2, 3]),  // 4 patches: two images per panel
            (geom(2, 3, 3, 3, 1, 1), &[1, 3, 5]),  // 9 patches: images straddle panels
            (geom(2, 4, 4, 3, 2, 1), &[3]),        // stride 2, 2×2 output
            (geom(2, 16, 16, 3, 2, 1), &[3]),      // stride 2 → ow = 8, strided reads
            (geom(8, 8, 8, 1, 2, 0), &[1, 3]),     // 1×1 stride-2 projection
            (geom(1, 8, 8, 1, 1, 0), &[3]),        // 1×1 on the fast path
            (geom(2, 9, 9, 5, 1, 2), &[3]),        // big kernel, heavy clipping
            (geom(2, 3, 3, 3, 1, 1), &[200]),      // several chunks, split mid-image
            (geom(3, 8, 8, 3, 1, 1), &[32]),       // several chunks on the fast path
        ] {
            for &n in batches {
                let images = test_images(n, &g);
                let mut got = vec![0.0f32; g.panels_len(n)];
                im2col_batch_panels_into(&images, &g, &mut got);
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, panels_from_im2col(&images, &g), "{g:?} batch {n}");
            }
        }
    }

    #[test]
    fn odd_batch_leaves_a_zero_padded_tail_panel() {
        // 3 images × 4 patches = 12 columns: the second panel holds 4
        // real columns and 4 padding columns, which must read zero.
        let g = geom(2, 2, 2, 3, 1, 1);
        assert_eq!(g.panels_len(3), 2 * PANEL_WIDTH * g.patch_len());
        let images: Vec<f32> = test_images(3, &g).iter().map(|v| v + 2.0).collect();
        let mut panels = vec![9.9f32; g.panels_len(3)];
        im2col_batch_panels_into(&images, &g, &mut panels);
        let tail = &panels[PANEL_WIDTH * g.patch_len()..];
        for (p, row) in tail.chunks_exact(PANEL_WIDTH).enumerate() {
            assert!(row[..4].iter().any(|&v| v != 0.0), "tap {p}: real columns");
            assert_eq!(&row[4..], &[0.0; 4], "tap {p}: padding columns");
        }
    }

    #[test]
    fn batch_panel_writer_overwrites_stale_scratch() {
        for g in [geom(1, 8, 8, 3, 1, 1), geom(2, 3, 3, 3, 2, 1)] {
            let images = test_images(3, &g);
            let mut fresh = vec![0.0f32; g.panels_len(3)];
            im2col_batch_panels_into(&images, &g, &mut fresh);
            let mut scratch = vec![9.9f32; fresh.len()];
            im2col_batch_panels_into(&images, &g, &mut scratch);
            assert_eq!(scratch, fresh, "{g:?}");
        }
    }

    #[test]
    #[should_panic(expected = "panel buffer size")]
    fn batch_panel_writer_rejects_a_short_buffer() {
        let g = geom(1, 3, 3, 3, 1, 1);
        let mut panels = vec![0.0f32; g.patch_count() * g.patch_len()];
        im2col_batch_panels_into(&[0.0; 9], &g, &mut panels);
    }

    #[test]
    fn direct_conv_is_bit_identical_to_lowered_gemm() {
        // The direct path claims exact equality with im2col + GEMM on
        // every geometry class it serves: unit and non-unit stride,
        // padded and unpadded, 1×1 through 5×5 kernels, outputs that are
        // and are not whole GEMM panels — and with both the wide and the
        // portable micro-kernel on each side of the comparison.
        for g in [
            geom(3, 16, 16, 3, 1, 1), // the ResNet stem shape
            geom(8, 16, 16, 3, 1, 1), // in-stage 3×3
            geom(8, 16, 16, 3, 2, 1), // downsampling 3×3
            geom(8, 16, 16, 1, 2, 0), // 1×1 stride-2 projection
            geom(2, 8, 8, 3, 1, 1),   // W' = 8: four-row register blocks
            geom(1, 24, 24, 3, 1, 1), // W' = 24: mixed double/single blocks
            geom(2, 9, 9, 5, 1, 2),   // big kernel, heavy clipping
            geom(1, 5, 7, 3, 1, 0),   // no pad, non-square, odd width
            geom(2, 4, 4, 3, 3, 1),   // stride > kernel reach
        ] {
            let ilen = g.in_channels * g.height * g.width;
            let img: Vec<f32> = (0..ilen)
                .map(|i| {
                    if i % 7 == 0 {
                        0.0
                    } else {
                        (i as f32 * 0.37).sin()
                    }
                })
                .collect();
            let out_ch = 4;
            let plen = g.patch_len();
            let wts: Vec<f32> = (0..out_ch * plen)
                .map(|i| (i as f32 * 0.53).cos())
                .collect();
            let osp = g.patch_count();
            let cols = im2col(&img, &g);
            let mut want = vec![0.0f32; out_ch * osp];
            crate::matmul::gemm_nt_into(&wts, cols.data(), &mut want, plen, osp);
            for force_scalar in [false, true] {
                crate::matmul::set_force_scalar_kernel(force_scalar);
                let mut got = vec![7.7f32; out_ch * osp];
                conv2d_direct_into(&img, &wts, &mut got, &g);
                crate::matmul::set_force_scalar_kernel(false);
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{g:?} force_scalar={force_scalar}: element {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// Geometries for the backward kernels: channel counts that are and
    /// are not whole vectors, odd planes, stride 2, 1×1 and big kernels.
    fn backward_geometries() -> Vec<(Conv2dGeometry, usize)> {
        vec![
            (geom(3, 8, 8, 3, 1, 1), 8),   // the stem: 3 input channels
            (geom(4, 8, 8, 3, 1, 1), 4),   // 4-channel layers
            (geom(12, 7, 7, 3, 2, 1), 3),  // odd plane, stride 2
            (geom(8, 8, 8, 1, 2, 0), 12),  // 1×1 stride-2 projection
            (geom(3, 7, 7, 1, 2, 0), 4),   // 1×1 stride 2 on an odd plane
            (geom(16, 4, 4, 3, 2, 1), 32), // 2×2 output: images share panels
            (geom(2, 9, 9, 5, 1, 2), 9),   // big kernel, heavy clipping
            (geom(2, 4, 4, 3, 3, 1), 5),   // stride larger than the reach
        ]
    }

    /// Output gradients with `+0.0` and `-0.0` sprinkled in and one image
    /// of all `-0.0`, so a sum that does not start from `+0.0` shows.
    fn test_grads(n: usize, len: usize) -> Vec<f32> {
        (0..n * len)
            .map(|i| match (i / len, i % 5) {
                (1, _) => -0.0,
                (_, 0) => 0.0,
                (_, 1) => -0.0,
                _ => (i as f32 * 0.17).cos(),
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn weight_grad_matches_per_image_im2col_matmul() {
        // `dw += Σ_i G_i · im2col(x_i)`, the partials added in image
        // order, bit for bit, onto a non-zero accumulator.
        for (g, oc) in backward_geometries() {
            let (osp, plen) = (g.patch_count(), g.patch_len());
            for n in [1, 3, 5] {
                let images = test_images(n, &g);
                let ilen = images.len() / n;
                let mut panels = vec![0.0f32; g.panels_len(n)];
                im2col_batch_panels_into(&images, &g, &mut panels);
                let grad = test_grads(n, oc * osp);
                let init: Vec<f32> = (0..oc * plen).map(|i| (i as f32 * 0.7).sin()).collect();
                let mut want = init.clone();
                for i in 0..n {
                    let gi =
                        Tensor::from_vec(grad[i * oc * osp..][..oc * osp].to_vec(), &[oc, osp]);
                    let part = gi.matmul(&im2col(&images[i * ilen..][..ilen], &g));
                    for (w, &v) in want.iter_mut().zip(part.data()) {
                        *w += v;
                    }
                }
                for force_scalar in [false, true] {
                    crate::matmul::set_force_scalar_kernel(force_scalar);
                    let mut got = init.clone();
                    conv2d_weight_grad_into(&grad, &panels, &g, &mut got);
                    crate::matmul::set_force_scalar_kernel(false);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{g:?} O={oc} batch {n} scalar {force_scalar}"
                    );
                }
            }
        }
    }

    #[test]
    fn input_grad_matches_matmul_tn_then_col2im() {
        // `dx_i = col2im(G_iᵀ · W)` bit for bit, into a stale buffer.
        for (g, oc) in backward_geometries() {
            let (osp, plen) = (g.patch_count(), g.patch_len());
            let ilen = g.in_channels * g.height * g.width;
            let w: Vec<f32> = (0..oc * plen).map(|i| (i as f32 * 0.53).cos()).collect();
            let wt = Tensor::from_vec(w.clone(), &[oc, plen]);
            for n in [1, 3, 5] {
                let grad = test_grads(n, oc * osp);
                let mut want = Vec::new();
                for i in 0..n {
                    let gi =
                        Tensor::from_vec(grad[i * oc * osp..][..oc * osp].to_vec(), &[oc, osp]);
                    want.extend(col2im(&gi.matmul_tn(&wt), &g));
                }
                for force_scalar in [false, true] {
                    crate::matmul::set_force_scalar_kernel(force_scalar);
                    let mut got = vec![f32::NAN; n * ilen];
                    conv2d_input_grad_into(&grad, &w, &g, &mut got);
                    crate::matmul::set_force_scalar_kernel(false);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{g:?} O={oc} batch {n} scalar {force_scalar}"
                    );
                }
            }
        }
    }
}
