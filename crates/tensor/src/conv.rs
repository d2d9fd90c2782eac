//! `im2col`/`col2im` lowering used by the convolution layers.
//!
//! A convolution over an `N×C×H×W` batch with `K×K` kernels, stride `s` and
//! padding `p` is computed as a GEMM between the unfolded input patches
//! and the flattened weight matrix. The layers unfold a whole batch
//! straight into the GEMM's panel-packed layout
//! ([`im2col_batch_panels_into`]); the row-major per-image [`im2col`] is
//! the reference it is tested against. `col2im` is the adjoint
//! (scatter-add) used in the backward pass.

use crate::matmul::PANEL_WIDTH;
use crate::tensor::Tensor;

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
    let mut padded = crate::scratch::take_zeroed(c * ph * pw);
    for ch in 0..c {
        let plane = &image[ch * h * w..(ch + 1) * h * w];
        let dst = &mut padded[ch * ph * pw..];
        for y in 0..h {
            dst[(y + geom.pad) * pw + geom.pad..][..w].copy_from_slice(&plane[y * w..][..w]);
        }
    }
    #[cfg(target_arch = "x86_64")]
    if !crate::matmul::force_scalar_kernel() && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the avx2 requirement was just checked at runtime.
        unsafe {
            conv2d_direct_avx2(&padded, weight, out, geom);
        }
        crate::scratch::give(padded);
        return;
    }
    conv2d_direct_kernel(&padded, weight, out, geom);
    crate::scratch::give(padded);
}

/// Output columns one direct-conv accumulator block spans: one full
/// AVX2 `f32` vector per block keeps the whole block in registers across
/// the tap reduction.
const DIRECT_LANES: usize = 8;

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
/// stride with `W'` a whole number of [`DIRECT_LANES`] blocks, each
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
    let fast = s == 1 && ow % DIRECT_LANES == 0;
    for (o, oplane) in out.chunks_exact_mut(osp).enumerate() {
        let wrow = &weight[o * plen..][..plen];
        // Four vector accumulators per block (the same register budget
        // as the GEMM micro-kernel's 4×8 tile) so one weight broadcast
        // feeds four vectors' worth of columns: wide planes take two
        // 16-column rows per block, vector-narrow planes four 8-column
        // rows. Adjacent output rows are contiguous in the output plane;
        // their source rows are one padded row apart.
        if fast && ow == 2 * DIRECT_LANES && oh % 2 == 0 {
            for oy in (0..oh).step_by(2) {
                direct_block::<16, 2>(padded, wrow, oplane, oy, c, k, ph, pw);
            }
            continue;
        }
        if fast && ow == DIRECT_LANES && oh % 4 == 0 {
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
                while xb + 2 * DIRECT_LANES <= ow {
                    let mut acc = [0.0f32; 2 * DIRECT_LANES];
                    let mut pidx = 0usize;
                    for ch in 0..c {
                        let plane = &padded[ch * ph * pw..(ch + 1) * ph * pw];
                        for ky in 0..k {
                            let srow = &plane[(oy + ky) * pw..][..pw];
                            for kx in 0..k {
                                let wv = wrow[pidx];
                                pidx += 1;
                                let sv = &srow[xb + kx..][..2 * DIRECT_LANES];
                                for (a, &x) in acc.iter_mut().zip(sv) {
                                    *a += wv * x;
                                }
                            }
                        }
                    }
                    dst[xb..xb + 2 * DIRECT_LANES].copy_from_slice(&acc);
                    xb += 2 * DIRECT_LANES;
                }
                while xb < ow {
                    let mut acc = [0.0f32; DIRECT_LANES];
                    let mut pidx = 0usize;
                    for ch in 0..c {
                        let plane = &padded[ch * ph * pw..(ch + 1) * ph * pw];
                        for ky in 0..k {
                            let srow = &plane[(oy + ky) * pw..][..pw];
                            for kx in 0..k {
                                let wv = wrow[pidx];
                                pidx += 1;
                                let sv = &srow[xb + kx..][..DIRECT_LANES];
                                for (a, &x) in acc.iter_mut().zip(sv) {
                                    *a += wv * x;
                                }
                            }
                        }
                    }
                    dst[xb..xb + DIRECT_LANES].copy_from_slice(&acc);
                    xb += DIRECT_LANES;
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

/// Adjoint of [`im2col`]: scatter-adds a `(out_h*out_w) × (C*K*K)` patch
/// gradient back into a `C×H×W` image gradient buffer.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeometry) -> Vec<f32> {
    let mut image = vec![0.0f32; geom.in_channels * geom.height * geom.width];
    col2im_into(cols.data(), geom, &mut image);
    image
}

/// [`col2im`] into a caller-owned `C×H×W` buffer (fully overwritten), so
/// batch-parallel backward passes can scatter straight into their slice of
/// the input-gradient matrix.
pub fn col2im_into(cols: &[f32], geom: &Conv2dGeometry, image: &mut [f32]) {
    geom.check();
    let (c, h, w) = (geom.in_channels, geom.height, geom.width);
    let (oh, ow) = (geom.out_height(), geom.out_width());
    assert_eq!(cols.len(), oh * ow * geom.patch_len(), "cols size mismatch");
    assert_eq!(image.len(), c * h * w, "image buffer size mismatch");
    let (k, s, p) = (geom.kernel, geom.stride, geom.pad);
    let data = cols;
    image.fill(0.0);
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
}
