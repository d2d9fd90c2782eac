//! The dense `f32` tensor type.

use crate::scratch;
use crate::shape::Shape;
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
///
/// Every tensor owns its buffer; operations either consume `self` or
/// produce a fresh result. In-place variants are provided for the hot
/// paths the training loop uses (`add_assign_`, `scale_`, ...).
///
/// Buffers are recycled through [`crate::scratch`]: dropping a tensor
/// parks its allocation in a global pool and constructing one reuses a
/// pooled buffer when a compatible size is available. After a warm-up
/// iteration, tensor-heavy loops (the training step in particular) stop
/// touching the system allocator entirely.
#[derive(PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            data: scratch::take_copy(&self.data),
            shape: self.shape,
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        scratch::give(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Wraps an existing buffer. Panics if `data.len()` does not match the
    /// element count implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer of {} elements cannot have shape {shape}",
            data.len()
        );
        Tensor { data, shape }
    }

    /// All-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::full(dims, 0.0)
    }

    /// All-ones tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Tensor filled with a constant.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: scratch::take_filled(shape.len(), value),
            shape,
        }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// `[0, 1, 2, ..., n-1]` as a rank-1 tensor.
    pub fn arange(n: usize) -> Self {
        let mut data = scratch::take_cleared(n);
        data.extend((0..n).map(|i| i as f32));
        Tensor::from_vec(data, &[n])
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Size of axis `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.shape.dim(i)
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat buffer (the buffer is *not*
    /// returned to the scratch pool — the caller owns it now).
    pub fn into_vec(self) -> Vec<f32> {
        let mut t = std::mem::ManuallyDrop::new(self);
        std::mem::take(&mut t.data)
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reinterprets the buffer under a new shape with the same element
    /// count. Panics on mismatch.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.len(),
            self.len(),
            "cannot reshape {} elements to {shape}",
            self.len()
        );
        Tensor {
            data: scratch::take_copy(&self.data),
            shape,
        }
    }

    /// In-place reshape (no copy). Panics on element-count mismatch.
    pub fn reshape_(&mut self, dims: &[usize]) {
        let shape = Shape::new(dims);
        assert_eq!(shape.len(), self.len());
        self.shape = shape;
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose requires a matrix");
        let (r, c) = (self.dim(0), self.dim(1));
        let mut out = scratch::take_filled(r * c, 0.0);
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec(out, &[c, r])
    }

    /// Copies row `i` of a rank-2 tensor into a rank-1 tensor.
    pub fn row(&self, i: usize) -> Tensor {
        assert_eq!(self.rank(), 2);
        let c = self.dim(1);
        Tensor::from_vec(scratch::take_copy(&self.data[i * c..(i + 1) * c]), &[c])
    }

    /// Borrow of row `i` of a rank-2 tensor.
    pub fn row_slice(&self, i: usize) -> &[f32] {
        assert_eq!(self.rank(), 2);
        let c = self.dim(1);
        &self.data[i * c..(i + 1) * c]
    }

    /// Stacks rank-1 tensors (all of equal length) into a rank-2 tensor.
    pub fn stack_rows(rows: &[Tensor]) -> Tensor {
        assert!(!rows.is_empty(), "cannot stack zero rows");
        let c = rows[0].len();
        let mut data = scratch::take_cleared(rows.len() * c);
        for r in rows {
            assert_eq!(r.len(), c, "ragged rows in stack_rows");
            data.extend_from_slice(r.data());
        }
        Tensor::from_vec(data, &[rows.len(), c])
    }

    /// Concatenates rank-2 tensors along axis 0 (they must share axis 1).
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let c = parts[0].dim(1);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let mut data = scratch::take_cleared(total);
        let mut rows = 0;
        for p in parts {
            assert_eq!(p.rank(), 2);
            assert_eq!(p.dim(1), c, "column mismatch in concat_rows");
            data.extend_from_slice(p.data());
            rows += p.dim(0);
        }
        Tensor::from_vec(data, &[rows, c])
    }

    /// Gathers the given rows of a rank-2 tensor into a new rank-2 tensor.
    pub fn select_rows(&self, indices: &[usize]) -> Tensor {
        assert_eq!(self.rank(), 2);
        let c = self.dim(1);
        let mut data = scratch::take_cleared(indices.len() * c);
        for &i in indices {
            data.extend_from_slice(self.row_slice(i));
        }
        Tensor::from_vec(data, &[indices.len(), c])
    }

    // ------------------------------------------------------------------
    // Element-wise maps
    // ------------------------------------------------------------------

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = scratch::take_cleared(self.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor {
            data,
            shape: self.shape,
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shape tensors element-wise.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in zip");
        let mut data = scratch::take_cleared(self.len());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Tensor {
            data,
            shape: self.shape,
        }
    }

    // ------------------------------------------------------------------
    // Arithmetic (allocating)
    // ------------------------------------------------------------------

    /// Element-wise sum of same-shape tensors.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference of same-shape tensors.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product of same-shape tensors.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Adds a rank-1 tensor to every row of a rank-2 tensor.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2);
        assert_eq!(row.len(), self.dim(1), "broadcast width mismatch");
        let c = self.dim(1);
        let mut out = self.clone();
        for r in out.data.chunks_exact_mut(c) {
            for (x, &b) in r.iter_mut().zip(row.data()) {
                *x += b;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Arithmetic (in place)
    // ------------------------------------------------------------------

    /// `self += other` element-wise.
    pub fn add_assign_(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_assign_");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self -= other` element-wise.
    pub fn sub_assign_(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in sub_assign_");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// `self += alpha * other` element-wise (axpy).
    pub fn axpy_(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in axpy_");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// `self *= s`.
    pub fn scale_(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_(&mut self, value: f32) {
        self.data.fill(value);
    }

    // ------------------------------------------------------------------
    // Scalar reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest element. Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(!self.data.is_empty(), "max of empty tensor");
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element. Panics on an empty tensor.
    pub fn min(&self) -> f32 {
        assert!(!self.data.is_empty(), "min of empty tensor");
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Euclidean (L2) norm of the whole tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Dot product of two same-shape tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "length mismatch in dot");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Index of the largest element of a rank-1 tensor.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty());
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// FNV-1a digest over the exact bit patterns of the elements (shape
    /// included), for golden-determinism gates: two tensors digest equal
    /// iff they are bit-for-bit identical, including NaN payloads and
    /// signed zeros that `==` would conflate.
    pub fn bits_digest(&self) -> u64 {
        let mut h = eos_trace::codec::Fnv::new();
        for &d in self.dims() {
            h.u64(d as u64);
        }
        for &x in &self.data {
            h.f32(x);
        }
        h.finish()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 16 {
            write!(f, "Tensor({}, {:?})", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor({}, [{:.4}, {:.4}, ... {} elems])",
                self.shape,
                self.data[0],
                self.data[1],
                self.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.dims(), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot have shape")]
    fn from_vec_rejects_bad_len() {
        Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn bits_digest_separates_values_shapes_and_signed_zero() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.bits_digest(), a.clone().bits_digest());
        assert_ne!(a.bits_digest(), a.reshape(&[4]).bits_digest());
        let mut b = a.clone();
        b.data_mut()[3] = 4.0 + 1e-6;
        assert_ne!(a.bits_digest(), b.bits_digest());
        // -0.0 == 0.0 but the bit patterns differ; the digest must see it.
        let z = Tensor::from_vec(vec![0.0], &[1]);
        let nz = Tensor::from_vec(vec![-0.0], &[1]);
        assert_ne!(z.bits_digest(), nz.bits_digest());
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[1, 2]), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.dot(&b), 13.0);
    }

    #[test]
    fn in_place_ops() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        a.axpy_(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.scale_(2.0);
        assert_eq!(a.data(), &[12.0, 24.0]);
        a.fill_(0.0);
        assert_eq!(a.data(), &[0.0, 0.0]);
    }

    #[test]
    fn row_ops() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[3, 2]);
        assert_eq!(t.row(1).data(), &[2.0, 3.0]);
        let s = t.select_rows(&[2, 0]);
        assert_eq!(s.data(), &[4.0, 5.0, 0.0, 1.0]);
        let stacked = Tensor::stack_rows(&[t.row(0), t.row(2)]);
        assert_eq!(stacked.dims(), &[2, 2]);
        assert_eq!(stacked.data(), &[0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn concat_rows_works() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]);
        let c = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn broadcast_row_addition() {
        let m = Tensor::zeros(&[2, 3]);
        let r = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let out = m.add_row_broadcast(&r);
        assert_eq!(out.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![3.0, -1.0, 2.0], &[3]);
        assert_eq!(t.sum(), 4.0);
        assert!((t.mean() - 4.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -1.0);
        assert_eq!(t.argmax(), 0);
        assert!((t.norm() - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn finite_detection() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.all_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn into_vec_detaches_the_buffer() {
        // `into_vec` must hand the buffer out rather than recycling it, so
        // mutating the vec afterwards is sound and the contents survive.
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let mut v = t.into_vec();
        v.push(4.0);
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn recycled_construction_is_always_clean() {
        // Drop a poisoned tensor, then build fresh ones of the same size:
        // whatever buffer the pool hands back must show no stale values.
        for _ in 0..4 {
            let poison = Tensor::full(&[64], f32::NAN);
            drop(poison);
            let z = Tensor::zeros(&[64]);
            assert!(z.data().iter().all(|&x| x == 0.0));
            let o = Tensor::ones(&[60]);
            assert!(o.data().iter().all(|&x| x == 1.0));
        }
    }

    #[test]
    fn golden_bits_digest() {
        let a = Tensor::from_vec(vec![1.0, -0.0, f32::NAN, 4.5], &[2, 2]);
        assert_eq!(a.bits_digest(), 0x8393c20bef4501f5);
        assert_eq!(Tensor::zeros(&[0]).bits_digest(), 0xa8c7f832281a39c5);
    }
}
