//! The labelled image dataset type.

use eos_tensor::{Rng64, Tensor};

/// A labelled image dataset: one flat `C·H·W` row per sample.
#[derive(Clone)]
pub struct Dataset {
    /// Samples, `(n, C·H·W)`.
    pub x: Tensor,
    /// Class labels, one per row of `x`.
    pub y: Vec<usize>,
    /// Image shape `(C, H, W)`.
    pub shape: (usize, usize, usize),
    /// Number of classes (labels are `0..num_classes`).
    pub num_classes: usize,
}

impl Dataset {
    /// Wraps samples and labels. Panics on inconsistent sizes or labels.
    pub fn new(x: Tensor, y: Vec<usize>, shape: (usize, usize, usize), num_classes: usize) -> Self {
        assert_eq!(x.rank(), 2, "samples must be (n, features)");
        assert_eq!(x.dim(0), y.len(), "sample/label count mismatch");
        let (c, h, w) = shape;
        assert_eq!(x.dim(1), c * h * w, "row width does not match image shape");
        assert!(y.iter().all(|&l| l < num_classes), "label out of range");
        Dataset {
            x,
            y,
            shape,
            num_classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Flat feature width `C·H·W`.
    pub fn feature_len(&self) -> usize {
        self.x.dim(1)
    }

    /// Samples per class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.y {
            counts[l] += 1;
        }
        counts
    }

    /// Imbalance ratio: largest class count over smallest (∞-free: panics
    /// if a class is empty).
    pub fn imbalance_ratio(&self) -> f64 {
        let counts = self.class_counts();
        let max = *counts.iter().max().expect("no classes");
        let min = *counts.iter().min().expect("no classes");
        assert!(min > 0, "imbalance ratio undefined with an empty class");
        max as f64 / min as f64
    }

    /// Row indices of the given class.
    pub fn indices_of_class(&self, class: usize) -> Vec<usize> {
        self.y
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| (l == class).then_some(i))
            .collect()
    }

    /// New dataset containing only the given rows.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            shape: self.shape,
            num_classes: self.num_classes,
        }
    }

    /// Shuffles samples in place (keeping labels aligned).
    pub fn shuffle(&mut self, rng: &mut Rng64) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut order);
        self.x = self.x.select_rows(&order);
        self.y = order.iter().map(|&i| self.y[i]).collect();
    }

    /// Concatenates two datasets with identical shape and class space.
    pub fn concat(&self, other: &Dataset) -> Dataset {
        assert_eq!(self.shape, other.shape, "image shape mismatch");
        assert_eq!(self.num_classes, other.num_classes, "class space mismatch");
        let mut y = self.y.clone();
        y.extend_from_slice(&other.y);
        Dataset {
            x: Tensor::concat_rows(&[&self.x, &other.x]),
            y,
            shape: self.shape,
            num_classes: self.num_classes,
        }
    }

    /// Per-feature standardisation statistics (mean, std) of this set.
    pub fn feature_stats(&self) -> (Tensor, Tensor) {
        let mean = self.x.mean_rows();
        let std = self.x.var_rows().map(|v| v.sqrt().max(1e-6));
        (mean, std)
    }

    /// Content fingerprint: FNV-1a over the class space, image shape,
    /// labels and the exact bit patterns of every sample. Two datasets
    /// fingerprint equal iff they would drive a training run identically,
    /// which is what lets downstream caches be content-addressed rather
    /// than name-addressed.
    pub fn fingerprint(&self) -> u64 {
        let mut h = eos_trace::codec::Fnv::new();
        h.u64(self.num_classes as u64)
            .u64(self.shape.0 as u64)
            .u64(self.shape.1 as u64)
            .u64(self.shape.2 as u64)
            .u64(self.y.len() as u64);
        for &l in &self.y {
            h.u64(l as u64);
        }
        for &v in self.x.data() {
            h.f32(v);
        }
        h.finish()
    }

    /// Standardises features in place with the given statistics (use the
    /// *training* set's stats for both train and test, as the paper's
    /// normalised-input assumption requires).
    pub fn standardize(&mut self, mean: &Tensor, std: &Tensor) {
        assert_eq!(mean.len(), self.feature_len());
        assert_eq!(std.len(), self.feature_len());
        let width = self.feature_len();
        let (m, s) = (mean.data(), std.data());
        for row in self.x.data_mut().chunks_exact_mut(width) {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (*v - m[j]) / s[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let x = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[6, 2]);
        Dataset::new(x, vec![0, 0, 0, 1, 1, 2], (1, 1, 2), 3)
    }

    #[test]
    fn counts_and_ratio() {
        let d = toy();
        assert_eq!(d.class_counts(), vec![3, 2, 1]);
        assert!((d.imbalance_ratio() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn class_indices_and_subset() {
        let d = toy();
        assert_eq!(d.indices_of_class(1), vec![3, 4]);
        let s = d.subset(&[5, 0]);
        assert_eq!(s.y, vec![2, 0]);
        assert_eq!(s.x.row_slice(0), &[10.0, 11.0]);
    }

    #[test]
    fn shuffle_preserves_pairs() {
        let mut d = toy();
        d.shuffle(&mut Rng64::new(1));
        for i in 0..d.len() {
            // Original pairing: row [2k, 2k+1] has label determined by k.
            let first = d.x.row_slice(i)[0] as usize / 2;
            let expected = match first {
                0..=2 => 0,
                3 | 4 => 1,
                _ => 2,
            };
            assert_eq!(d.y[i], expected);
        }
    }

    #[test]
    fn standardize_zeroes_mean() {
        let mut d = toy();
        let (mean, std) = d.feature_stats();
        d.standardize(&mean, &std);
        let new_mean = d.x.mean_rows();
        assert!(new_mean.data().iter().all(|m| m.abs() < 1e-5));
        let new_var = d.x.var_rows();
        assert!(new_var.data().iter().all(|v| (v - 1.0).abs() < 1e-4));
    }

    #[test]
    fn concat_stacks() {
        let d = toy();
        let both = d.concat(&d);
        assert_eq!(both.len(), 12);
        assert_eq!(both.class_counts(), vec![6, 4, 2]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        Dataset::new(Tensor::zeros(&[1, 2]), vec![5], (1, 1, 2), 3);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let d = toy();
        assert_eq!(d.fingerprint(), toy().fingerprint(), "deterministic");
        let mut labels_differ = toy();
        labels_differ.y[0] = 1;
        assert_ne!(d.fingerprint(), labels_differ.fingerprint());
        let mut pixels_differ = toy();
        pixels_differ.x.data_mut()[3] += 1.0;
        assert_ne!(d.fingerprint(), pixels_differ.fingerprint());
        // Reordering rows changes the fingerprint too: training consumes
        // rows in order, so order is part of the content.
        let reordered = d.subset(&[1, 0, 2, 3, 4, 5]);
        assert_ne!(d.fingerprint(), reordered.fingerprint());
    }

    #[test]
    fn golden_fingerprint() {
        let mut spec = crate::SynthSpec::celeba_like(1);
        spec.n_max_train = 30;
        spec.n_test_per_class = 8;
        let (train, test) = spec.generate(17);
        assert_eq!(train.fingerprint(), 0xf2e0426f53c56c9b);
        assert_eq!(test.fingerprint(), 0x353d5c3b099ba28f);
        assert_eq!(toy().fingerprint(), 0x83c7235fbf458d4d);
    }
}
