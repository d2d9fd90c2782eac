//! Element-wise activation layers.

use crate::layer::Layer;
use eos_tensor::Tensor;

/// Rectified linear unit, `max(0, x)`.
#[derive(Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// New ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            // Reuse the previous batch's mask allocation.
            let mut mask = self.mask.take().unwrap_or_default();
            mask.clear();
            mask.extend(x.data().iter().map(|&v| v > 0.0));
            self.mask = Some(mask);
        }
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("Relu::backward before forward");
        assert_eq!(mask.len(), grad.len());
        let mut out = grad.clone();
        // A select, not a branch: the mask is data-dependent, and a
        // select vectorises.
        for (g, &m) in out.data_mut().iter_mut().zip(mask) {
            *g = if m { *g } else { 0.0 };
        }
        out
    }

    fn out_features(&self, in_features: usize) -> usize {
        in_features
    }
}

/// Leaky ReLU, `x if x > 0 else alpha * x` — used by the GAN baselines'
/// discriminators.
pub struct LeakyRelu {
    alpha: f32,
    mask: Option<Vec<bool>>,
}

impl LeakyRelu {
    /// Leaky ReLU with the given negative slope.
    pub fn new(alpha: f32) -> Self {
        assert!(alpha >= 0.0);
        LeakyRelu { alpha, mask: None }
    }
}

impl Layer for LeakyRelu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            // Reuse the previous batch's mask allocation.
            let mut mask = self.mask.take().unwrap_or_default();
            mask.clear();
            mask.extend(x.data().iter().map(|&v| v > 0.0));
            self.mask = Some(mask);
        }
        let a = self.alpha;
        x.map(|v| if v > 0.0 { v } else { a * v })
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("LeakyRelu::backward before forward");
        // Without this check a stale mask from a different batch size
        // would zip-truncate and leave the tail at the positive slope.
        assert_eq!(mask.len(), grad.len());
        let mut out = grad.clone();
        let a = self.alpha;
        for (g, &m) in out.data_mut().iter_mut().zip(mask) {
            *g = if m { *g } else { *g * a };
        }
        out
    }

    fn out_features(&self, in_features: usize) -> usize {
        in_features
    }
}

/// Hyperbolic tangent — used by the GAN generators' output layer.
#[derive(Default)]
pub struct Tanh {
    cache_y: Option<Tensor>,
}

impl Tanh {
    /// New tanh layer.
    pub fn new() -> Self {
        Tanh { cache_y: None }
    }
}

impl Layer for Tanh {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = x.map(f32::tanh);
        if train {
            self.cache_y = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let y = self
            .cache_y
            .as_ref()
            .expect("Tanh::backward before forward");
        grad.zip(y, |g, t| g * (1.0 - t * t))
    }

    fn out_features(&self, in_features: usize) -> usize {
        in_features
    }
}

/// Logistic sigmoid — used by the GAN discriminators' output.
#[derive(Default)]
pub struct Sigmoid {
    cache_y: Option<Tensor>,
}

impl Sigmoid {
    /// New sigmoid layer.
    pub fn new() -> Self {
        Sigmoid { cache_y: None }
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = x.map(|v| 1.0 / (1.0 + (-v).exp()));
        if train {
            self.cache_y = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let y = self
            .cache_y
            .as_ref()
            .expect("Sigmoid::backward before forward");
        grad.zip(y, |g, s| g * s * (1.0 - s))
    }

    fn out_features(&self, in_features: usize) -> usize {
        in_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_tensor::{central_difference, rel_error};

    fn gradcheck_activation(mut make: impl FnMut() -> Box<dyn Layer>, lo: f32, hi: f32) {
        let x = Tensor::from_vec(vec![lo, -0.9, -0.1, 0.1, 0.7, hi, 1.3, -2.0], &[2, 4]);
        let c = Tensor::from_vec(vec![0.3, -1.0, 0.8, 0.5, -0.2, 1.0, -0.7, 0.4], &[2, 4]);
        let mut layer = make();
        let _ = layer.forward(&x, true);
        let dx = layer.backward(&c);
        let ndx = central_difference(&x, 1e-3, |p| make().forward(p, false).dot(&c));
        assert!(rel_error(&dx, &ndx) < 1e-2, "activation gradcheck failed");
    }

    #[test]
    fn relu_forward_clamps() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]), false);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradcheck() {
        gradcheck_activation(|| Box::new(Relu::new()), -1.5, 2.0);
    }

    #[test]
    fn leaky_relu_gradcheck() {
        gradcheck_activation(|| Box::new(LeakyRelu::new(0.2)), -1.5, 2.0);
    }

    #[test]
    #[should_panic]
    fn leaky_relu_rejects_stale_mask_from_a_smaller_batch() {
        // A mask cached for 2 rows must not silently zip-truncate against
        // a 3-row gradient (the tail would keep the positive slope).
        let mut l = LeakyRelu::new(0.2);
        let _ = l.forward(&Tensor::from_vec(vec![-1.0, 1.0], &[1, 2]), true);
        let _ = l.backward(&Tensor::from_vec(vec![1.0; 6], &[3, 2]));
    }

    #[test]
    fn tanh_gradcheck() {
        gradcheck_activation(|| Box::new(Tanh::new()), -1.5, 1.5);
    }

    #[test]
    fn sigmoid_gradcheck() {
        gradcheck_activation(|| Box::new(Sigmoid::new()), -2.0, 2.0);
    }

    #[test]
    fn sigmoid_range() {
        let mut s = Sigmoid::new();
        let y = s.forward(&Tensor::from_vec(vec![-50.0, 0.0, 50.0], &[3]), false);
        assert!(y.data()[0] < 1e-6);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn leaky_relu_negative_slope() {
        let mut l = LeakyRelu::new(0.1);
        let y = l.forward(&Tensor::from_vec(vec![-10.0, 10.0], &[2]), false);
        assert_eq!(y.data(), &[-1.0, 10.0]);
    }
}
