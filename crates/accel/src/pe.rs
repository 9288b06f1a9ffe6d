//! A processing element (PE): SB + WDM + SSM + PEFU (Fig. 13/14).
//!
//! The executor ([`crate::exec`]) runs the `T_n` PEs of a group together,
//! fed by one NSM selection: each selected neuron meets one survivor row
//! of WDM-decoded weights, one weight per PE. The PEFU holds `T_m`
//! multipliers feeding a `T_m`-input adder tree, so a selection of `M`
//! neurons takes `⌈M / T_m⌉` cycles once its operands are supplied. This
//! module holds the nonlinear function unit at the PEFU's tail.

/// Nonlinear function unit at the PEFU tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Pass-through.
    None,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation.
    pub fn apply(&self, v: f32) -> f32 {
        match self {
            Activation::None => v,
            Activation::Relu => v.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activations() {
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::None.apply(-2.0), -2.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
    }
}
