//! Runnable sequential networks with forward and backward passes.
//!
//! Only the *small trainable* models (MLP, LeNet-like, Cifar10-quick-like)
//! need to execute; the large zoo networks are handled at the shape level
//! by [`crate::spec`]. The forward pass here is also the functional ground
//! truth against which the accelerator simulators are validated.

use std::fmt;

use cs_tensor::ops::{self, Conv2dGeometry};
use cs_tensor::{Shape, Tensor, TensorError};

use crate::init::{self, ConvergenceProfile};
use crate::spec::{LayerSpecKind, NetworkSpec};

/// The computation performed by one [`Layer`].
#[derive(Debug, Clone, PartialEq)]
pub enum LayerKind {
    /// Fully-connected layer: `y = x · W + b` with `W: (n_in, n_out)`.
    FullyConnected {
        /// Weight matrix of shape `(n_in, n_out)`.
        weights: Tensor,
        /// Per-output bias.
        bias: Vec<f32>,
    },
    /// 2-D convolution with weights `(n_fin, n_fout, kx, ky)`.
    Conv2d {
        /// Weight tensor.
        weights: Tensor,
        /// Per-output-map bias.
        bias: Vec<f32>,
        /// Window geometry.
        geom: Conv2dGeometry,
    },
    /// Rectified linear unit.
    Relu,
    /// Max pooling.
    MaxPool {
        /// Window geometry.
        geom: Conv2dGeometry,
    },
    /// Reshape `(c, h, w)` activations into a flat vector.
    Flatten,
    /// Residual connection: adds the *output* of an earlier layer
    /// (`from`, 0-based index) to this layer's input — the ResNet
    /// shortcut. `from` must precede this layer and produce the same
    /// shape.
    Residual {
        /// Index of the layer whose output is added.
        from: usize,
    },
}

/// A named layer in a [`Network`].
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Layer name (used in reports and for per-layer masks).
    pub name: String,
    /// The layer's computation.
    pub kind: LayerKind,
}

impl Layer {
    /// Creates a named layer.
    pub fn new(name: impl Into<String>, kind: LayerKind) -> Self {
        Layer {
            name: name.into(),
            kind,
        }
    }

    /// Borrows the layer's weight tensor, if it has one.
    pub fn weights(&self) -> Option<&Tensor> {
        match &self.kind {
            LayerKind::FullyConnected { weights, .. } | LayerKind::Conv2d { weights, .. } => {
                Some(weights)
            }
            _ => None,
        }
    }

    /// Mutably borrows the layer's weight tensor, if it has one.
    pub fn weights_mut(&mut self) -> Option<&mut Tensor> {
        match &mut self.kind {
            LayerKind::FullyConnected { weights, .. } | LayerKind::Conv2d { weights, .. } => {
                Some(weights)
            }
            _ => None,
        }
    }
}

/// Cached values from a forward pass, consumed by the backward pass.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// Input to each layer (same order as the layers).
    pub inputs: Vec<Tensor>,
    /// Final output.
    pub output: Tensor,
}

/// Per-layer gradients produced by [`Network::backward`].
#[derive(Debug, Clone)]
pub struct Gradients {
    /// `d loss / d W` per layer (`None` for weightless layers).
    pub weights: Vec<Option<Tensor>>,
    /// `d loss / d b` per layer (`None` for weightless layers).
    pub bias: Vec<Option<Vec<f32>>>,
}

/// A runnable sequential network.
///
/// # Example
///
/// ```
/// use cs_nn::Network;
/// use cs_tensor::{Shape, Tensor};
///
/// let net = Network::mlp("tiny", &[4, 8, 3], 42);
/// let x = Tensor::zeros(Shape::d1(4));
/// let y = net.forward(&x).unwrap();
/// assert_eq!(y.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    name: String,
    layers: Vec<Layer>,
}

impl Network {
    /// Creates a network from explicit layers.
    pub fn new(name: impl Into<String>, layers: Vec<Layer>) -> Self {
        Network {
            name: name.into(),
            layers,
        }
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (used by pruning and SGD).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Builds a ReLU MLP with Xavier weights; `dims` lists neuron counts
    /// including input and output. No ReLU after the final layer.
    pub fn mlp(name: impl Into<String>, dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least two dims");
        let mut layers = Vec::new();
        for i in 0..dims.len() - 1 {
            layers.push(Layer::new(
                format!("ip{}", i + 1),
                LayerKind::FullyConnected {
                    weights: init::xavier(Shape::d2(dims[i], dims[i + 1]), seed + i as u64),
                    bias: vec![0.0; dims[i + 1]],
                },
            ));
            if i + 2 < dims.len() {
                layers.push(Layer::new(format!("relu{}", i + 1), LayerKind::Relu));
            }
        }
        Network::new(name, layers)
    }

    /// Builds a small Cifar10-quick-style CNN for `(c, h, w)` inputs:
    /// two conv+pool stages followed by two FC layers. Used by the Fig. 8
    /// max-vs-average pruning experiment.
    pub fn small_cnn(
        name: impl Into<String>,
        in_shape: (usize, usize, usize),
        classes: usize,
        seed: u64,
    ) -> Self {
        let (c, h, w) = in_shape;
        let g5 = Conv2dGeometry::square(5, 1, 2);
        let p2 = Conv2dGeometry::square(2, 2, 0);
        let c1 = 16;
        let c2 = 32;
        let (h1, w1) = (h / 2, w / 2);
        let (h2, w2) = (h1 / 2, w1 / 2);
        let flat = c2 * h2 * w2;
        Network::new(
            name,
            vec![
                Layer::new(
                    "conv1",
                    LayerKind::Conv2d {
                        weights: init::xavier(Shape::d4(c, c1, 5, 5), seed),
                        bias: vec![0.0; c1],
                        geom: g5,
                    },
                ),
                Layer::new("relu1", LayerKind::Relu),
                Layer::new("pool1", LayerKind::MaxPool { geom: p2 }),
                Layer::new(
                    "conv2",
                    LayerKind::Conv2d {
                        weights: init::xavier(Shape::d4(c1, c2, 5, 5), seed + 1),
                        bias: vec![0.0; c2],
                        geom: g5,
                    },
                ),
                Layer::new("relu2", LayerKind::Relu),
                Layer::new("pool2", LayerKind::MaxPool { geom: p2 }),
                Layer::new("flatten", LayerKind::Flatten),
                Layer::new(
                    "ip1",
                    LayerKind::FullyConnected {
                        weights: init::xavier(Shape::d2(flat, 64), seed + 2),
                        bias: vec![0.0; 64],
                    },
                ),
                Layer::new("relu3", LayerKind::Relu),
                Layer::new(
                    "ip2",
                    LayerKind::FullyConnected {
                        weights: init::xavier(Shape::d2(64, classes), seed + 3),
                        bias: vec![0.0; classes],
                    },
                ),
            ],
        )
    }

    /// Appends a ResNet-style residual stage to `layers`: two 3x3 convs
    /// with a ReLU between, then a skip from the stage input and a final
    /// ReLU. Returns the layers for chaining.
    pub fn residual_stage(layers: &mut Vec<Layer>, name: &str, channels: usize, seed: u64) {
        let g3 = Conv2dGeometry::square(3, 1, 1);
        let entry = layers.len(); // input of the stage = output of entry-1
        layers.push(Layer::new(
            format!("{name}_conv1"),
            LayerKind::Conv2d {
                weights: init::xavier(Shape::d4(channels, channels, 3, 3), seed),
                bias: vec![0.0; channels],
                geom: g3,
            },
        ));
        layers.push(Layer::new(format!("{name}_relu1"), LayerKind::Relu));
        layers.push(Layer::new(
            format!("{name}_conv2"),
            LayerKind::Conv2d {
                weights: init::xavier(Shape::d4(channels, channels, 3, 3), seed + 1),
                bias: vec![0.0; channels],
                geom: g3,
            },
        ));
        // Skip from the stage input: the output of layer entry-1 is the
        // input of layer `entry`.
        layers.push(Layer::new(
            format!("{name}_add"),
            LayerKind::Residual {
                from: entry.saturating_sub(1),
            },
        ));
        layers.push(Layer::new(format!("{name}_relu2"), LayerKind::Relu));
    }

    /// Materializes a runnable network from a shape-level spec using the
    /// local-convergence weight generator. ReLU is inserted after every
    /// weighted layer except the last, pools become max pools.
    ///
    /// # Panics
    ///
    /// Panics if the spec contains LSTM layers (use [`crate::lstm`]).
    pub fn from_spec(spec: &NetworkSpec, profile: &ConvergenceProfile, seed: u64) -> Self {
        let weighted = spec.weighted_layers().count();
        let mut seen = 0usize;
        let mut layers = Vec::new();
        for l in spec.layers() {
            match *l.kind() {
                LayerSpecKind::Conv {
                    n_fout,
                    kx,
                    stride,
                    pad,
                    ..
                } => {
                    seen += 1;
                    layers.push(Layer::new(
                        l.name(),
                        LayerKind::Conv2d {
                            weights: init::materialize(l, profile, seed),
                            bias: vec![0.0; n_fout],
                            geom: Conv2dGeometry::square(kx, stride, pad),
                        },
                    ));
                    if seen < weighted {
                        layers.push(Layer::new(format!("{}_relu", l.name()), LayerKind::Relu));
                    }
                }
                LayerSpecKind::Fc { n_out, .. } => {
                    seen += 1;
                    if seen > 1
                        && layers
                            .last()
                            .is_some_and(|p| !matches!(p.kind, LayerKind::Flatten))
                        && layers
                            .iter()
                            .any(|p| matches!(p.kind, LayerKind::Conv2d { .. }))
                        && !layers
                            .iter()
                            .any(|p| matches!(p.kind, LayerKind::FullyConnected { .. }))
                    {
                        layers.push(Layer::new("flatten", LayerKind::Flatten));
                    }
                    layers.push(Layer::new(
                        l.name(),
                        LayerKind::FullyConnected {
                            weights: init::materialize(l, profile, seed),
                            bias: vec![0.0; n_out],
                        },
                    ));
                    if seen < weighted {
                        layers.push(Layer::new(format!("{}_relu", l.name()), LayerKind::Relu));
                    }
                }
                LayerSpecKind::Pool { k, stride, .. } => {
                    layers.push(Layer::new(
                        l.name(),
                        LayerKind::MaxPool {
                            geom: Conv2dGeometry::square(k, stride, 0),
                        },
                    ));
                }
                LayerSpecKind::Lstm { .. } => {
                    panic!("LSTM specs are handled by cs_nn::lstm, not Network")
                }
            }
        }
        Network::new(spec.name(), layers)
    }

    /// Runs a forward pass on one sample.
    ///
    /// # Errors
    ///
    /// Propagates shape errors when the input does not match the first
    /// layer.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        Ok(self.forward_cached(input)?.output)
    }

    /// Runs a forward pass, additionally returning every intermediate
    /// activation (used both for backprop and for the paper's dynamic
    /// neuron-sparsity measurements).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying kernels.
    pub fn forward_cached(&self, input: &Tensor) -> Result<ForwardCache, TensorError> {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut x = input.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            inputs.push(x.clone());
            x = match &layer.kind {
                LayerKind::Residual { from } => {
                    if *from >= i {
                        return Err(TensorError::InvalidGeometry(format!(
                            "residual source {from} does not precede layer {i}"
                        )));
                    }
                    // The output of layer `from` is the input of `from+1`
                    // (or `x` itself when `from` is the previous layer).
                    let skip = if *from + 1 < inputs.len() {
                        &inputs[*from + 1]
                    } else {
                        &x
                    };
                    ops::add(&x, skip)?
                }
                _ => forward_layer(layer, &x)?,
            };
        }
        Ok(ForwardCache { inputs, output: x })
    }

    /// Backpropagates `d loss / d output` through the network, returning
    /// per-layer weight/bias gradients.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying kernels.
    pub fn backward(
        &self,
        cache: &ForwardCache,
        grad_output: &Tensor,
    ) -> Result<Gradients, TensorError> {
        let n = self.layers.len();
        let mut gw: Vec<Option<Tensor>> = vec![None; n];
        let mut gb: Vec<Option<Vec<f32>>> = vec![None; n];
        // Extra gradient arriving at the *output* of layer k via skips.
        let mut pending: Vec<Option<Tensor>> = vec![None; n];
        let mut grad = grad_output.clone();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            if let Some(extra) = pending[i].take() {
                grad = ops::add(&grad, &extra)?;
            }
            if let LayerKind::Residual { from } = &layer.kind {
                // d(x + skip)/dx = 1 for both operands.
                let slot = &mut pending[*from];
                *slot = Some(match slot.take() {
                    Some(prev) => ops::add(&prev, &grad)?,
                    None => grad.clone(),
                });
                continue; // grad flows unchanged to layer i-1
            }
            let input = &cache.inputs[i];
            let (gx, w, b) = backward_layer(layer, input, &grad)?;
            grad = gx;
            gw[i] = w;
            gb[i] = b;
        }
        Ok(Gradients {
            weights: gw,
            bias: gb,
        })
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} layers)", self.name, self.layers.len())
    }
}

fn forward_layer(layer: &Layer, x: &Tensor) -> Result<Tensor, TensorError> {
    match &layer.kind {
        LayerKind::FullyConnected { weights, bias } => {
            let row = x.clone().reshape(Shape::d2(1, x.len()))?;
            let mut y = ops::matmul(&row, weights)?;
            for (v, b) in y.as_mut_slice().iter_mut().zip(bias) {
                *v += b;
            }
            y.reshape(Shape::d1(bias.len()))
        }
        LayerKind::Conv2d {
            weights,
            bias,
            geom,
        } => ops::conv2d(x, weights, Some(bias), geom),
        LayerKind::Relu => Ok(ops::relu(x)),
        LayerKind::MaxPool { geom } => ops::max_pool2d(x, geom),
        LayerKind::Flatten => x.clone().reshape(Shape::d1(x.len())),
        LayerKind::Residual { .. } => {
            unreachable!("residual layers are evaluated by the network loop")
        }
    }
}

#[allow(clippy::type_complexity)]
fn backward_layer(
    layer: &Layer,
    input: &Tensor,
    grad_out: &Tensor,
) -> Result<(Tensor, Option<Tensor>, Option<Vec<f32>>), TensorError> {
    match &layer.kind {
        LayerKind::FullyConnected { weights, bias: _ } => {
            let n_in = weights.shape().dim(0);
            let n_out = weights.shape().dim(1);
            let x = input.clone().reshape(Shape::d2(1, n_in))?;
            let dy = grad_out.clone().reshape(Shape::d2(1, n_out))?;
            let dw = ops::matmul(&ops::transpose(&x)?, &dy)?;
            let db = dy.as_slice().to_vec();
            let dx = ops::matmul(&dy, &ops::transpose(weights)?)?;
            Ok((dx.reshape(Shape::d1(n_in))?, Some(dw), Some(db)))
        }
        LayerKind::Conv2d {
            weights,
            bias: _,
            geom,
        } => conv2d_backward(input, weights, geom, grad_out),
        LayerKind::Relu => {
            let dx = Tensor::from_fn(input.shape().clone(), |i| {
                if input.as_slice()[i] > 0.0 {
                    grad_out.as_slice()[i]
                } else {
                    0.0
                }
            });
            Ok((dx, None, None))
        }
        LayerKind::MaxPool { geom } => {
            let dx = max_pool_backward(input, geom, grad_out)?;
            Ok((dx, None, None))
        }
        LayerKind::Flatten => Ok((grad_out.clone().reshape(input.shape().clone())?, None, None)),
        LayerKind::Residual { .. } => {
            unreachable!("residual layers are handled by Network::backward")
        }
    }
}

#[allow(clippy::type_complexity)]
fn conv2d_backward(
    input: &Tensor,
    weights: &Tensor,
    geom: &Conv2dGeometry,
    grad_out: &Tensor,
) -> Result<(Tensor, Option<Tensor>, Option<Vec<f32>>), TensorError> {
    let (n_fin, n_fout, kx, ky) = (
        weights.shape().dim(0),
        weights.shape().dim(1),
        weights.shape().dim(2),
        weights.shape().dim(3),
    );
    let (h, w) = (input.shape().dim(1), input.shape().dim(2));
    let (oh, ow) = geom.output_size(h, w)?;

    // grad_out is (n_fout, oh, ow); as a matrix (oh*ow, n_fout).
    let dy_mat = Tensor::from_fn(Shape::d2(oh * ow, n_fout), |i| {
        let pos = i / n_fout;
        let fo = i % n_fout;
        grad_out.as_slice()[fo * oh * ow + pos]
    });
    let cols = ops::im2col(input, geom)?; // (oh*ow, c*kx*ky)

    // dW_mat = cols^T · dy  -> (c*kx*ky, n_fout)
    let dw_mat = ops::matmul(&ops::transpose(&cols)?, &dy_mat)?;
    let dw = Tensor::from_fn(Shape::d4(n_fin, n_fout, kx, ky), |i| {
        let fi = i / (n_fout * kx * ky);
        let rem = i % (n_fout * kx * ky);
        let fo = rem / (kx * ky);
        let kk = rem % (kx * ky);
        let row = fi * kx * ky + kk;
        dw_mat.as_slice()[row * n_fout + fo]
    });

    // db = sum over positions of dy.
    let mut db = vec![0.0f32; n_fout];
    for pos in 0..oh * ow {
        for (fo, d) in db.iter_mut().enumerate() {
            *d += dy_mat.as_slice()[pos * n_fout + fo];
        }
    }

    // dx_cols = dy · W_mat^T with W_mat (c*kx*ky, n_fout).
    let w_mat = Tensor::from_fn(Shape::d2(n_fin * kx * ky, n_fout), |i| {
        let row = i / n_fout;
        let fo = i % n_fout;
        let fi = row / (kx * ky);
        let kk = row % (kx * ky);
        weights.get(&[fi, fo, kk / ky, kk % ky])
    });
    let dx_cols = ops::matmul(&dy_mat, &ops::transpose(&w_mat)?)?;

    // col2im accumulate.
    let mut dx = Tensor::zeros(input.shape().clone());
    let cols_per_row = n_fin * kx * ky;
    for oy in 0..oh {
        for ox in 0..ow {
            let row = oy * ow + ox;
            let base_x = (oy * geom.stride_x) as isize - geom.pad_x as isize;
            let base_y = (ox * geom.stride_y) as isize - geom.pad_y as isize;
            for ci in 0..n_fin {
                for kxi in 0..kx {
                    let ix = base_x + kxi as isize;
                    if ix < 0 || ix as usize >= h {
                        continue;
                    }
                    for kyi in 0..ky {
                        let iy = base_y + kyi as isize;
                        if iy < 0 || iy as usize >= w {
                            continue;
                        }
                        let col = (ci * kx + kxi) * ky + kyi;
                        let v = dx_cols.as_slice()[row * cols_per_row + col];
                        let off = (ci * h + ix as usize) * w + iy as usize;
                        dx.as_mut_slice()[off] += v;
                    }
                }
            }
        }
    }
    Ok((dx, Some(dw), Some(db)))
}

fn max_pool_backward(
    input: &Tensor,
    geom: &Conv2dGeometry,
    grad_out: &Tensor,
) -> Result<Tensor, TensorError> {
    let (c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
    );
    let (oh, ow) = geom.output_size(h, w)?;
    let mut dx = Tensor::zeros(input.shape().clone());
    let data = input.as_slice();
    for ci in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_off = None;
                for kx in 0..geom.kx {
                    let ix = (oy * geom.stride_x + kx) as isize - geom.pad_x as isize;
                    if ix < 0 || ix as usize >= h {
                        continue;
                    }
                    for ky in 0..geom.ky {
                        let iy = (ox * geom.stride_y + ky) as isize - geom.pad_y as isize;
                        if iy < 0 || iy as usize >= w {
                            continue;
                        }
                        let off = (ci * h + ix as usize) * w + iy as usize;
                        if data[off] > best {
                            best = data[off];
                            best_off = Some(off);
                        }
                    }
                }
                if let Some(off) = best_off {
                    dx.as_mut_slice()[off] += grad_out.as_slice()[(ci * oh + oy) * ow + ox];
                }
            }
        }
    }
    Ok(dx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Model, Scale};

    #[test]
    fn mlp_forward_dims() {
        let net = Network::mlp("m", &[10, 20, 5], 1);
        let y = net.forward(&Tensor::zeros(Shape::d1(10))).unwrap();
        assert_eq!(y.len(), 5);
    }

    #[test]
    fn small_cnn_forward_dims() {
        let net = Network::small_cnn("c", (3, 16, 16), 10, 2);
        let y = net.forward(&Tensor::zeros(Shape::d3(3, 16, 16))).unwrap();
        assert_eq!(y.len(), 10);
    }

    #[test]
    fn from_spec_lenet_runs() {
        let spec = NetworkSpec::model(Model::LeNet5, Scale::Full);
        let net = Network::from_spec(&spec, &ConvergenceProfile::paper_default(), 3);
        let y = net.forward(&Tensor::zeros(Shape::d3(1, 28, 28))).unwrap();
        assert_eq!(y.len(), 10);
    }

    #[test]
    fn from_spec_cifar_runs() {
        let spec = NetworkSpec::model(Model::Cifar10Quick, Scale::Full);
        let net = Network::from_spec(&spec, &ConvergenceProfile::paper_default(), 3);
        let mut x = Tensor::zeros(Shape::d3(3, 32, 32));
        x.as_mut_slice().iter_mut().enumerate().for_each(|(i, v)| {
            *v = (i % 7) as f32 * 0.1;
        });
        let y = net.forward(&x).unwrap();
        assert_eq!(y.len(), 10);
    }

    /// Numerical gradient check on a tiny MLP.
    #[test]
    fn fc_backward_matches_numeric_gradient() {
        let mut net = Network::mlp("g", &[3, 4, 2], 7);
        let x = Tensor::from_vec(Shape::d1(3), vec![0.3, -0.2, 0.7]).unwrap();
        // loss = sum(output^2) / 2 so dloss/dy = y.
        let loss = |net: &Network, x: &Tensor| -> f32 {
            let y = net.forward(x).unwrap();
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        let cache = net.forward_cached(&x).unwrap();
        let dy = cache.output.clone();
        let grads = net.backward(&cache, &dy).unwrap();

        let eps = 1e-3;
        // Check a few weight entries of layer 0 and layer 2 (ip2).
        for (li, wi) in [(0usize, 0usize), (0, 5), (2, 3)] {
            let analytic = grads.weights[li].as_ref().unwrap().as_slice()[wi];
            let orig = net.layers()[li].weights().unwrap().as_slice()[wi];
            net.layers_mut()[li].weights_mut().unwrap().as_mut_slice()[wi] = orig + eps;
            let lp = loss(&net, &x);
            net.layers_mut()[li].weights_mut().unwrap().as_mut_slice()[wi] = orig - eps;
            let lm = loss(&net, &x);
            net.layers_mut()[li].weights_mut().unwrap().as_mut_slice()[wi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                "layer {li} w[{wi}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn conv_backward_matches_numeric_gradient() {
        let mut net = Network::new(
            "cg",
            vec![
                Layer::new(
                    "conv",
                    LayerKind::Conv2d {
                        weights: init::xavier(Shape::d4(1, 2, 3, 3), 5),
                        bias: vec![0.1, -0.1],
                        geom: Conv2dGeometry::square(3, 1, 1),
                    },
                ),
                Layer::new("relu", LayerKind::Relu),
                Layer::new(
                    "pool",
                    LayerKind::MaxPool {
                        geom: Conv2dGeometry::square(2, 2, 0),
                    },
                ),
                Layer::new("flat", LayerKind::Flatten),
            ],
        );
        let x = Tensor::from_fn(Shape::d3(1, 4, 4), |i| ((i * 37) % 11) as f32 * 0.1 - 0.4);
        let loss = |net: &Network, x: &Tensor| -> f32 {
            let y = net.forward(x).unwrap();
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        let cache = net.forward_cached(&x).unwrap();
        let grads = net.backward(&cache, &cache.output).unwrap();
        let eps = 1e-3;
        for wi in [0usize, 4, 9, 17] {
            let analytic = grads.weights[0].as_ref().unwrap().as_slice()[wi];
            let orig = net.layers()[0].weights().unwrap().as_slice()[wi];
            net.layers_mut()[0].weights_mut().unwrap().as_mut_slice()[wi] = orig + eps;
            let lp = loss(&net, &x);
            net.layers_mut()[0].weights_mut().unwrap().as_mut_slice()[wi] = orig - eps;
            let lm = loss(&net, &x);
            net.layers_mut()[0].weights_mut().unwrap().as_mut_slice()[wi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                "w[{wi}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn forward_cached_records_every_layer_input() {
        let net = Network::mlp("t", &[4, 6, 6, 2], 9);
        let cache = net.forward_cached(&Tensor::zeros(Shape::d1(4))).unwrap();
        assert_eq!(cache.inputs.len(), net.layers().len());
    }

    #[test]
    fn weights_mut_allows_pruning() {
        let mut net = Network::mlp("p", &[4, 4], 1);
        net.layers_mut()[0]
            .weights_mut()
            .unwrap()
            .map_inplace(|_| 0.0);
        let y = net.forward(&Tensor::full(Shape::d1(4), 1.0)).unwrap();
        assert!(y.as_slice().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn residual_stage_forward_is_identity_plus_branch() {
        // A residual stage whose convs are zeroed must be a pure
        // identity (plus the final ReLU).
        let mut layers = vec![Layer::new("stem_relu", LayerKind::Relu)];
        Network::residual_stage(&mut layers, "res1", 4, 3);
        let mut net = Network::new("res", layers);
        for l in net.layers_mut() {
            if let Some(w) = l.weights_mut() {
                w.map_inplace(|_| 0.0);
            }
        }
        let x = Tensor::from_fn(Shape::d3(4, 6, 6), |i| (i % 5) as f32 * 0.3);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.as_slice(), x.map(|v| v.max(0.0)).as_slice());
    }

    #[test]
    fn residual_changes_output_when_branch_is_nonzero() {
        let mut layers = vec![Layer::new("stem_relu", LayerKind::Relu)];
        Network::residual_stage(&mut layers, "res1", 4, 3);
        let net = Network::new("res", layers);
        let x = Tensor::from_fn(Shape::d3(4, 6, 6), |i| (i % 5) as f32 * 0.3);
        let y = net.forward(&x).unwrap();
        assert_ne!(y.as_slice(), x.as_slice());
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn residual_backward_matches_numeric_gradient() {
        let mut layers = vec![Layer::new("stem_relu", LayerKind::Relu)];
        Network::residual_stage(&mut layers, "res1", 2, 7);
        let mut net = Network::new("resg", layers);
        let x = Tensor::from_fn(Shape::d3(2, 4, 4), |i| ((i * 29) % 13) as f32 * 0.07 - 0.3);
        let loss = |net: &Network, x: &Tensor| -> f32 {
            let y = net.forward(x).unwrap();
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        let cache = net.forward_cached(&x).unwrap();
        let grads = net.backward(&cache, &cache.output).unwrap();
        let eps = 1e-3;
        // Check weights in both convs of the residual branch.
        for li in [1usize, 3] {
            for wi in [0usize, 7] {
                let analytic = grads.weights[li].as_ref().unwrap().as_slice()[wi];
                let orig = net.layers()[li].weights().unwrap().as_slice()[wi];
                net.layers_mut()[li].weights_mut().unwrap().as_mut_slice()[wi] = orig + eps;
                let lp = loss(&net, &x);
                net.layers_mut()[li].weights_mut().unwrap().as_mut_slice()[wi] = orig - eps;
                let lm = loss(&net, &x);
                net.layers_mut()[li].weights_mut().unwrap().as_mut_slice()[wi] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "layer {li} w[{wi}]: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn residual_source_must_precede_layer() {
        let net = Network::new(
            "bad",
            vec![Layer::new("add", LayerKind::Residual { from: 0 })],
        );
        assert!(net.forward(&Tensor::zeros(Shape::d1(4))).is_err());
    }

    #[test]
    fn relu_layer_zeroes_negatives_in_forward() {
        let net = Network::new("r", vec![Layer::new("relu", LayerKind::Relu)]);
        let y = net
            .forward(&Tensor::from_vec(Shape::d1(3), vec![-1.0, 0.5, 2.0]).unwrap())
            .unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.5, 2.0]);
    }
}
