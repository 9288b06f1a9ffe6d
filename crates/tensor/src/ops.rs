//! Dense reference kernels: matmul, im2col convolution, pooling.
//!
//! These are deliberately straightforward implementations; they serve as
//! the functional ground truth that the accelerator simulators are checked
//! against, and as the compute engine for the small trainable models used
//! in the accuracy experiments.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Kernel height (`K_x` in the paper).
    pub kx: usize,
    /// Kernel width (`K_y` in the paper).
    pub ky: usize,
    /// Vertical stride.
    pub stride_x: usize,
    /// Horizontal stride.
    pub stride_y: usize,
    /// Symmetric zero padding on height.
    pub pad_x: usize,
    /// Symmetric zero padding on width.
    pub pad_y: usize,
}

impl Conv2dGeometry {
    /// A square kernel with the given size, stride and padding.
    pub fn square(k: usize, stride: usize, pad: usize) -> Self {
        Conv2dGeometry {
            kx: k,
            ky: k,
            stride_x: stride,
            stride_y: stride,
            pad_x: pad,
            pad_y: pad,
        }
    }

    /// Output spatial size for an input of `(h, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the stride is zero or
    /// the padded input is smaller than the kernel.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize), TensorError> {
        if self.stride_x == 0 || self.stride_y == 0 {
            return Err(TensorError::InvalidGeometry("zero stride".into()));
        }
        let ph = h + 2 * self.pad_x;
        let pw = w + 2 * self.pad_y;
        if ph < self.kx || pw < self.ky {
            return Err(TensorError::InvalidGeometry(format!(
                "padded input ({ph}x{pw}) smaller than kernel ({}x{})",
                self.kx, self.ky
            )));
        }
        Ok((
            (ph - self.kx) / self.stride_x + 1,
            (pw - self.ky) / self.stride_y + 1,
        ))
    }
}

/// Dense matrix multiplication `C = A (m×k) · B (k×n)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-2-D operands and
/// [`TensorError::ShapeMismatch`] when the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use cs_tensor::{ops, Shape, Tensor};
/// # fn main() -> Result<(), cs_tensor::TensorError> {
/// let a = Tensor::from_vec(Shape::d2(1, 2), vec![1.0, 2.0])?;
/// let b = Tensor::from_vec(Shape::d2(2, 1), vec![3.0, 4.0])?;
/// assert_eq!(ops::matmul(&a, &b)?.as_slice(), &[11.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = matmul_dims(a, b)?;
    let av = a.as_slice();
    let bv = b.as_slice();
    let mut out = vec![0.0f32; m * n];
    for (i, orow) in out.chunks_mut(n).enumerate() {
        matmul_row(&av[i * k..(i + 1) * k], bv, orow);
    }
    Tensor::from_vec(Shape::d2(m, n), out)
}

/// One output row of the dense kernel: `orow += arow · B`, accumulating
/// over the inner dimension in ascending order. Deliberately *truly*
/// dense — every term contributes, so non-finite operands propagate the
/// way IEEE arithmetic dictates (`0.0 * NaN = NaN`). Zero-skipping is
/// the sparse kernels' job, where skipped terms are structural zeros on
/// finite inputs and therefore bit-neutral.
fn matmul_row(arow: &[f32], bv: &[f32], orow: &mut [f32]) {
    let n = orow.len();
    for (p, &aip) in arow.iter().enumerate() {
        let brow = &bv[p * n..(p + 1) * n];
        for (o, &bpj) in orow.iter_mut().zip(brow) {
            *o += aip * bpj;
        }
    }
}

fn matmul_dims(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    if a.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: a.shape().rank(),
            op: "matmul",
        });
    }
    if b.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: b.shape().rank(),
            op: "matmul",
        });
    }
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().clone(),
            right: b.shape().clone(),
            op: "matmul",
        });
    }
    Ok((m, k, n))
}

/// Transposes a 2-D tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-2-D inputs.
pub fn transpose(a: &Tensor) -> Result<Tensor, TensorError> {
    if a.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: a.shape().rank(),
            op: "transpose",
        });
    }
    let (m, n) = (a.shape().dim(0), a.shape().dim(1));
    let av = a.as_slice();
    Ok(Tensor::from_fn(Shape::d2(n, m), |i| {
        let r = i / m;
        let c = i % m;
        av[c * n + r]
    }))
}

/// Element-wise addition.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().clone(),
            right: b.shape().clone(),
            op: "add",
        });
    }
    Ok(Tensor::from_fn(a.shape().clone(), |i| {
        a.as_slice()[i] + b.as_slice()[i]
    }))
}

/// Lowers convolution input windows into a matrix (the classic im2col).
///
/// The input is `(c, h, w)`; the output matrix has one row per output
/// spatial position and `c * kx * ky` columns, so that convolution becomes
/// `im2col(x) · W` with `W` of shape `(c*kx*ky, n_fout)`.
///
/// # Errors
///
/// Propagates geometry errors from [`Conv2dGeometry::output_size`], and
/// returns [`TensorError::RankMismatch`] for a non-3-D input.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    if input.shape().rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input.shape().rank(),
            op: "im2col",
        });
    }
    let (c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
    );
    let (oh, ow) = geom.output_size(h, w)?;
    let cols = c * geom.kx * geom.ky;
    let mut out = vec![0.0f32; oh * ow * cols];
    let data = input.as_slice();
    for (row, orow) in out.chunks_mut(cols).enumerate() {
        let oy = row / ow;
        let ox = row % ow;
        let base_x = (oy * geom.stride_x) as isize - geom.pad_x as isize;
        let base_y = (ox * geom.stride_y) as isize - geom.pad_y as isize;
        for ci in 0..c {
            for kx in 0..geom.kx {
                let ix = base_x + kx as isize;
                for ky in 0..geom.ky {
                    let iy = base_y + ky as isize;
                    let col = (ci * geom.kx + kx) * geom.ky + ky;
                    let v = if ix >= 0 && iy >= 0 && (ix as usize) < h && (iy as usize) < w {
                        data[(ci * h + ix as usize) * w + iy as usize]
                    } else {
                        0.0
                    };
                    orow[col] = v;
                }
            }
        }
    }
    Tensor::from_vec(Shape::d2(oh * ow, cols), out)
}

/// Dense 2-D convolution over a `(c, h, w)` input with weights
/// `(n_fin=c, n_fout, kx, ky)`, producing `(n_fout, oh, ow)`.
///
/// # Errors
///
/// Returns shape/geometry errors when the operands are inconsistent.
pub fn conv2d(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    geom: &Conv2dGeometry,
) -> Result<Tensor, TensorError> {
    if weights.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: weights.shape().rank(),
            op: "conv2d",
        });
    }
    let (n_fin, n_fout, kx, ky) = (
        weights.shape().dim(0),
        weights.shape().dim(1),
        weights.shape().dim(2),
        weights.shape().dim(3),
    );
    if input.shape().rank() != 3 || input.shape().dim(0) != n_fin {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().clone(),
            right: weights.shape().clone(),
            op: "conv2d",
        });
    }
    if kx != geom.kx || ky != geom.ky {
        return Err(TensorError::InvalidGeometry(format!(
            "weight kernel ({kx}x{ky}) disagrees with geometry ({}x{})",
            geom.kx, geom.ky
        )));
    }
    let (h, w) = (input.shape().dim(1), input.shape().dim(2));
    let (oh, ow) = geom.output_size(h, w)?;

    // Lower to matmul: (oh*ow, c*kx*ky) x (c*kx*ky, n_fout).
    let cols = im2col(input, geom)?;
    let wmat = Tensor::from_fn(Shape::d2(n_fin * kx * ky, n_fout), |i| {
        let row = i / n_fout;
        let fo = i % n_fout;
        let fi = row / (kx * ky);
        let rem = row % (kx * ky);
        weights.get(&[fi, fo, rem / ky, rem % ky])
    });
    let prod = matmul(&cols, &wmat)?;
    // Transpose (oh*ow, n_fout) -> (n_fout, oh, ow), adding bias.
    let pv = prod.as_slice();
    let out = Tensor::from_fn(Shape::d3(n_fout, oh, ow), |i| {
        let fo = i / (oh * ow);
        let pos = i % (oh * ow);
        let b = bias.map_or(0.0, |bs| bs[fo]);
        pv[pos * n_fout + fo] + b
    });
    Ok(out)
}

/// Max pooling over a `(c, h, w)` input.
///
/// # Errors
///
/// Returns geometry errors for invalid windows.
pub fn max_pool2d(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    pool2d(input, geom, true)
}

/// Average pooling over a `(c, h, w)` input.
///
/// # Errors
///
/// Returns geometry errors for invalid windows.
pub fn avg_pool2d(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    pool2d(input, geom, false)
}

fn pool2d(input: &Tensor, geom: &Conv2dGeometry, take_max: bool) -> Result<Tensor, TensorError> {
    if input.shape().rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input.shape().rank(),
            op: "pool2d",
        });
    }
    let (c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
    );
    let (oh, ow) = geom.output_size(h, w)?;
    let data = input.as_slice();
    let out = Tensor::from_fn(Shape::d3(c, oh, ow), |i| {
        let ci = i / (oh * ow);
        let oy = (i / ow) % oh;
        let ox = i % ow;
        let mut acc = if take_max { f32::NEG_INFINITY } else { 0.0 };
        let mut count = 0usize;
        for kx in 0..geom.kx {
            let ix = (oy * geom.stride_x + kx) as isize - geom.pad_x as isize;
            for ky in 0..geom.ky {
                let iy = (ox * geom.stride_y + ky) as isize - geom.pad_y as isize;
                if ix >= 0 && iy >= 0 && (ix as usize) < h && (iy as usize) < w {
                    let v = data[(ci * h + ix as usize) * w + iy as usize];
                    if take_max {
                        acc = acc.max(v);
                    } else {
                        acc += v;
                    }
                    count += 1;
                }
            }
        }
        if take_max {
            if count == 0 {
                0.0
            } else {
                acc
            }
        } else if count == 0 {
            0.0
        } else {
            acc / count as f32
        }
    });
    Ok(out)
}

/// Rectified linear unit applied element-wise.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// Numerically-stable softmax over the last dimension of a 2-D tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-2-D inputs.
pub fn softmax(x: &Tensor) -> Result<Tensor, TensorError> {
    if x.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: x.shape().rank(),
            op: "softmax",
        });
    }
    let (rows, cols) = (x.shape().dim(0), x.shape().dim(1));
    let xs = x.as_slice();
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        let row = &xs[r * cols..(r + 1) * cols];
        let m = row.iter().fold(f32::NEG_INFINITY, |a, b| a.max(*b));
        let mut sum = 0.0;
        for (o, v) in out[r * cols..(r + 1) * cols].iter_mut().zip(row) {
            *o = (v - m).exp();
            sum += *o;
        }
        for o in &mut out[r * cols..(r + 1) * cols] {
            *o /= sum;
        }
    }
    Tensor::from_vec(Shape::d2(rows, cols), out)
}

/// Logistic sigmoid applied element-wise.
pub fn sigmoid(x: &Tensor) -> Tensor {
    x.map(|v| 1.0 / (1.0 + (-v).exp()))
}

/// Hyperbolic tangent applied element-wise.
pub fn tanh(x: &Tensor) -> Tensor {
    x.map(f32::tanh)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(rows: usize, cols: usize, v: Vec<f32>) -> Tensor {
        Tensor::from_vec(Shape::d2(rows, cols), v).unwrap()
    }

    #[test]
    fn matmul_identity() {
        let a = t2(2, 2, vec![1., 2., 3., 4.]);
        let i = t2(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(matmul(&a, &i).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = t2(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = t2(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t2(2, 3, vec![0.; 6]);
        let b = t2(2, 3, vec![0.; 6]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let v = Tensor::zeros(Shape::d1(3));
        assert!(matches!(
            matmul(&v, &b),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn conv2d_matches_hand_computation() {
        // 1 input channel 3x3, 1 output map, 2x2 kernel, stride 1, no pad.
        let input =
            Tensor::from_vec(Shape::d3(1, 3, 3), vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]).unwrap();
        let w = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![1., 0., 0., 1.]).unwrap();
        let geom = Conv2dGeometry::square(2, 1, 0);
        let out = conv2d(&input, &w, None, &geom).unwrap();
        assert_eq!(out.shape(), &Shape::d3(1, 2, 2));
        // windows: [1,2;4,5]->1+5, [2,3;5,6]->2+6, [4,5;7,8]->4+8, [5,6;8,9]->5+9
        assert_eq!(out.as_slice(), &[6., 8., 12., 14.]);
    }

    #[test]
    fn conv2d_with_padding_and_bias() {
        let input = Tensor::from_vec(Shape::d3(1, 2, 2), vec![1., 2., 3., 4.]).unwrap();
        let w = Tensor::from_vec(
            Shape::d4(1, 1, 3, 3),
            vec![0., 0., 0., 0., 1., 0., 0., 0., 0.],
        )
        .unwrap();
        let geom = Conv2dGeometry::square(3, 1, 1);
        let out = conv2d(&input, &w, Some(&[10.0]), &geom).unwrap();
        // Identity kernel + bias 10.
        assert_eq!(out.as_slice(), &[11., 12., 13., 14.]);
    }

    #[test]
    fn conv2d_multi_channel() {
        // 2 in channels, 2 out maps, 1x1 kernels: a per-pixel matmul.
        let input = Tensor::from_vec(Shape::d3(2, 1, 2), vec![1., 2., 3., 4.]).unwrap();
        // w[fi][fo]: fi0->(1,10), fi1->(100,1000)
        let w = Tensor::from_vec(Shape::d4(2, 2, 1, 1), vec![1., 10., 100., 1000.]).unwrap();
        let geom = Conv2dGeometry::square(1, 1, 0);
        let out = conv2d(&input, &w, None, &geom).unwrap();
        // out[fo=0] = 1*in0 + 100*in1 = [301, 402]
        // out[fo=1] = 10*in0 + 1000*in1 = [3010, 4020]
        assert_eq!(out.as_slice(), &[301., 402., 3010., 4020.]);
    }

    #[test]
    fn pooling_max_and_avg() {
        let input =
            Tensor::from_vec(Shape::d3(1, 4, 4), (1..=16).map(|v| v as f32).collect()).unwrap();
        let geom = Conv2dGeometry::square(2, 2, 0);
        let mx = max_pool2d(&input, &geom).unwrap();
        assert_eq!(mx.as_slice(), &[6., 8., 14., 16.]);
        let av = avg_pool2d(&input, &geom).unwrap();
        assert_eq!(av.as_slice(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn geometry_errors() {
        let g = Conv2dGeometry::square(5, 1, 0);
        assert!(g.output_size(3, 3).is_err());
        let z = Conv2dGeometry {
            stride_x: 0,
            ..Conv2dGeometry::square(2, 1, 0)
        };
        assert!(z.output_size(4, 4).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = t2(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = softmax(&x).unwrap();
        for r in 0..2 {
            let sum: f32 = s.as_slice()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone in logits.
        assert!(s.as_slice()[0] < s.as_slice()[1]);
        assert!(s.as_slice()[1] < s.as_slice()[2]);
    }

    #[test]
    fn activations() {
        let x = Tensor::from_vec(Shape::d1(3), vec![-1.0, 0.0, 1.0]).unwrap();
        assert_eq!(relu(&x).as_slice(), &[0.0, 0.0, 1.0]);
        let s = sigmoid(&x);
        assert!((s.as_slice()[1] - 0.5).abs() < 1e-6);
        let t = tanh(&x);
        assert!((t.as_slice()[0] + t.as_slice()[2]).abs() < 1e-6);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t2(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let t = transpose(&a).unwrap();
        assert_eq!(t.shape(), &Shape::d2(3, 2));
        assert_eq!(t.as_slice(), &[1., 4., 2., 5., 3., 6.]);
        assert_eq!(transpose(&t).unwrap(), a);
    }

    #[test]
    fn matmul_propagates_non_finite_operands() {
        // Regression: the dense kernel used to skip `a[i][p] == 0.0` terms,
        // silently turning `0.0 * NaN` and `0.0 * inf` into 0.0. Dense
        // semantics must follow IEEE arithmetic; zero-skipping belongs only
        // in the sparse kernels (where it is bit-neutral on finite inputs).
        let a = t2(1, 2, vec![0.0, 1.0]);
        let b = t2(2, 1, vec![f32::NAN, 2.0]);
        let c = matmul(&a, &b).unwrap();
        assert!(c.as_slice()[0].is_nan(), "0.0 * NaN must yield NaN");

        let b_inf = t2(2, 1, vec![f32::INFINITY, 2.0]);
        let c_inf = matmul(&a, &b_inf).unwrap();
        assert!(
            c_inf.as_slice()[0].is_nan(),
            "0.0 * inf must yield NaN, got {}",
            c_inf.as_slice()[0]
        );

        // A genuinely infinite contribution survives too.
        let a2 = t2(1, 2, vec![1.0, 1.0]);
        let c2 = matmul(&a2, &b_inf).unwrap();
        assert_eq!(c2.as_slice()[0], f32::INFINITY);
    }

    #[test]
    fn im2col_shapes() {
        let input = Tensor::zeros(Shape::d3(3, 8, 8));
        let geom = Conv2dGeometry::square(3, 1, 1);
        let cols = im2col(&input, &geom).unwrap();
        assert_eq!(cols.shape(), &Shape::d2(64, 27));
    }
}
