//! Kernel microbenchmarks: dense reference vs the compiled block-CSR
//! sparse engine.
//!
//! Three experiments, each with a bit-identity check before timing:
//!
//! 1. **FC dense vs sparse** at the paper's FC setting (16×16 blocks,
//!    25% density): [`cs_compress::engine::CompiledFcLayer`] against a
//!    dense matmul over its decoded twin weights. Acceptance floor:
//!    sparse ≥ 2× dense.
//!    1a. **Activation-gated FC**: the engine gates every call, so the
//!    same block-CSR kernel runs a LIF spike frame and a fully-dense
//!    frame (floor: spike ≥ 1.5× faster than dense), and the prescan
//!    on the dense frame is timed on its own (bound: ≤ 3% of the
//!    dense-frame forward). A `-0.0`/NaN/inf-poisoned frame is asserted
//!    bit-identical to a scalar walk over the survivors — the gate never
//!    skips them.
//! 2. **Structured FC kernels at 50%**: the branch-free 2:4 and
//!    bank-balanced (8-of-16) kernels against a dense matmul over each
//!    kernel's densified twin. Acceptance floors: 2:4 ≥ 2× dense,
//!    bank-balanced ≥ 1× (parity).
//! 3. **Conv dense vs sparse** at the paper's conv setting
//!    (`(1,16,1,1)` blocks): [`cs_compress::engine::CompiledConvLayer`]
//!    against `ops::conv2d` on the twin weights (informational).
//!
//! `--metrics-out <path>` writes every measurement as JSONL.
//!
//! ```text
//! cargo run --release -p cs-bench --bin exp_kernels
//! cargo run --release -p cs-bench --bin exp_kernels -- --quick --metrics-out kernels.jsonl
//! ```

use std::time::Instant;

use cs_bench::kernels_jsonl;
use cs_compress::engine::{BatchScratch, CompiledConvLayer, CompiledFcLayer, FcKernel};
use cs_compress::format::{BankBalancedFcLayer, FcLayerFormat};
use cs_compress::gate;
use cs_nn::data::lif_spike_train;
use cs_sparsity::coarse::{prune_to_density, CoarseConfig};
use cs_sparsity::{structured, PruneMode};
use cs_tensor::ops::{self, Conv2dGeometry};
use cs_tensor::{Shape, Tensor};

/// Paper FC setting: 16×16 blocks, quantized to 8-bit codebooks.
const STRIP_WIDTH: usize = 16;
const QUANT_BITS: u8 = 8;
const DENSITY: f64 = 0.25;

struct Args {
    quick: bool,
    metrics_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut quick = false;
    let mut metrics_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--metrics-out" => match args.next() {
                Some(path) => metrics_out = Some(path.into()),
                None => {
                    eprintln!("error: --metrics-out requires a path");
                    std::process::exit(1);
                }
            },
            other => {
                eprintln!("error: unknown argument {other:?}");
                std::process::exit(1);
            }
        }
    }
    Args { quick, metrics_out }
}

/// Deterministic xorshift values in [-0.5, 0.5), seeded per tensor.
fn fill(seed: u64, n: usize) -> Vec<f32> {
    let mut s = seed.wrapping_add(cambricon_s::experiments::SEED) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

/// Minimum-of-runs wall time for `f`, in nanoseconds per call.
///
/// The minimum is the noise-floor estimator: scheduler preemption and
/// frequency throttling only ever *add* time, and the speedup gates
/// compare two separately-timed kernels, so taking each one's fastest
/// window keeps the ratio stable on noisy shared hosts where a median
/// still lets one side eat a throttled window.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    // One warm-up call keeps first-touch page faults out of the figure.
    f();
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_nanos() as f64 / reps as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Minimum-of-runs wall time for a *pair* of kernels timed in
/// alternating windows, in nanoseconds per call each.
///
/// The spike-vs-dense floor is a ratio of two timings of one kernel,
/// and two separately-timed blocks drift apart on throttling hosts:
/// the block that runs while the clock is lower eats the difference.
/// Alternating the windows exposes both sides to the same conditions,
/// so each side's minimum is taken from comparable windows.
fn time_pair_ns(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a();
    b();
    let (mut ta, mut tb) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..8 {
        let t0 = Instant::now();
        for _ in 0..reps {
            a();
        }
        ta = ta.min(t0.elapsed().as_nanos() as f64 / reps as f64);
        let t0 = Instant::now();
        for _ in 0..reps {
            b();
        }
        tb = tb.min(t0.elapsed().as_nanos() as f64 / reps as f64);
    }
    (ta, tb)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A scalar walk over the layer's survivors, in ascending input order:
/// the bits the gated kernel must produce on any input, poisoned ones
/// included (NaN encodings aside).
fn survivors(layer: &CompiledFcLayer, x: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; layer.n_out];
    for strip in &layer.strips {
        let inputs = strip
            .runs()
            .iter()
            .flat_map(|&(s, e)| s as usize..e as usize);
        for (pos, i) in inputs.enumerate() {
            let lanes = &mut out[strip.out_start()..strip.out_end()];
            for (lane, o) in lanes.iter_mut().enumerate() {
                *o += x[i] * strip.weight(pos, lane);
            }
        }
    }
    out
}

fn main() {
    let args = parse_args();
    let mut jsonl = String::new();
    let mut failures: Vec<String> = Vec::new();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "exp_kernels: host cores = {host_cores}, {}",
        if args.quick { "quick" } else { "full" }
    );

    // ---- 1. FC dense vs sparse at the paper setting -------------------
    let (n_in, n_out, fc_reps) = if args.quick {
        (256, 256, 40)
    } else {
        (1024, 1024, 40)
    };
    let weights = Tensor::from_vec(Shape::d2(n_in, n_out), fill(1, n_in * n_out))
        .unwrap_or_else(|e| panic!("fc weights: {e}"));
    let mask = prune_to_density(&weights, &CoarseConfig::paper_fc(), DENSITY)
        .unwrap_or_else(|e| panic!("fc prune: {e}"));
    let compiled = CompiledFcLayer::compile_fc("fc", &weights, &mask, STRIP_WIDTH, QUANT_BITS)
        .unwrap_or_else(|e| panic!("fc compile: {e}"));
    let twin = compiled.to_dense();
    let x = fill(2, n_in);
    let xt =
        Tensor::from_vec(Shape::d2(1, n_in), x.clone()).unwrap_or_else(|e| panic!("fc input: {e}"));

    let dense_out = ops::matmul(&xt, &twin).unwrap_or_else(|e| panic!("fc dense: {e}"));
    let mut sparse_out = vec![0.0f32; n_out];
    compiled.forward(&x, &mut sparse_out);
    assert_eq!(
        bits(dense_out.as_slice()),
        bits(&sparse_out),
        "sparse FC output must be bit-identical to the dense reference"
    );

    let mut out = vec![0.0f32; n_out];
    let dense_ns = time_ns(fc_reps, || {
        let r = ops::matmul(&xt, &twin).unwrap_or_else(|e| panic!("fc dense: {e}"));
        std::hint::black_box(r);
    });
    let sparse_ns = time_ns(fc_reps, || {
        compiled.forward(&x, &mut out);
        std::hint::black_box(&out);
    });
    let fc_speedup = dense_ns / sparse_ns;
    println!(
        "fc {n_in}x{n_out} @ density {:.2}: dense {:.1} µs, sparse {:.1} µs, speedup {fc_speedup:.2}x",
        compiled.density(),
        dense_ns / 1e3,
        sparse_ns / 1e3,
    );
    jsonl.push_str(&kernels_jsonl::fc_line(
        n_in,
        n_out,
        compiled.density(),
        dense_ns,
        sparse_ns,
        fc_speedup,
    ));
    if fc_speedup < 2.0 {
        failures.push(format!(
            "sparse FC kernel speedup {fc_speedup:.2}x is below the 2x acceptance floor"
        ));
    }

    // ---- 1a. Activation gating on the sparse FC kernel ----------------
    // The engine gates every call, so both bounds hold the one entry to
    // itself. A LIF spike frame (mostly exact zeros — the gate's home
    // turf) must run at least 1.5x faster than a fully-dense frame
    // through the same kernel, and on the dense frame the prescan
    // (`gate::count_inputs`, all the gate does when nothing can be
    // skipped) must cost at most 3% of the forward. Both frames are
    // asserted bit-identical to the dense reference, and a -0.0/NaN/inf
    // poisoned frame to the scalar walk over the survivors: the gate
    // never skips them.
    //
    // This arm keeps 1024x1024 even in quick mode: both bounds are
    // ratios at representative size, and at toy sizes the gate's fixed
    // per-call cost (one counting pass per column) dominates the 3%
    // budget no matter how good the kernel is.
    let (g_in, g_out) = (1024usize, 1024);
    let gweights = Tensor::from_vec(Shape::d2(g_in, g_out), fill(1, g_in * g_out))
        .unwrap_or_else(|e| panic!("gated weights: {e}"));
    let gmask = prune_to_density(&gweights, &CoarseConfig::paper_fc(), DENSITY)
        .unwrap_or_else(|e| panic!("gated prune: {e}"));
    let gated_fc = CompiledFcLayer::compile_fc("fcg", &gweights, &gmask, STRIP_WIDTH, QUANT_BITS)
        .unwrap_or_else(|e| panic!("gated compile: {e}"));
    let gtwin = gated_fc.to_dense();
    let spike: Vec<f32> = lif_spike_train(g_in, 20, 0.25, 9).as_slice().to_vec();
    let spike_active = spike.iter().filter(|v| **v != 0.0).count();
    let gx = fill(2, g_in);
    // The serving entry at B = 1: `forward_batch` with a reused scratch.
    let mut scratch = BatchScratch::default();
    let mut gout = vec![0.0f32; g_out];
    let mut frame_stats = Vec::new();
    for (name, frame) in [("spike", &spike), ("dense", &gx)] {
        frame_stats.push(gated_fc.forward_batch(frame, &mut gout, &mut scratch)[0]);
        let ft = Tensor::from_vec(Shape::d2(1, g_in), frame.clone())
            .unwrap_or_else(|e| panic!("{name} input: {e}"));
        let want = ops::matmul(&ft, &gtwin).unwrap_or_else(|e| panic!("{name} dense: {e}"));
        assert_eq!(
            bits(want.as_slice()),
            bits(&gout),
            "gated FC output must be bit-identical to the dense reference on the {name} frame"
        );
    }
    let mut poisoned = spike.clone();
    poisoned[0] = -0.0;
    poisoned[1] = f32::NAN;
    poisoned[2] = f32::INFINITY;
    gated_fc.forward_batch(&poisoned, &mut gout, &mut scratch);
    let want = survivors(&gated_fc, &poisoned);
    assert!(
        gout.iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan())),
        "gated FC must never skip -0.0/NaN/inf inputs"
    );
    let (mut gout2, mut scratch2) = (gout.clone(), BatchScratch::default());
    let (spike_ns, dense_frame_ns) = time_pair_ns(
        fc_reps,
        || {
            gated_fc.forward_batch(&spike, &mut gout, &mut scratch);
            std::hint::black_box(&gout);
        },
        || {
            gated_fc.forward_batch(&gx, &mut gout2, &mut scratch2);
            std::hint::black_box(&gout2);
        },
    );
    let prescan_ns = |frame: &[f32]| {
        time_ns(100 * fc_reps, || {
            std::hint::black_box(gate::count_inputs(std::hint::black_box(frame)));
        })
    };
    let (spike_prescan_ns, dense_prescan_ns) = (prescan_ns(&spike), prescan_ns(&gx));
    let gated_speedup = dense_frame_ns / spike_ns;
    let prescan_share = dense_prescan_ns / dense_frame_ns;
    println!(
        "gated fc {g_in}x{g_out}: spike frame {:.1}% active, skip {:.1}%, {:.1} µs; \
         dense frame {:.1} µs, speedup {gated_speedup:.2}x; prescan {:.0} ns, \
         {:.2}% of the dense frame",
        100.0 * spike_active as f64 / g_in as f64,
        100.0 * frame_stats[0].skip_fraction(),
        spike_ns / 1e3,
        dense_frame_ns / 1e3,
        dense_prescan_ns,
        100.0 * prescan_share,
    );
    jsonl.push_str(&kernels_jsonl::gated_line(
        "spiking",
        g_in,
        g_out,
        1,
        frame_stats[0].skip_fraction(),
        spike_ns,
        spike_prescan_ns,
        gated_speedup,
    ));
    jsonl.push_str(&kernels_jsonl::gated_line(
        "dense",
        g_in,
        g_out,
        1,
        frame_stats[1].skip_fraction(),
        dense_frame_ns,
        dense_prescan_ns,
        1.0,
    ));
    if gated_speedup < 1.5 {
        failures.push(format!(
            "gated FC speedup {gated_speedup:.2}x on the spike frame over the dense frame is \
             below the 1.5x acceptance floor"
        ));
    }
    if prescan_share > 0.03 {
        failures.push(format!(
            "the gate's prescan costs {:.2}% of the dense-frame forward, above the 3% bound",
            100.0 * prescan_share
        ));
    }

    // ---- 1b. Structured FC kernels at 50% density ---------------------
    // Both patterns prune the same-shaped weights to exactly 50%: 2:4
    // by construction, bank-balanced as 8-of-16 per bank. The dense
    // reference is a matmul over each kernel's densified twin, so the
    // MAC counts differ only by the pattern's 2x skip rate.
    //
    // The structured arms use 512x512 in full mode, not the fc arm's
    // 1024x1024: at 50% density the sparse side still streams 9/16 of
    // the dense bytes (full-width f32 values keep the bit-identity
    // contract), so once a matvec spills to L3 *any* 50%-density kernel
    // is bandwidth-capped below 2x no matter how good its inner loop
    // is. 512x512 keeps the working set cache-resident and measures the
    // kernels themselves.
    let (s_in, s_out) = if args.quick { (256, 256) } else { (512, 512) };
    let sweights = Tensor::from_vec(Shape::d2(s_in, s_out), fill(1, s_in * s_out))
        .unwrap_or_else(|e| panic!("structured weights: {e}"));
    let sx = fill(2, s_in);
    let sxt = Tensor::from_vec(Shape::d2(1, s_in), sx.clone())
        .unwrap_or_else(|e| panic!("structured input: {e}"));
    for mode in [
        PruneMode::TwoFour,
        PruneMode::BankBalanced { bank: 16, k: 8 },
    ] {
        let smask = structured::structured_mask(&sweights, &mode)
            .unwrap_or_else(|e| panic!("{} prune: {e}", mode.name()));
        let (bank, k) = mode
            .geometry()
            .unwrap_or_else(|| panic!("{} has no bank geometry", mode.name()));
        let layer = BankBalancedFcLayer::from_fc(mode.name(), &sweights, &smask, bank, k)
            .unwrap_or_else(|e| panic!("{} pack: {e}", mode.name()));
        let kernel = FcKernel::compile(&FcLayerFormat::BankBalanced(layer));
        let stwin = kernel.to_dense();
        let sdense =
            ops::matmul(&sxt, &stwin).unwrap_or_else(|e| panic!("{} dense: {e}", mode.name()));
        let mut ssparse = vec![0.0f32; s_out];
        kernel.forward(&sx, &mut ssparse);
        assert_eq!(
            bits(sdense.as_slice()),
            bits(&ssparse),
            "{} output must be bit-identical to the dense reference",
            mode.name()
        );
        let sdense_ns = time_ns(fc_reps, || {
            let r =
                ops::matmul(&sxt, &stwin).unwrap_or_else(|e| panic!("{} dense: {e}", mode.name()));
            std::hint::black_box(r);
        });
        let mut sout = vec![0.0f32; s_out];
        let ssparse_ns = time_ns(fc_reps, || {
            kernel.forward(&sx, &mut sout);
            std::hint::black_box(&sout);
        });
        let s_speedup = sdense_ns / ssparse_ns;
        println!(
            "{} {s_in}x{s_out} @ density {:.2}: dense {:.1} µs, sparse {:.1} µs, speedup {s_speedup:.2}x",
            mode.name(),
            kernel.density(),
            sdense_ns / 1e3,
            ssparse_ns / 1e3,
        );
        jsonl.push_str(&kernels_jsonl::structured_line(
            mode.name(),
            s_in,
            s_out,
            kernel.density(),
            sdense_ns,
            ssparse_ns,
            s_speedup,
        ));
        // 2:4 halves the MACs and its metadata decodes branch-free, so
        // it carries the hard 2x floor; bank-balanced gathers through
        // byte offsets and is floored at parity with dense.
        let floor = match mode {
            PruneMode::TwoFour => 2.0,
            _ => 1.0,
        };
        if s_speedup < floor {
            failures.push(format!(
                "{} kernel speedup {s_speedup:.2}x is below the {floor}x acceptance floor",
                mode.name()
            ));
        }
    }

    // ---- 2. Conv dense vs sparse --------------------------------------
    let (fin, fout, hw, conv_reps) = if args.quick {
        (16, 32, 14, 20)
    } else {
        (64, 128, 28, 20)
    };
    let geom = Conv2dGeometry::square(3, 1, 1);
    let cw = Tensor::from_vec(Shape::d4(fin, fout, 3, 3), fill(3, fin * fout * 9))
        .unwrap_or_else(|e| panic!("conv weights: {e}"));
    let cmask = prune_to_density(&cw, &CoarseConfig::paper_conv(), DENSITY)
        .unwrap_or_else(|e| panic!("conv prune: {e}"));
    let cconv = CompiledConvLayer::compile_conv("conv", &cw, &cmask, STRIP_WIDTH, QUANT_BITS, geom)
        .unwrap_or_else(|e| panic!("conv compile: {e}"));
    let ctwin = cconv.to_dense();
    let cin = Tensor::from_vec(Shape::d3(fin, hw, hw), fill(4, fin * hw * hw))
        .unwrap_or_else(|e| panic!("conv input: {e}"));

    let conv_dense = ops::conv2d(&cin, &ctwin, None, &geom).unwrap_or_else(|e| panic!("conv: {e}"));
    let conv_sparse = cconv
        .forward(&cin)
        .unwrap_or_else(|e| panic!("conv sparse: {e}"));
    assert_eq!(
        bits(conv_dense.as_slice()),
        bits(conv_sparse.as_slice()),
        "sparse conv output must be bit-identical to the dense reference"
    );

    let conv_dense_ns = time_ns(conv_reps, || {
        let r = ops::conv2d(&cin, &ctwin, None, &geom).unwrap_or_else(|e| panic!("conv: {e}"));
        std::hint::black_box(r);
    });
    let conv_sparse_ns = time_ns(conv_reps, || {
        let r = cconv
            .forward(&cin)
            .unwrap_or_else(|e| panic!("conv sparse: {e}"));
        std::hint::black_box(r);
    });
    let conv_speedup = conv_dense_ns / conv_sparse_ns;
    println!(
        "conv {fin}->{fout} {hw}x{hw} k3: dense {:.1} µs, sparse {:.1} µs, speedup {conv_speedup:.2}x",
        conv_dense_ns / 1e3,
        conv_sparse_ns / 1e3,
    );
    jsonl.push_str(&kernels_jsonl::conv_line(
        fin,
        fout,
        hw,
        conv_dense_ns,
        conv_sparse_ns,
        conv_speedup,
    ));

    if let Some(path) = args.metrics_out {
        match std::fs::write(&path, jsonl) {
            Ok(()) => println!("metrics written to {}", path.display()),
            Err(e) => {
                eprintln!("writing {} failed: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(2);
    }
    println!("all kernel acceptance floors passed");
}
