//! Experiment drivers — one per table/figure of the paper's evaluation.
//!
//! Every driver returns a structured result type plus a `render()`
//! method producing the text table/series the paper reports. [`TABLE`]
//! is the one list of committed artifacts: each entry names its
//! `results/<stem>.txt`, holds the canonical arguments EXPERIMENTS.md
//! states, and renders exactly the committed text. The `exp_all` binary
//! in `cs-bench` writes entries from it, and the integration tests
//! check the shape-driven entries against `results/` and the docs'
//! command lines against the stems.

pub mod disc;
pub mod ext_actsparsity;
pub mod ext_dse;
pub mod ext_entropy;
pub mod ext_scaling;
pub mod ext_structured;
pub mod ext_table1;
pub mod fig01;
pub mod fig04;
pub mod fig08;
pub mod fig15;
pub mod fig18;
pub mod fig21;
pub mod tab02;
pub mod tab03;
pub mod tab04;
pub mod tab05;
pub mod tab06;
pub mod tab07;

use std::fmt;

use cs_compress::CompressError;
use cs_nn::spec::{LayerClass, Scale};
use cs_tensor::TensorError;

/// Seed every synthetic-weight artifact is drawn from.
pub const SEED: u64 = 20181020; // MICRO 2018

/// Why an entry produced no artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// The compression pipeline, or a tensor op inside it, failed.
    Compress(CompressError),
    /// The activation-gated kernels changed this many output bits
    /// against the ungated and dense references (must be 0).
    GateMismatch(usize),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Compress(e) => write!(f, "{e}"),
            ExperimentError::GateMismatch(n) => {
                write!(
                    f,
                    "gated kernel diverged from the dense reference on {n} outputs"
                )
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<CompressError> for ExperimentError {
    fn from(e: CompressError) -> Self {
        ExperimentError::Compress(e)
    }
}

impl From<TensorError> for ExperimentError {
    fn from(e: TensorError) -> Self {
        ExperimentError::Compress(e.into())
    }
}

/// An entry's canonical arguments, each with the run fn that takes them.
#[derive(Debug, Clone, Copy)]
pub enum Args {
    /// Shape-driven timing and energy models: the published layer
    /// geometries, nothing random. Milliseconds each.
    Shapes(fn() -> String),
    /// Synthetic weights materialized at `scale` from `seed`.
    Weights {
        /// Channel/neuron divisor (`Scale::Full` = published sizes).
        scale: Scale,
        /// RNG seed.
        seed: u64,
        /// Renders the artifact.
        run: fn(Scale, u64) -> Result<String, ExperimentError>,
    },
    /// One synthetic `dim × dim` layer drawn from `seed`.
    Layer {
        /// Side of the square layer.
        dim: usize,
        /// RNG seed.
        seed: u64,
        /// Renders the artifact.
        run: fn(usize, u64) -> String,
    },
    /// The module's own `full()` parameters, or `smoke()` when the flag
    /// is set (`exp_all --quick`).
    Params(fn(bool) -> Result<String, ExperimentError>),
}

impl fmt::Display for Args {
    /// The arguments in words, as EXPERIMENTS.md states them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Args::Shapes(_) => write!(f, "full layer geometries"),
            Args::Weights {
                scale: Scale::Reduced(n),
                seed,
                ..
            } => write!(f, "scale {n}, seed {seed}"),
            Args::Weights { seed, .. } => write!(f, "full scale, seed {seed}"),
            Args::Layer { dim, seed, .. } => write!(f, "{dim}x{dim} layer, seed {seed}"),
            Args::Params(_) => write!(f, "full parameters, smoke under --quick"),
        }
    }
}

/// One committed artifact.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// `results/<stem>.txt`, and the name `exp_all` selects it by.
    pub stem: &'static str,
    /// Canonical arguments and the run fn that takes them.
    pub args: Args,
}

impl Experiment {
    /// Renders the artifact with its canonical arguments (`quick`
    /// shrinks only [`Args::Params`] entries). The text ends in exactly
    /// one newline, as the committed file does.
    ///
    /// # Errors
    ///
    /// Whatever the driver reports; see [`ExperimentError`].
    pub fn run(&self, quick: bool) -> Result<String, ExperimentError> {
        let text = match self.args {
            Args::Shapes(run) => run(),
            Args::Weights { scale, seed, run } => run(scale, seed)?,
            Args::Layer { dim, seed, run } => run(dim, seed),
            Args::Params(run) => run(quick)?,
        };
        Ok(format!("{}\n", text.trim_end_matches('\n')))
    }
}

/// Looks an entry up by its stem.
pub fn find(stem: &str) -> Option<&'static Experiment> {
    TABLE.iter().find(|e| e.stem == stem)
}

const fn shapes(stem: &'static str, run: fn() -> String) -> Experiment {
    Experiment {
        stem,
        args: Args::Shapes(run),
    }
}

const fn weights(
    stem: &'static str,
    scale: Scale,
    run: fn(Scale, u64) -> Result<String, ExperimentError>,
) -> Experiment {
    Experiment {
        stem,
        args: Args::Weights {
            scale,
            seed: SEED,
            run,
        },
    }
}

const fn params(
    stem: &'static str,
    run: fn(bool) -> Result<String, ExperimentError>,
) -> Experiment {
    Experiment {
        stem,
        args: Args::Params(run),
    }
}

/// Every artifact, in the paper's order, then the extensions.
pub static TABLE: &[Experiment] = &[
    Experiment {
        stem: "exp_fig01_local_convergence",
        args: Args::Layer {
            dim: 256,
            seed: SEED,
            run: |dim, seed| fig01::run(dim, seed).render(),
        },
    },
    weights("exp_fig04_cdf", Scale::Reduced(2), |s, seed| {
        Ok(fig04::run(s, seed).render())
    }),
    weights("exp_tab02_blocksize", Scale::Reduced(2), |s, seed| {
        let r = tab02::run(s, seed)?;
        Ok(format!(
            "{}\nbest block size N = {}",
            r.render(),
            r.best_n()
        ))
    }),
    weights("exp_tab03_sparsity", Scale::Reduced(4), |s, seed| {
        Ok(tab03::run(s, seed).render())
    }),
    params("exp_fig08_max_vs_avg", |quick| {
        let p = if quick {
            fig08::Fig08Params::smoke()
        } else {
            fig08::Fig08Params::full()
        };
        Ok(fig08::run(&p)?.render())
    }),
    weights("exp_tab04_compression", Scale::Reduced(2), |s, seed| {
        let r = tab04::run(s, seed)?;
        Ok(format!(
            "{}\nmean R(Irr) = {:.2}x (paper: 20.13x)",
            r.render(),
            r.mean_irregularity()
        ))
    }),
    weights("exp_tab05_comparison", Scale::Reduced(2), |s, seed| {
        Ok(tab05::run(s, seed)?.render())
    }),
    shapes("exp_tab06_hw", || tab06::run().render()),
    shapes("exp_fig15_speedup", || fig15::run(None).render()),
    shapes("exp_fig16_conv_speedup", || {
        fig15::run(Some(LayerClass::Convolutional)).render()
    }),
    shapes("exp_fig17_fc_speedup", || {
        fig15::run(Some(LayerClass::FullyConnected)).render()
    }),
    shapes("exp_fig18_energy", || fig18::run().render()),
    shapes("exp_fig19_breakdown", || fig18::run().render_fig19()),
    shapes("exp_fig20_breakdown_onchip", || fig18::run().render_fig20()),
    shapes("exp_fig21_sensitivity", || fig21::run().render()),
    shapes("exp_tab07_eie", || tab07::run().render()),
    shapes("exp_disc_ablations", || disc::run().render()),
    weights("exp_ext_entropy", Scale::Reduced(2), |s, seed| {
        Ok(ext_entropy::run(s, seed)?.render())
    }),
    weights("exp_ext_dse", Scale::Reduced(2), |s, seed| {
        Ok(ext_dse::run(s, seed).render())
    }),
    shapes("exp_ext_table1", || ext_table1::run().render()),
    shapes("exp_ext_scaling", || ext_scaling::run().render()),
    params("exp_ext_structured", |quick| {
        let p = if quick {
            ext_structured::ExtStructuredParams::smoke()
        } else {
            ext_structured::ExtStructuredParams::full()
        };
        Ok(ext_structured::run(&p)?.render())
    }),
    params("exp_ext_actsparsity", |quick| {
        let p = if quick {
            ext_actsparsity::ExtActSparsityParams::smoke()
        } else {
            ext_actsparsity::ExtActSparsityParams::full()
        };
        let r = ext_actsparsity::run(&p)?;
        match r.total_mismatches() {
            0 => Ok(r.render()),
            n => Err(ExperimentError::GateMismatch(n)),
        }
    }),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stems_are_unique_and_name_their_file() {
        for (i, e) in TABLE.iter().enumerate() {
            assert!(e.stem.starts_with("exp_"), "{}", e.stem);
            assert!(
                TABLE[..i].iter().all(|o| o.stem != e.stem),
                "duplicate stem {}",
                e.stem
            );
            assert_eq!(find(e.stem).map(|f| f.stem), Some(e.stem));
        }
        assert!(find("exp_nonexistent").is_none());
    }

    #[test]
    fn run_ends_in_exactly_one_newline() {
        let text = find("exp_tab06_hw").unwrap().run(false).unwrap();
        assert!(text.ends_with('\n') && !text.ends_with("\n\n"));
    }
}
