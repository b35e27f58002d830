//! # me-numerics
//!
//! Bit-exact software floating-point formats and error-free transformations.
//!
//! The paper's §IV-B (Ozaki scheme, Table VIII) depends on the *exact*
//! significand widths of the numerical formats supported by matrix engines:
//! IEEE binary16 (`F16`), bfloat16 (`Bf16`), and NVIDIA's 19-bit TF32
//! (`Tf32`). Since no matrix-engine hardware is available in this
//! environment, this crate provides software implementations with
//! round-to-nearest-even semantics, subnormal handling, and Inf/NaN
//! propagation, so that every higher layer (the ME simulator, the Ozaki
//! splitter) operates on the same numerics the paper's hardware would.
//!
//! The crate also provides the classic error-free transformations (EFTs)
//! — [`eft::two_sum`], [`eft::two_prod`], Dekker's [`eft::split`] — and a
//! family of compensated / reproducible summation algorithms used by the
//! Ozaki scheme's bitwise-reproducible accumulation (paper §IV-B, feature
//! note (1)).

pub mod dd;
pub mod eft;
pub mod error;
pub mod formats;
pub mod rng;
pub mod sum;
pub mod units;

pub use dd::{dd_dot, Dd};
pub use error::{max_abs, max_rel_err, rel_err, ulp_diff};
pub use formats::{
    narrow_f32_exact, Bf16, Bf16Bits, F16Bits, FloatFormat, RoundedValue, Tf32, F16,
};
pub use rng::Rng64;
pub use sum::{kahan_sum, neumaier_sum, pairwise_sum, reproducible_sum, Accumulator};
pub use units::{Bytes, Flops, Joules, Seconds, Watts};
