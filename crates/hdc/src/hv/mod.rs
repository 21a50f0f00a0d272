//! Hypervector types: bit-packed bipolar vectors and dense integer vectors.

mod bipolar;
mod dense;

pub use bipolar::{BipolarHv, SignBlock, SIGN_BLOCK};
pub use dense::DenseHv;
