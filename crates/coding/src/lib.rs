//! Entropy coding and bilevel image compression.
//!
//! Three codecs back the paper's compression pipeline and its
//! irregularity metric:
//!
//! * [`huffman`] — canonical Huffman coding, the entropy-coding stage of
//!   the Fig. 5 compression flow (`W_q` → `W_c`).
//! * [`arith`] — an adaptive binary arithmetic coder (the paper names
//!   arithmetic coding as the other common entropy coder, and it is the
//!   engine of the bilevel codec below).
//! * [`bilevel`] — a JBIG-style bilevel image compressor: a 10-pixel
//!   context template feeding the adaptive arithmetic coder. The paper
//!   measures *reduced irregularity* as
//!   `R(Irr) = JBIG(I_fine) / JBIG(I_coarse)` (Eq. 1); this codec plays
//!   the role of JBIG (see DESIGN.md substitution #2).
//!
//! The Huffman and bilevel decoders parse untrusted bytes (the model
//! registry stores a shared-index layer as one bilevel image and one
//! Huffman stream): malformed input returns
//! [`CodingError::CorruptStream`], never a panic. The caller passes the
//! pixel cap, or the Huffman alphabet and symbol count its own geometry
//! fixes, checked before anything is allocated.
//!
//! # Example
//!
//! ```
//! use cs_coding::huffman;
//!
//! let symbols = vec![0u16, 0, 0, 1, 1, 2];
//! let enc = huffman::encode(&symbols, 3).unwrap();
//! assert_eq!(huffman::decode(&enc).unwrap(), symbols);
//! ```

pub mod arith;
pub mod bilevel;
pub mod bits;
pub mod huffman;

use std::fmt;

/// Error type shared by all codecs in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodingError {
    /// The encoded stream ended prematurely or is malformed.
    CorruptStream(String),
    /// Input cannot be encoded (e.g. empty alphabet where one is needed).
    InvalidInput(String),
}

impl fmt::Display for CodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodingError::CorruptStream(m) => write!(f, "corrupt stream: {m}"),
            CodingError::InvalidInput(m) => write!(f, "invalid input: {m}"),
        }
    }
}

impl std::error::Error for CodingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(CodingError::CorruptStream("eof".into())
            .to_string()
            .contains("eof"));
        assert!(CodingError::InvalidInput("empty".into())
            .to_string()
            .contains("empty"));
    }
}
