//! The accelerator's VLIW-style instruction set (Section V-C).
//!
//! The control processor (CP) decodes a compact instruction stream from
//! the instruction buffer into control signals for the DMA engine, the
//! NSM and the NFU. The compiler in [`crate::compiler`] emits these
//! programs from a layer description; the executor in [`crate::exec`]
//! interprets them.

use crate::pe::Activation;

/// One decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instruction {
    /// DMA: load `len` input neurons starting at `offset` into the free
    /// NBin half.
    LoadNeurons {
        /// First input neuron index.
        offset: usize,
        /// Number of neurons.
        len: usize,
    },
    /// DMA: load the synapse-index slice of `group` covering inputs
    /// `[offset, offset + len)` into the SIB.
    LoadIndex {
        /// Output group.
        group: usize,
        /// First input position of the slice.
        offset: usize,
        /// Slice length.
        len: usize,
    },
    /// DMA: load the compact synapse slice of `group` for inputs
    /// `[offset, offset + len)` (plus the group codebook on the first
    /// slice) into the PEs' SBs.
    LoadSynapses {
        /// Output group.
        group: usize,
        /// First input position of the slice.
        offset: usize,
        /// Slice length.
        len: usize,
    },
    /// NSM + NFU: select neurons for `group` over the NBin window
    /// `[offset, offset + len)` and accumulate partial sums into NBout.
    Compute {
        /// Output group.
        group: usize,
        /// First input position of the window.
        offset: usize,
        /// Window length.
        len: usize,
    },
    /// NFU tail: apply the activation to the group's accumulated outputs
    /// (issued once all input tiles have been accumulated).
    Activate {
        /// Output group.
        group: usize,
        /// Nonlinear function.
        activation: Activation,
    },
    /// DMA: store `count` finished outputs starting at `first` from NBout
    /// to memory.
    StoreOutputs {
        /// First output neuron index.
        first: usize,
        /// Number of outputs.
        count: usize,
    },
}

/// Error decoding a binary instruction word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The offending opcode byte.
    pub opcode: u8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown opcode {:#04x}", self.opcode)
    }
}

impl std::error::Error for DecodeError {}

/// Size of one encoded VLIW word in bytes.
pub const WORD_BYTES: usize = 12;

impl Instruction {
    /// The input window `(offset, len)` the instruction addresses, for
    /// the four that address one (`Activate` and `StoreOutputs` work on
    /// outputs).
    pub fn window(&self) -> Option<(usize, usize)> {
        match *self {
            Instruction::LoadNeurons { offset, len }
            | Instruction::LoadIndex { offset, len, .. }
            | Instruction::LoadSynapses { offset, len, .. }
            | Instruction::Compute { offset, len, .. } => Some((offset, len)),
            Instruction::Activate { .. } | Instruction::StoreOutputs { .. } => None,
        }
    }

    /// Encodes the instruction into a fixed-width VLIW word:
    /// `[opcode u8][act u8][group u16][a u32][b u32]` (little endian).
    pub fn encode(&self) -> [u8; WORD_BYTES] {
        let (op, act, group, a, b): (u8, u8, u16, u32, u32) = match *self {
            Instruction::LoadNeurons { offset, len } => (0, 0, 0, offset as u32, len as u32),
            Instruction::LoadIndex { group, offset, len } => {
                (1, 0, group as u16, offset as u32, len as u32)
            }
            Instruction::LoadSynapses { group, offset, len } => {
                (2, 0, group as u16, offset as u32, len as u32)
            }
            Instruction::Compute { group, offset, len } => {
                (3, 0, group as u16, offset as u32, len as u32)
            }
            Instruction::Activate { group, activation } => {
                let act = match activation {
                    Activation::None => 0,
                    Activation::Relu => 1,
                    Activation::Sigmoid => 2,
                };
                (4, act, group as u16, 0, 0)
            }
            Instruction::StoreOutputs { first, count } => (5, 0, 0, first as u32, count as u32),
        };
        let mut w = [0u8; WORD_BYTES];
        w[0] = op;
        w[1] = act;
        w[2..4].copy_from_slice(&group.to_le_bytes());
        w[4..8].copy_from_slice(&a.to_le_bytes());
        w[8..12].copy_from_slice(&b.to_le_bytes());
        w
    }

    /// Decodes a VLIW word (what the CP does per issue slot).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for an unknown opcode or activation code.
    pub fn decode(w: &[u8; WORD_BYTES]) -> Result<Self, DecodeError> {
        let group = u16::from_le_bytes([w[2], w[3]]) as usize;
        let a = u32::from_le_bytes([w[4], w[5], w[6], w[7]]) as usize;
        let b = u32::from_le_bytes([w[8], w[9], w[10], w[11]]) as usize;
        Ok(match w[0] {
            0 => Instruction::LoadNeurons { offset: a, len: b },
            1 => Instruction::LoadIndex {
                group,
                offset: a,
                len: b,
            },
            2 => Instruction::LoadSynapses {
                group,
                offset: a,
                len: b,
            },
            3 => Instruction::Compute {
                group,
                offset: a,
                len: b,
            },
            4 => Instruction::Activate {
                group,
                activation: match w[1] {
                    0 => Activation::None,
                    1 => Activation::Relu,
                    2 => Activation::Sigmoid,
                    other => return Err(DecodeError { opcode: other }),
                },
            },
            5 => Instruction::StoreOutputs { first: a, count: b },
            other => return Err(DecodeError { opcode: other }),
        })
    }
}

/// A compiled program for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Instruction stream in issue order.
    pub instrs: Vec<Instruction>,
    /// Total input neurons the program reads.
    pub n_in: usize,
    /// Total output neurons the program produces.
    pub n_out: usize,
}

impl Program {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` for an empty program.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Encoded size in bytes, for IB sizing.
    pub fn byte_size(&self) -> usize {
        self.instrs.len() * WORD_BYTES
    }

    /// Serializes the whole instruction stream (the IB image).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size());
        for i in &self.instrs {
            out.extend_from_slice(&i.encode());
        }
        out
    }

    /// Deserializes an IB image back into instructions.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on unknown opcodes; trailing partial words
    /// are rejected as opcode `0xff`.
    pub fn decode_stream(bytes: &[u8]) -> Result<Vec<Instruction>, DecodeError> {
        if !bytes.len().is_multiple_of(WORD_BYTES) {
            return Err(DecodeError { opcode: 0xff });
        }
        bytes
            .chunks_exact(WORD_BYTES)
            .map(|c| {
                let mut w = [0u8; WORD_BYTES];
                w.copy_from_slice(c);
                Instruction::decode(&w)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_sizes() {
        let p = Program {
            instrs: vec![
                Instruction::LoadNeurons { offset: 0, len: 16 },
                Instruction::StoreOutputs { first: 0, count: 4 },
            ],
            n_in: 16,
            n_out: 4,
        };
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.byte_size(), 24);
    }

    #[test]
    fn every_instruction_roundtrips_through_the_word_format() {
        let instrs = vec![
            Instruction::LoadNeurons {
                offset: 123,
                len: 2048,
            },
            Instruction::LoadIndex {
                group: 7,
                offset: 4096,
                len: 512,
            },
            Instruction::LoadSynapses {
                group: 255,
                offset: 0,
                len: 25088,
            },
            Instruction::Compute {
                group: 3,
                offset: 2048,
                len: 2048,
            },
            Instruction::Activate {
                group: 9,
                activation: Activation::Relu,
            },
            Instruction::Activate {
                group: 0,
                activation: Activation::Sigmoid,
            },
            Instruction::StoreOutputs {
                first: 4096,
                count: 1000,
            },
        ];
        for i in &instrs {
            let w = i.encode();
            assert_eq!(&Instruction::decode(&w).unwrap(), i);
        }
        let p = Program {
            instrs: instrs.clone(),
            n_in: 25088,
            n_out: 4096,
        };
        assert_eq!(Program::decode_stream(&p.encode()).unwrap(), instrs);
    }

    #[test]
    fn bad_opcode_and_partial_word_rejected() {
        let mut w = [0u8; WORD_BYTES];
        w[0] = 0x7f;
        assert!(Instruction::decode(&w).is_err());
        w[0] = 4;
        w[1] = 9; // unknown activation
        assert!(Instruction::decode(&w).is_err());
        assert!(Program::decode_stream(&[0u8; WORD_BYTES + 1]).is_err());
    }
}
