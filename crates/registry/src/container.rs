//! The `CSMR` container: a checksummed, length-bounds-checked, canonical
//! byte encoding of one compressed model version.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            4 B   "CSMR"
//! format version   1 B   CONTAINER_VERSION
//! model name       u16 len + UTF-8 ([A-Za-z0-9._-], 1..=MAX_NAME_LEN)
//! model version    u32
//! layer count      u16   (1..=MAX_LAYERS)
//! layers           kind u8 + activation u8 + name + kind-specific body
//! checksum         u32   CRC-32 (IEEE) over every preceding byte
//! ```
//!
//! The `Shared` body is the geometry (`n_in`, `n_out`, `group_size`
//! u32, `quant_bits` u8), then the sections of
//! `SharedIndexLayer::encode_streams` with the codebooks between them:
//! the shared indexes as one bilevel-coded image (`u32` length-prefixed);
//! one codebook per output group, each entry as its IEEE binary16 bits
//! (the WDM's 16-bit LUT), as many entries as `codebook_len` derives from
//! the group's index and rows, so no count is stored; and the whole
//! weight-index stream coded once (`u32` length-prefixed; Huffman, or
//! fixed width when that is no longer; the symbol count and alphabet come
//! from the geometry, so the stream holds only its code lengths). A
//! codebook entry that is not a binary16 value fails encode.
//!
//! The `BankBalanced` body (2:4 is bank 4, k 2) is the geometry (`n_in`,
//! `n_out`, `bank`, `k` u32), the surviving values as `f32`, then the
//! offsets of `BankBalancedFcLayer::encode_offsets`: `ceil(log2 bank)`
//! bits each, zero-padded to a byte, so their length follows from the
//! geometry. Version-1 (raw `u16` indexes), version-2 (byte-per-offset
//! bodies and a separate 2:4 body) and version-3 (counted `f32`
//! codebooks) containers are rejected as
//! [`RegistryError::UnsupportedVersion`].
//!
//! The encoding is *canonical*: every variable-length run is derived
//! from already-decoded geometry, exactly length-prefixed, or an
//! entropy-coded section that must equal the re-encoding of what it
//! decodes to, so `encode(decode(bytes)) == bytes` for every container
//! that decodes. The decoder validates every count against the remaining
//! buffer *before* allocating and charges all heap growth against
//! [`MAX_DECODED_BYTES`], in the style of the cs-net wire codec: the
//! entropy decoders get caps derived from the validated geometry, and
//! hostile input yields a typed [`RegistryError`], never a panic, never
//! an allocation beyond the declared caps.

use cs_accel::pe::Activation;
use cs_compress::format::{
    codebook_len, BankBalancedFcLayer, FcLayerFormat, OutputGroup, SharedIndexLayer,
};
use cs_quant::Codebook;
use cs_sparsity::structured::survivors_per_lane;

use crate::error::RegistryError;

/// Container magic: `CSMR` (Cambricon-S Model Registry).
pub const MAGIC: [u8; 4] = *b"CSMR";
/// Container format version this build encodes and decodes.
pub const CONTAINER_VERSION: u8 = 4;
/// Hard cap on a whole container file.
pub const MAX_CONTAINER_BYTES: usize = 1 << 26;
/// Hard cap on model and layer names.
pub const MAX_NAME_LEN: usize = 128;
/// Hard cap on layers per model.
pub const MAX_LAYERS: usize = 256;
/// Hard cap on any layer dimension (`n_in`, `n_out`, `group_size`).
pub const MAX_DIM: usize = 1 << 20;
/// Hard cap on shared-index groups per layer.
pub const MAX_GROUPS: usize = 1 << 16;
/// Hard cap on total heap bytes one decode may allocate.
pub const MAX_DECODED_BYTES: usize = 1 << 27;

const KIND_SHARED: u8 = 0;
const KIND_BANK_BALANCED: u8 = 2;

/// One versioned compressed model: the unit the registry stores, ships
/// over the wire, and the serving runtime hot-loads.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Model name (the registry key together with `version`).
    pub name: String,
    /// Monotonically meaningful version number.
    pub version: u32,
    /// Compressed layers with their activations, input to output.
    pub layers: Vec<(FcLayerFormat, Activation)>,
}

impl ModelArtifact {
    /// Input width of the first layer.
    pub fn n_in(&self) -> usize {
        self.layers.first().map_or(0, |(f, _)| f.n_in())
    }

    /// Output width of the last layer.
    pub fn n_out(&self) -> usize {
        self.layers.last().map_or(0, |(f, _)| f.n_out())
    }

    /// Compact resident footprint in bytes — what the serving memory
    /// budget charges for this model while loaded.
    pub fn resident_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|(f, _)| f.weight_bytes() as u64)
            .sum()
    }

    /// The `name@vN` key used in file names, telemetry, and logs.
    pub fn key(&self) -> String {
        format!("{}@v{}", self.name, self.version)
    }
}

/// True when `name` works as a registry key (nonempty, bounded, and
/// restricted to `[A-Za-z0-9._-]` so it is safe in file names).
pub fn valid_model_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
        && name != "."
        && name != ".."
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven; no external dependency.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) of `bytes` — the container footer checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Bounded reader + allocation budget
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Heap bytes this decode may still allocate.
    budget: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor {
            buf,
            pos: 0,
            budget: MAX_DECODED_BYTES,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn need(&self, n: usize) -> Result<(), RegistryError> {
        if n > self.remaining() {
            return Err(RegistryError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        Ok(())
    }

    /// Charges `n` heap bytes against the decode budget before the
    /// caller allocates them.
    fn charge(&mut self, n: usize) -> Result<(), RegistryError> {
        if n > self.budget {
            return Err(RegistryError::Oversized {
                field: "decoded bytes",
                value: (MAX_DECODED_BYTES - self.budget).saturating_add(n) as u64,
                cap: MAX_DECODED_BYTES as u64,
            });
        }
        self.budget -= n;
        Ok(())
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], RegistryError> {
        self.need(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, RegistryError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, RegistryError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, RegistryError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f32(&mut self) -> Result<f32, RegistryError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// A `u16`-length-prefixed UTF-8 string bounded by [`MAX_NAME_LEN`].
    fn name(&mut self, field: &'static str) -> Result<String, RegistryError> {
        let len = usize::from(self.u16()?);
        if len > MAX_NAME_LEN {
            return Err(RegistryError::Oversized {
                field,
                value: len as u64,
                cap: MAX_NAME_LEN as u64,
            });
        }
        let raw = self.bytes(len)?;
        let s = std::str::from_utf8(raw).map_err(|e| RegistryError::BadField {
            field,
            detail: format!("invalid UTF-8: {e}"),
        })?;
        self.charge(len)?;
        Ok(s.to_string())
    }

    /// A dimension field bounded by [`MAX_DIM`].
    fn dim(&mut self, field: &'static str) -> Result<usize, RegistryError> {
        let v = self.u32()? as usize;
        if v > MAX_DIM {
            return Err(RegistryError::Oversized {
                field,
                value: v as u64,
                cap: MAX_DIM as u64,
            });
        }
        Ok(v)
    }

    /// Reads `count` IEEE-754 bit-exact f32 values after bounds- and
    /// budget-checking the whole run.
    fn f32_run(&mut self, count: usize) -> Result<Vec<f32>, RegistryError> {
        let bytes = count.checked_mul(4).ok_or(RegistryError::Oversized {
            field: "f32 run",
            value: u64::MAX,
            cap: MAX_DECODED_BYTES as u64,
        })?;
        self.need(bytes)?;
        self.charge(bytes)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.f32()?);
        }
        Ok(out)
    }
}

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn section(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.out.extend_from_slice(bytes);
    }
    fn name(&mut self, s: &str, field: &'static str) -> Result<(), RegistryError> {
        if s.len() > MAX_NAME_LEN {
            return Err(RegistryError::Oversized {
                field,
                value: s.len() as u64,
                cap: MAX_NAME_LEN as u64,
            });
        }
        self.u16(s.len() as u16);
        self.out.extend_from_slice(s.as_bytes());
        Ok(())
    }
    fn dim(&mut self, v: usize, field: &'static str) -> Result<(), RegistryError> {
        if v > MAX_DIM {
            return Err(RegistryError::Oversized {
                field,
                value: v as u64,
                cap: MAX_DIM as u64,
            });
        }
        self.u32(v as u32);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

fn activation_tag(a: Activation) -> u8 {
    match a {
        Activation::None => 0,
        Activation::Relu => 1,
        Activation::Sigmoid => 2,
    }
}

fn activation_from(tag: u8) -> Result<Activation, RegistryError> {
    match tag {
        0 => Ok(Activation::None),
        1 => Ok(Activation::Relu),
        2 => Ok(Activation::Sigmoid),
        other => Err(RegistryError::BadField {
            field: "activation",
            detail: format!("unknown tag {other}"),
        }),
    }
}

/// Serializes one model into a standalone `CSMR` container.
///
/// # Errors
///
/// Returns [`RegistryError`] when the artifact violates a container cap
/// (bad name, no layers, oversized geometry) — everything this function
/// accepts is guaranteed to decode back byte-for-byte.
pub fn encode_model(artifact: &ModelArtifact) -> Result<Vec<u8>, RegistryError> {
    if !valid_model_name(&artifact.name) {
        return Err(RegistryError::BadName(artifact.name.clone()));
    }
    if artifact.layers.is_empty() {
        return Err(RegistryError::BadField {
            field: "layer count",
            detail: "a container holds at least one layer".into(),
        });
    }
    if artifact.layers.len() > MAX_LAYERS {
        return Err(RegistryError::Oversized {
            field: "layer count",
            value: artifact.layers.len() as u64,
            cap: MAX_LAYERS as u64,
        });
    }
    let mut w = Writer {
        out: Vec::with_capacity(256),
    };
    w.out.extend_from_slice(&MAGIC);
    w.u8(CONTAINER_VERSION);
    w.name(&artifact.name, "model name")?;
    w.u32(artifact.version);
    w.u16(artifact.layers.len() as u16);
    for (format, activation) in &artifact.layers {
        match format {
            FcLayerFormat::Shared(l) => {
                w.u8(KIND_SHARED);
                w.u8(activation_tag(*activation));
                encode_shared(&mut w, l)?;
            }
            FcLayerFormat::BankBalanced(l) => {
                w.u8(KIND_BANK_BALANCED);
                w.u8(activation_tag(*activation));
                encode_bank_balanced(&mut w, l)?;
            }
        }
    }
    let crc = crc32(&w.out);
    w.u32(crc);
    if w.out.len() > MAX_CONTAINER_BYTES {
        return Err(RegistryError::Oversized {
            field: "container",
            value: w.out.len() as u64,
            cap: MAX_CONTAINER_BYTES as u64,
        });
    }
    Ok(w.out)
}

/// The `Shared` body: geometry, the index section, the per-group
/// binary16 codebooks, then the weight section; both sections of
/// [`SharedIndexLayer::encode_streams`] are `u32`-length-prefixed.
fn encode_shared(w: &mut Writer, l: &SharedIndexLayer) -> Result<(), RegistryError> {
    w.name(&l.name, "layer name")?;
    w.dim(l.n_in, "n_in")?;
    w.dim(l.n_out, "n_out")?;
    w.dim(l.group_size, "group_size")?;
    if l.quant_bits == 0 || l.quant_bits > 16 {
        return Err(RegistryError::BadField {
            field: "quant_bits",
            detail: format!("{} outside 1..=16", l.quant_bits),
        });
    }
    w.u8(l.quant_bits);
    if l.groups.len() > MAX_GROUPS {
        return Err(RegistryError::Oversized {
            field: "group count",
            value: l.groups.len() as u64,
            cap: MAX_GROUPS as u64,
        });
    }
    let streams = l.encode_streams().map_err(|e| RegistryError::BadField {
        field: "shared layer",
        detail: e.to_string(),
    })?;
    w.section(&streams.index);
    for g in &l.groups {
        let lut = g
            .codebook
            .to_binary16()
            .map_err(|c| RegistryError::BadField {
                field: "codebook",
                detail: format!("{c:e} ({:#010x}) is not a binary16 value", c.to_bits()),
            })?;
        lut.into_iter().for_each(|h| w.u16(h));
    }
    w.section(&streams.weights);
    Ok(())
}

/// The bank geometry both sides accept: a nonempty bank of at most 256
/// inputs (offsets fit a byte) keeping `1..=bank` survivors.
fn check_bank_geometry(bank: usize, k: usize) -> Result<(), RegistryError> {
    if bank == 0 || bank > 256 || k == 0 || k > bank {
        return Err(RegistryError::BadField {
            field: "bank geometry",
            detail: format!("bank {bank} / k {k}"),
        });
    }
    Ok(())
}

/// The `BankBalanced` body: geometry, the values, then the packed
/// offsets of [`BankBalancedFcLayer::encode_offsets`].
fn encode_bank_balanced(w: &mut Writer, l: &BankBalancedFcLayer) -> Result<(), RegistryError> {
    w.name(&l.name, "layer name")?;
    w.dim(l.n_in, "n_in")?;
    w.dim(l.n_out, "n_out")?;
    check_bank_geometry(l.bank, l.k)?;
    w.u32(l.bank as u32);
    w.u32(l.k as u32);
    let offsets = l.encode_offsets().map_err(|e| RegistryError::BadField {
        field: "bank offsets",
        detail: e.to_string(),
    })?;
    for &v in &l.values {
        w.f32(v);
    }
    w.out.extend_from_slice(&offsets);
    Ok(())
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

/// Decodes one `CSMR` container, validating every declared length against
/// the remaining buffer before allocating.
///
/// # Errors
///
/// Returns a typed [`RegistryError`] for every malformed input: bad
/// magic/version, checksum mismatch, truncation, oversized declarations,
/// non-canonical padding, inconsistent geometry, or trailing bytes.
pub fn decode_model(bytes: &[u8]) -> Result<ModelArtifact, RegistryError> {
    if bytes.len() > MAX_CONTAINER_BYTES {
        return Err(RegistryError::Oversized {
            field: "container",
            value: bytes.len() as u64,
            cap: MAX_CONTAINER_BYTES as u64,
        });
    }
    // Magic + version + name len + model version + layer count + CRC.
    if bytes.len() < 4 + 1 + 2 + 4 + 2 + 4 {
        return Err(RegistryError::Truncated {
            needed: 17,
            remaining: bytes.len(),
        });
    }
    if bytes[0..4] != MAGIC {
        return Err(RegistryError::BadMagic);
    }
    if bytes[4] != CONTAINER_VERSION {
        return Err(RegistryError::UnsupportedVersion(bytes[4]));
    }
    let payload = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes([
        bytes[bytes.len() - 4],
        bytes[bytes.len() - 3],
        bytes[bytes.len() - 2],
        bytes[bytes.len() - 1],
    ]);
    let computed = crc32(payload);
    if stored != computed {
        return Err(RegistryError::ChecksumMismatch { stored, computed });
    }
    let mut c = Cursor::new(payload);
    c.pos = 5; // past magic + version
    let name = c.name("model name")?;
    if !valid_model_name(&name) {
        return Err(RegistryError::BadName(name));
    }
    let version = c.u32()?;
    let layer_count = usize::from(c.u16()?);
    if layer_count == 0 {
        return Err(RegistryError::BadField {
            field: "layer count",
            detail: "a container holds at least one layer".into(),
        });
    }
    if layer_count > MAX_LAYERS {
        return Err(RegistryError::Oversized {
            field: "layer count",
            value: layer_count as u64,
            cap: MAX_LAYERS as u64,
        });
    }
    let mut layers = Vec::with_capacity(layer_count);
    let mut prev_out: Option<usize> = None;
    for _ in 0..layer_count {
        let kind = c.u8()?;
        let activation = activation_from(c.u8()?)?;
        let format = match kind {
            KIND_SHARED => FcLayerFormat::Shared(decode_shared(&mut c)?),
            KIND_BANK_BALANCED => FcLayerFormat::BankBalanced(decode_bank_balanced(&mut c)?),
            other => {
                return Err(RegistryError::BadField {
                    field: "layer kind",
                    detail: format!("unknown tag {other}"),
                })
            }
        };
        if let Some(prev) = prev_out {
            if format.n_in() != prev {
                return Err(RegistryError::BadField {
                    field: "layer chain",
                    detail: format!("n_in {} != previous n_out {prev}", format.n_in()),
                });
            }
        }
        prev_out = Some(format.n_out());
        layers.push((format, activation));
    }
    if c.remaining() != 0 {
        return Err(RegistryError::TrailingBytes(c.remaining()));
    }
    Ok(ModelArtifact {
        name,
        version,
        layers,
    })
}

fn decode_shared(c: &mut Cursor) -> Result<SharedIndexLayer, RegistryError> {
    let name = c.name("layer name")?;
    let n_in = c.dim("n_in")?;
    let n_out = c.dim("n_out")?;
    let group_size = c.dim("group_size")?;
    if group_size == 0 {
        return Err(RegistryError::BadField {
            field: "group_size",
            detail: "zero".into(),
        });
    }
    let quant_bits = c.u8()?;
    if quant_bits == 0 || quant_bits > 16 {
        return Err(RegistryError::BadField {
            field: "quant_bits",
            detail: format!("{quant_bits} outside 1..=16"),
        });
    }
    // The group count, the index image and every row count follow from
    // the geometry; charge their heap (the image, its per-group copy, the
    // canonical re-encode's copy, one Vec header per row and the groups)
    // before decoding a byte of it.
    let group_count = n_out.div_ceil(group_size);
    if group_count > MAX_GROUPS {
        return Err(RegistryError::Oversized {
            field: "group count",
            value: group_count as u64,
            cap: MAX_GROUPS as u64,
        });
    }
    c.charge(
        3 * n_in * group_count
            + n_out * std::mem::size_of::<Vec<u16>>()
            + group_count * std::mem::size_of::<OutputGroup>(),
    )?;
    let mut layer = SharedIndexLayer {
        name,
        n_in,
        n_out,
        group_size,
        quant_bits,
        groups: vec![OutputGroup::default(); group_count],
    };
    let shared = |e: cs_compress::CompressError| RegistryError::BadField {
        field: "shared layer",
        detail: e.to_string(),
    };
    let len = c.u32()? as usize;
    layer.decode_index(c.bytes(len)?).map_err(shared)?;
    // The indexes fix every codebook's length; each entry widens from
    // its binary16 bits to an `f32`.
    for gi in 0..group_count {
        let entries = codebook_len(quant_bits, layer.groups[gi].survivors() * layer.rows_of(gi));
        let bits = c.bytes(2 * entries)?;
        c.charge(4 * entries)?;
        let lut = bits
            .chunks_exact(2)
            .map(|b| u16::from_le_bytes([b[0], b[1]]));
        layer.groups[gi].codebook = Codebook::from_binary16(lut);
    }
    // Each weight index is held twice as a u16: the decoded stream and
    // its rows (the re-encode's stream reuses the first's size).
    let len = c.u32()? as usize;
    let weights = c.bytes(len)?;
    layer
        .decode_weights(weights, c.budget / 4)
        .map_err(shared)?;
    c.charge(4 * layer.surviving())?;
    Ok(layer)
}

fn decode_bank_balanced(c: &mut Cursor) -> Result<BankBalancedFcLayer, RegistryError> {
    let name = c.name("layer name")?;
    let n_in = c.dim("n_in")?;
    let n_out = c.dim("n_out")?;
    let bank = c.u32()? as usize;
    let k = c.u32()? as usize;
    check_bank_geometry(bank, k)?;
    // Geometry is derived, never declared: no hostile-length surface.
    let survivors =
        n_out
            .checked_mul(survivors_per_lane(n_in, bank, k))
            .ok_or(RegistryError::Oversized {
                field: "bank-balanced values",
                value: u64::MAX,
                cap: MAX_DECODED_BYTES as u64,
            })?;
    let values = c.f32_run(survivors)?;
    // One byte per decoded offset.
    c.charge(survivors)?;
    let mut layer = BankBalancedFcLayer {
        name,
        n_in,
        n_out,
        bank,
        k,
        offsets: Vec::new(),
        values,
    };
    let stream = c.bytes(layer.index_bits().div_ceil(8))?;
    layer
        .decode_offsets(stream)
        .map_err(|e| RegistryError::BadField {
            field: "bank offsets",
            detail: e.to_string(),
        })?;
    Ok(layer)
}
