//! Registry container conformance: CSMR codec fuzzing and the corpus
//! round-trip leg.
//!
//! The on-disk model container (`cs-registry`) carries compiled layer
//! formats between the compression pipeline and the serving runtime, so
//! it inherits the same adversarial posture as the cs-net wire codec:
//! hostile bytes must produce a typed [`RegistryError`], never a panic,
//! never an allocation past the documented caps. Two checks enforce it:
//!
//! * [`fuzz_container`] — a seed-replayable sweep. Every case compiles
//!   a generator-produced FC network (the same generator the
//!   differential executor uses, so coarse shared-index and
//!   bank-balanced bodies (2:4 included) with ragged tails, padded
//!   codebooks and degenerate banks all appear) into a [`ModelArtifact`] and demands
//!   a byte-exact `encode → decode → encode` round trip. A poisoned
//!   twin overwrites codebook entries with any of the 2^16 binary16
//!   patterns and packed values with raw `f32` bit patterns (NaN payloads,
//!   ±0.0, infinities, subnormals) — byte-level comparison, so NaN cannot
//!   hide behind `PartialEq`. The encoding is then mutated (truncations, bit
//!   flips, hostile length fields, appended junk, pure noise) and the
//!   decoder must return a value without panicking, with every
//!   `Oversized` report truthful about its cap. Half of the mutations
//!   get a fresh CRC footer, so they reach the layer bodies and the
//!   section decoders behind them; one that still decodes must be
//!   canonical (`encode_model(decoded) == mutated`).
//! * [`check_store_roundtrip`] — the corpus leg for `registry: true`
//!   entries: the pinned case's compiled layers go through a real
//!   on-disk [`RegistryStore`] save → load → save, and both the bytes
//!   and the decoded artifact must survive unchanged.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cs_quant::{binary16, Codebook};
use cs_registry::{crc32, decode_model, encode_model, ModelArtifact, RegistryError, RegistryStore};

use crate::diff::FcArtifacts;
use crate::gen::{self, CaseKind};
use crate::rng::CaseRng;
use crate::{diff, Mismatch};

/// Mutations fuzzed per case (matching the net codec sweep).
const MUTATIONS_PER_CASE: u64 = 4;

/// Builds the registry artifact for a compiled FC case.
pub fn artifact_from(art: &FcArtifacts, name: &str, version: u32) -> ModelArtifact {
    ModelArtifact {
        name: name.to_string(),
        version,
        layers: art
            .layers
            .iter()
            .map(|l| (l.format.clone(), l.activation))
            .collect(),
    }
}

/// A special f32 drawn from raw bits: NaN payloads, ±inf, ±0.0,
/// subnormals.
fn special_f32(rng: &mut CaseRng) -> f32 {
    match rng.range(0, 6) {
        0 => f32::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        _ => f32::from_bits(rng.next_u64() as u32),
    }
}

/// A twin of `artifact` with codebook entries overwritten by binary16
/// patterns and packed survivor values by special `f32` bit patterns.
/// Lengths are preserved, so the poisoned artifact stays structurally
/// valid — only the payloads are hostile.
fn poison(artifact: &ModelArtifact, rng: &mut CaseRng) -> ModelArtifact {
    use cs_compress::format::FcLayerFormat;
    let mut out = artifact.clone();
    for (format, _) in &mut out.layers {
        match format {
            FcLayerFormat::Shared(l) => {
                for g in &mut l.groups {
                    let mut lut = g.codebook.centroids().to_vec();
                    for c in &mut lut {
                        if rng.chance(0.5) {
                            *c = binary16::widen(rng.next_u64() as u16);
                        }
                    }
                    g.codebook = Codebook::new(lut);
                }
            }
            FcLayerFormat::BankBalanced(l) => {
                for v in &mut l.values {
                    if rng.chance(0.5) {
                        *v = special_f32(rng);
                    }
                }
            }
        }
    }
    out
}

/// Byte-exact `encode → decode → encode` round trip; returns the valid
/// encoding for the mutation stage.
fn check_roundtrip(
    artifact: &ModelArtifact,
    what: &str,
    index: u64,
    out: &mut Vec<Mismatch>,
) -> Option<Vec<u8>> {
    let bytes = match encode_model(artifact) {
        Ok(b) => b,
        Err(e) => {
            out.push(Mismatch::new(
                "registry-encode-valid",
                format!("case {index}: {what}: valid artifact rejected by encode: {e}"),
            ));
            return None;
        }
    };
    let decoded = match decode_model(&bytes) {
        Ok(d) => d,
        Err(e) => {
            out.push(Mismatch::new(
                "registry-decode-valid",
                format!("case {index}: {what}: own encoding rejected: {e}"),
            ));
            return Some(bytes);
        }
    };
    // Byte-level comparison: exact for NaN payloads, and also proves
    // the encoding is canonical.
    match encode_model(&decoded) {
        Ok(re) if re == bytes => {}
        Ok(re) => out.push(Mismatch::new(
            "registry-roundtrip-bytes",
            format!(
                "case {index}: {what}: re-encoding changed {} -> {} bytes",
                bytes.len(),
                re.len()
            ),
        )),
        Err(e) => out.push(Mismatch::new(
            "registry-roundtrip-reencode",
            format!("case {index}: {what}: decoded artifact rejected by encode: {e}"),
        )),
    }
    if decoded.name != artifact.name
        || decoded.version != artifact.version
        || decoded.layers.len() != artifact.layers.len()
    {
        out.push(Mismatch::new(
            "registry-roundtrip-identity",
            format!("case {index}: {what}: key or layer count changed across the round trip"),
        ));
    }
    Some(bytes)
}

/// Seeded mutation of a valid container encoding.
fn mutate(rng: &mut CaseRng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.range(0, 5) {
        // Truncate at a random point.
        0 => {
            let cut = rng.range(0, out.len() as u64 + 1) as usize;
            out.truncate(cut);
        }
        // Flip one random byte.
        1 => {
            if !out.is_empty() {
                let i = rng.range(0, out.len() as u64) as usize;
                out[i] ^= (rng.next_u64() as u8) | 1;
            }
        }
        // Hostile length: blast a 4-byte window with a huge value —
        // lands on a dim, count or name-length field often enough to
        // probe every pre-allocation cap.
        2 => {
            if out.len() > 8 {
                let i = rng.range(4, out.len() as u64 - 4) as usize;
                let hostile = rng.next_u64() as u32 | 0x8000_0000;
                out[i..i + 4].copy_from_slice(&hostile.to_le_bytes());
            }
        }
        // Append random junk after the footer.
        3 => {
            let extra = rng.range(1, 32) as usize;
            for _ in 0..extra {
                out.push(rng.next_u64() as u8);
            }
        }
        // Replace with pure random bytes of random length.
        _ => {
            let len = rng.range(0, 96) as usize;
            out = (0..len).map(|_| rng.next_u64() as u8).collect();
        }
    }
    out
}

/// Rewrites the CRC footer so the mutation gets past the checksum.
fn reseal(bytes: &mut [u8]) {
    if let Some(body) = bytes.len().checked_sub(4) {
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// What a container fuzz sweep found.
#[derive(Debug, Default)]
pub struct ContainerFuzz {
    /// Every contract violation (empty = clean sweep).
    pub mismatches: Vec<Mismatch>,
    /// Mutations that were given a fresh CRC footer.
    pub resealed: u64,
    /// Re-sealed mutations that reached a layer's section decoder: they
    /// decoded, or a shared layer's sections or bank offsets rejected them.
    pub reached_sections: u64,
}

/// Decode must be total: a value without panicking, any `Oversized`
/// report truthful about its cap, and a mutation that decodes must be
/// the canonical encoding of what it decodes to. Returns whether the
/// decode reached a layer's section decoder.
fn check_decode_total(bytes: &[u8], index: u64, out: &mut Vec<Mismatch>) -> bool {
    let result = catch_unwind(AssertUnwindSafe(|| decode_model(bytes)));
    match result {
        Err(_) => {
            out.push(Mismatch::new(
                "registry-decode-panic",
                format!(
                    "case {index}: decode panicked on mutated input ({} bytes)",
                    bytes.len()
                ),
            ));
            false
        }
        Ok(Err(RegistryError::Oversized { field, value, cap })) => {
            if value <= cap {
                out.push(Mismatch::new(
                    "registry-oversized-lie",
                    format!("case {index}: Oversized({field}) reported for {value} <= cap {cap}"),
                ));
            }
            false
        }
        Ok(Err(RegistryError::BadField { field, .. })) => {
            matches!(field, "shared layer" | "bank offsets")
        }
        Ok(Err(_)) => false,
        Ok(Ok(art)) => {
            if encode_model(&art).ok().as_deref() != Some(bytes) {
                out.push(Mismatch::new(
                    "registry-noncanonical",
                    format!(
                        "case {index}: a mutated container ({} bytes) decodes but re-encodes differently",
                        bytes.len()
                    ),
                ));
            }
            true
        }
    }
}

/// Fuzzes the CSMR container codec with `cases` seed-replayable cases
/// (each contributing `MUTATIONS_PER_CASE` hostile mutations on top
/// of the valid and poisoned round trips).
pub fn fuzz_container(seed: u64, cases: u64) -> ContainerFuzz {
    let mut report = ContainerFuzz::default();
    let out = &mut report.mismatches;
    let mut scan = 0u64;
    for index in 0..cases {
        // The generator interleaves conv and LSTM cases; keep scanning
        // until the next FC network, which is what the container holds.
        let fc = loop {
            let case = gen::generate(seed, scan);
            scan += 1;
            if let CaseKind::FcNet(fc) = case.kind {
                break fc;
            }
        };
        let art = match diff::build_fc(&fc) {
            Ok(a) => a,
            Err(m) => {
                out.push(m);
                continue;
            }
        };
        let mut rng = CaseRng::new(seed ^ 0xC5_C5, index);
        let artifact = artifact_from(&art, "fuzz.model-1", index as u32);

        let bytes = check_roundtrip(&artifact, "valid", index, out);
        let poisoned = poison(&artifact, &mut rng);
        check_roundtrip(&poisoned, "poisoned", index, out);

        if let Some(bytes) = bytes {
            for _ in 0..MUTATIONS_PER_CASE {
                let mut mutated = mutate(&mut rng, &bytes);
                let resealed = rng.chance(0.5);
                if resealed {
                    reseal(&mut mutated);
                    report.resealed += 1;
                }
                let reached = check_decode_total(&mutated, index, out);
                report.reached_sections += u64::from(resealed && reached);
            }
        }
        if out.len() > 16 {
            break; // a broken codec fails every case; don't flood
        }
    }
    report
}

/// The corpus leg for `registry: true` entries: the case's compiled
/// layers through a real on-disk store — save → load → save must
/// preserve both the bytes and the decoded artifact exactly.
pub fn check_store_roundtrip(art: &FcArtifacts, seed: u64, case: u64) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let artifact = artifact_from(art, "corpus.model", (case as u32).max(1));
    let bytes = match check_roundtrip(&artifact, "corpus", case, &mut out) {
        Some(b) => b,
        None => return out,
    };

    let dir = std::env::temp_dir().join(format!(
        "cs-conformance-registry-{}-{seed}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let stored = RegistryStore::open(&dir)
        .and_then(|store| {
            store.save(&artifact)?;
            store.load_bytes(&artifact.name, artifact.version)
        })
        .map_err(|e| {
            Mismatch::new(
                "registry-store-roundtrip",
                format!("seed {seed} case {case}: store save/load failed: {e}"),
            )
        });
    match stored {
        Ok(loaded) if loaded == bytes => {}
        Ok(loaded) => out.push(Mismatch::new(
            "registry-store-bytes",
            format!(
                "seed {seed} case {case}: store returned {} bytes, saved {}",
                loaded.len(),
                bytes.len()
            ),
        )),
        Err(m) => out.push(m),
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tier-1 sweep: 125 cases x 4 mutations = 500 hostile decodes
    /// (about half of them re-sealed past the CRC) on top of 250
    /// byte-exact round trips (125 of them poisoned with NaN/±0.0/inf
    /// payloads).
    #[test]
    fn container_fuzz_sweep_is_clean() {
        let fuzz = fuzz_container(0xC5, 125);
        assert!(
            fuzz.mismatches.is_empty(),
            "container fuzz found violations: {:?}",
            fuzz.mismatches
        );
        assert!(fuzz.resealed > 150, "{} re-sealed", fuzz.resealed);
        assert!(fuzz.reached_sections > 0, "no mutation reached a body");
    }

    #[test]
    fn container_fuzz_is_deterministic() {
        let a = fuzz_container(0xF00D, 24);
        let b = fuzz_container(0xF00D, 24);
        assert_eq!(
            (a.mismatches.len(), a.resealed, a.reached_sections),
            (b.mismatches.len(), b.resealed, b.reached_sections),
            "fuzz sweep must be seed-replayable"
        );
    }

    #[test]
    fn a_rejected_bank_offset_stream_counts_as_reached() {
        use cs_accel::pe::Activation;
        use cs_compress::format::{BankBalancedFcLayer, FcLayerFormat};

        // Bank 3 stores 2-bit offsets: three of them and two padding
        // bits fill the container's last byte before the CRC.
        let layer = BankBalancedFcLayer {
            name: "fc".into(),
            n_in: 9,
            n_out: 1,
            bank: 3,
            k: 1,
            offsets: vec![0, 1, 2],
            values: vec![0.5, -1.0, 2.0],
        };
        let artifact = ModelArtifact {
            name: "bank".into(),
            version: 1,
            layers: vec![(FcLayerFormat::BankBalanced(layer), Activation::None)],
        };
        let mut bytes = encode_model(&artifact).unwrap();
        let offsets = bytes.len() - 5;
        assert_eq!(bytes[offsets], 0b0001_1000);
        // Offset 3 lies outside the bank.
        bytes[offsets] = 0b1100_0000;
        reseal(&mut bytes);
        assert!(matches!(
            decode_model(&bytes),
            Err(RegistryError::BadField {
                field: "bank offsets",
                ..
            })
        ));
        let mut out = Vec::new();
        assert!(check_decode_total(&bytes, 0, &mut out));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn garbage_and_empty_inputs_yield_typed_errors() {
        assert!(decode_model(&[]).is_err());
        assert!(decode_model(b"CSMR").is_err());
        assert!(decode_model(&[0xFF; 64]).is_err());
    }
}
