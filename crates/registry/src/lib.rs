//! cs-registry — versioned storage for compressed models.
//!
//! The Cambricon-S pipeline compresses a network once (prune → quantize →
//! entropy-code) and then serves it many times; this crate is the layer
//! between those two phases. It defines:
//!
//! - [`ModelArtifact`]: a named, versioned stack of compressed FC layers
//!   ([`cs_compress::format::FcLayerFormat`]) with activations — the unit
//!   the serving runtime hot-loads;
//! - the `CSMR` container ([`encode_model`] / [`decode_model`]): a
//!   checksummed, canonical, length-bounds-checked byte encoding with
//!   byte-exact round trips and hard pre-allocation caps (hostile input
//!   gets a typed [`RegistryError`], never a panic). A shared-index layer
//!   is stored as the entropy-coded sections of
//!   `SharedIndexLayer::encode_streams`, the bytes Table IV counts, and a
//!   bank-balanced (2:4 included) layer as its values and its offsets at
//!   `ceil(log2 bank)` bits each;
//! - [`RegistryStore`]: a directory of containers keyed by
//!   `(name, version)` with atomic saves.
//!
//! ```
//! use cs_registry::{ModelArtifact, RegistryStore};
//! # use cs_compress::format::{BankBalancedFcLayer, FcLayerFormat};
//! # use cs_accel::pe::Activation;
//! # fn layer() -> FcLayerFormat {
//! #     FcLayerFormat::BankBalanced(BankBalancedFcLayer {
//! #         name: "fc0".into(), n_in: 4, n_out: 1, bank: 4, k: 2,
//! #         offsets: vec![0, 1], values: vec![1.0, 2.0],
//! #     })
//! # }
//! let dir = std::env::temp_dir().join("csmr-doc-example");
//! let store = RegistryStore::open(&dir).unwrap();
//! let artifact = ModelArtifact {
//!     name: "mlp".into(),
//!     version: 1,
//!     layers: vec![(layer(), Activation::Relu)],
//! };
//! store.save(&artifact).unwrap();
//! assert_eq!(store.load("mlp", 1).unwrap(), artifact);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod container;
pub mod error;
pub mod store;

pub use container::{
    crc32, decode_model, encode_model, valid_model_name, ModelArtifact, CONTAINER_VERSION, MAGIC,
    MAX_CONTAINER_BYTES, MAX_DECODED_BYTES, MAX_DIM, MAX_LAYERS, MAX_NAME_LEN,
};
pub use error::RegistryError;
pub use store::{RegistryStore, StoredModel};

#[cfg(test)]
mod tests {
    use super::*;
    use cs_accel::pe::Activation;
    use cs_compress::format::{BankBalancedFcLayer, FcLayerFormat, OutputGroup, SharedIndexLayer};
    use cs_quant::{binary16, Codebook};
    use cs_sparsity::structured::survivors_per_lane;

    fn shared_layer(name: &str, n_in: usize, n_out: usize) -> FcLayerFormat {
        let group_size = 4.min(n_out).max(1);
        let index: Vec<bool> = (0..n_in).map(|i| i % 2 == 0).collect();
        let survivors = index.iter().filter(|b| **b).count();
        // Finite binary16 centroids so derived PartialEq works in
        // equality-based tests; NaN payloads get their own bitwise test
        // below. Two-bit weights over at least four per group: exactly
        // four entries.
        let codebook = Codebook::new(vec![-1.5, 0.0, 0.25, 2.0]);
        let mut groups = Vec::new();
        let mut remaining = n_out;
        while remaining > 0 {
            let rows = group_size.min(remaining);
            groups.push(OutputGroup {
                index: index.clone(),
                weights: (0..rows)
                    .map(|r| (0..survivors).map(|s| ((r + s) % 4) as u16).collect())
                    .collect(),
                codebook: codebook.clone(),
            });
            remaining -= rows;
        }
        FcLayerFormat::Shared(SharedIndexLayer {
            name: name.into(),
            n_in,
            n_out,
            group_size,
            quant_bits: 2,
            groups,
        })
    }

    fn bank_layer(name: &str, n_in: usize, n_out: usize, bank: usize, k: usize) -> FcLayerFormat {
        let stride = survivors_per_lane(n_in, bank, k);
        FcLayerFormat::BankBalanced(BankBalancedFcLayer {
            name: name.into(),
            n_in,
            n_out,
            bank,
            k,
            offsets: (0..n_out * stride).map(|i| (i % k) as u8).collect(),
            values: (0..n_out * stride).map(|i| -(i as f32) * 0.125).collect(),
        })
    }

    fn artifact() -> ModelArtifact {
        ModelArtifact {
            name: "unit-mlp".into(),
            version: 7,
            layers: vec![
                (shared_layer("fc0", 12, 8), Activation::Relu),
                (bank_layer("fc1", 8, 6, 4, 2), Activation::Sigmoid),
                (bank_layer("fc2", 6, 3, 6, 2), Activation::None),
            ],
        }
    }

    #[test]
    fn round_trip_is_byte_exact() {
        let art = artifact();
        let bytes = encode_model(&art).unwrap();
        let decoded = decode_model(&bytes).unwrap();
        assert_eq!(decoded, art);
        assert_eq!(encode_model(&decoded).unwrap(), bytes);
    }

    #[test]
    fn nan_and_negative_zero_codebook_values_survive_bitwise() {
        let payload = [binary16::widen(0xFD55), -0.0, 0.0, f32::NEG_INFINITY];
        let mut art = artifact();
        if let FcLayerFormat::Shared(l) = &mut art.layers[0].0 {
            for g in &mut l.groups {
                g.codebook = Codebook::new(payload.to_vec());
            }
        }
        let bytes = encode_model(&art).unwrap();
        let decoded = decode_model(&bytes).unwrap();
        let FcLayerFormat::Shared(l) = &decoded.layers[0].0 else {
            panic!("layer kind changed in round trip");
        };
        for (got, want) in l.groups[0].codebook.centroids().iter().zip(payload) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert_eq!(encode_model(&decoded).unwrap(), bytes);
    }

    #[test]
    fn every_truncation_prefix_fails_typed() {
        let bytes = encode_model(&artifact()).unwrap();
        for n in 0..bytes.len() {
            let err = decode_model(&bytes[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    RegistryError::Truncated { .. } | RegistryError::ChecksumMismatch { .. }
                ),
                "prefix {n}: unexpected {err}"
            );
        }
    }

    #[test]
    fn bit_flips_never_round_trip_silently() {
        let bytes = encode_model(&artifact()).unwrap();
        for pos in [0, 4, 5, 9, 16, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            match decode_model(&bad) {
                // CRC catches almost everything; anything that slips
                // through (a flip inside the CRC itself cannot) must
                // still be a typed failure.
                Err(_) => {}
                Ok(art) => assert_ne!(encode_model(&art).unwrap(), bytes),
            }
        }
    }

    #[test]
    fn hostile_declared_lengths_are_capped_before_allocation() {
        // A syntactically valid header whose layer count is absurd: the
        // decoder must reject on the cap, not attempt the allocation.
        let mut bytes = encode_model(&artifact()).unwrap();
        let name_len = 2 + "unit-mlp".len();
        let layer_count_at = 4 + 1 + name_len + 4;
        bytes[layer_count_at] = 0xFF;
        bytes[layer_count_at + 1] = 0xFF;
        let crc_at = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        match decode_model(&bytes).unwrap_err() {
            RegistryError::Oversized { field, cap, .. } => {
                assert_eq!(field, "layer count");
                assert_eq!(cap, MAX_LAYERS as u64);
            }
            other => panic!("expected Oversized, got {other}"),
        }
    }

    #[test]
    fn bad_magic_version_and_trailing_bytes_are_typed() {
        let good = encode_model(&artifact()).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_model(&bad).unwrap_err(),
            RegistryError::BadMagic
        ));

        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(
            decode_model(&bad).unwrap_err(),
            RegistryError::UnsupportedVersion(9)
        ));

        let mut bad = good.clone();
        let body_len = bad.len() - 4;
        bad.truncate(body_len);
        bad.push(0);
        let crc = crc32(&bad);
        bad.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_model(&bad).unwrap_err(),
            RegistryError::TrailingBytes(1)
        ));
    }

    /// Reseals the CRC footer after an edit.
    fn reseal(bytes: &mut Vec<u8>) {
        let body = bytes.len() - 4;
        bytes.truncate(body);
        let crc = crc32(bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
    }

    /// Offsets of the one shared layer's three sections in a
    /// single-layer container: `(index, codebooks, weights, end)`, the
    /// index and weight offsets pointing at their `u32` length prefix.
    fn shared_sections(bytes: &[u8], model: &str, layer: &SharedIndexLayer) -> [usize; 4] {
        let u32_at =
            |i: usize| u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        // magic, version, name, model version, layer count, kind,
        // activation, layer name, n_in, n_out, group_size, quant_bits.
        let index = 4 + 1 + 2 + model.len() + 4 + 2 + 2 + 2 + layer.name.len() + 12 + 1;
        let codebooks = index + 4 + u32_at(index) as usize;
        let weights = codebooks + layer.lut_bytes();
        let end = weights + 4 + u32_at(weights) as usize;
        [index, codebooks, weights, end]
    }

    #[test]
    fn table_iv_sizes_are_the_stored_section_lengths() {
        use cs_compress::config::ModelCompressionConfig;
        use cs_compress::pipeline::compress_model_with;
        use cs_nn::spec::{Model, NetworkSpec, Scale};

        let spec = NetworkSpec::model(Model::Mlp, Scale::Reduced(2));
        let cfg = ModelCompressionConfig::paper(Model::Mlp);
        let mut first = None;
        compress_model_with(&spec, &cfg, 7, |report, stored| {
            first.get_or_insert((report.clone(), stored.clone()));
        })
        .unwrap();
        let (report, stored) = first.unwrap();
        let FcLayerFormat::Shared(shared) = &stored else {
            panic!("coarse MLP layers store the shared-index format");
        };
        let art = ModelArtifact {
            name: "tab4".into(),
            version: 1,
            layers: vec![(stored.clone(), Activation::Relu)],
        };
        let bytes = encode_model(&art).unwrap();
        let [index, codebooks, weights, end] = shared_sections(&bytes, "tab4", shared);
        assert_eq!(end + 4, bytes.len(), "sections tile the container");
        assert_eq!(report.ic_bytes, codebooks - index - 4);
        // The codebook section is the LUTs' count, 16 bits per entry.
        let luts: usize = shared.groups.iter().map(|g| g.codebook.byte_size()).sum();
        assert_eq!(weights - codebooks, luts);
        assert_eq!(report.wc_bytes, (weights - codebooks) + (end - weights - 4));
        assert_eq!(report.wq_bytes, shared.weight_bytes());
        assert_eq!(report.coarse_index_bits, shared.index_bits());
        assert_eq!(decode_model(&bytes).unwrap(), art);
    }

    #[test]
    fn non_canonical_or_hostile_sections_are_rejected() {
        let art = ModelArtifact {
            name: "canon".into(),
            version: 1,
            layers: vec![(shared_layer("fc0", 12, 8), Activation::Relu)],
        };
        let good = encode_model(&art).unwrap();
        let FcLayerFormat::Shared(layer) = &art.layers[0].0 else {
            unreachable!()
        };
        let [index, codebooks, weights, end] = shared_sections(&good, "canon", layer);
        // One trailing byte on a section still decodes to the same layer,
        // but it is not the canonical encoding of that layer.
        for (prefix, section_end) in [(index, codebooks), (weights, end)] {
            let mut bad = good.clone();
            bad.insert(section_end, 0);
            let len = u32::from_le_bytes(bad[prefix..prefix + 4].try_into().unwrap()) + 1;
            bad[prefix..prefix + 4].copy_from_slice(&len.to_le_bytes());
            reseal(&mut bad);
            match decode_model(&bad).unwrap_err() {
                RegistryError::BadField { field, detail } => {
                    assert_eq!(field, "shared layer");
                    assert!(detail.contains("canonical"), "{detail}");
                }
                other => panic!("expected BadField, got {other}"),
            }
        }
        // An index image declaring 0xFFFF_FFFF x 0xFFFF_FFFF pixels.
        let mut bad = good.clone();
        bad[index + 4..index + 12].copy_from_slice(&[0xFF; 8]);
        reseal(&mut bad);
        assert!(matches!(
            decode_model(&bad).unwrap_err(),
            RegistryError::BadField { .. }
        ));
    }

    #[test]
    fn version_one_containers_are_unsupported() {
        for version in [1, 2, 3] {
            let mut old = encode_model(&artifact()).unwrap();
            old[4] = version;
            reseal(&mut old);
            assert!(matches!(
                decode_model(&old).unwrap_err(),
                RegistryError::UnsupportedVersion(v) if v == version
            ));
        }
    }

    #[test]
    fn a_codebook_entry_that_is_not_binary16_fails_encode() {
        // 1 + 2^-12 lies between two binary16 values; a NaN payload in
        // the low 13 bits is dropped by binary16.
        for entry in [1.0 + 2f32.powi(-12), f32::from_bits(0x7FC0_0001), 1e-30] {
            let mut art = artifact();
            if let FcLayerFormat::Shared(l) = &mut art.layers[0].0 {
                l.groups[1].codebook = Codebook::new(vec![-1.5, entry, 0.25, 2.0]);
            }
            match encode_model(&art).unwrap_err() {
                RegistryError::BadField { field, .. } => assert_eq!(field, "codebook"),
                other => panic!("expected BadField, got {other}"),
            }
        }
    }

    /// A one-layer container holding `layer`.
    fn one_layer(layer: FcLayerFormat) -> ModelArtifact {
        ModelArtifact {
            name: "bank".into(),
            version: 1,
            layers: vec![(layer, Activation::None)],
        }
    }

    #[test]
    fn bank_offsets_take_exactly_their_index_bits() {
        // 2 bits per offset at bank 4 (2:4), 4 at bank 16, 3 at bank 6.
        for (bank, k, bits) in [(4, 2, 2), (16, 5, 4), (6, 2, 3)] {
            let layer = bank_layer("fc", 37, 5, bank, k);
            assert_eq!(layer.index_bits(), layer.surviving() * bits);
            let bytes = encode_model(&one_layer(layer.clone())).unwrap();
            // Header, layer kind and name, four u32 fields, the values,
            // the offsets, the CRC.
            let body = 4 + 1 + 2 + 4 + 4 + 2 + 2 + 2 + 2 + 16 + 4 * layer.surviving();
            assert_eq!(
                bytes.len(),
                body + layer.index_bits().div_ceil(8) + 4,
                "bank {bank}"
            );
            assert_eq!(decode_model(&bytes).unwrap().layers[0].0, layer);
        }
    }

    #[test]
    fn bank_balanced_k_zero_is_rejected_both_ways() {
        let FcLayerFormat::BankBalanced(mut l) = bank_layer("fc", 8, 2, 4, 2) else {
            unreachable!()
        };
        let good = encode_model(&one_layer(FcLayerFormat::BankBalanced(l.clone()))).unwrap();
        l.k = 0;
        let bad_field = |e: RegistryError| {
            matches!(
                e,
                RegistryError::BadField {
                    field: "bank geometry",
                    ..
                }
            )
        };
        let art = one_layer(FcLayerFormat::BankBalanced(l));
        assert!(bad_field(encode_model(&art).unwrap_err()));
        // Magic, version, model name, model version, layer count, kind,
        // activation, layer name, n_in, n_out, bank: then k.
        let k_at = 4 + 1 + 2 + 4 + 4 + 2 + 2 + 2 + 2 + 12;
        assert_eq!(good[k_at..k_at + 4], 2u32.to_le_bytes());
        let mut bad = good.clone();
        bad[k_at..k_at + 4].copy_from_slice(&0u32.to_le_bytes());
        reseal(&mut bad);
        assert!(bad_field(decode_model(&bad).unwrap_err()));
    }

    #[test]
    fn store_round_trips_and_lists_sorted() {
        let dir = std::env::temp_dir().join(format!("csmr-store-rt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = RegistryStore::open(&dir).unwrap();
        let mut v1 = artifact();
        let mut v2 = artifact();
        v2.version = 8;
        v1.name = "alpha".into();
        v2.name = "alpha".into();
        let mut other = artifact();
        other.name = "beta".into();
        store.save(&v2).unwrap();
        store.save(&v1).unwrap();
        store.save(&other).unwrap();
        assert_eq!(store.load("alpha", 7).unwrap(), v1);
        assert_eq!(store.load("alpha", 8).unwrap(), v2);
        let listed = store.list().unwrap();
        let keys: Vec<(String, u32)> = listed.iter().map(|m| (m.name.clone(), m.version)).collect();
        assert_eq!(
            keys,
            vec![
                ("alpha".to_string(), 7),
                ("alpha".to_string(), 8),
                ("beta".to_string(), 7)
            ]
        );
        assert!(store.exists("alpha", 7));
        store.remove("alpha", 7).unwrap();
        assert!(!store.exists("alpha", 7));
        assert!(matches!(
            store.load("alpha", 7).unwrap_err(),
            RegistryError::NotFound { .. }
        ));
    }

    #[test]
    fn traversal_names_are_rejected() {
        let dir = std::env::temp_dir().join(format!("csmr-store-names-{}", std::process::id()));
        let store = RegistryStore::open(&dir).unwrap();
        for name in ["../evil", "a/b", "", ".", "..", "spa ce"] {
            assert!(
                matches!(store.load(name, 1).unwrap_err(), RegistryError::BadName(_)),
                "{name:?} accepted"
            );
        }
    }
}
