//! Network-path conformance: codec fuzzing and the socket differential.
//!
//! Two checks close the loop through `cs-net`:
//!
//! * [`fuzz_codec`] — a seed-replayable sweep over the frame codec.
//!   Every case builds a random valid frame (ids across the u64 range,
//!   model names with multi-byte UTF-8, f32 payloads drawn from raw bit
//!   patterns so NaNs, infinities and both zeros appear) and demands a
//!   byte-exact `encode → decode → encode` round trip (byte-level, so
//!   NaN payloads cannot hide behind `PartialEq`). It then mutates the
//!   encoding — truncations, bit flips, hostile length prefixes,
//!   appended junk — and demands the decoder returns a value (`Ok` or a
//!   typed [`WireError`]) without panicking and without allocating past
//!   the payload cap. Every byte stream — valid and mutated — is
//!   additionally replayed through the reactor's incremental
//!   [`FrameAssembler`] under seeded random chunking: same frames, the
//!   same typed error, no panic, and buffering bounded by one maximal
//!   frame, so the blocking and the incremental decoder agree even on
//!   hostile input.
//! * [`check_serve_socket`] — the served-output comparison of
//!   [`crate::serve_check`] run over real loopback TCP: the probes sent
//!   through a [`cs_net::NetServer`] on the Sparse backend must come back
//!   bit-identical to a direct in-process lane forward, and to the dense
//!   oracle on finite probes. The wire format's f32-bits encoding makes
//!   this exact, and the corpus pins one such case forever.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cs_net::wire::{ErrorCode, Frame, WireError, DEFAULT_MAX_PAYLOAD, HEADER_LEN};
use cs_net::{Client, FrameAssembler, NetConfig, NetServer};
use cs_serve::{ExecBackend, ServableModel, ServeConfig, Server};

use crate::diff::FcArtifacts;
use crate::rng::CaseRng;
use crate::serve_check::{check_front, registry_of, reply_of, Front, Reply, MODEL};
use crate::Mismatch;

/// Builds a random valid frame from the case's RNG stream.
fn gen_frame(rng: &mut CaseRng) -> Frame {
    let id = rng.next_u64();
    fn gen_string(rng: &mut CaseRng) -> String {
        const ALPHABET: [&str; 12] = [
            "a", "z", "0", "_", "-", ".", "µ", "Ω", "日", "🦀", " ", "\"",
        ];
        let len = rng.range(0, 24);
        (0..len).map(|_| *rng.pick(&ALPHABET)).collect()
    }
    fn gen_f32s(rng: &mut CaseRng) -> Vec<f32> {
        let len = rng.range(0, 64) as usize;
        (0..len)
            .map(|_| {
                if rng.chance(0.25) {
                    // Special values from raw bit patterns: NaN payloads,
                    // infinities, subnormals, negative zero.
                    f32::from_bits(rng.next_u64() as u32)
                } else {
                    (rng.f64() - 0.5) as f32
                }
            })
            .collect()
    }
    fn gen_strings(rng: &mut CaseRng) -> Vec<String> {
        let len = rng.range(0, 5);
        (0..len)
            .map(|_| {
                const ALPHABET: [&str; 12] = [
                    "a", "z", "0", "_", "-", ".", "µ", "Ω", "日", "🦀", " ", "\"",
                ];
                let len = rng.range(0, 24);
                (0..len).map(|_| *rng.pick(&ALPHABET)).collect()
            })
            .collect()
    }
    match rng.range(0, 18) {
        0 => Frame::Request {
            id,
            model: gen_string(rng),
            tenant: gen_string(rng),
            input: gen_f32s(rng),
        },
        1 => Frame::Response {
            id,
            model: gen_string(rng),
            outputs: gen_f32s(rng),
            cycles: rng.next_u64(),
            energy_pj: rng.f64() * 1e12,
            batch_size: rng.next_u64() as u32,
            worker: rng.next_u64() as u32,
            latency_us: rng.next_u64(),
            node: gen_string(rng),
        },
        2 => Frame::Error {
            id,
            code: *rng.pick(&[
                ErrorCode::UnknownModel,
                ErrorCode::ShapeMismatch,
                ErrorCode::Overloaded,
                ErrorCode::ShuttingDown,
                ErrorCode::WorkerLost,
                ErrorCode::Internal,
                ErrorCode::Malformed,
                ErrorCode::ConnectionLimit,
                ErrorCode::NoReplica,
                ErrorCode::ModelNotFound,
                ErrorCode::VersionMismatch,
                ErrorCode::RegistryFull,
            ]),
            tenant: gen_string(rng),
            detail: gen_string(rng),
        },
        3 => Frame::Ping { id },
        4 => Frame::Pong { id },
        5 => Frame::Shutdown { id },
        6 => Frame::ShutdownAck { id },
        7 => Frame::Query {
            id,
            model: gen_string(rng),
        },
        8 => Frame::Info {
            id,
            model: gen_string(rng),
            n_in: rng.next_u64() as u32,
            n_out: rng.next_u64() as u32,
        },
        9 => Frame::Register {
            id,
            worker: gen_string(rng),
            addr: gen_string(rng),
            models: gen_strings(rng),
        },
        10 => Frame::RegisterAck {
            id,
            heartbeat_ms: rng.next_u64() as u32,
        },
        11 => Frame::Heartbeat {
            id,
            worker: gen_string(rng),
            outstanding: rng.next_u64() as u32,
        },
        12 => Frame::Deregister {
            id,
            worker: gen_string(rng),
        },
        13 => Frame::DeregisterAck { id },
        14 => Frame::LoadModel {
            id,
            model: gen_string(rng),
            version: rng.next_u64() as u32,
            canary_pct: rng.range(0, 101) as u8,
        },
        15 => Frame::UnloadModel {
            id,
            model: gen_string(rng),
            version: rng.next_u64() as u32,
        },
        16 => Frame::ListModels { id },
        _ => Frame::ModelList {
            id,
            models: (0..rng.range(0, 4))
                .map(|_| cs_net::WireModelStatus {
                    name: gen_string(rng),
                    version: rng.next_u64() as u32,
                    primary: rng.chance(0.5),
                    canary_pct: if rng.chance(0.5) {
                        Some(rng.range(0, 101) as u8)
                    } else {
                        None
                    },
                    demoted: rng.chance(0.5),
                    resident_bytes: rng.next_u64(),
                    in_flight: rng.next_u64(),
                })
                .collect(),
        },
    }
}

/// Applies one random mutation to an encoded frame.
fn mutate(rng: &mut CaseRng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.range(0, 5) {
        // Truncate at a random point (header or payload).
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
        // Hostile length prefix, up to u32::MAX.
        2 => {
            if out.len() >= HEADER_LEN {
                let hostile = rng.next_u64() as u32;
                out[12..16].copy_from_slice(&hostile.to_le_bytes());
            }
        }
        // Append random junk after a valid frame.
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

/// Decodes `bytes` as a whole buffer with the blocking entry point:
/// the oracle the incremental assembler is checked against. Frames are
/// compared by their re-encoding (byte-exact, NaN-proof).
fn oracle_decode_stream(bytes: &[u8]) -> Result<Vec<Vec<u8>>, WireError> {
    let mut frames = Vec::new();
    let mut offset = 0;
    loop {
        match Frame::decode_with_limit(&bytes[offset..], DEFAULT_MAX_PAYLOAD)? {
            Some((frame, used)) => {
                frames.push(frame.encode());
                offset += used;
            }
            None => return Ok(frames),
        }
    }
}

/// Replays `bytes` through the reactor's [`FrameAssembler`] in seeded
/// random chunks and demands agreement with whole-buffer decoding:
/// identical frames, an identical typed error, no panic, and buffering
/// never past one maximal in-flight frame (`HEADER_LEN + payload cap`).
fn check_assembler_differential(
    rng: &mut CaseRng,
    bytes: &[u8],
    what: &str,
    index: u64,
    out: &mut Vec<Mismatch>,
) {
    // Draw chunk boundaries up front so the RNG stream is identical
    // whether or not the assembler panics mid-replay.
    let mut cuts = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        offset = (offset + 1 + rng.range(0, 48) as usize).min(bytes.len());
        cuts.push(offset);
    }

    let replay = catch_unwind(AssertUnwindSafe(|| {
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut error = None;
        let mut max_buffered = 0usize;
        let bound = asm.buffered_bound();
        let mut prev = 0usize;
        'chunks: for &cut in &cuts {
            asm.push(&bytes[prev..cut]);
            prev = cut;
            loop {
                match asm.next_frame() {
                    Ok(Some(f)) => frames.push(f.encode()),
                    Ok(None) => break,
                    Err(e) => {
                        error = Some(e);
                        break 'chunks;
                    }
                }
            }
            max_buffered = max_buffered.max(asm.buffered());
        }
        (frames, error, max_buffered, bound)
    }));

    let (frames, error, max_buffered, bound) = match replay {
        Ok(r) => r,
        Err(_) => {
            out.push(Mismatch::new(
                "net-assembler-panic",
                format!(
                    "case {index}: chunked assembly panicked on {what} input ({} bytes)",
                    bytes.len()
                ),
            ));
            return;
        }
    };
    if max_buffered > bound {
        out.push(Mismatch::new(
            "net-assembler-overallocation",
            format!(
                "case {index}: {what}: assembler buffered {max_buffered} bytes, \
                 cap is {bound}"
            ),
        ));
    }
    match (oracle_decode_stream(bytes), error) {
        (Ok(want), None) => {
            if frames != want {
                out.push(Mismatch::new(
                    "net-assembler-vs-oracle-frames",
                    format!(
                        "case {index}: {what}: chunked assembly yielded {} frames, \
                         whole-buffer decode {}  (or differing bytes)",
                        frames.len(),
                        want.len()
                    ),
                ));
            }
        }
        (Err(want), Some(got)) => {
            if got != want {
                out.push(Mismatch::new(
                    "net-assembler-vs-oracle-error",
                    format!("case {index}: {what}: chunked error {got:?}, whole-buffer {want:?}"),
                ));
            }
        }
        (Ok(_), Some(got)) => out.push(Mismatch::new(
            "net-assembler-spurious-error",
            format!("case {index}: {what}: assembler rejected ({got:?}) what the oracle accepts"),
        )),
        (Err(want), None) => out.push(Mismatch::new(
            "net-assembler-missed-error",
            format!("case {index}: {what}: assembler accepted what the oracle rejects ({want:?})"),
        )),
    }
}

fn check_decode_total(bytes: &[u8], what: &str, index: u64, out: &mut Vec<Mismatch>) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        Frame::decode_with_limit(bytes, DEFAULT_MAX_PAYLOAD)
    }));
    match result {
        Err(_) => out.push(Mismatch::new(
            "net-codec-panic",
            format!(
                "case {index}: decode panicked on {what} input ({} bytes)",
                bytes.len()
            ),
        )),
        Ok(Err(WireError::Oversized { len, max })) if len <= max => out.push(Mismatch::new(
            "net-codec-oversized-lie",
            format!("case {index}: {what}: Oversized reported for {len} <= cap {max}"),
        )),
        Ok(_) => {}
    }
}

/// Fuzzes the frame codec with `cases` seed-replayable cases; returns
/// every contract violation found (empty = clean sweep).
pub fn fuzz_codec(seed: u64, cases: u64) -> Vec<Mismatch> {
    let mut out = Vec::new();
    for index in 0..cases {
        let mut rng = CaseRng::new(seed, index);
        let frame = gen_frame(&mut rng);
        let bytes = frame.encode();

        // Byte-exact round trip (works for NaN payloads, which are
        // never equal structurally).
        match Frame::decode_exact(&bytes, DEFAULT_MAX_PAYLOAD) {
            Ok(decoded) => {
                let re = decoded.encode();
                if re != bytes {
                    out.push(Mismatch::new(
                        "net-codec-roundtrip-bytes",
                        format!(
                            "case {index}: re-encoding changed {} -> {} bytes ({:?})",
                            bytes.len(),
                            re.len(),
                            frame.frame_type()
                        ),
                    ));
                }
                if decoded.id() != frame.id() || decoded.frame_type() != frame.frame_type() {
                    out.push(Mismatch::new(
                        "net-codec-roundtrip-identity",
                        format!("case {index}: id or type changed across the round trip"),
                    ));
                }
            }
            Err(e) => out.push(Mismatch::new(
                "net-codec-valid-rejected",
                format!(
                    "case {index}: valid {:?} frame rejected: {e}",
                    frame.frame_type()
                ),
            )),
        }

        // Every streaming prefix either waits for more bytes or reports
        // a typed error — never panics, never returns a frame early.
        for cut in 0..bytes.len() {
            if let Ok(Some(_)) = Frame::decode_with_limit(&bytes[..cut], DEFAULT_MAX_PAYLOAD) {
                out.push(Mismatch::new(
                    "net-codec-prefix-phantom",
                    format!(
                        "case {index}: {cut}-byte prefix of a {}-byte frame decoded",
                        bytes.len()
                    ),
                ));
                break;
            }
        }

        // The incremental assembler agrees with whole-buffer decoding
        // on the valid stream under random chunking.
        check_assembler_differential(&mut rng, &bytes, "valid", index, &mut out);

        // Mutations decode totally (no panic, no over-allocation) and
        // identically through both decoders.
        for _ in 0..4 {
            let mutated = mutate(&mut rng, &bytes);
            check_decode_total(&mutated, "mutated", index, &mut out);
            check_assembler_differential(&mut rng, &mutated, "mutated", index, &mut out);
        }

        if out.len() > 16 {
            break; // a broken codec fails every case; don't flood
        }
    }
    out
}

/// A loopback [`NetServer`] over a two-worker Sparse server, and one
/// client connection to it.
struct Socket {
    net: NetServer,
    client: Client,
}

impl Socket {
    fn start(model: &ServableModel) -> Result<Self, String> {
        let registry = registry_of(model).map_err(|e| format!("{e:?}"))?;
        let cfg = ServeConfig {
            workers: 2,
            backend: ExecBackend::Sparse,
            ..ServeConfig::default()
        };
        let serve = Server::start(registry, cfg).map_err(|e| format!("{e:?}"))?;
        let net = NetServer::start(serve, NetConfig::default()).map_err(|e| e.to_string())?;
        match Client::connect(&net.local_addr().to_string()) {
            Ok(client) => Ok(Socket { net, client }),
            Err(e) => {
                net.shutdown();
                Err(e.to_string())
            }
        }
    }
}

impl Front for Socket {
    const NODE: &'static str = "local";

    fn send(&mut self, probe: &[f32]) -> Result<Reply, String> {
        self.client
            .request(MODEL, probe)
            .map(reply_of)
            .map_err(|e| e.to_string())
    }

    fn stop(self) -> Result<(), String> {
        self.net.shutdown();
        Ok(())
    }
}

/// Serves the case's layers through a loopback [`NetServer`] and holds
/// the socket path to the direct lane and the dense oracle
/// (`serve_check::check_front`).
pub fn check_serve_socket(art: &FcArtifacts, probe_seed: u64) -> Vec<Mismatch> {
    check_front(art, probe_seed, "net-socket", Socket::start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::build_fc;
    use crate::gen::{self, CaseKind};

    #[test]
    fn codec_fuzz_sweep_is_clean_and_deterministic() {
        let a = fuzz_codec(0xF00D, 64);
        assert!(a.is_empty(), "{a:?}");
        let b = fuzz_codec(0xF00D, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn socket_differential_agrees_on_a_generated_case() {
        let fc = (0..32)
            .find_map(|k| match gen::generate(20180601, k).kind {
                CaseKind::FcNet(c) => Some(c),
                _ => None,
            })
            .expect("no FC case in 32 draws");
        let art = build_fc(&fc).unwrap();
        let m = check_serve_socket(&art, 0xBEEF);
        assert!(m.is_empty(), "{m:?}");
    }
}
