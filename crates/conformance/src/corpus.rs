//! Checked-in regression corpus.
//!
//! Each entry pins a `(seed, case)` pair that once exercised an
//! interesting edge (or regressed an actual bug) so tier-1 CI replays it
//! forever. Entries are *generated*, not stored: the deterministic
//! generator recreates the exact model from the pair, which keeps the
//! corpus immune to serialization drift.
//!
//! Add entries by running `conformance run`, picking the failing (or
//! newly interesting) index from the report, and appending a line here
//! with a note saying why it earns a slot.

use crate::gen::{self, CaseKind};
use crate::runner;
use crate::{cluster_check, diff, net_check, registry_check, Fault, Mismatch};

/// One pinned regression case.
#[derive(Debug, Clone, Copy)]
pub struct CorpusEntry {
    /// Run seed the case was discovered under.
    pub seed: u64,
    /// Case index within that run.
    pub case: u64,
    /// Additionally replay the case through a loopback TCP
    /// [`cs_net::NetServer`] and check socket-path bit-identity
    /// ([`net_check::check_serve_socket`]). Only meaningful for FC
    /// cases — the serving runtime registers FC layers.
    pub socket: bool,
    /// Additionally replay the case through a two-node in-process
    /// cluster and check that orchestrator-routed outputs stay
    /// bit-identical to direct execution
    /// ([`cluster_check::check_serve_cluster`]). FC cases only, like
    /// `socket`.
    pub cluster: bool,
    /// Additionally push the case's compiled layers through the
    /// `cs-registry` CSMR container and a real on-disk store,
    /// demanding byte-exact save → load → save round trips
    /// ([`registry_check::check_store_roundtrip`]). FC cases only.
    pub registry: bool,
    /// Why this entry is pinned.
    pub note: &'static str,
}

/// The pinned regression corpus, replayed by tier-1 tests and CI.
pub const CORPUS: &[CorpusEntry] = &[
    CorpusEntry {
        seed: 42,
        case: 0,
        socket: false,
        cluster: false,
        registry: false,
        note: "first case of the default sweep; canary for generator drift",
    },
    CorpusEntry {
        seed: 42,
        case: 2,
        socket: false,
        cluster: false,
        registry: false,
        note: "LSTM timing lowering and monotonicity invariants (seq 7)",
    },
    CorpusEntry {
        seed: 42,
        case: 3,
        socket: false,
        cluster: false,
        registry: false,
        note: "oversized coarse pruning block (100 > matrix) on a 5x32 layer",
    },
    CorpusEntry {
        seed: 42,
        case: 4,
        socket: false,
        cluster: false,
        registry: false,
        note: "3-layer FC chain with odd widths (5/48/17), zeroed input stripes, \
               and a bank-balanced first layer whose single ragged bank \
               (n_in 5 < bank 16) stays fully dense",
    },
    CorpusEntry {
        seed: 42,
        case: 6,
        socket: false,
        cluster: false,
        registry: false,
        note: "fully dense (density 1.0) edge through the compressed path",
    },
    CorpusEntry {
        seed: 42,
        case: 7,
        socket: false,
        cluster: false,
        registry: false,
        note: "all-zero 2:4 layer with zeroed input stripes; tie-ranked groups \
               must keep the lowest-index pair",
    },
    CorpusEntry {
        seed: 42,
        case: 11,
        socket: false,
        cluster: false,
        registry: false,
        note: "padded k3 conv; sparse conv kernel vs dense conv2d",
    },
    CorpusEntry {
        seed: 42,
        case: 19,
        socket: false,
        cluster: false,
        registry: false,
        note: "near-zero density edge (only the best block survives)",
    },
    CorpusEntry {
        seed: 42,
        case: 22,
        socket: false,
        cluster: false,
        registry: false,
        note: "all-zero weights under both structured patterns (2:4 then \
               bank 4:3) with a NaN/inf-poisoned input; the engine paths \
               must stay bit-identical to each other with the dense legs \
               voided",
    },
    CorpusEntry {
        seed: 42,
        case: 41,
        socket: false,
        cluster: false,
        registry: false,
        note: "-0.0-poisoned input (finite: every leg still runs, and the \
               gate must treat the block as occupied) over two degenerate \
               bank 4:4 layers whose masks degrade to fully dense",
    },
    CorpusEntry {
        seed: 42,
        case: 56,
        socket: false,
        cluster: false,
        registry: false,
        note: "NaN/inf-poisoned input into a degenerate bank 16:16 chain; \
               gated kernels must never skip non-finite blocks and the \
               degenerate bank keeps the full mask",
    },
    CorpusEntry {
        seed: 42,
        case: 63,
        socket: false,
        cluster: false,
        registry: false,
        note: "degenerate bank 16:16 on a 5x5 layer: one ragged bank \
               (n_in 5 < bank 16) and a vacuous k = bank constraint at \
               near-zero density — the mask must normalize to fully dense",
    },
    CorpusEntry {
        seed: 42,
        case: 28,
        socket: false,
        cluster: false,
        registry: false,
        note: "all-zero coarse layer (k-means finds only 0.0, padded to k) and a \
               bank-balanced 16:6 mid-layer in a 5-layer chain",
    },
    CorpusEntry {
        seed: 42,
        case: 9,
        socket: true,
        cluster: true,
        registry: false,
        note: "FC 16x48x8 served over loopback TCP and routed through a two-node \
               cluster; both paths must stay bit-identical to direct execution",
    },
    CorpusEntry {
        seed: 42,
        case: 23,
        socket: true,
        cluster: true,
        registry: false,
        note: "both structured patterns in one chain (ragged bank 8:1 then a \
               fully-dense 2:4 layer) served over loopback TCP and a two-node \
               cluster; structured kernels must stay bit-identical end to end",
    },
    CorpusEntry {
        seed: 42,
        case: 396,
        socket: false,
        cluster: false,
        registry: false,
        note: "NaN/inf poison into a 2:4 layer whose survivors carry exact-zero \
               quantized weights: inf * 0.0 mints a second NaN payload, and the \
               AVX2 strip vs scalar-remainder path split may legally keep \
               different NaN bits — the engine-vs-engine legs must identify \
               all NaN encodings instead of comparing payload bits",
    },
    CorpusEntry {
        seed: 42,
        case: 59,
        socket: false,
        cluster: false,
        registry: true,
        note: "all three container bodies in one chain (coarse, 2:4, bank \
               4:3) over ragged 17x48x24x17 widths with a NaN/inf-poisoned \
               input; the CSMR save->load->save round trip must be byte-\
               exact on every packed-survivor layout at once",
    },
    CorpusEntry {
        seed: 42,
        case: 34,
        socket: false,
        cluster: false,
        registry: true,
        note: "a 0.000-density coarse layer (fully-pruned groups with one-entry \
               [0.0] codebooks) chained between 2:4 layers over width-5 raggedness, \
               with a -0.0-poisoned input; the one-entry-codebook and empty-row \
               container encodings must round trip byte-exactly",
    },
    CorpusEntry {
        seed: 42,
        case: 19166,
        socket: false,
        cluster: false,
        registry: false,
        note: "a LIF spike frame into a 48x32 coarse layer of 32-wide blocks \
               over 16-wide groups (the fc6/fc7 geometry): both strips walk \
               their shared runs as a pair, visiting only the active inputs \
               when gated, each with its own 4-bit codebook",
    },
];

/// Replays every corpus entry; returns the entries that now fail.
pub fn replay_corpus() -> Vec<(CorpusEntry, Vec<Mismatch>)> {
    CORPUS
        .iter()
        .filter_map(|e| {
            let (case, mut mismatches) = runner::check_one(e.seed, e.case, Fault::None);
            if e.socket {
                mismatches.extend(socket_leg(e, &case));
            }
            if e.cluster {
                mismatches.extend(cluster_leg(e, &case));
            }
            if e.registry {
                mismatches.extend(registry_leg(e, &case));
            }
            (!mismatches.is_empty()).then_some((*e, mismatches))
        })
        .collect()
}

/// The loopback-TCP differential leg for `socket: true` entries.
fn socket_leg(e: &CorpusEntry, case: &gen::Case) -> Vec<Mismatch> {
    match &case.kind {
        CaseKind::FcNet(fc) => match diff::build_fc(fc) {
            Ok(art) => net_check::check_serve_socket(&art, e.seed ^ e.case),
            Err(m) => vec![m],
        },
        other => vec![Mismatch::new(
            "corpus-socket-kind",
            format!(
                "socket entry seed {} case {} is a {} case; only FC cases can be served",
                e.seed,
                e.case,
                other.name()
            ),
        )],
    }
}

/// The CSMR container round-trip leg for `registry: true` entries.
fn registry_leg(e: &CorpusEntry, case: &gen::Case) -> Vec<Mismatch> {
    match &case.kind {
        CaseKind::FcNet(fc) => match diff::build_fc(fc) {
            Ok(art) => registry_check::check_store_roundtrip(&art, e.seed, e.case),
            Err(m) => vec![m],
        },
        other => vec![Mismatch::new(
            "corpus-registry-kind",
            format!(
                "registry entry seed {} case {} is a {} case; only FC layers \
                 have a container encoding",
                e.seed,
                e.case,
                other.name()
            ),
        )],
    }
}

/// The orchestrator-routed differential leg for `cluster: true`
/// entries.
fn cluster_leg(e: &CorpusEntry, case: &gen::Case) -> Vec<Mismatch> {
    match &case.kind {
        CaseKind::FcNet(fc) => match diff::build_fc(fc) {
            Ok(art) => cluster_check::check_serve_cluster(&art, e.seed ^ e.case),
            Err(m) => vec![m],
        },
        other => vec![Mismatch::new(
            "corpus-cluster-kind",
            format!(
                "cluster entry seed {} case {} is a {} case; only FC cases can be served",
                e.seed,
                e.case,
                other.name()
            ),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_replays_green() {
        let failures = replay_corpus();
        assert!(
            failures.is_empty(),
            "corpus regressions: {:#?}",
            failures
                .iter()
                .map(|(e, m)| format!("seed {} case {} ({}): {m:?}", e.seed, e.case, e.note))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn corpus_entries_are_unique() {
        for (i, a) in CORPUS.iter().enumerate() {
            for b in &CORPUS[i + 1..] {
                assert!(
                    (a.seed, a.case) != (b.seed, b.case),
                    "duplicate corpus entry seed {} case {}",
                    a.seed,
                    a.case
                );
            }
        }
    }
}
