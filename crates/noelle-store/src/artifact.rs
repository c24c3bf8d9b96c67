//! Typed encode/decode for each artifact kind.
//!
//! A thin shim over the codec that lives next to the data structure
//! (`DepGraph` in noelle-pdg): this module only fixes the node numbering
//! and gives the store one `validate` entry point for fsck.

use crate::key::ArtifactKind;
use noelle_ir::bytes::DecodeError;
use noelle_ir::inst::InstId;
use noelle_pdg::depgraph::DepGraph;

/// Encode one function's PDG partition.
pub fn encode_partition(g: &DepGraph<InstId>) -> Vec<u8> {
    g.encode_with(|i| u64::from(i.0))
}

/// Decode a PDG partition.
///
/// # Errors
/// Any malformed input is a [`DecodeError`] — the store treats it as a miss.
pub fn decode_partition(bytes: &[u8]) -> Result<DepGraph<InstId>, DecodeError> {
    DepGraph::decode_with(bytes, |v| {
        u32::try_from(v)
            .map(InstId)
            .map_err(|_| DecodeError::new("pdg partition: inst id"))
    })
}

/// True when `payload` decodes cleanly as `kind` — the deep check fsck
/// applies on top of the CRC.
pub fn validate(kind: ArtifactKind, payload: &[u8]) -> bool {
    match kind {
        ArtifactKind::PdgPartition => decode_partition(payload).is_ok(),
    }
}
