//! Ingest-once semantic index.
//!
//! One ingestion pass runs detection/tracking over a dataset's metadata
//! tracks and persists, per traffic video, a set of *tracklet records*:
//! object class, frame extent, an exact per-frame presence bitset, and a
//! compact scalar-quantized feature vector. The records live in a `.vrsx`
//! container side index (CRC-framed sections, see `vr_container::sidecar`).
//! At load time the records are dropped into an in-memory HNSW-style
//! graph so aggregation, top-k, and similarity queries run in
//! microseconds without ever decoding a frame.
//!
//! Everything here is deterministic: quantization is pure arithmetic,
//! the HNSW level draw comes from a [`vr_base::rng::VrRng`] forked from
//! the dataset seed, and all orderings tie-break on record id — so two
//! ingests of the same dataset produce byte-identical side-index files
//! and identical query answers.

#![forbid(unsafe_code)]

pub mod hnsw;
pub mod quant;
pub mod record;
pub mod semantic;

pub use hnsw::{Hnsw, HnswConfig};
pub use quant::Quantized;
pub use record::TrackRecord;
pub use semantic::{
    count_records, similar_records, top_segments_of, SegmentHit, SemanticIndex, EMBED_DIM,
};
