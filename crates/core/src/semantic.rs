//! The semantic-index ingest pass and its query surface.
//!
//! `visualroad ingest` runs detection/tracking ONCE over a dataset's
//! metadata box tracks (no pixel decode), associates detections into
//! tracklets, embeds each tracklet into a compact scalar-quantized
//! feature vector, and persists everything as a `.vrsx` container side
//! index ([`vr_index`]). Aggregation, top-k, and similarity queries
//! then run from the in-memory index in microseconds.
//!
//! Two execution routes exist for every semantic query and both are
//! first-class:
//!
//! * **index** — probe the loaded [`SemanticIndex`]; never touches the
//!   dataset again.
//! * **rescan** — redo the full scan/associate pass per query and
//!   answer from the fresh records. This is the fallback when no index
//!   exists or a side-index file fails validation (stale or corrupt
//!   indexes fail *closed* into rescan, never into wrong answers).
//!
//! Which route runs is a cost-based decision ([`decide_route`]): the
//! optimizer compares an `IndexScan` candidate (`vectors ×
//! index_probe_ns_per_vector`) against a metadata `Streaming` rescan
//! (`frames × scan+sink`), and the choice is visible in EXPLAIN output.
//!
//! Answers are validated against VCG scene geometry
//! ([`truth_top_segments`] / [`recall_at_k`]), not against the scan
//! itself — the index must agree with the *world*, not merely with the
//! code that built it.

use std::collections::{BTreeMap, BTreeSet};

use vr_base::{Error, Result};
use vr_geom::Rect;
use vr_index::quant::Quantized;
use vr_index::record::presence_bitset;
use vr_index::{
    count_records, similar_records, top_segments_of, SegmentHit, SemanticIndex, TrackRecord,
    EMBED_DIM,
};
use vr_scene::entity::ObjectClass;
use vr_scene::groundtruth::frame_truth;
use vr_vdbms::kernels::box_track;
use vr_vdbms::{
    CalibrationProfile, CandidateSpace, KernelClass, Optimizer, Policy, QueryWork, Workload,
};
use vr_vision::{associate, embed_tracklet, TrackerConfig, TRACK_EMBED_DIM};

use crate::dataset::Dataset;

// The tracker's embedding and the index's record format must agree on
// dimensionality; a drift here is a compile error, not a runtime one.
const _: () = assert!(TRACK_EMBED_DIM == EMBED_DIM);

/// Summary of one ingest pass, for CLI output and artifacts.
#[derive(Debug, Clone, Copy)]
pub struct IngestStats {
    /// Traffic videos scanned.
    pub videos: usize,
    /// Total frames scanned across those videos.
    pub frames: u64,
    /// Tracklet records persisted.
    pub tracklets: usize,
    /// Side-index file size in bytes.
    pub bytes: usize,
}

impl IngestStats {
    pub fn of(index: &SemanticIndex, bytes: usize) -> IngestStats {
        IngestStats {
            videos: index.video_frames().len(),
            frames: index.video_frames().values().map(|&f| f as u64).sum(),
            tracklets: index.len(),
            bytes,
        }
    }
}

/// One detection/tracking pass over the dataset's metadata box tracks:
/// per traffic video, read the per-frame boxes, associate them into
/// tracklets, and emit one [`TrackRecord`] per tracklet with a
/// quantized embedding. Shared by ingest (which persists the result)
/// and the rescan route (which recomputes it per query).
fn scan_records(dataset: &Dataset) -> Result<(BTreeMap<u32, u32>, Vec<TrackRecord>)> {
    let res = dataset.hyper.resolution;
    let mut video_frames = BTreeMap::new();
    let mut records: Vec<TrackRecord> = Vec::new();
    for vi in dataset.traffic_indices() {
        let input = &dataset.videos[vi];
        let frames = input.frame_count() as u32;
        video_frames.insert(vi as u32, frames);
        let mut dets: Vec<Vec<(ObjectClass, Rect)>> = Vec::with_capacity(frames as usize);
        for f in 0..frames as usize {
            let boxes = box_track(input, f)?;
            dets.push(boxes.into_iter().map(|b| (b.class, b.rect)).collect());
        }
        for t in associate(&dets, TrackerConfig::default()) {
            let observed: Vec<u32> = t.frames().collect();
            let embedding = embed_tracklet(&t, res.width, res.height, frames);
            records.push(TrackRecord {
                id: records.len() as u32,
                video: vi as u32,
                class: t.class,
                first_frame: t.first_frame(),
                last_frame: t.last_frame(),
                presence: presence_bitset(t.first_frame(), t.last_frame(), &observed),
                quant: Quantized::quantize(&embedding)?,
            });
        }
    }
    Ok((video_frames, records))
}

/// Run the ingest pass and return the loaded index together with its
/// serialized side-index bytes. The bytes round-trip through
/// [`SemanticIndex::from_sidecar_bytes`] before being returned, so
/// every ingest also proves its own file parses and validates.
pub fn ingest_dataset(dataset: &Dataset) -> Result<(SemanticIndex, Vec<u8>)> {
    let (video_frames, records) = scan_records(dataset)?;
    let bytes = SemanticIndex::to_sidecar_bytes(dataset.hyper.seed, &video_frames, &records);
    let index = SemanticIndex::from_sidecar_bytes(&bytes)?;
    Ok((index, bytes))
}

/// Validate a loaded index against the dataset it claims to describe.
/// A *stale* index — built from a different seed, or from a dataset
/// whose video set or frame counts have since changed — parses fine
/// but would answer about a world that no longer exists, so it is
/// rejected here and the caller falls back to rescan. This is the
/// fail-closed half of the side-index threat model: corrupt files die
/// in `from_sidecar_bytes`, stale files die here, and neither ever
/// produces a wrong answer.
pub fn validate_index(index: &SemanticIndex, dataset: &Dataset) -> Result<()> {
    if index.seed() != dataset.hyper.seed {
        return Err(Error::ValidationFailed(format!(
            "index built from seed {} but dataset has seed {}",
            index.seed(),
            dataset.hyper.seed
        )));
    }
    let expect: BTreeMap<u32, u32> = dataset
        .traffic_indices()
        .into_iter()
        .map(|vi| (vi as u32, dataset.videos[vi].frame_count() as u32))
        .collect();
    if index.video_frames() != &expect {
        return Err(Error::ValidationFailed(format!(
            "index covers videos {:?} but dataset has {:?}",
            index.video_frames(),
            expect
        )));
    }
    Ok(())
}

/// The side index a door serves `dataset` from: the `.vrsx` file at
/// `path`, parsed and validated against the dataset, or — with no path
/// — a fresh in-memory ingest. A file that cannot be read is
/// [`Error::Io`]; any other error means the bytes are unusable (corrupt
/// or stale). Either way the caller fails closed: it hands
/// [`SemanticRouter::new`] `None` and every query rescans.
pub fn acquire_index(dataset: &Dataset, path: Option<&str>) -> Result<SemanticIndex> {
    let Some(path) = path else {
        return ingest_dataset(dataset).map(|(index, _)| index);
    };
    let index = SemanticIndex::from_sidecar_bytes(&std::fs::read(path).map_err(Error::Io)?)?;
    validate_index(&index, dataset)?;
    Ok(index)
}

/// The semantic query class served by the index (or its rescan twin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemanticQuery {
    /// Distinct tracklets, optionally filtered by class and/or video.
    Count { class: Option<ObjectClass>, video: Option<u32> },
    /// Top-k fixed windows of `window` frames by distinct-tracklet count.
    TopK { class: Option<ObjectClass>, window: u32, k: usize },
    /// k nearest tracklets to `track` by embedding distance.
    Similar { track: u32, k: usize },
}

impl SemanticQuery {
    /// The benchmark's named semantic query instances, analogous to
    /// Q1..Q10 for the pixel suite. `S1` counts everything, `S2` ranks
    /// vehicle-busy windows, `S3` finds tracklets similar to track 0.
    pub fn parse_label(label: &str) -> Option<SemanticQuery> {
        match label {
            "S1" => Some(SemanticQuery::Count { class: None, video: None }),
            "S2" => Some(SemanticQuery::TopK {
                class: Some(ObjectClass::Vehicle),
                window: 8,
                k: 10,
            }),
            "S3" => Some(SemanticQuery::Similar { track: 0, k: 10 }),
            _ => None,
        }
    }

    /// Query-kind name used in artifacts and EXPLAIN keys.
    pub fn kind(&self) -> &'static str {
        match self {
            SemanticQuery::Count { .. } => "count",
            SemanticQuery::TopK { .. } => "topk",
            SemanticQuery::Similar { .. } => "similar",
        }
    }
}

/// A semantic query's answer, identical in shape on both routes.
#[derive(Debug, Clone, PartialEq)]
pub enum SemanticAnswer {
    Count(u64),
    Segments(Vec<SegmentHit>),
    Similar(Vec<(u32, f32)>),
}

impl SemanticAnswer {
    /// One-line rendering for CLI output and server responses.
    pub fn render(&self) -> String {
        match self {
            SemanticAnswer::Count(n) => format!("count={n}"),
            SemanticAnswer::Segments(hits) => {
                let parts: Vec<String> = hits
                    .iter()
                    .map(|h| format!("{}:{}={}", h.video, h.segment, h.count))
                    .collect();
                format!("segments=[{}]", parts.join(","))
            }
            SemanticAnswer::Similar(hits) => {
                let parts: Vec<String> =
                    hits.iter().map(|&(id, d)| format!("{id}@{d:.4}")).collect();
                format!("similar=[{}]", parts.join(","))
            }
        }
    }
}

/// Answer from a loaded index — no dataset access at all.
pub fn answer_with_index(index: &SemanticIndex, q: &SemanticQuery) -> Result<SemanticAnswer> {
    match *q {
        SemanticQuery::Count { class, video } => {
            Ok(SemanticAnswer::Count(index.count_distinct(class, video)))
        }
        SemanticQuery::TopK { class, window, k } => {
            Ok(SemanticAnswer::Segments(index.top_segments(class, window, k)))
        }
        SemanticQuery::Similar { track, k } => {
            Ok(SemanticAnswer::Similar(index.similar(track, k)?))
        }
    }
}

/// Answer by redoing the full scan/associate pass — the no-index
/// fallback. Count and top-k agree with the index route exactly (both
/// delegate to the same record-set functions); similarity is exact
/// brute force where the index is approximate graph search.
pub fn answer_with_rescan(dataset: &Dataset, q: &SemanticQuery) -> Result<SemanticAnswer> {
    let (video_frames, records) = scan_records(dataset)?;
    match *q {
        SemanticQuery::Count { class, video } => {
            Ok(SemanticAnswer::Count(count_records(&records, class, video)))
        }
        SemanticQuery::TopK { class, window, k } => Ok(SemanticAnswer::Segments(
            top_segments_of(&video_frames, &records, class, window, k),
        )),
        SemanticQuery::Similar { track, k } => {
            Ok(SemanticAnswer::Similar(similar_records(&records, track, k)?))
        }
    }
}

/// Cost-based index-vs-rescan decision for one semantic query.
///
/// The rescan candidate is a metadata `Streaming` pass — `frames ×
/// (scan + sink)`, zero pixels since no decode happens — and the
/// `IndexScan` candidate costs `vectors × index_probe_ns_per_vector`.
/// When `indexed_vectors` is `None` (no usable index) the IndexScan
/// policy is not even a candidate, so the decision degrades to rescan
/// rather than estimating an impossible plan. The decision is recorded
/// under `key` so `opt.decision(key)` renders it in EXPLAIN output.
pub fn decide_route(
    opt: &Optimizer,
    key: &str,
    dataset: &Dataset,
    indexed_vectors: Option<u64>,
) -> bool {
    let work = QueryWork {
        frames: traffic_frames(dataset),
        in_pixels: 0,
        out_pixels: 0,
        kernel: KernelClass::PerPixel { factor: 0.0 },
        vectors: indexed_vectors.unwrap_or(0),
    };
    let mut policies = vec![Policy::Streaming];
    if indexed_vectors.is_some() {
        policies.insert(0, Policy::IndexScan);
    }
    let choice = opt.decide(key, work, &CandidateSpace { policies, max_fanout: 1 });
    choice.policy == Policy::IndexScan
}

/// Frames a metadata rescan walks: every traffic video, start to end.
fn traffic_frames(dataset: &Dataset) -> u64 {
    let frames = |&vi: &usize| dataset.videos[vi].frame_count() as u64;
    dataset.traffic_indices().iter().map(frames).sum()
}

/// The one place a semantic query is routed. `visualroad serve` and
/// `visualroad search` both hold a router — an optional side index plus
/// the optimizer that prices it against a rescan — and ask it for a
/// [`SemanticPlan`] per query.
pub struct SemanticRouter {
    index: Option<SemanticIndex>,
    optimizer: Optimizer,
}

impl SemanticRouter {
    /// `index: None` (no index wanted, or an unusable one) removes the
    /// index route from every decision.
    pub fn new(
        dataset: &Dataset,
        index: Option<SemanticIndex>,
        profile: CalibrationProfile,
    ) -> Self {
        let res = dataset.hyper.resolution;
        let optimizer = Optimizer::new(profile).with_workload(Workload {
            width: res.width,
            height: res.height,
            frames: traffic_frames(dataset),
        });
        Self { index, optimizer }
    }

    /// Route the query filed under the decision `key` (the optimizer
    /// decides once per key and caches the table).
    pub fn plan(&self, dataset: &Dataset, key: &str) -> SemanticPlan<'_> {
        let vectors = self.index.as_ref().map(|i| i.len() as u64);
        let use_index = decide_route(&self.optimizer, key, dataset, vectors);
        SemanticPlan {
            index: self.index.as_ref().filter(|_| use_index),
            text: self.optimizer.decision(key).map(|d| d.render_text()).unwrap_or_default(),
        }
    }
}

/// A routed semantic query: the route it takes and the optimizer's
/// chosen-vs-rejected table, which is its EXPLAIN text, the input of
/// its plan digest and its slow-query exemplar.
pub struct SemanticPlan<'r> {
    /// `Some` exactly when the index route was chosen.
    index: Option<&'r SemanticIndex>,
    pub text: String,
}

impl SemanticPlan<'_> {
    /// `"index"` or `"rescan"`, as reported on the wire and in logs.
    pub fn route(&self) -> &'static str {
        if self.index.is_some() { "index" } else { "rescan" }
    }

    /// Answer along the chosen route.
    pub fn answer(&self, dataset: &Dataset, q: &SemanticQuery) -> Result<SemanticAnswer> {
        match self.index {
            Some(index) => answer_with_index(index, q),
            None => answer_with_rescan(dataset, q),
        }
    }
}

/// VCG-exact top segments: distinct ground-truth entities visible
/// (non-occluded) at least once in each fixed window, ranked with the
/// same ordering as the index's `top_segments`. Returns ALL segments,
/// best first — callers truncate. This is the reference every recall
/// check compares against.
pub fn truth_top_segments(
    dataset: &Dataset,
    class: Option<ObjectClass>,
    window: u32,
) -> Result<Vec<SegmentHit>> {
    let window = window.max(1);
    let res = dataset.hyper.resolution;
    let mut hits: Vec<SegmentHit> = Vec::new();
    for vi in dataset.traffic_indices() {
        let input = &dataset.videos[vi];
        let meta = &dataset.meta[vi];
        let cam_id = meta
            .camera
            .ok_or_else(|| Error::InvalidConfig(format!("traffic video {vi} has no camera")))?;
        let cam = dataset
            .city
            .cameras()
            .iter()
            .find(|c| c.id == cam_id)
            .ok_or_else(|| Error::NotFound(format!("camera for video {vi}")))?;
        let frames = input.frame_count() as u32;
        let interval = input.video_info()?.frame_rate.frame_interval_secs();
        let mut sets: BTreeMap<u32, BTreeSet<u32>> =
            (0..frames.div_ceil(window)).map(|s| (s, BTreeSet::new())).collect();
        for f in 0..frames {
            let truth =
                frame_truth(&dataset.city, cam, f as f64 * interval, res.width, res.height);
            let seg = sets.get_mut(&(f / window)).expect("segment covers every frame");
            for o in truth.objects.iter().filter(|o| !o.occluded) {
                if class.is_none_or(|c| o.class == c) {
                    seg.insert(o.entity_id);
                }
            }
        }
        for (segment, set) in sets {
            hits.push(SegmentHit { video: vi as u32, segment, count: set.len() as u32 });
        }
    }
    hits.sort_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then(a.video.cmp(&b.video))
            .then(a.segment.cmp(&b.segment))
    });
    Ok(hits)
}

/// Ties-generous recall@k: a returned segment counts as relevant when
/// its true count is ≥ the k-th best true count, so equal-count ties
/// broken differently by the two sides can never fail the check.
/// `truth` must be the FULL ranked truth list (untruncated); `got` is
/// the answer under test.
pub fn recall_at_k(truth: &[SegmentHit], got: &[SegmentHit], k: usize) -> f64 {
    if truth.is_empty() || k == 0 {
        return 1.0;
    }
    let k = k.min(truth.len());
    let threshold = truth[k - 1].count;
    let relevant: BTreeSet<(u32, u32)> = truth
        .iter()
        .filter(|h| h.count >= threshold)
        .map(|h| (h.video, h.segment))
        .collect();
    let hit = got.iter().take(k).filter(|h| relevant.contains(&(h.video, h.segment))).count();
    hit as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcg::{GenConfig, Vcg};
    use vr_base::{Duration, Hyperparameters, Resolution};
    use vr_vdbms::CalibrationProfile;

    fn tiny_dataset() -> Dataset {
        let hyper = Hyperparameters::new(
            1,
            Resolution::new(96, 54),
            Duration::from_secs(0.3),
            9,
        )
        .unwrap();
        Vcg::new(GenConfig::default()).generate(&hyper).unwrap()
    }

    #[test]
    fn ingest_is_byte_deterministic_and_parses_back() {
        let dataset = tiny_dataset();
        let (index, bytes_a) = ingest_dataset(&dataset).unwrap();
        let (_, bytes_b) = ingest_dataset(&dataset).unwrap();
        assert_eq!(bytes_a, bytes_b, "two ingests must produce identical side-index files");
        assert!(!index.is_empty(), "a traffic dataset must yield tracklets");
        assert_eq!(index.seed(), 9);
        let stats = IngestStats::of(&index, bytes_a.len());
        assert_eq!(stats.videos, dataset.traffic_indices().len());
        assert!(stats.frames > 0 && stats.tracklets > 0 && stats.bytes > 0);
    }

    #[test]
    fn index_and_rescan_routes_agree_on_count_and_topk() {
        let dataset = tiny_dataset();
        let (index, _) = ingest_dataset(&dataset).unwrap();
        for q in [
            SemanticQuery::Count { class: None, video: None },
            SemanticQuery::Count { class: Some(ObjectClass::Vehicle), video: None },
            SemanticQuery::TopK { class: Some(ObjectClass::Vehicle), window: 4, k: 5 },
            SemanticQuery::TopK { class: None, window: 3, k: 8 },
        ] {
            let via_index = answer_with_index(&index, &q).unwrap();
            let via_rescan = answer_with_rescan(&dataset, &q).unwrap();
            assert_eq!(via_index, via_rescan, "routes diverged on {q:?}");
        }
    }

    #[test]
    fn topk_recall_against_scene_geometry() {
        let dataset = tiny_dataset();
        let (index, _) = ingest_dataset(&dataset).unwrap();
        let got = index.top_segments(Some(ObjectClass::Vehicle), 4, 4);
        let truth = truth_top_segments(&dataset, Some(ObjectClass::Vehicle), 4).unwrap();
        let recall = recall_at_k(&truth, &got, 4);
        assert!(recall >= 0.75, "recall@4 vs VCG truth too low: {recall}");
    }

    #[test]
    fn recall_is_generous_about_equal_count_ties() {
        let truth = vec![
            SegmentHit { video: 0, segment: 0, count: 5 },
            SegmentHit { video: 0, segment: 1, count: 3 },
            SegmentHit { video: 1, segment: 0, count: 3 },
            SegmentHit { video: 1, segment: 1, count: 1 },
        ];
        // Picks the OTHER count-3 segment at rank 2: still perfect.
        let got = vec![
            SegmentHit { video: 0, segment: 0, count: 5 },
            SegmentHit { video: 1, segment: 0, count: 3 },
        ];
        assert_eq!(recall_at_k(&truth, &got, 2), 1.0);
        // A count-1 segment in the top 2 is a genuine miss.
        let bad = vec![
            SegmentHit { video: 0, segment: 0, count: 5 },
            SegmentHit { video: 1, segment: 1, count: 1 },
        ];
        assert_eq!(recall_at_k(&truth, &bad, 2), 0.5);
        assert_eq!(recall_at_k(&[], &got, 2), 1.0);
    }

    #[test]
    fn optimizer_routes_to_index_only_when_one_exists() {
        let dataset = tiny_dataset();
        let opt = Optimizer::new(CalibrationProfile::builtin());
        assert!(decide_route(&opt, "semantic/S2", &dataset, Some(40)));
        let decision = opt.decision("semantic/S2").expect("decision recorded");
        assert_eq!(decision.chosen.policy, Policy::IndexScan);
        assert!(decision.render_text().contains("index-scan"));
        let opt2 = Optimizer::new(CalibrationProfile::builtin());
        assert!(!decide_route(&opt2, "semantic/S2", &dataset, None));
    }

    #[test]
    fn stale_index_is_rejected_against_a_different_dataset() {
        let dataset = tiny_dataset();
        let (index, _) = ingest_dataset(&dataset).unwrap();
        assert!(validate_index(&index, &dataset).is_ok());
        let other_hyper =
            Hyperparameters::new(1, Resolution::new(96, 54), Duration::from_secs(0.3), 10)
                .unwrap();
        let other = Vcg::new(GenConfig::default()).generate(&other_hyper).unwrap();
        assert!(validate_index(&index, &other).is_err(), "seed drift must invalidate the index");
    }

    #[test]
    fn semantic_labels_parse() {
        assert_eq!(
            SemanticQuery::parse_label("S1"),
            Some(SemanticQuery::Count { class: None, video: None })
        );
        assert!(matches!(
            SemanticQuery::parse_label("S2"),
            Some(SemanticQuery::TopK { class: Some(ObjectClass::Vehicle), window: 8, k: 10 })
        ));
        assert!(matches!(
            SemanticQuery::parse_label("S3"),
            Some(SemanticQuery::Similar { track: 0, k: 10 })
        ));
        assert_eq!(SemanticQuery::parse_label("Q1"), None);
        assert_eq!(SemanticQuery::parse_label("S2").unwrap().kind(), "topk");
    }
}
