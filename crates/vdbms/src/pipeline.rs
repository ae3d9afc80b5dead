//! The shared physical-operator pipeline.
//!
//! Every engine executes queries through the same five physical
//! stages — **Scan → Decode → Kernel → Encode → Sink** — differing
//! only in which scan operator feeds the pipeline and which execution
//! policy drives it:
//!
//! * **eager** ([`Pipeline::run_eager`]): materialize every frame,
//!   run a data-parallel kernel over the whole batch, encode at the
//!   end — the Scanner-style dataflow (batch engine).
//! * **streaming** ([`Pipeline::run_streaming`]): one frame resident
//!   at a time, incremental encode — the LightDB-style lazy algebra
//!   (functional engine) and the reference implementation.
//! * **short-circuit** ([`Pipeline::run_short_circuit`]): a
//!   difference-detector gate routes each frame to a cheap or a full
//!   kernel — the NoScope-style inference cascade (cascade engine).
//!
//! Whole-sequence operators (Q2(d)'s temporal mean, Q3's tile
//! re-encode, the composite queries) run under
//! [`Pipeline::run_sequence`], and multi-camera queries (Q8) under
//! [`Pipeline::run_streaming_multi`].
//!
//! The streaming, multi-source and short-circuit policies share one
//! executor: a stream of scan events, one kernel loop, the encode
//! stage — on the calling thread at a worker budget of one, pipelined
//! over bounded channels above it. The short-circuit gate is a kernel
//! adaptor, not a loop of its own.
//!
//! Every operator records wall time, frames, and bytes into the
//! [`PipelineMetrics`] carried by the [`ExecContext`]; the VCD
//! snapshots them per query batch and the report prints the
//! per-stage breakdown.

use crate::io::{ExecContext, InputVideo, OutputBox, QueryOutput};
use crate::kernels::{boxes_frame, filter_class, FrameStream, SampleDecoder};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vr_base::obs::{alloc, metrics, trace};
use vr_base::sync::{
    channel, parallel_chunks, Receiver, RecvTimeoutError, SendError, Sender, TrySendError,
};
use vr_base::{fault, Error, Result};
use vr_codec::{EncodedVideo, Encoder, EncoderConfig, RateControlMode, VideoInfo};
use vr_container::TrackKind;
use vr_frame::Frame;
use vr_scene::ObjectClass;
use vr_vision::diff::FrameDiff;
use vr_vision::{YoloConfig, YoloDetector};

// ---------------------------------------------------------------------------
// Stage metrics
// ---------------------------------------------------------------------------

/// The five physical stages every query passes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Reading already-decoded frames (frame-table / memory reads).
    Scan,
    /// Bitstream decode.
    Decode,
    /// The query's transform (per-frame or whole-sequence).
    Kernel,
    /// Result encode.
    Encode,
    /// Result persistence (write mode) or discard (streaming mode).
    Sink,
}

impl StageKind {
    /// All stages in pipeline order.
    pub const ALL: [StageKind; 5] =
        [StageKind::Scan, StageKind::Decode, StageKind::Kernel, StageKind::Encode, StageKind::Sink];

    /// Lower-case report label.
    pub fn label(&self) -> &'static str {
        match self {
            StageKind::Scan => "scan",
            StageKind::Decode => "decode",
            StageKind::Kernel => "kernel",
            StageKind::Encode => "encode",
            StageKind::Sink => "sink",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

#[derive(Default)]
struct AtomicStage {
    nanos: AtomicU64,
    frames: AtomicU64,
    bytes: AtomicU64,
    invocations: AtomicU64,
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
    alloc_peak: AtomicU64,
}

/// Per-stage counters shared by every operator of one execution
/// context. Thread-safe (pipelined stages run on worker threads).
///
/// Every `record` also feeds the process-global
/// [`vr_base::obs::metrics`] registry: per-stage invocation-latency
/// histograms (`stage.<name>.nanos`) plus frame/byte counters, so
/// cross-query aggregates and p50/p95/p99 latencies are available from
/// one place while this struct keeps serving per-context deltas.
pub struct PipelineMetrics {
    stages: [AtomicStage; 5],
    contention_nanos: AtomicU64,
    stage_latency: [Arc<metrics::Histogram>; 5],
    stage_frames: [Arc<metrics::Counter>; 5],
    stage_bytes: [Arc<metrics::Counter>; 5],
    stage_allocs: [Arc<metrics::Counter>; 5],
    stage_alloc_bytes: [Arc<metrics::Counter>; 5],
    stage_alloc_peak: [Arc<metrics::Gauge>; 5],
    contention_total: Arc<metrics::Counter>,
}

impl Default for PipelineMetrics {
    fn default() -> Self {
        Self {
            stages: Default::default(),
            contention_nanos: AtomicU64::new(0),
            stage_latency: std::array::from_fn(|i| {
                metrics::histogram(&format!("stage.{}.nanos", StageKind::ALL[i].label()))
            }),
            stage_frames: std::array::from_fn(|i| {
                metrics::counter(&format!("stage.{}.frames", StageKind::ALL[i].label()))
            }),
            stage_bytes: std::array::from_fn(|i| {
                metrics::counter(&format!("stage.{}.bytes", StageKind::ALL[i].label()))
            }),
            stage_allocs: std::array::from_fn(|i| {
                metrics::counter(&format!("alloc.stage.{}.allocs", StageKind::ALL[i].label()))
            }),
            stage_alloc_bytes: std::array::from_fn(|i| {
                metrics::counter(&format!("alloc.stage.{}.bytes", StageKind::ALL[i].label()))
            }),
            stage_alloc_peak: std::array::from_fn(|i| {
                metrics::gauge(&format!("alloc.stage.{}.peak_bytes", StageKind::ALL[i].label()))
            }),
            contention_total: metrics::counter("pipeline.contention_nanos"),
        }
    }
}

impl PipelineMetrics {
    /// Add one stage invocation.
    pub fn record(&self, stage: StageKind, nanos: u64, frames: u64, bytes: u64) {
        let s = &self.stages[stage.idx()];
        s.nanos.fetch_add(nanos, Ordering::Relaxed);
        s.frames.fetch_add(frames, Ordering::Relaxed);
        s.bytes.fetch_add(bytes, Ordering::Relaxed);
        s.invocations.fetch_add(1, Ordering::Relaxed);
        self.stage_latency[stage.idx()].observe(nanos);
        if frames > 0 {
            self.stage_frames[stage.idx()].add(frames);
        }
        if bytes > 0 {
            self.stage_bytes[stage.idx()].add(bytes);
        }
    }

    /// Run `f` as one invocation of `stage`, inside a trace span named
    /// after the stage, an allocator scope and a wall-clock timer.
    /// `work` reads the `(frames, bytes)` processed off the result;
    /// `None` (a scan at end of stream, a failed call) records nothing.
    fn timed<T>(
        &self,
        stage: StageKind,
        f: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> Option<(u64, u64)>,
    ) -> T {
        let _span = trace::span("pipeline", stage.label());
        let scope = alloc::ScopeGuard::begin();
        let t0 = Instant::now();
        let out = f();
        if let Some((frames, bytes)) = work(&out) {
            self.record(stage, t0.elapsed().as_nanos() as u64, frames, bytes);
            self.record_alloc(stage, &scope.finish());
        }
        out
    }

    /// Fold one allocator-scope delta into a stage's accounting (a
    /// no-op delta — tracking off — is dropped before touching any
    /// atomics). Counts and bytes accumulate; the peak is max-merged,
    /// so the stage reports its worst single invocation.
    pub fn record_alloc(&self, stage: StageKind, delta: &alloc::AllocDelta) {
        if delta.allocs == 0 && delta.bytes == 0 && delta.peak_bytes == 0 {
            return;
        }
        let s = &self.stages[stage.idx()];
        s.allocs.fetch_add(delta.allocs, Ordering::Relaxed);
        s.alloc_bytes.fetch_add(delta.bytes, Ordering::Relaxed);
        s.alloc_peak.fetch_max(delta.peak_bytes, Ordering::Relaxed);
        self.stage_allocs[stage.idx()].add(delta.allocs);
        self.stage_alloc_bytes[stage.idx()].add(delta.bytes);
        self.stage_alloc_peak[stage.idx()].set_max(delta.peak_bytes as f64);
    }

    /// Add time a pipelined stage spent blocked on a full channel
    /// (backpressure from the next stage).
    pub fn record_contention(&self, nanos: u64) {
        self.contention_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.contention_total.add(nanos);
    }

    /// Current totals.
    pub fn snapshot(&self) -> PipelineSnapshot {
        PipelineSnapshot {
            stages: std::array::from_fn(|i| {
                let s = &self.stages[i];
                StageSnapshot {
                    nanos: s.nanos.load(Ordering::Relaxed),
                    frames: s.frames.load(Ordering::Relaxed),
                    bytes: s.bytes.load(Ordering::Relaxed),
                    invocations: s.invocations.load(Ordering::Relaxed),
                    allocs: s.allocs.load(Ordering::Relaxed),
                    alloc_bytes: s.alloc_bytes.load(Ordering::Relaxed),
                    peak_alloc_bytes: s.alloc_peak.load(Ordering::Relaxed),
                }
            }),
            contention_nanos: self.contention_nanos.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for s in &self.stages {
            s.nanos.store(0, Ordering::Relaxed);
            s.frames.store(0, Ordering::Relaxed);
            s.bytes.store(0, Ordering::Relaxed);
            s.invocations.store(0, Ordering::Relaxed);
            s.allocs.store(0, Ordering::Relaxed);
            s.alloc_bytes.store(0, Ordering::Relaxed);
            s.alloc_peak.store(0, Ordering::Relaxed);
        }
        self.contention_nanos.store(0, Ordering::Relaxed);
    }
}

impl fmt::Debug for PipelineMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PipelineMetrics({})", self.snapshot())
    }
}

/// One stage's totals at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    pub nanos: u64,
    pub frames: u64,
    pub bytes: u64,
    pub invocations: u64,
    /// Allocations observed inside the stage's measured regions (zero
    /// unless `obs::alloc` tracking is on).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Worst single-invocation high-water mark (max-merged, so
    /// `since()` keeps the later absolute value rather than a delta).
    pub peak_alloc_bytes: u64,
}

/// All five stages' totals at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineSnapshot {
    /// Indexed by [`StageKind`] order.
    pub stages: [StageSnapshot; 5],
    /// Nanoseconds pipelined stages spent blocked on full inter-stage
    /// channels (zero on the sequential path).
    pub contention_nanos: u64,
}

impl PipelineSnapshot {
    /// One stage's totals.
    pub fn stage(&self, kind: StageKind) -> StageSnapshot {
        self.stages[kind.idx()]
    }

    /// Counters accumulated since `earlier` (saturating).
    pub fn since(&self, earlier: &PipelineSnapshot) -> PipelineSnapshot {
        PipelineSnapshot {
            stages: std::array::from_fn(|i| StageSnapshot {
                nanos: self.stages[i].nanos.saturating_sub(earlier.stages[i].nanos),
                frames: self.stages[i].frames.saturating_sub(earlier.stages[i].frames),
                bytes: self.stages[i].bytes.saturating_sub(earlier.stages[i].bytes),
                invocations: self.stages[i]
                    .invocations
                    .saturating_sub(earlier.stages[i].invocations),
                allocs: self.stages[i].allocs.saturating_sub(earlier.stages[i].allocs),
                alloc_bytes: self.stages[i]
                    .alloc_bytes
                    .saturating_sub(earlier.stages[i].alloc_bytes),
                // A peak is a high-water mark, not an accumulator.
                peak_alloc_bytes: self.stages[i].peak_alloc_bytes,
            }),
            contention_nanos: self.contention_nanos.saturating_sub(earlier.contention_nanos),
        }
    }
}

impl fmt::Display for PipelineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, kind) in StageKind::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            let s = self.stage(*kind);
            write!(f, "{} {}ns/{}fr/{}B", kind.label(), s.nanos, s.frames, s.bytes)?;
        }
        write!(f, " | contention {}ns", self.contention_nanos)
    }
}

// ---------------------------------------------------------------------------
// Scan operators
// ---------------------------------------------------------------------------

/// A physical scan: yields decoded frames one at a time, recording its
/// own Scan/Decode cost as it goes.
///
/// `Send` is a supertrait so the pipelined executor can move the scan
/// onto its producer thread; every scan here is plain data + a decoder.
pub trait FrameSource: Send {
    /// Stream parameters of the underlying video.
    fn info(&self) -> VideoInfo;
    /// Frames this source will yield in total.
    fn len(&self) -> usize;
    /// Whether the source yields nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The next frame, if any.
    fn next_frame(&mut self) -> Option<Result<Frame>>;
}

/// What a scan reports for one call: a frame of its sample count, or
/// nothing when the decode failed.
fn one_frame(frame: &Result<Frame>) -> Option<(u64, u64)> {
    frame.as_ref().ok().map(|f| (1, f.sample_count() as u64))
}

/// Forward-only streaming decode of a whole video track (the lazy
/// access path). Records Decode time per frame.
pub struct StreamScan<'a> {
    stream: FrameStream<'a>,
    metrics: Arc<PipelineMetrics>,
}

impl FrameSource for StreamScan<'_> {
    fn info(&self) -> VideoInfo {
        self.stream.info()
    }

    fn len(&self) -> usize {
        self.stream.len()
    }

    fn next_frame(&mut self) -> Option<Result<Frame>> {
        self.metrics.timed(
            StageKind::Decode,
            || self.stream.next_frame(),
            |frame| frame.as_ref().and_then(one_frame),
        )
    }
}

/// Random-access decode of `[from, to]` (inclusive): seeks to the
/// nearest preceding keyframe and yields only the requested range —
/// temporal predicate pushdown. Pre-roll decode cost is recorded too.
pub struct RangeScan<'a> {
    input: &'a InputVideo,
    track: usize,
    info: VideoInfo,
    decoder: SampleDecoder,
    next: usize,
    from: usize,
    to: usize,
    metrics: Arc<PipelineMetrics>,
}

impl<'a> RangeScan<'a> {
    fn open(
        input: &'a InputVideo,
        from: usize,
        to: usize,
        metrics: Arc<PipelineMetrics>,
    ) -> Result<Self> {
        let info = input.video_info()?;
        let track = input
            .container
            .track_of_kind(TrackKind::Video)
            .ok_or_else(|| Error::NotFound(format!("video track in {}", input.name)))?;
        let samples = &input.container.tracks()[track].samples;
        if samples.is_empty() || from > to {
            return Err(Error::InvalidConfig(format!(
                "bad scan range {from}..={to} over {} samples",
                samples.len()
            )));
        }
        let to = to.min(samples.len() - 1);
        let from = from.min(to);
        let seek = (0..=from).rev().find(|&i| samples[i].keyframe).unwrap_or(0);
        Ok(Self {
            input,
            track,
            info,
            decoder: SampleDecoder::new(info),
            next: seek,
            from,
            to,
            metrics,
        })
    }
}

impl FrameSource for RangeScan<'_> {
    fn info(&self) -> VideoInfo {
        self.info
    }

    fn len(&self) -> usize {
        self.to - self.from + 1
    }

    fn next_frame(&mut self) -> Option<Result<Frame>> {
        while self.next <= self.to {
            let i = self.next;
            self.next += 1;
            let frame = self.metrics.timed(
                StageKind::Decode,
                || self.decoder.decode_sample(self.input, self.track, i),
                one_frame,
            );
            if frame.is_err() || i >= self.from {
                return Some(frame);
            }
        }
        None
    }
}

/// Scan over already-decoded frames (a materialized frame table).
/// Records Scan time per frame read.
pub struct MemoryScan {
    info: VideoInfo,
    frames: Arc<Vec<Frame>>,
    next: usize,
    end: usize,
    metrics: Arc<PipelineMetrics>,
}

impl MemoryScan {
    fn new(
        info: VideoInfo,
        frames: Arc<Vec<Frame>>,
        range: std::ops::Range<usize>,
        metrics: Arc<PipelineMetrics>,
    ) -> Self {
        let end = range.end.min(frames.len());
        Self { info, frames, next: range.start.min(end), end, metrics }
    }
}

impl FrameSource for MemoryScan {
    fn info(&self) -> VideoInfo {
        self.info
    }

    fn len(&self) -> usize {
        self.end - self.next
    }

    fn next_frame(&mut self) -> Option<Result<Frame>> {
        if self.next >= self.end {
            return None;
        }
        // O(1): planes are copy-on-write, so serving a frame from the
        // materialized table is a refcount bump, not a pixel copy.
        let frame =
            self.metrics.timed(StageKind::Scan, || Ok(self.frames[self.next].clone()), one_frame);
        self.next += 1;
        Some(frame)
    }
}

// ---------------------------------------------------------------------------
// Kernel operators
// ---------------------------------------------------------------------------

/// One kernel emission: a processed frame plus optional per-frame
/// boxes (Q2(c)-style results).
#[derive(Clone)]
pub struct KernelOut {
    pub frame: Frame,
    pub boxes: Option<Vec<OutputBox>>,
}

impl From<Frame> for KernelOut {
    fn from(frame: Frame) -> Self {
        Self { frame, boxes: None }
    }
}

/// A push-based streaming kernel. `push` receives frames in order and
/// may emit zero or more outputs per input (windowed operators buffer
/// internally); `finish` drains whatever remains.
pub trait FrameKernel {
    /// Consume one input frame (index is per-source).
    fn push(&mut self, frame: Frame, index: usize, out: &mut Vec<KernelOut>) -> Result<()>;

    /// Called when one input of a multi-source scan is exhausted.
    fn end_of_source(&mut self, out: &mut Vec<KernelOut>) -> Result<()> {
        let _ = out;
        Ok(())
    }

    /// Called after all input is consumed.
    fn finish(&mut self, out: &mut Vec<KernelOut>) -> Result<()> {
        let _ = out;
        Ok(())
    }
}

/// A one-in-one-out kernel from a closure.
pub struct MapKernel<F>(F);

impl<F: FnMut(Frame, usize) -> Frame> FrameKernel for MapKernel<F> {
    fn push(&mut self, frame: Frame, index: usize, out: &mut Vec<KernelOut>) -> Result<()> {
        out.push(KernelOut::from((self.0)(frame, index)));
        Ok(())
    }
}

/// Build a [`MapKernel`].
pub fn map<F: FnMut(Frame, usize) -> Frame>(f: F) -> MapKernel<F> {
    MapKernel(f)
}

/// A fallible one-in-one-out kernel from a closure.
pub struct TryMapKernel<F>(F);

impl<F: FnMut(Frame, usize) -> Result<Frame>> FrameKernel for TryMapKernel<F> {
    fn push(&mut self, frame: Frame, index: usize, out: &mut Vec<KernelOut>) -> Result<()> {
        out.push(KernelOut::from((self.0)(frame, index)?));
        Ok(())
    }
}

/// Build a [`TryMapKernel`].
pub fn try_map<F: FnMut(Frame, usize) -> Result<Frame>>(f: F) -> TryMapKernel<F> {
    TryMapKernel(f)
}

/// A selective kernel from a closure: `None` drops the frame (Q1's
/// temporal predicate).
pub struct FilterMapKernel<F>(F);

impl<F: FnMut(Frame, usize) -> Option<Frame>> FrameKernel for FilterMapKernel<F> {
    fn push(&mut self, frame: Frame, index: usize, out: &mut Vec<KernelOut>) -> Result<()> {
        if let Some(f) = (self.0)(frame, index) {
            out.push(KernelOut::from(f));
        }
        Ok(())
    }
}

/// Build a [`FilterMapKernel`].
pub fn filter_map<F: FnMut(Frame, usize) -> Option<Frame>>(f: F) -> FilterMapKernel<F> {
    FilterMapKernel(f)
}

/// The shared Q2(c) kernel: detect, filter to one class, emit the
/// class-colored box frame plus the boxes themselves. Used verbatim
/// by the reference and functional engines (the batch engine runs its
/// heavyweight NN-framework variant instead).
pub struct DetectBoxes {
    detector: YoloDetector,
    class: ObjectClass,
}

impl DetectBoxes {
    /// Build the kernel for one object class.
    pub fn new(class: ObjectClass, cfg: YoloConfig) -> Self {
        Self { detector: YoloDetector::new(cfg), class }
    }
}

impl FrameKernel for DetectBoxes {
    fn push(&mut self, frame: Frame, _index: usize, out: &mut Vec<KernelOut>) -> Result<()> {
        let dets = filter_class(self.detector.detect(&frame), self.class);
        let boxes =
            dets.iter().map(|d| OutputBox { class: d.class, rect: d.rect }).collect();
        out.push(KernelOut {
            frame: boxes_frame(frame.width(), frame.height(), &dets),
            boxes: Some(boxes),
        });
        Ok(())
    }
}

/// Streaming Q2(d): an m-frame look-ahead ring with a rolling luma
/// sum, so only the window (never the whole video) is resident. For
/// frame `j` the window covers `[j, j+m)` until the stream drains,
/// after which it freezes on the final full window — matching the
/// reference implementation's clamped formulation exactly.
pub struct TemporalMaskKernel {
    m: usize,
    epsilon: f64,
    total: usize,
    window: std::collections::VecDeque<Frame>,
    sum: Vec<u32>,
    emitted: usize,
}

impl TemporalMaskKernel {
    /// `total` is the source's frame count (the window clamps to it).
    pub fn new(m: u32, epsilon: f64, total: usize) -> Self {
        Self {
            m: (m as usize).clamp(1, total.max(1)),
            epsilon,
            total,
            window: std::collections::VecDeque::new(),
            sum: Vec::new(),
            emitted: 0,
        }
    }

    fn background(&self) -> Option<Frame> {
        let front = self.window.front()?;
        let mut bg = Frame::new(front.width(), front.height());
        let m = self.m as u32;
        for (b, &s) in bg.y.iter_mut().zip(&self.sum) {
            *b = ((s + m / 2) / m) as u8;
        }
        Some(bg)
    }

    fn emit(&mut self, idx: usize, out: &mut Vec<KernelOut>) -> Result<()> {
        let bg = self
            .background()
            .ok_or_else(|| Error::InvalidConfig("temporal mask window is empty".into()))?;
        let masked = vr_frame::ops::background_mask(&self.window[idx], &bg, self.epsilon);
        out.push(KernelOut::from(masked));
        self.emitted += 1;
        Ok(())
    }
}

impl FrameKernel for TemporalMaskKernel {
    fn push(&mut self, frame: Frame, _index: usize, out: &mut Vec<KernelOut>) -> Result<()> {
        if self.window.len() == self.m {
            // Window [emitted, emitted + m) is complete and a new
            // frame arrived: mask frame `emitted` against the current
            // mean, then slide the window forward.
            self.emit(0, out)?;
            if let Some(old) = self.window.pop_front() {
                for (s, &p) in self.sum.iter_mut().zip(&old.y) {
                    *s -= p as u32;
                }
            }
        }
        if self.sum.is_empty() {
            self.sum.resize(frame.y.len(), 0);
        }
        for (s, &p) in self.sum.iter_mut().zip(&frame.y) {
            *s += p as u32;
        }
        self.window.push_back(frame);
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<KernelOut>) -> Result<()> {
        // The stream drained with the window frozen on the last full m
        // frames; walk the remaining indices through it.
        while self.emitted < self.total {
            let idx = (self.emitted + self.m).saturating_sub(self.total);
            self.emit(idx.min(self.window.len().saturating_sub(1)), out)?;
        }
        Ok(())
    }
}

/// The NoScope-style difference-detector gate: frames whose
/// mean-absolute luma delta stays below the threshold take the cheap
/// path, up to `max_skip` in a row before the full kernel is forced
/// (bounding drift, as NoScope's periodic reference invocations do).
pub struct DiffGate {
    diff: FrameDiff,
    threshold: f64,
    max_skip: u32,
    skipped: u32,
}

impl DiffGate {
    /// Build a gate.
    pub fn new(threshold: f64, max_skip: u32) -> Self {
        Self { diff: FrameDiff::new(), threshold, max_skip, skipped: 0 }
    }

    /// Whether this frame must escalate to the full kernel.
    pub fn escalate(&mut self, frame: &Frame) -> bool {
        let score = self.diff.step(frame);
        if score < self.threshold && self.skipped < self.max_skip {
            self.skipped += 1;
            false
        } else {
            self.skipped = 0;
            true
        }
    }
}

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

/// A streaming run's result: the encoded video plus per-frame boxes if
/// the kernel emitted any.
pub struct StreamResult {
    pub video: EncodedVideo,
    pub boxes: Option<Vec<Vec<OutputBox>>>,
}

/// In-flight frames per inter-stage channel of the pipelined executor.
/// Deep enough to ride out stage-time jitter, shallow enough that a
/// slow consumer exerts backpressure instead of buffering the video.
const PIPE_DEPTH: usize = 8;

/// Send on a pipelined stage boundary, charging any time spent blocked
/// on a full channel to the contention counter. An `Err` means the
/// downstream stage is gone (it failed and hung up); the caller stops.
fn send_stage<T>(tx: &Sender<T>, value: T, metrics: &PipelineMetrics) -> Result<(), SendError<T>> {
    match tx.try_send(value) {
        Ok(()) => Ok(()),
        Err(TrySendError::Disconnected(v)) => Err(SendError(v)),
        Err(TrySendError::Full(v)) => {
            let t0 = Instant::now();
            let out = tx.send(v);
            metrics.record_contention(t0.elapsed().as_nanos() as u64);
            out
        }
    }
}

/// Human-readable panic payload.
fn panic_payload(p: Box<dyn std::any::Any + Send>) -> String {
    match p.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => match p.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "opaque panic payload".into(),
        },
    }
}

/// Contain a panic at a stage boundary: a panicking stage (injected or
/// organic) degrades into a typed [`Error::StagePanic`] instead of
/// unwinding through the executor and poisoning its channels.
fn contain_panic<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => {
            fault::note_stage_panic();
            Err(Error::StagePanic(panic_payload(p)))
        }
    }
}

/// Receive on a stage boundary under the watchdog: `Ok(None)` is a
/// clean hang-up, a wait past `timeout` means the upstream stage is
/// stalled or dead and becomes a typed error instead of a hang.
fn recv_guarded<T>(rx: &Receiver<T>, timeout: Option<Duration>) -> Result<Option<T>> {
    match timeout {
        None => Ok(rx.recv().ok()),
        Some(t) => match rx.recv_timeout(t) {
            Ok(v) => Ok(Some(v)),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
            Err(RecvTimeoutError::Timeout) => Err(Error::StagePanic(format!(
                "upstream pipeline stage stalled past {t:?}"
            ))),
        },
    }
}

/// What the scan side of a streaming run hands the kernel loop.
enum ScanEvent {
    Frame(Result<Frame>),
    /// One input of a multi-source scan is exhausted.
    EndOfSource,
}

/// The scan side of a streaming run: walks the sources in order and,
/// when `mark_ends` is set (the multi-source form), reports each
/// source's end.
struct ScanEvents<'s, 'a> {
    sources: &'s mut [&'a mut dyn FrameSource],
    current: usize,
    mark_ends: bool,
}

impl Iterator for ScanEvents<'_, '_> {
    type Item = ScanEvent;

    fn next(&mut self) -> Option<ScanEvent> {
        while let Some(source) = self.sources.get_mut(self.current) {
            if let Some(frame) = source.next_frame() {
                return Some(ScanEvent::Frame(frame));
            }
            self.current += 1;
            if self.mark_ends {
                return Some(ScanEvent::EndOfSource);
            }
        }
        None
    }
}

/// The short-circuit policy as a kernel: the gate decides, frame by
/// frame and in scan order, which path of the caller's closure runs.
struct Gated<'a> {
    gate: &'a mut DiffGate,
    kernel: &'a mut dyn FnMut(Frame, usize, bool) -> Result<KernelOut>,
}

impl FrameKernel for Gated<'_> {
    fn push(&mut self, frame: Frame, index: usize, out: &mut Vec<KernelOut>) -> Result<()> {
        let escalate = self.gate.escalate(&frame);
        out.push((self.kernel)(frame, index, escalate)?);
        Ok(())
    }
}

/// The pipeline executor, bound to one execution context. Owns the
/// stage timing; engines choose the scan operator, the kernel, and the
/// execution policy.
pub struct Pipeline<'c> {
    ctx: &'c ExecContext,
}

impl<'c> Pipeline<'c> {
    /// Bind to an execution context.
    pub fn new(ctx: &'c ExecContext) -> Self {
        Self { ctx }
    }

    /// The metrics this pipeline records into.
    pub fn metrics(&self) -> &Arc<PipelineMetrics> {
        &self.ctx.metrics
    }

    /// Open a streaming scan over a whole input.
    pub fn stream_scan<'a>(&self, input: &'a InputVideo) -> Result<StreamScan<'a>> {
        self.absorb_stall("decode");
        Ok(StreamScan { stream: FrameStream::open(input)?, metrics: self.ctx.metrics.clone() })
    }

    /// Open a keyframe-seeking scan over frames `[from, to]`.
    pub fn range_scan<'a>(
        &self,
        input: &'a InputVideo,
        from: usize,
        to: usize,
    ) -> Result<RangeScan<'a>> {
        self.absorb_stall("decode");
        RangeScan::open(input, from, to, self.ctx.metrics.clone())
    }

    /// Open a scan over already-decoded frames.
    pub fn memory_scan(
        &self,
        info: VideoInfo,
        frames: Arc<Vec<Frame>>,
        range: std::ops::Range<usize>,
    ) -> MemoryScan {
        self.absorb_stall("scan");
        MemoryScan::new(info, frames, range, self.ctx.metrics.clone())
    }

    /// Streaming policy: decode → kernel → encode with one frame
    /// resident at a time and an incrementally-fed encoder.
    ///
    /// With a worker budget above one (`ctx.workers`, defaulting to
    /// `VR_WORKERS` / the machine), the three stages run pipelined on
    /// separate threads connected by bounded channels; the kernel stays
    /// on the calling thread and sees frames in scan order, so the
    /// output is bit-identical to the sequential path.
    pub fn run_streaming(
        &self,
        source: &mut dyn FrameSource,
        kernel: &mut dyn FrameKernel,
    ) -> Result<StreamResult> {
        let _req = self.request_span();
        let _span = trace::span("pipeline", "run_streaming");
        self.absorb_stall("kernel");
        self.stream(&mut [source], false, kernel)
    }

    /// Streaming over several sources in order (Q8's multi-camera
    /// scan); the kernel sees each source's end, in the same event
    /// order whether or not the run is pipelined.
    pub fn run_streaming_multi(
        &self,
        sources: &mut [&mut dyn FrameSource],
        kernel: &mut dyn FrameKernel,
    ) -> Result<StreamResult> {
        let _req = self.request_span();
        let _span = trace::span("pipeline", "run_streaming_multi");
        self.absorb_stall("kernel");
        self.stream(sources, true, kernel)
    }

    /// The one streaming executor: scan events → kernel loop → encode
    /// stage. With a worker budget of one the three run interleaved on
    /// the calling thread; above it the scan and the encoder each get
    /// a thread and a bounded channel, and the kernel loop stays here.
    /// Either way the kernel's error wins over the encoder's.
    fn stream(
        &self,
        sources: &mut [&mut dyn FrameSource],
        mark_ends: bool,
        kernel: &mut dyn FrameKernel,
    ) -> Result<StreamResult> {
        let info = sources
            .first()
            .map(|s| s.info())
            .ok_or_else(|| Error::InvalidConfig("multi-scan needs at least one source".into()))?;
        let events = ScanEvents { sources, current: 0, mark_ends };
        if self.ctx.workers <= 1 {
            let mut sink = EncodeStage::new(self, info);
            let mut encoded = Ok(());
            let driven = self.drive(events, kernel, |ko| {
                encoded = sink.consume(ko);
                encoded.is_ok()
            });
            return driven.and(encoded).and_then(|()| sink.into_result());
        }
        let (metrics, timeout) = (&*self.ctx.metrics, self.ctx.stage_timeout);
        std::thread::scope(|scope| {
            let (ftx, frx) = channel::<ScanEvent>(PIPE_DEPTH);
            let (ktx, krx) = channel::<KernelOut>(PIPE_DEPTH);
            scope.spawn(move || {
                for event in events {
                    let stop = matches!(event, ScanEvent::Frame(Err(_)))
                        || self.ctx.cancel.cancelled();
                    if send_stage(&ftx, event, metrics).is_err() || stop {
                        break;
                    }
                }
            });
            let encoder = scope.spawn(move || {
                let mut sink = EncodeStage::new(self, info);
                while let Some(ko) = recv_guarded(&krx, timeout)? {
                    sink.consume(ko)?;
                }
                sink.into_result()
            });
            // A scan stalled past the watchdog reads as a failed frame.
            let scanned = std::iter::from_fn(|| {
                recv_guarded(&frx, timeout).unwrap_or_else(|e| Some(ScanEvent::Frame(Err(e))))
            });
            let driven = self.drive(scanned, kernel, |ko| send_stage(&ktx, ko, metrics).is_ok());
            // Hang up both channels: an aborted producer unblocks, and
            // the encoder drains what it has and returns.
            drop(frx);
            drop(ktx);
            let encoded = encoder.join().unwrap_or_else(|p| {
                fault::note_stage_panic();
                Err(Error::StagePanic(panic_payload(p)))
            });
            driven.and(encoded)
        })
    }

    /// The kernel loop of a streaming run: push each scanned frame
    /// with its per-source index, mark source ends, `finish` after the
    /// last event, and hand every output to `emit` as it appears. The
    /// first error ends the run; so does `emit` returning `false` (the
    /// encode stage failed — its error is the run's).
    fn drive(
        &self,
        events: impl Iterator<Item = ScanEvent>,
        kernel: &mut dyn FrameKernel,
        mut emit: impl FnMut(KernelOut) -> bool,
    ) -> Result<()> {
        let mut buf = Vec::new();
        let mut index = 0usize;
        for event in events {
            match event {
                ScanEvent::Frame(frame) => {
                    let frame = frame?;
                    self.kernel_stage(1, index, || kernel.push(frame, index, &mut buf))?;
                    index += 1;
                }
                ScanEvent::EndOfSource => {
                    index = 0;
                    self.kernel_stage(0, index, || kernel.end_of_source(&mut buf))?;
                }
            }
            if !buf.drain(..).all(&mut emit) {
                return Ok(());
            }
        }
        self.kernel_stage(0, index, || kernel.finish(&mut buf))?;
        buf.drain(..).all(emit);
        Ok(())
    }

    /// Eager policy: materialize every frame, run a stateless kernel
    /// data-parallel over the batch, encode the whole output. The
    /// engine's worker request is clamped by the context's budget, so
    /// `VR_WORKERS=1` forces the sequential kernel here too.
    pub fn run_eager(
        &self,
        source: &mut dyn FrameSource,
        workers: usize,
        kernel: impl Fn(&Frame) -> Frame + Send + Sync,
    ) -> Result<EncodedVideo> {
        let _req = self.request_span();
        let _span = trace::span("pipeline", "run_eager");
        self.absorb_stall("kernel");
        // Clamp the requested fan-out by the context budget AND the
        // machine's parallelism: threads beyond the core count only
        // pay spawn overhead (the workers4-slower-than-workers1
        // single-core regression).
        let workers = workers
            .min(self.ctx.workers)
            .min(vr_base::sync::hardware_parallelism())
            .max(1);
        // Surface the effective fan-out (optimizer-chosen or
        // hand-tuned, after clamping) so /metrics and the optimizer
        // gate can see what actually ran.
        vr_base::obs::metrics::gauge("pipeline.eager_fanout").set(workers as f64);
        let info = source.info();
        let mut frames = self.drain(source)?;
        let n = frames.len() as u64;
        // Per-item containment: a worker that panics (injected or
        // organic) poisons only its own frame; the first error wins.
        let first_err: vr_base::sync::Mutex<Option<Error>> = vr_base::sync::Mutex::new(None);
        self.kernel_span(n, || {
            parallel_chunks(&mut frames, workers, |i, f| {
                match self.guarded(i, || Ok(kernel(f))).and_then(|call| call()) {
                    Ok(nf) => *f = nf,
                    Err(e) => {
                        first_err.lock().get_or_insert(e);
                    }
                }
            });
        });
        if let Some(e) = first_err.lock().take() {
            return Err(e);
        }
        self.encode_frames(&frames, info)
    }

    /// Whole-sequence policy: materialize, apply a sequence kernel
    /// (temporal aggregation, tiling, composites), encode.
    pub fn run_sequence(
        &self,
        source: &mut dyn FrameSource,
        kernel: impl FnOnce(Vec<Frame>, VideoInfo) -> Result<Vec<Frame>>,
    ) -> Result<EncodedVideo> {
        let _req = self.request_span();
        let _span = trace::span("pipeline", "run_sequence");
        self.absorb_stall("kernel");
        let info = source.info();
        let frames = self.drain(source)?;
        let n = frames.len() as u64;
        let out = self.kernel_stage(n, 0, || kernel(frames, info))?;
        self.encode_frames(&out, info)
    }

    /// Short-circuit policy: a gate routes each frame to the cheap
    /// (`escalate = false`) or full (`escalate = true`) path of the
    /// kernel; everything still flows through the shared encode stage.
    ///
    /// The gate's difference detector is stateful over the frame
    /// sequence, so gate + kernel stay on the calling thread in scan
    /// order even when pipelined; decode and encode run alongside.
    pub fn run_short_circuit(
        &self,
        source: &mut dyn FrameSource,
        gate: &mut DiffGate,
        kernel: &mut dyn FnMut(Frame, usize, bool) -> Result<KernelOut>,
    ) -> Result<StreamResult> {
        let _req = self.request_span();
        let _span = trace::span("pipeline", "run_short_circuit");
        self.absorb_stall("kernel");
        self.stream(&mut [source], false, &mut Gated { gate, kernel })
    }

    /// Drain a source into a vector (Scan/Decode time recorded by the
    /// source itself).
    pub fn drain(&self, source: &mut dyn FrameSource) -> Result<Vec<Frame>> {
        let mut frames = Vec::with_capacity(source.len());
        while let Some(f) = source.next_frame() {
            self.check_cancelled(frames.len())?;
            frames.push(f?);
        }
        Ok(frames)
    }

    /// Time a closure as Kernel-stage work over `frames` frames.
    pub fn kernel_span<T>(&self, frames: u64, f: impl FnOnce() -> T) -> T {
        self.ctx.metrics.timed(StageKind::Kernel, f, |_| Some((frames, 0)))
    }

    /// The guard around every kernel call. Cooperative cancellation is
    /// checked now; the call that comes back runs `f` with an injected
    /// kernel panic firing inside the containment scope, so any panic
    /// (injected or organic) becomes a typed error at the stage
    /// boundary.
    fn guarded<T>(
        &self,
        index: usize,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<impl FnOnce() -> Result<T>> {
        self.check_cancelled(index)?;
        let due = fault::global()
            .map(|inj| inj.kernel_panic_due(&self.ctx.query_label, index as u64))
            .unwrap_or(false);
        Ok(move || {
            contain_panic(|| {
                if due {
                    panic!("injected kernel panic (frame {index})");
                }
                f()
            })
        })
    }

    /// One guarded kernel invocation, timed as Kernel work.
    fn kernel_stage<T>(
        &self,
        frames: u64,
        index: usize,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let call = self.guarded(index, f)?;
        self.kernel_span(frames, call)
    }

    /// Error out if the context's cancellation token has fired (the
    /// scheduler arms it with the instance deadline).
    fn check_cancelled(&self, index: usize) -> Result<()> {
        if self.ctx.cancel.cancelled() {
            return Err(Error::Cancelled(format!(
                "query {} at frame {index}",
                self.ctx.query_label
            )));
        }
        Ok(())
    }

    /// Open the enclosing request-lane span when the context carries a
    /// request id (`None` — the batch CLI default — costs nothing).
    /// Every `run_*` entry point holds one, so in chrome-trace each
    /// pipeline run nests under the request (and tenant) it serves.
    fn request_span(&self) -> Option<trace::Span> {
        self.ctx.request_id.as_ref().map(|r| trace::span_dyn("request", || r.to_string()))
    }

    /// Sleep out an injected stall at a named stage entry (the
    /// watchdog's budget is far above any plan's stall, so an absorbed
    /// stall degrades latency without tripping anything).
    fn absorb_stall(&self, stage: &str) {
        if let Some(inj) = fault::global() {
            if let Some(d) = inj.stall(stage) {
                std::thread::sleep(d);
                fault::note_stall_absorbed();
            }
        }
    }

    /// Encode a finished frame sequence (dimensions taken from the
    /// first frame, stream parameters from `info`), recording Encode
    /// time and output bytes.
    pub fn encode_frames(&self, frames: &[Frame], info: VideoInfo) -> Result<EncodedVideo> {
        let mut stage = EncodeStage::new(self, info);
        for f in frames {
            stage.consume(KernelOut::from(f.clone()))?;
        }
        Ok(stage.into_result()?.video)
    }

    /// Sink stage: apply the context's result mode (persist or
    /// discard), recording Sink time and persisted bytes.
    pub fn sink(&self, instance_index: usize, output: &QueryOutput) -> Result<usize> {
        self.absorb_stall("sink");
        let frames = output.primary_video().map(|v| v.len() as u64).unwrap_or(0);
        let bytes = self.ctx.metrics.timed(
            StageKind::Sink,
            || self.ctx.result_mode.sink(instance_index, output),
            |sunk| sunk.as_ref().ok().map(|&bytes| (frames, bytes as u64)),
        )?;
        // Multi-tenant attribution: when the server tagged this
        // context with a tenant, credit the delivered volume to it so
        // /metrics can apportion data-plane throughput per tenant.
        if let Some(tenant) = &self.ctx.tenant {
            metrics::counter(&format!("tenant.{tenant}.sink.frames")).add(frames);
            metrics::counter(&format!("tenant.{tenant}.sink.bytes")).add(bytes as u64);
        }
        Ok(bytes)
    }
}

/// The shared encode stage: a lazily-created constant-QP encoder fed
/// one frame at a time (identical output to whole-sequence encoding —
/// the encoder is sequential either way).
struct EncodeStage<'p, 'c> {
    pl: &'p Pipeline<'c>,
    info: VideoInfo,
    encoder: Option<Encoder>,
    packets: Vec<vr_codec::Packet>,
    boxes: Vec<Vec<OutputBox>>,
    any_boxes: bool,
}

impl<'p, 'c> EncodeStage<'p, 'c> {
    fn new(pl: &'p Pipeline<'c>, info: VideoInfo) -> Self {
        pl.absorb_stall("encode");
        Self { pl, info, encoder: None, packets: Vec::new(), boxes: Vec::new(), any_boxes: false }
    }

    fn consume(&mut self, ko: KernelOut) -> Result<()> {
        if self.pl.ctx.cancel.cancelled() {
            return Err(Error::Cancelled(format!(
                "query {} at encode",
                self.pl.ctx.query_label
            )));
        }
        let packet = self.pl.ctx.metrics.timed(
            StageKind::Encode,
            || self.encode(&ko.frame),
            |packet| packet.as_ref().ok().map(|p| (1, p.data.len() as u64)),
        )?;
        self.packets.push(packet);
        match ko.boxes {
            Some(b) => {
                self.any_boxes = true;
                self.boxes.push(b);
            }
            None => self.boxes.push(Vec::new()),
        }
        Ok(())
    }

    /// Encode one frame, creating the encoder at the first frame's size.
    fn encode(&mut self, frame: &Frame) -> Result<vr_codec::Packet> {
        let encoder = match &mut self.encoder {
            Some(encoder) => encoder,
            None => {
                let cfg = EncoderConfig {
                    profile: self.info.profile,
                    rate: RateControlMode::ConstantQp(self.pl.ctx.output_qp),
                    gop: self.info.gop,
                    frame_rate: self.info.frame_rate,
                };
                self.encoder.insert(Encoder::new(cfg, frame.width(), frame.height())?)
            }
        };
        encoder.encode(frame)
    }

    fn into_result(self) -> Result<StreamResult> {
        let encoder = self
            .encoder
            .ok_or_else(|| Error::InvalidConfig("pipeline produced no frames".into()))?;
        Ok(StreamResult {
            video: EncodedVideo { info: encoder.info(), packets: self.packets },
            boxes: self.any_boxes.then_some(self.boxes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::tests::tiny_input;
    use crate::kernels::decode_all;
    use vr_frame::ops;

    fn ctx() -> ExecContext {
        ctx_workers(1)
    }

    fn ctx_workers(workers: usize) -> ExecContext {
        ExecContext { workers, ..ExecContext::default() }
    }

    #[test]
    fn metrics_record_and_snapshot() {
        let m = PipelineMetrics::default();
        m.record(StageKind::Decode, 100, 2, 64);
        m.record(StageKind::Decode, 50, 1, 32);
        m.record(StageKind::Encode, 10, 1, 8);
        let snap = m.snapshot();
        assert_eq!(snap.stage(StageKind::Decode).nanos, 150);
        assert_eq!(snap.stage(StageKind::Decode).frames, 3);
        assert_eq!(snap.stage(StageKind::Decode).bytes, 96);
        assert_eq!(snap.stage(StageKind::Decode).invocations, 2);
        assert_eq!(snap.stage(StageKind::Encode).bytes, 8);
        assert_eq!(snap.stage(StageKind::Kernel), StageSnapshot::default());
        let text = snap.to_string();
        assert!(text.contains("decode 150ns/3fr/96B"), "{text}");
        assert!(text.contains("kernel 0ns/0fr/0B"), "{text}");
        m.reset();
        assert_eq!(m.snapshot(), PipelineSnapshot::default());
    }

    #[test]
    fn snapshot_since_subtracts() {
        let m = PipelineMetrics::default();
        m.record(StageKind::Scan, 10, 1, 1);
        let before = m.snapshot();
        m.record(StageKind::Scan, 30, 2, 2);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.stage(StageKind::Scan).nanos, 30);
        assert_eq!(delta.stage(StageKind::Scan).frames, 2);
    }

    #[test]
    fn streaming_identity_preserves_frames_and_records_stages() {
        let ctx = ctx();
        let pl = Pipeline::new(&ctx);
        let input = tiny_input("pipe-id.vrmf");
        let mut scan = pl.stream_scan(&input).unwrap();
        let mut kernel = map(|f, _| f);
        let r = pl.run_streaming(&mut scan, &mut kernel).unwrap();
        assert_eq!(r.video.len(), 4);
        assert!(r.boxes.is_none());
        r.video.decode_all().unwrap();
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap.stage(StageKind::Decode).frames, 4);
        assert_eq!(snap.stage(StageKind::Kernel).frames, 4);
        assert_eq!(snap.stage(StageKind::Encode).frames, 4);
        assert!(snap.stage(StageKind::Encode).bytes > 0);
    }

    #[test]
    fn eager_and_streaming_policies_encode_identically() {
        let input = tiny_input("pipe-eq.vrmf");
        let ctx_a = ctx();
        let pl_a = Pipeline::new(&ctx_a);
        let mut scan = pl_a.stream_scan(&input).unwrap();
        let mut kernel = map(|f, _| ops::grayscale(&f));
        let streamed = pl_a.run_streaming(&mut scan, &mut kernel).unwrap();

        let ctx_b = ctx();
        let pl_b = Pipeline::new(&ctx_b);
        let (info, frames) = decode_all(&input).unwrap();
        let mut scan = pl_b.memory_scan(info, Arc::new(frames), 0..usize::MAX);
        let eager = pl_b.run_eager(&mut scan, 2, ops::grayscale).unwrap();

        assert_eq!(streamed.video.len(), eager.len());
        for (a, b) in streamed.video.packets.iter().zip(&eager.packets) {
            assert_eq!(a.data, b.data, "policies must produce identical bitstreams");
        }
        // The eager run reads from memory: Scan recorded, not Decode.
        let snap = ctx_b.metrics.snapshot();
        assert_eq!(snap.stage(StageKind::Scan).frames, 4);
        assert_eq!(snap.stage(StageKind::Decode).frames, 0);
    }

    #[test]
    fn range_scan_matches_full_decode() {
        let ctx = ctx();
        let pl = Pipeline::new(&ctx);
        let input = tiny_input("pipe-range.vrmf");
        let (_, all) = decode_all(&input).unwrap();
        for (from, to) in [(0usize, 3usize), (1, 2), (3, 3)] {
            let mut scan = pl.range_scan(&input, from, to).unwrap();
            assert_eq!(scan.len(), to - from + 1);
            let got = pl.drain(&mut scan).unwrap();
            for (i, f) in got.iter().enumerate() {
                assert_eq!(f, &all[from + i], "range {from}..={to} frame {i}");
            }
        }
        assert!(pl.range_scan(&input, 3, 1).is_err());
    }

    #[test]
    fn temporal_mask_matches_reference_masking() {
        let ctx = ctx();
        let pl = Pipeline::new(&ctx);
        let input = tiny_input("pipe-mask.vrmf");
        let (_, frames) = decode_all(&input).unwrap();
        for m in [1u32, 2, 3, 4, 9] {
            let eps = 0.2;
            let expect = crate::reference::q2d_masking(&frames, m, eps);
            let mut scan = pl.stream_scan(&input).unwrap();
            let mut kernel = TemporalMaskKernel::new(m, eps, scan.len());
            let got = pl.run_streaming(&mut scan, &mut kernel).unwrap();
            let got = got.video.decode_all().unwrap();
            assert_eq!(got.len(), expect.len(), "m={m}");
            for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
                let p = vr_frame::metrics::psnr_y(a, b);
                assert!(p > 45.0, "m={m} frame {i}: {p} dB");
            }
        }
    }

    #[test]
    fn filter_map_selects_range() {
        let ctx = ctx();
        let pl = Pipeline::new(&ctx);
        let input = tiny_input("pipe-filter.vrmf");
        let mut scan = pl.stream_scan(&input).unwrap();
        let mut kernel = filter_map(|f, i| (1..=2).contains(&i).then_some(f));
        let r = pl.run_streaming(&mut scan, &mut kernel).unwrap();
        assert_eq!(r.video.len(), 2);
    }

    #[test]
    fn short_circuit_gates_on_difference() {
        let ctx = ctx();
        let pl = Pipeline::new(&ctx);
        let input = tiny_input("pipe-gate.vrmf");
        let mut scan = pl.stream_scan(&input).unwrap();
        // tiny_input drifts +7 luma per frame: every frame escalates
        // at a tight threshold.
        let mut gate = DiffGate::new(0.5, 4);
        let mut escalations = 0u32;
        let mut kernel = |f: Frame, _i: usize, escalate: bool| {
            if escalate {
                escalations += 1;
            }
            Ok(KernelOut::from(f))
        };
        let r = pl.run_short_circuit(&mut scan, &mut gate, &mut kernel).unwrap();
        assert_eq!(r.video.len(), 4);
        assert_eq!(escalations, 4, "drifting video escalates every frame");
    }

    #[test]
    fn parallel_streaming_is_bit_identical_to_sequential() {
        let input = tiny_input("pipe-par-stream.vrmf");
        let run = |workers: usize| {
            let ctx = ctx_workers(workers);
            let pl = Pipeline::new(&ctx);
            let mut scan = pl.stream_scan(&input).unwrap();
            let mut kernel = map(|f, _| ops::grayscale(&f));
            pl.run_streaming(&mut scan, &mut kernel).unwrap()
        };
        let seq = run(1);
        for workers in [2, 4, 8] {
            let par = run(workers);
            assert_eq!(seq.video.len(), par.video.len());
            for (a, b) in seq.video.packets.iter().zip(&par.video.packets) {
                assert_eq!(a.data, b.data, "workers={workers}");
            }
        }
    }

    #[test]
    fn parallel_multi_source_is_bit_identical_to_sequential() {
        let inputs =
            [tiny_input("pipe-par-m0.vrmf"), tiny_input("pipe-par-m1.vrmf")];
        let run = |workers: usize| {
            let ctx = ctx_workers(workers);
            let pl = Pipeline::new(&ctx);
            let mut scans = Vec::new();
            for input in &inputs {
                scans.push(pl.stream_scan(input).unwrap());
            }
            let mut sources: Vec<&mut dyn FrameSource> =
                scans.iter_mut().map(|s| s as &mut dyn FrameSource).collect();
            let mut kernel = map(|f, _| f);
            pl.run_streaming_multi(&mut sources, &mut kernel).unwrap()
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.video.len(), par.video.len());
        for (a, b) in seq.video.packets.iter().zip(&par.video.packets) {
            assert_eq!(a.data, b.data);
        }
    }

    #[test]
    fn parallel_short_circuit_is_bit_identical_and_gates_in_order() {
        let input = tiny_input("pipe-par-gate.vrmf");
        let run = |workers: usize| {
            let ctx = ctx_workers(workers);
            let pl = Pipeline::new(&ctx);
            let mut scan = pl.stream_scan(&input).unwrap();
            let mut gate = DiffGate::new(0.5, 4);
            let mut escalations = 0u32;
            let mut kernel = |f: Frame, _i: usize, escalate: bool| {
                if escalate {
                    escalations += 1;
                }
                Ok(KernelOut::from(f))
            };
            let r = pl.run_short_circuit(&mut scan, &mut gate, &mut kernel).unwrap();
            (r, escalations)
        };
        let (seq, seq_esc) = run(1);
        let (par, par_esc) = run(4);
        assert_eq!(seq_esc, par_esc, "the gate must see frames in order");
        assert_eq!(seq.video.len(), par.video.len());
        for (a, b) in seq.video.packets.iter().zip(&par.video.packets) {
            assert_eq!(a.data, b.data);
        }
    }

    #[test]
    fn parallel_kernel_error_propagates() {
        let ctx = ctx_workers(4);
        let pl = Pipeline::new(&ctx);
        let input = tiny_input("pipe-par-err.vrmf");
        let mut scan = pl.stream_scan(&input).unwrap();
        let mut kernel = filter_map(|_f, _i| None);
        assert!(pl.run_streaming(&mut scan, &mut kernel).is_err());
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Policy {
        Streaming,
        Multi,
        ShortCircuit,
    }

    /// What goes wrong, and at which frame (counted across sources).
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        Clean,
        KernelErr(usize),
        DecodeErr(usize),
        CancelAfter(usize),
        KernelPanic(usize),
        EncoderReject(usize),
    }

    /// A run's packets and per-frame boxes.
    type Encoded = (Vec<Vec<u8>>, Option<Vec<Vec<OutputBox>>>);

    /// Everything one run exposes: the encoded packets and boxes (or
    /// the error's variant name), the kernel's view of the event
    /// stream, and the stage counters.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        result: std::result::Result<Encoded, String>,
        trail: Vec<String>,
        counts: [(u64, u64, u64); 5],
    }

    /// A grayscale kernel that fails on cue and logs every call it
    /// receives with the per-source index it was given.
    struct Faulty {
        fault: Fault,
        cancel: vr_base::sync::CancelToken,
        seen: usize,
        trail: Vec<String>,
    }

    impl Faulty {
        fn step(&mut self, frame: Frame, index: usize) -> Result<Frame> {
            let n = self.seen;
            self.seen += 1;
            self.trail.push(format!("push {index}"));
            match self.fault {
                Fault::KernelErr(k) if n == k => {
                    return Err(Error::ResourceExhausted(format!("kernel refused frame {n}")))
                }
                Fault::KernelPanic(k) if n == k => panic!("kernel blew up at frame {n}"),
                Fault::EncoderReject(k) if n == k => return Ok(Frame::new(16, 16)),
                Fault::CancelAfter(k) if n + 1 == k => self.cancel.cancel(),
                _ => {}
            }
            Ok(ops::grayscale(&frame))
        }
    }

    impl FrameKernel for Faulty {
        fn push(&mut self, frame: Frame, index: usize, out: &mut Vec<KernelOut>) -> Result<()> {
            out.push(KernelOut::from(self.step(frame, index)?));
            Ok(())
        }

        fn end_of_source(&mut self, _out: &mut Vec<KernelOut>) -> Result<()> {
            self.trail.push("end of source".into());
            Ok(())
        }

        fn finish(&mut self, _out: &mut Vec<KernelOut>) -> Result<()> {
            self.trail.push("finish".into());
            Ok(())
        }
    }

    /// `tiny_input` with the frame-type byte of sample `k` made invalid.
    fn corrupt_input(name: &str, k: usize) -> InputVideo {
        let clean = tiny_input(name);
        let raw = clean.container.raw_bytes();
        let sample = clean.container.sample(0, k).unwrap();
        let at = sample.as_ptr() as usize - raw.as_ptr() as usize;
        let mut bytes = raw.to_vec();
        bytes[at] ^= 0xff;
        InputVideo::from_bytes(name, bytes).unwrap()
    }

    fn run_case(policy: Policy, fault: Fault, workers: usize) -> Outcome {
        let ctx = ctx_workers(workers);
        let pl = Pipeline::new(&ctx);
        let n_inputs = if policy == Policy::Multi { 2 } else { 1 };
        // `tiny_input` holds four frames, so frame `k` of the run is
        // sample `k % 4` of input `k / 4`.
        let inputs: Vec<InputVideo> = (0..n_inputs)
            .map(|i| match fault {
                Fault::DecodeErr(k) if k / 4 == i => corrupt_input("pipe-table.vrmf", k % 4),
                _ => tiny_input("pipe-table.vrmf"),
            })
            .collect();
        let mut scans: Vec<StreamScan> =
            inputs.iter().map(|input| pl.stream_scan(input).unwrap()).collect();
        let mut kernel =
            Faulty { fault, cancel: ctx.cancel.clone(), seen: 0, trail: Vec::new() };
        let result = match policy {
            Policy::Streaming => pl.run_streaming(&mut scans[0], &mut kernel),
            Policy::Multi => {
                let mut sources: Vec<&mut dyn FrameSource> =
                    scans.iter_mut().map(|s| s as &mut dyn FrameSource).collect();
                pl.run_streaming_multi(&mut sources, &mut kernel)
            }
            Policy::ShortCircuit => {
                let mut gate = DiffGate::new(12.0, 1);
                let mut gated = |f: Frame, i: usize, escalate: bool| {
                    let rect = vr_geom::Rect { x0: 0, y0: 0, x1: 1, y1: 1 };
                    let boxes = vec![OutputBox { class: ObjectClass::Vehicle, rect }];
                    Ok(KernelOut {
                        frame: kernel.step(f, i)?,
                        boxes: Some(if escalate { boxes } else { Vec::new() }),
                    })
                };
                pl.run_short_circuit(&mut scans[0], &mut gate, &mut gated)
            }
        };
        let snap = ctx.metrics.snapshot();
        Outcome {
            result: result
                .map(|r| (r.video.packets.into_iter().map(|p| p.data.to_vec()).collect(), r.boxes))
                .map_err(|e| format!("{e:?}").split('(').next().unwrap_or_default().to_string()),
            trail: kernel.trail,
            counts: snap.stages.map(|s| (s.frames, s.bytes, s.invocations)),
        }
    }

    /// Run a case on its own thread and fail instead of hanging.
    fn run_case_within(limit: Duration, policy: Policy, fault: Fault, workers: usize) -> Outcome {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(run_case(policy, fault, workers));
        });
        rx.recv_timeout(limit)
            .unwrap_or_else(|e| panic!("{policy:?} {fault:?} workers={workers}: {e}"))
    }

    /// Every streaming policy, at both arms of the executor, through a
    /// clean run and each way a run can fail: the same packets and
    /// boxes or the same error variant, and never a hang.
    #[test]
    fn policies_agree_across_worker_counts_on_every_failure_path() {
        let limit = Duration::from_secs(10);
        for policy in [Policy::Streaming, Policy::Multi, Policy::ShortCircuit] {
            // Past the first end-of-source in the two-source form.
            let k = if policy == Policy::Multi { 5 } else { 2 };
            let faults = [
                (Fault::Clean, None),
                (Fault::KernelErr(k), Some("ResourceExhausted")),
                (Fault::DecodeErr(k), Some("Corrupt")),
                (Fault::CancelAfter(k), Some("Cancelled")),
                (Fault::KernelPanic(k), Some("StagePanic")),
                (Fault::EncoderReject(k), Some("InvalidConfig")),
            ];
            for (fault, expect) in faults {
                let seq = run_case_within(limit, policy, fault, 1);
                let par = run_case_within(limit, policy, fault, 4);
                let what = format!("{policy:?} {fault:?}");
                assert_eq!(seq.result.as_ref().err().map(String::as_str), expect, "{what}");
                assert_eq!(seq.result, par.result, "{what}");
                if expect.is_some() {
                    continue;
                }
                assert_eq!(seq.trail, par.trail, "{what}");
                assert_eq!(seq.counts, par.counts, "{what}");
                let frames = seq.result.as_ref().unwrap().0.len() as u64;
                let (trail, kernel_invocations): (Vec<&str>, u64) = match policy {
                    Policy::Streaming => {
                        (vec!["push 0", "push 1", "push 2", "push 3", "finish"], frames + 1)
                    }
                    Policy::Multi => (
                        vec![
                            "push 0", "push 1", "push 2", "push 3", "end of source",
                            "push 0", "push 1", "push 2", "push 3", "end of source", "finish",
                        ],
                        frames + 3,
                    ),
                    // The gate runs the caller's closure, which has no
                    // finish of its own to log; the executor still
                    // records the call, as for every streaming plan.
                    Policy::ShortCircuit => {
                        (vec!["push 0", "push 1", "push 2", "push 3"], frames + 1)
                    }
                };
                assert_eq!(seq.trail, trail, "{what}");
                let kernel = seq.counts[StageKind::Kernel.idx()];
                assert_eq!((kernel.0, kernel.2), (frames, kernel_invocations), "{what}");
                assert_eq!(seq.counts[StageKind::Decode.idx()].0, frames, "{what}");
                assert_eq!(seq.counts[StageKind::Encode.idx()].0, frames, "{what}");
                if policy == Policy::ShortCircuit {
                    let boxes = seq.result.as_ref().unwrap().1.as_ref().unwrap();
                    assert_eq!(boxes[0].len(), 1, "the first frame always escalates");
                }
            }
        }
    }

    #[test]
    fn send_stage_records_contention_when_channel_is_full() {
        let metrics = PipelineMetrics::default();
        let (tx, rx) = vr_base::sync::channel::<u32>(1);
        tx.send(1).unwrap();
        // The channel is full: the next send must block until the
        // reader drains it, and that wait lands in the counter.
        let reader = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            (rx.recv().unwrap(), rx.recv().unwrap())
        });
        send_stage(&tx, 2, &metrics).unwrap();
        assert_eq!(reader.join().unwrap(), (1, 2));
        assert!(metrics.snapshot().contention_nanos > 0);
    }

    #[test]
    fn empty_pipeline_errors() {
        let ctx = ctx();
        let pl = Pipeline::new(&ctx);
        let input = tiny_input("pipe-empty.vrmf");
        let mut scan = pl.stream_scan(&input).unwrap();
        let mut kernel = filter_map(|_f, _i| None);
        assert!(pl.run_streaming(&mut scan, &mut kernel).is_err());
    }

    #[test]
    fn sink_records_stage() {
        let ctx = ctx();
        let pl = Pipeline::new(&ctx);
        let input = tiny_input("pipe-sink.vrmf");
        let mut scan = pl.stream_scan(&input).unwrap();
        let mut kernel = map(|f, _| f);
        let r = pl.run_streaming(&mut scan, &mut kernel).unwrap();
        pl.sink(0, &QueryOutput::Video(r.video)).unwrap();
        assert_eq!(ctx.metrics.snapshot().stage(StageKind::Sink).invocations, 1);
    }

    /// Two identical sequential runs allocate identically: the alloc
    /// scopes observe only their own thread, the workload is
    /// deterministic, and nothing in the stage path allocates
    /// conditionally — so EXPLAIN ANALYZE memory figures are
    /// reproducible, not noise.
    #[test]
    fn alloc_accounting_is_deterministic_across_identical_runs() {
        use vr_base::obs::alloc;
        let run = || {
            let ctx = ctx_workers(1);
            let pl = Pipeline::new(&ctx);
            let input = tiny_input("pipe-alloc-det.vrmf");
            let mut scan = pl.stream_scan(&input).unwrap();
            let mut kernel = map(|f, _| ops::grayscale(&f));
            let r = pl.run_streaming(&mut scan, &mut kernel).unwrap();
            pl.sink(0, &QueryOutput::Video(r.video)).unwrap();
            ctx.metrics.snapshot()
        };
        alloc::set_tracking(true);
        // Warm-up run: lazily initialized state (codec tables, global
        // registry entries) allocates once per process.
        let _ = run();
        let a = run();
        let b = run();
        alloc::set_tracking(false);
        for kind in StageKind::ALL {
            let (sa, sb) = (a.stage(kind), b.stage(kind));
            // The streaming path never touches Scan, and a streaming
            // sink is a no-op; the working stages must all allocate.
            if matches!(kind, StageKind::Decode | StageKind::Kernel | StageKind::Encode) {
                assert!(sa.allocs > 0, "{kind:?} recorded no allocs");
            }
            assert_eq!(sa.allocs, sb.allocs, "{kind:?} alloc counts differ");
            assert_eq!(sa.alloc_bytes, sb.alloc_bytes, "{kind:?} alloc bytes differ");
            assert_eq!(
                sa.peak_alloc_bytes, sb.peak_alloc_bytes,
                "{kind:?} peak alloc differs"
            );
        }
    }
}
