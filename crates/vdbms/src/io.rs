//! Inputs, outputs, and execution context shared by every engine.

use std::sync::Arc;
use vr_base::fault::FaultInjector;
use vr_base::{Error, Result};
use vr_codec::EncodedVideo;
use vr_container::{Container, Track, TrackKind};
use vr_geom::Rect;
use vr_scene::ObjectClass;
use vr_storage::FlatStore;

/// One benchmark input: a muxed container file (video track plus
/// optional caption/box/metadata tracks), shared cheaply between
/// engines and queries.
#[derive(Debug, Clone)]
pub struct InputVideo {
    /// File name within the dataset store.
    pub name: String,
    /// Parsed container (owns the file bytes).
    pub container: Arc<Container>,
}

impl InputVideo {
    /// Wrap raw container bytes (anything convertible to a
    /// [`vr_base::SharedBuf`]; a storage read shares its buffer here
    /// without copying).
    pub fn from_bytes(name: impl Into<String>, bytes: impl Into<vr_base::SharedBuf>) -> Result<Self> {
        Ok(Self { name: name.into(), container: Arc::new(Container::parse(bytes)?) })
    }

    /// Load from a flat store.
    pub fn from_store(store: &FlatStore, name: &str) -> Result<Self> {
        Self::from_bytes(name, store.get(name)?)
    }

    /// The video track: its index in the container and its header and
    /// sample table. The one place a reader finds where a video's
    /// samples live.
    pub fn video_track(&self) -> Result<(usize, &Track)> {
        let idx = self
            .container
            .track_of_kind(TrackKind::Video)
            .ok_or_else(|| Error::NotFound(format!("video track in {}", self.name)))?;
        Ok((idx, &self.container.tracks()[idx]))
    }

    /// The video track's stream parameters.
    pub fn video_info(&self) -> Result<vr_codec::VideoInfo> {
        vr_codec::VideoInfo::deserialize(&self.video_track()?.1.config)
    }

    /// Number of video frames.
    pub fn frame_count(&self) -> usize {
        self.video_track().map_or(0, |(_, t)| t.samples.len())
    }
}

/// One detected box in a Q2(c)-style result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputBox {
    pub class: ObjectClass,
    pub rect: Rect,
}

/// What a query produces.
#[derive(Debug, Clone)]
pub enum QueryOutput {
    /// A single encoded video (every query but Q2(c)).
    Video(EncodedVideo),
    /// An encoded video plus the serialized box stream (Q2(c): "the
    /// VCD exposes B in two formats", §4.1).
    BoxedVideo { video: EncodedVideo, boxes: Vec<Vec<OutputBox>> },
}

impl QueryOutput {
    /// Total encoded payload bytes (what write mode persists).
    pub fn size_bytes(&self) -> usize {
        self.video().size_bytes()
    }

    /// The result's video (Q2(c)'s boxes ride beside it).
    pub fn video(&self) -> &EncodedVideo {
        match self {
            QueryOutput::Video(video) | QueryOutput::BoxedVideo { video, .. } => video,
        }
    }
}

/// Result handling mode (§3.2).
#[derive(Debug, Clone)]
pub enum ResultMode {
    /// Persist each result to the VCD-specified location; persistence
    /// time counts toward the measured query time.
    Write { store: FlatStore, prefix: String },
    /// Discard results ("streaming mode … avoid the write overhead").
    Streaming,
}

/// Execution context handed to engines.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Where results go.
    pub result_mode: ResultMode,
    /// Per-stage pipeline counters every operator records into;
    /// cloning the context shares the counters.
    pub metrics: Arc<crate::pipeline::PipelineMetrics>,
    /// Worker budget for the pipelined executor and data-parallel
    /// kernels; `1` forces every policy down its sequential path.
    /// Defaults to `VR_WORKERS` / the machine's parallelism.
    pub workers: usize,
    /// Label of the running query ("q4", ...) — the fault injector
    /// targets `panic_kernel` specs against it.
    pub query_label: String,
    /// Cooperative cancellation: the scheduler arms this with the
    /// instance deadline; operators poll it per frame and unwind with
    /// [`Error::Cancelled`](vr_base::Error::Cancelled).
    pub cancel: vr_base::sync::CancelToken,
    /// Cost-based optimizer, when plan selection is enabled. Engines
    /// consult it in `plan()`/`execute()`; `None` (the default) keeps
    /// their hand-tuned choices.
    pub optimizer: Option<Arc<crate::cost::Optimizer>>,
    /// Request-scoped identity (e.g. `req-000042.gold`, or
    /// `instance.q1.3` for batch instances). When present, every
    /// top-level pipeline `run_*` opens a `request`-category span named
    /// after it, so chrome-trace output attributes each pipeline run to
    /// the request (and tenant) that caused it.
    pub request_id: Option<Arc<str>>,
    /// Online mode (§3.2): `Some(speedup)` reads every input as a
    /// forward-only stream paced at `speedup`× its camera's capture
    /// rate and carried over RTP ([`crate::kernels::FrameStream::paced`]);
    /// `None` (the default) reads the container's sample table.
    pub online: Option<f64>,
    /// The run's fault plan. Every fault hook — the demuxer's
    /// corruption, the online feed's packet loss, stage stalls, kernel
    /// panics, storage write failures — reads it here, and counts its
    /// recoveries in [`Self::metrics`]. `None` (the default) is a
    /// fault-free run, whatever else the process runs.
    pub faults: Option<Arc<FaultInjector>>,
}

impl Default for ExecContext {
    fn default() -> Self {
        Self {
            result_mode: ResultMode::Streaming,
            metrics: Arc::new(crate::pipeline::PipelineMetrics::default()),
            workers: vr_base::sync::worker_budget(),
            query_label: String::new(),
            cancel: vr_base::sync::CancelToken::new(),
            optimizer: None,
            request_id: None,
            online: None,
            faults: None,
        }
    }
}

impl ExecContext {
    /// Apply the result mode to a finished output (serialize + write,
    /// or drop). Returns the bytes persisted. The write runs under the
    /// context's fault plan, its retries counted in its metrics.
    pub(crate) fn sink(&self, instance_index: usize, output: &QueryOutput) -> Result<usize> {
        match &self.result_mode {
            ResultMode::Streaming => Ok(0),
            ResultMode::Write { store, prefix } => {
                let video = output.video();
                let mut w = vr_container::ContainerWriter::new();
                let t = w.add_track(TrackKind::Video, video.info.serialize());
                for (i, p) in video.packets.iter().enumerate() {
                    w.push_sample(
                        t,
                        &p.data,
                        vr_base::Timestamp::of_frame(i as u64, video.info.frame_rate),
                        p.keyframe,
                    );
                }
                let bytes = w.finish();
                let name = format!("{prefix}-{instance_index}-0.vrmf");
                let (faults, recovered) = (self.faults.as_deref(), self.metrics.recovered());
                store.put_in_run(&name, &bytes, faults, recovered)?;
                Ok(bytes.len())
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vr_base::{FrameRate, Timestamp};
    use vr_codec::{encode_sequence, EncoderConfig};
    use vr_container::ContainerWriter;
    use vr_frame::Frame;

    /// Four 32×32 frames in one GOP.
    pub(crate) fn tiny_input(name: &str) -> InputVideo {
        encoded_input(name, 4, 30, |x, y, i| x * 3 + y * 2 + i * 7)
    }

    /// Nine 32×32 frames at a GOP of 2: keyframes at 0, 2, 4, 6 and 8.
    pub(crate) fn gop2_input(name: &str) -> InputVideo {
        encoded_input(name, 9, 2, |x, y, i| x * 5 + y * 3 + i * 11)
    }

    /// `n` 32×32 frames whose luma at `(x, y)` of frame `i` is
    /// `luma(x, y, i)`, as [`frames_input`] muxes them.
    fn encoded_input(
        name: &str,
        n: usize,
        gop: u32,
        luma: impl Fn(u32, u32, u32) -> u32,
    ) -> InputVideo {
        let frames: Vec<Frame> = (0..n as u32)
            .map(|i| {
                let mut f = Frame::new(32, 32);
                for y in 0..32 {
                    for x in 0..32 {
                        f.set_y(x, y, luma(x, y, i) as u8);
                    }
                }
                f
            })
            .collect();
        frames_input(name, &frames, gop)
    }

    /// `frames` encoded at QP 16 and the given GOP, muxed as an input.
    pub(crate) fn frames_input(name: &str, frames: &[Frame], gop: u32) -> InputVideo {
        let cfg = EncoderConfig { gop, ..EncoderConfig::constant_qp(16) };
        let video = encode_sequence(&cfg, frames).unwrap();
        let mut w = ContainerWriter::new();
        let t = w.add_track(TrackKind::Video, video.info.serialize());
        for (i, p) in video.packets.iter().enumerate() {
            w.push_sample(t, &p.data, Timestamp::of_frame(i as u64, FrameRate(30)), p.keyframe);
        }
        InputVideo::from_bytes(name, w.finish()).unwrap()
    }

    #[test]
    fn input_video_exposes_info() {
        let input = tiny_input("a.vrmf");
        let info = input.video_info().unwrap();
        assert_eq!((info.width, info.height), (32, 32));
        assert_eq!(input.frame_count(), 4);
    }

    #[test]
    fn write_mode_persists_streaming_does_not() {
        let input = tiny_input("b.vrmf");
        let video = {
            let mut dec = vr_codec::Decoder::new(input.video_info().unwrap());
            let track = input.container.track_of_kind(TrackKind::Video).unwrap();
            let frames: Vec<Frame> = (0..input.frame_count())
                .map(|i| dec.decode(input.container.sample(track, i).unwrap()).unwrap())
                .collect();
            encode_sequence(&EncoderConfig::constant_qp(16), &frames).unwrap()
        };
        let out = QueryOutput::Video(video);
        assert!(out.size_bytes() > 0);

        assert_eq!(ExecContext::default().sink(0, &out).unwrap(), 0);

        let store = FlatStore::temp("io-write").unwrap();
        let result_mode = ResultMode::Write { store: store.clone(), prefix: "q1".into() };
        let written = ExecContext { result_mode, ..ExecContext::default() }.sink(3, &out).unwrap();
        assert!(written > 0);
        assert!(store.exists("q1-3-0.vrmf"));
        // And the persisted result re-opens as a container.
        let reread = InputVideo::from_store(&store, "q1-3-0.vrmf").unwrap();
        assert_eq!(reread.frame_count(), 4);
        store.destroy().unwrap();
    }
}
