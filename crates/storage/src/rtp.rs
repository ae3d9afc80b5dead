//! RTP-style packetization (RFC 3550 shape) for online mode over a
//! network.
//!
//! Encoded frames are fragmented to an MTU, each fragment carrying a
//! 12-byte header (version, marker on the final fragment of a frame,
//! payload type, sequence number, media timestamp, SSRC). The
//! depacketizer reorders by sequence number in a bounded jitter
//! buffer and reassembles frames; [`RtpDepacketizer::finish`] settles
//! every gap up to a sequence number, which online mode's feed calls
//! at each sample boundary, so a sample is known whole or lost there.
//! Any packet that is not this stream's fails closed with
//! [`Error::Corrupt`].

use std::collections::BTreeMap;
use vr_base::{Error, Result};

/// RTP header (the RFC 3550 fixed part, no CSRC list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RtpHeader {
    /// Protocol version; always 2.
    pub version: u8,
    /// Set on the final packet of a frame.
    pub marker: bool,
    /// Payload type (96 = dynamic video).
    pub payload_type: u8,
    /// Monotone per-packet sequence number (wraps at 2¹⁶).
    pub sequence: u16,
    /// Media timestamp shared by all fragments of a frame.
    pub timestamp: u32,
    /// Synchronization source (one per camera stream).
    pub ssrc: u32,
}

/// Header size in bytes.
pub(crate) const HEADER_LEN: usize = 12;
/// Dynamic video payload type.
pub(crate) const PAYLOAD_TYPE_VIDEO: u8 = 96;

impl RtpHeader {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(self.version << 6);
        out.push(((self.marker as u8) << 7) | (self.payload_type & 0x7F));
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&self.timestamp.to_be_bytes());
        out.extend_from_slice(&self.ssrc.to_be_bytes());
    }

    /// Parse the header from the start of a packet.
    pub(crate) fn parse(data: &[u8]) -> Result<Self> {
        if data.len() < HEADER_LEN {
            return Err(Error::Corrupt("short RTP packet".into()));
        }
        let version = data[0] >> 6;
        if version != 2 {
            return Err(Error::Corrupt(format!("RTP version {version}")));
        }
        Ok(Self {
            version,
            marker: data[1] >> 7 == 1,
            payload_type: data[1] & 0x7F,
            sequence: u16::from_be_bytes([data[2], data[3]]),
            timestamp: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ssrc: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
        })
    }
}

/// Fragments frames into RTP packets.
pub struct RtpPacketizer {
    ssrc: u32,
    mtu: usize,
    next_seq: u16,
}

impl RtpPacketizer {
    /// Create a packetizer for one stream. `mtu` bounds the total
    /// packet size (header + payload).
    pub fn new(ssrc: u32, mtu: usize) -> Self {
        assert!(mtu > HEADER_LEN, "mtu must exceed the header");
        Self { ssrc, mtu, next_seq: 0 }
    }

    /// Packetize one encoded frame stamped with `timestamp` (media
    /// clock units).
    pub fn packetize(&mut self, frame: &[u8], timestamp: u32) -> Vec<Vec<u8>> {
        let chunk = self.mtu - HEADER_LEN;
        let chunks: Vec<&[u8]> =
            if frame.is_empty() { vec![&[][..]] } else { frame.chunks(chunk).collect() };
        let n = chunks.len();
        chunks
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let header = RtpHeader {
                    version: 2,
                    marker: i == n - 1,
                    payload_type: PAYLOAD_TYPE_VIDEO,
                    sequence: self.next_seq,
                    timestamp,
                    ssrc: self.ssrc,
                };
                self.next_seq = self.next_seq.wrapping_add(1);
                let mut pkt = Vec::with_capacity(HEADER_LEN + c.len());
                header.write(&mut pkt);
                pkt.extend_from_slice(c);
                pkt
            })
            .collect()
    }
}

/// Default bound on out-of-order packets held while waiting for a gap
/// to fill; beyond it the depacketizer declares the gap a loss and
/// skips ahead.
pub(crate) const DEFAULT_JITTER_CAPACITY: usize = 64;

/// Reorders packets and reassembles frames.
///
/// The jitter buffer is **bounded**: a gap that stays unfilled while
/// more than the capacity of later packets pile up is declared lost.
/// The depacketizer then skips to the nearest buffered sequence
/// number, discards any frame left incomplete by the gap, and counts
/// every skipped packet in [`skipped`](Self::skipped) — a lost packet
/// degrades one frame instead of stalling reassembly forever.
pub struct RtpDepacketizer {
    expected_ssrc: u32,
    /// Out-of-order packets keyed by sequence distance from `next`.
    buffer: BTreeMap<u16, (RtpHeader, Vec<u8>)>,
    next_seq: u16,
    /// Payload fragments of the in-progress frame.
    current: Vec<u8>,
    /// Bound on `buffer` before a gap is declared lost.
    capacity: usize,
    /// After a gap skip, drop fragments until the next frame boundary
    /// (a truncated frame must not be emitted as if whole).
    discard_until_marker: bool,
    /// Total packets declared lost and skipped over.
    skipped: u64,
}

impl RtpDepacketizer {
    /// Create a depacketizer for a stream whose first packet carries
    /// sequence number 0 (what [`RtpPacketizer::new`] produces). For
    /// mid-stream joins use
    /// [`with_initial_sequence`](Self::with_initial_sequence) —
    /// without a known start, a reordered stream head is ambiguous.
    pub fn new(ssrc: u32) -> Self {
        Self::with_initial_sequence(ssrc, 0)
    }

    /// Create a depacketizer expecting the first packet at `seq`.
    pub(crate) fn with_initial_sequence(ssrc: u32, seq: u16) -> Self {
        Self {
            expected_ssrc: ssrc,
            buffer: BTreeMap::new(),
            next_seq: seq,
            current: Vec::new(),
            capacity: DEFAULT_JITTER_CAPACITY,
            discard_until_marker: false,
            skipped: 0,
        }
    }

    /// Override the jitter-buffer bound (`cap >= 1`).
    #[cfg(test)]
    fn with_capacity(mut self, cap: usize) -> Self {
        self.capacity = cap.max(1);
        self
    }

    /// Feed one packet (possibly out of order); returns any frames
    /// completed by it, in order. Frames truncated by a declared
    /// packet loss are dropped, never emitted partially.
    pub fn push(&mut self, packet: &[u8]) -> Result<Vec<Vec<u8>>> {
        let header = RtpHeader::parse(packet)?;
        if header.ssrc != self.expected_ssrc {
            return Err(Error::Corrupt(format!(
                "unexpected SSRC {:#x} (want {:#x})",
                header.ssrc, self.expected_ssrc
            )));
        }
        // Ignore stale (already consumed or skipped) sequence numbers:
        // wrapping distance >= 2^15 means the packet is behind us.
        if header.sequence.wrapping_sub(self.next_seq) >= 0x8000 {
            return Ok(Vec::new());
        }
        let payload = packet[HEADER_LEN..].to_vec();
        self.buffer.insert(header.sequence, (header, payload));
        let mut frames = Vec::new();
        self.drain_ready(&mut frames);
        // A gap that outlives the jitter window is a loss: skip it.
        while self.buffer.len() > self.capacity {
            self.skip_gap();
            self.drain_ready(&mut frames);
        }
        Ok(frames)
    }

    /// Pull consecutive packets out of the reorder buffer.
    fn drain_ready(&mut self, frames: &mut Vec<Vec<u8>>) {
        while let Some((header, payload)) = self.buffer.remove(&self.next_seq) {
            if self.discard_until_marker {
                if header.marker {
                    self.discard_until_marker = false;
                    self.current.clear();
                }
            } else {
                self.current.extend_from_slice(&payload);
                if header.marker {
                    frames.push(std::mem::take(&mut self.current));
                }
            }
            self.next_seq = self.next_seq.wrapping_add(1);
        }
    }

    /// Declare the gap in front of `next_seq` lost: jump to the
    /// nearest buffered sequence number and arrange for the frame the
    /// gap tore to be discarded at its boundary.
    fn skip_gap(&mut self) {
        let Some(seq) = self.buffer.keys().copied().min_by_key(|s| s.wrapping_sub(self.next_seq))
        else {
            return;
        };
        let dist = seq.wrapping_sub(self.next_seq) as u64;
        if dist == 0 {
            return;
        }
        self.skipped += dist;
        self.next_seq = seq;
        // The in-progress frame (and the one the skipped packets
        // belonged to) is torn; drop fragments until a frame boundary.
        self.current.clear();
        self.discard_until_marker = true;
    }

    /// Settle the stream up to `end_seq`: the sender produced packets
    /// up to (excluding) it. Flushes everything still reorderable,
    /// declares any remaining gaps lost, and returns the frames
    /// recovered. After this, [`skipped`](Self::skipped) is the exact
    /// count of packets that never arrived. Called at a frame boundary
    /// it leaves no frame torn, so the stream may continue past it.
    pub fn finish(&mut self, end_seq: u16) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        self.drain_ready(&mut frames);
        while !self.buffer.is_empty() {
            self.skip_gap();
            self.drain_ready(&mut frames);
        }
        // Tail packets that never arrived.
        let tail = end_seq.wrapping_sub(self.next_seq) as u64;
        if tail > 0 && tail < 0x8000 {
            self.skipped += tail;
            self.next_seq = end_seq;
            self.current.clear();
            self.discard_until_marker = false;
        }
        frames
    }

    /// Total packets declared lost and skipped over so far.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_small_frame() {
        let mut tx = RtpPacketizer::new(7, 1500);
        let mut rx = RtpDepacketizer::new(7);
        let pkts = tx.packetize(b"frame-data", 3000);
        assert_eq!(pkts.len(), 1);
        let frames = rx.push(&pkts[0]).unwrap();
        assert_eq!(frames, vec![b"frame-data".to_vec()]);
    }

    #[test]
    fn fragmentation_and_reassembly() {
        let mut tx = RtpPacketizer::new(1, 64);
        let mut rx = RtpDepacketizer::new(1);
        let frame: Vec<u8> = (0..500u32).map(|i| i as u8).collect();
        let pkts = tx.packetize(&frame, 0);
        assert!(pkts.len() > 5);
        // Only the last packet carries the marker.
        for (i, p) in pkts.iter().enumerate() {
            let h = RtpHeader::parse(p).unwrap();
            assert_eq!(h.marker, i == pkts.len() - 1);
            assert!(p.len() <= 64);
        }
        let mut frames = Vec::new();
        for p in &pkts {
            frames.extend(rx.push(p).unwrap());
        }
        assert_eq!(frames, vec![frame]);
    }

    #[test]
    fn out_of_order_delivery_is_reordered() {
        let mut tx = RtpPacketizer::new(2, 32);
        let mut rx = RtpDepacketizer::new(2);
        let frame: Vec<u8> = (0..100u32).map(|i| i as u8).collect();
        let mut pkts = tx.packetize(&frame, 0);
        pkts.swap(0, 2);
        pkts.swap(1, 3);
        let mut frames = Vec::new();
        for p in &pkts {
            frames.extend(rx.push(p).unwrap());
        }
        assert_eq!(frames, vec![frame]);
        assert_eq!(rx.buffer.len(), 0);
    }

    #[test]
    fn multiple_frames_share_one_stream() {
        let mut tx = RtpPacketizer::new(3, 48);
        let mut rx = RtpDepacketizer::new(3);
        let a = vec![1u8; 80];
        let b = vec![2u8; 10];
        let mut got = Vec::new();
        for p in tx.packetize(&a, 0) {
            got.extend(rx.push(&p).unwrap());
        }
        for p in tx.packetize(&b, 3000) {
            got.extend(rx.push(&p).unwrap());
        }
        assert_eq!(got, vec![a, b]);
    }

    #[test]
    fn wrong_ssrc_and_garbage_rejected() {
        let mut tx = RtpPacketizer::new(9, 100);
        let mut rx = RtpDepacketizer::new(10);
        let pkts = tx.packetize(b"x", 0);
        assert!(rx.push(&pkts[0]).is_err());
        assert!(rx.push(&[0u8; 4]).is_err());
        // Bad version bits.
        let mut bad = pkts[0].clone();
        bad[0] = 0;
        assert!(RtpHeader::parse(&bad).is_err());
    }

    #[test]
    fn bounded_buffer_skips_lost_packet_and_counts_it() {
        let mut tx = RtpPacketizer::new(5, 24); // 12-byte payloads
        let mut rx = RtpDepacketizer::new(5).with_capacity(4);
        // Three frames of 3 packets each; drop the middle packet of
        // frame 1 (seq 4).
        let frames: Vec<Vec<u8>> = (0..3).map(|f| vec![f as u8; 30]).collect();
        let mut got = Vec::new();
        let mut end_seq = 0u16;
        for (fi, frame) in frames.iter().enumerate() {
            for (pi, p) in tx.packetize(frame, fi as u32).into_iter().enumerate() {
                end_seq = end_seq.wrapping_add(1);
                if fi == 1 && pi == 1 {
                    continue; // lost on the wire
                }
                got.extend(rx.push(&p).unwrap());
            }
        }
        got.extend(rx.finish(end_seq));
        // Frames 0 and 2 recovered whole; torn frame 1 never emitted.
        assert_eq!(got, vec![frames[0].clone(), frames[2].clone()]);
        assert_eq!(rx.skipped(), 1);
        assert_eq!(rx.buffer.len(), 0);
    }

    #[test]
    fn finish_accounts_tail_loss_exactly() {
        let mut tx = RtpPacketizer::new(6, 24);
        let mut rx = RtpDepacketizer::new(6);
        let frame = vec![7u8; 30]; // 3 packets
        let pkts = tx.packetize(&frame, 0);
        assert_eq!(pkts.len(), 3);
        // Deliver only the first packet; the rest are lost.
        let out = rx.push(&pkts[0]).unwrap();
        assert!(out.is_empty());
        let out = rx.finish(3);
        assert!(out.is_empty(), "torn frame must not surface");
        assert_eq!(rx.skipped(), 2);
        // A clean stream reports zero loss through finish.
        let mut rx = RtpDepacketizer::new(6);
        let mut got = Vec::new();
        for p in &pkts {
            // Re-packetize under the same ssrc/sequence numbering.
            got.extend(rx.push(p).unwrap());
        }
        got.extend(rx.finish(3));
        assert_eq!(got, vec![frame]);
        assert_eq!(rx.skipped(), 0);
    }

    #[test]
    fn stale_packets_are_ignored_after_a_skip() {
        let mut tx = RtpPacketizer::new(8, 24);
        let mut rx = RtpDepacketizer::new(8).with_capacity(2);
        let a = vec![1u8; 30];
        let b = vec![2u8; 30];
        let pkts_a = tx.packetize(&a, 0);
        let pkts_b = tx.packetize(&b, 1);
        // Drop all of frame A except its last packet; push frame B so
        // the bounded buffer forces a skip past the gap.
        let mut got = Vec::new();
        got.extend(rx.push(&pkts_a[2]).unwrap());
        for p in &pkts_b {
            got.extend(rx.push(p).unwrap());
        }
        got.extend(rx.finish(6));
        assert_eq!(got, vec![b]);
        assert_eq!(rx.skipped(), 2, "the two missing packets of frame A");
        // A very late duplicate of an already-skipped packet is inert.
        assert!(rx.push(&pkts_a[0]).unwrap().is_empty());
        assert_eq!(rx.buffer.len(), 0);
    }

    #[test]
    fn sequence_wraps_across_u16() {
        let mut tx = RtpPacketizer::new(4, 32);
        tx.next_seq = u16::MAX - 1;
        let mut rx = RtpDepacketizer::with_initial_sequence(4, u16::MAX - 1);
        let frame = vec![9u8; 100]; // several packets crossing the wrap
        let mut got = Vec::new();
        for p in tx.packetize(&frame, 0) {
            got.extend(rx.push(&p).unwrap());
        }
        assert_eq!(got, vec![frame]);
    }

    /// Fail closed: every truncation of a valid packet, a foreign
    /// version or SSRC, a header-only packet, duplicated and reordered
    /// packets, and 10 000 seeded random byte strings give
    /// `Err(Corrupt)` or well-formed frames (never more bytes than were
    /// pushed, and the reorder buffer within its bound), never a
    /// panic; an in-order stream reassembles its input exactly.
    #[test]
    fn depacketizer_fails_closed_on_hostile_input() {
        let mut rng = vr_base::VrRng::seed_from(0x5EED_0B7F);
        let ok_or_corrupt = |r: Result<Vec<Vec<u8>>>, pushed: usize, what: &str| match r {
            Ok(frames) => {
                let got: usize = frames.iter().map(Vec::len).sum();
                assert!(got <= pushed, "{what}: {got} bytes out of {pushed} in");
            }
            Err(Error::Corrupt(_)) => {}
            Err(e) => panic!("{what}: {e:?} is not Corrupt"),
        };

        let mut tx = RtpPacketizer::new(11, 64);
        let frame: Vec<u8> = (0..150u32).map(|i| i as u8).collect();
        let packets = tx.packetize(&frame, 0);
        for packet in &packets {
            for len in 0..=packet.len() {
                let r = RtpDepacketizer::new(11).push(&packet[..len]);
                if len < HEADER_LEN {
                    assert!(matches!(r, Err(Error::Corrupt(_))), "a {len}-byte packet");
                }
                ok_or_corrupt(r, len, "a truncated packet");
            }
            for version in [0u8, 1, 3] {
                let mut bad = packet.clone();
                bad[0] = (bad[0] & 0x3F) | (version << 6);
                let r = RtpDepacketizer::new(11).push(&bad);
                assert!(matches!(r, Err(Error::Corrupt(_))), "version {version}");
            }
            let r = RtpDepacketizer::new(12).push(packet);
            assert!(matches!(r, Err(Error::Corrupt(_))), "a foreign SSRC");
        }
        let header_only = &packets[packets.len() - 1][..HEADER_LEN];
        let mut rx = RtpDepacketizer::with_initial_sequence(11, packets.len() as u16 - 1);
        assert_eq!(rx.push(header_only).unwrap(), vec![Vec::<u8>::new()], "an empty frame");

        for round in 0..50 {
            let frames: Vec<Vec<u8>> = (0..rng.range(1, 6))
                .map(|_| (0..rng.range(0, 600)).map(|_| rng.next_u32() as u8).collect())
                .collect();
            let mut tx = RtpPacketizer::new(11, rng.range(HEADER_LEN + 1, 200));
            let packets: Vec<Vec<u8>> = frames
                .iter()
                .enumerate()
                .flat_map(|(i, f)| tx.packetize(f, i as u32 * 3000))
                .collect();
            let end = packets.len() as u16;
            let mut rx = RtpDepacketizer::new(11);
            let mut got = Vec::new();
            for p in &packets {
                got.extend(rx.push(p).unwrap());
            }
            got.extend(rx.finish(end));
            assert_eq!((&got, rx.skipped()), (&frames, 0), "round {round}: in order");
            // Duplicated and reordered within the jitter window.
            let mut shuffled: Vec<&Vec<u8>> = packets.iter().chain(packets.iter().step_by(3)).collect();
            for w in shuffled.chunks_mut(DEFAULT_JITTER_CAPACITY / 2) {
                rng.shuffle(w);
            }
            let mut rx = RtpDepacketizer::new(11);
            let mut got = Vec::new();
            for p in shuffled {
                got.extend(rx.push(p).unwrap());
            }
            got.extend(rx.finish(end));
            assert_eq!((&got, rx.skipped()), (&frames, 0), "round {round}: reordered");
        }

        let mut rx = RtpDepacketizer::new(11);
        let mut pushed = 0;
        for i in 0..10_000 {
            let mut bytes: Vec<u8> = (0..rng.range(0, 80)).map(|_| rng.next_u32() as u8).collect();
            if i % 2 == 0 && bytes.len() >= HEADER_LEN {
                // A header this stream accepts, over random payload.
                let seq = rx.next_seq.wrapping_add(rng.range(0, 200) as u16);
                let header = RtpHeader {
                    version: 2,
                    marker: rng.chance(0.3),
                    payload_type: PAYLOAD_TYPE_VIDEO,
                    sequence: seq,
                    timestamp: rng.next_u32(),
                    ssrc: 11,
                };
                let mut packet = Vec::with_capacity(bytes.len());
                header.write(&mut packet);
                packet.extend_from_slice(&bytes[HEADER_LEN..]);
                bytes = packet;
            }
            pushed += bytes.len();
            ok_or_corrupt(rx.push(&bytes), pushed, "a random byte string");
            assert!(rx.buffer.len() <= DEFAULT_JITTER_CAPACITY, "the reorder buffer grew unbounded");
        }
        ok_or_corrupt(Ok(rx.finish(rx.next_seq.wrapping_add(7))), pushed, "settling the fuzz stream");
    }
}
