//! The INIC's lightweight application-specific protocol, built directly
//! on Ethernet (Section 4.2: "each design can have a protocol built
//! directly on Ethernet, lowering the processing requirements and
//! latency"; Section 4.1: "The protocol also has the advantage of
//! knowing exactly how much data to expect; hence, the protocol needs
//! minimal acknowledgement information").
//!
//! The wire format is a fixed 16-byte header in front of up to
//! [`INIC_PAYLOAD`] bytes of data:
//!
//! ```text
//! [0..2)   src_rank   u16 LE — sending node's rank
//! [2..4)   stream     u16 LE — application stream id
//! [4..8)   offset     u32 LE — byte offset of this payload in the stream
//! [8..10)  len        u16 LE — payload length
//! [10..12) flags      u16 LE — FIN | CREDIT | NACK | ACK | BUSY
//! [12..16) checksum   u32 LE — wire_checksum over header bytes [0..12) + data
//! ```
//!
//! The checksum (the word-at-a-time function in `checksum.rs`, shared
//! with the TCP codec) makes corruption *detectable*: every step of it
//! is a bijection in the running value, so any single-byte mutation of
//! header or data changes it. The `offset` field makes
//! retransmission *idempotent* (a duplicate lands on an already-filled
//! segment and is ignored); ACK/NACK control packets make loss
//! *recoverable* by the sender-side window in the card model. On a clean
//! fabric none of the recovery machinery runs — the header is the same
//! 16 bytes the paper's protocol pays either way.

use std::collections::{BTreeMap, BTreeSet};

use acc_net::{FrameHeader, PayloadView};

use crate::checksum::wire_checksum;

/// Maximum data bytes per INIC packet. The paper's prototype uses
/// 1024-byte packets ("packets with 1 KB of data each").
pub const INIC_PAYLOAD: usize = 1024;

/// The fixed header size.
pub const INIC_HEADER: usize = 16;

const FLAG_FIN: u16 = 1 << 0;
const FLAG_CREDIT: u16 = 1 << 1;
const FLAG_NACK: u16 = 1 << 2;
const FLAG_ACK: u16 = 1 << 3;
const FLAG_BUSY: u16 = 1 << 4;

/// Why a packet failed to encode or decode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Fewer bytes than one header.
    Short,
    /// The header's length field disagrees with the bytes present.
    LengthMismatch,
    /// The checksum does not cover the bytes received — corruption.
    Checksum,
    /// An id field (`src_rank` or `stream`) exceeds its 16-bit wire
    /// width — encoding would wrap it and deliver to the wrong peer.
    IdOverflow,
    /// The payload exceeds [`INIC_PAYLOAD`].
    Oversize,
}

/// One packet of the INIC protocol.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InicPacket {
    /// Sending node's rank.
    pub src_rank: u32,
    /// Application stream id.
    pub stream: u32,
    /// Byte offset of `data` within the stream; for a CREDIT packet the
    /// re-granted byte count; for a NACK the first missing offset.
    pub offset: u32,
    /// Last packet of the stream.
    pub fin: bool,
    /// Flow-control credit grant (no data).
    pub credit: bool,
    /// Receiver-side repair request: "resend from `offset`" (no data).
    pub nack: bool,
    /// Stream fully received (no data); the sender may drop its window.
    pub ack: bool,
    /// Sender's card is reconfiguring: "alive but dark, hold your
    /// retransmissions" — `offset` carries the hold in microseconds
    /// (no data).
    pub busy: bool,
    /// Payload bytes: a view into the buffer the packet was cut from
    /// (sender) or the frame it arrived in (receiver), so cloning a
    /// packet never copies its data.
    pub data: PayloadView,
}

impl InicPacket {
    /// A flow-control credit grant of `amount` bytes for `stream`.
    pub fn credit_grant(src_rank: u32, stream: u32, amount: u32) -> InicPacket {
        InicPacket {
            src_rank,
            stream,
            offset: amount,
            fin: false,
            credit: true,
            nack: false,
            ack: false,
            busy: false,
            data: PayloadView::empty(),
        }
    }

    /// A stream-complete acknowledgement.
    pub fn stream_ack(src_rank: u32, stream: u32) -> InicPacket {
        InicPacket {
            src_rank,
            stream,
            offset: 0,
            fin: false,
            credit: false,
            nack: false,
            ack: true,
            busy: false,
            data: PayloadView::empty(),
        }
    }

    /// A repair request for the gap starting at `missing`.
    pub fn repair_nack(src_rank: u32, stream: u32, missing: u32) -> InicPacket {
        InicPacket {
            src_rank,
            stream,
            offset: missing,
            fin: false,
            credit: false,
            nack: true,
            ack: false,
            busy: false,
            data: PayloadView::empty(),
        }
    }

    /// A "card reconfiguring" notice: the sender is alive but dark for
    /// `hold_micros` microseconds; peers should park retransmissions
    /// instead of counting them toward abandonment.
    pub fn reconfig_busy(src_rank: u32, hold_micros: u32) -> InicPacket {
        InicPacket {
            src_rank,
            stream: 0,
            offset: hold_micros,
            fin: false,
            credit: false,
            nack: false,
            ack: false,
            busy: true,
            data: PayloadView::empty(),
        }
    }

    /// Whether this is a control packet that must never enter stream
    /// reassembly.
    pub fn is_control(&self) -> bool {
        self.credit || self.nack || self.ack || self.busy
    }

    /// Serialize the 16-byte header. The data stays where it is: a
    /// frame carries this header inline in front of [`data`](Self::data).
    ///
    /// # Panics
    /// Panics if the payload exceeds [`INIC_PAYLOAD`] or an id field
    /// overflows its wire width — protocol bugs, not runtime
    /// conditions. Callers that would rather surface the error than
    /// unwind use [`try_encode`](Self::try_encode).
    pub fn encode(&self) -> FrameHeader {
        self.try_encode().unwrap_or_else(|e| {
            panic!(
                "unencodable INIC packet (src_rank {}, stream {}, {} data bytes): {e:?}",
                self.src_rank,
                self.stream,
                self.data.len()
            )
        })
    }

    /// Serialize the 16-byte header, rejecting packets it cannot
    /// faithfully represent. The checksum covers the header and the
    /// data, as on the wire.
    ///
    /// Regression guard: the wire format carries `src_rank` and
    /// `stream` as u16, and encode used to truncate the u32 fields with
    /// a bare `as u16` — a rank or stream id ≥ 65536 wrapped on the
    /// wire and decoded as the *wrong peer*. Out-of-range ids now fail
    /// with [`WireError::IdOverflow`] instead of wrapping.
    pub fn try_encode(&self) -> Result<FrameHeader, WireError> {
        if self.data.len() > INIC_PAYLOAD {
            return Err(WireError::Oversize);
        }
        let src_rank = u16::try_from(self.src_rank).map_err(|_| WireError::IdOverflow)?;
        let stream = u16::try_from(self.stream).map_err(|_| WireError::IdOverflow)?;
        let len = u16::try_from(self.data.len())
            .expect("inic payload length bounded by INIC_PAYLOAD (1024)");
        let mut out = [0u8; INIC_HEADER];
        out[0..2].copy_from_slice(&src_rank.to_le_bytes());
        out[2..4].copy_from_slice(&stream.to_le_bytes());
        out[4..8].copy_from_slice(&self.offset.to_le_bytes());
        out[8..10].copy_from_slice(&len.to_le_bytes());
        let mut flags = 0u16;
        if self.fin {
            flags |= FLAG_FIN;
        }
        if self.credit {
            flags |= FLAG_CREDIT;
        }
        if self.nack {
            flags |= FLAG_NACK;
        }
        if self.ack {
            flags |= FLAG_ACK;
        }
        if self.busy {
            flags |= FLAG_BUSY;
        }
        out[10..12].copy_from_slice(&flags.to_le_bytes());
        let sum = wire_checksum(&out[0..12], &self.data);
        out[12..16].copy_from_slice(&sum.to_le_bytes());
        Ok(FrameHeader::new(&out))
    }

    /// Parse a frame's `header` and the `body` that follows it,
    /// verifying structure and checksum. The packet's data is `body`
    /// itself (a refcount bump): no payload copy.
    pub fn decode(header: &[u8], body: &PayloadView) -> Result<InicPacket, WireError> {
        if header.len() < INIC_HEADER {
            return Err(WireError::Short);
        }
        let len = usize::from(u16::from_le_bytes(
            header[8..10].try_into().expect("inic len slice is 2 bytes"),
        ));
        if header.len() != INIC_HEADER || body.len() != len {
            return Err(WireError::LengthMismatch);
        }
        let want = u32::from_le_bytes(
            header[12..16]
                .try_into()
                .expect("inic checksum slice is 4 bytes"),
        );
        if wire_checksum(&header[0..12], body) != want {
            return Err(WireError::Checksum);
        }
        let flags = u16::from_le_bytes(
            header[10..12]
                .try_into()
                .expect("inic flags slice is 2 bytes"),
        );
        Ok(InicPacket {
            src_rank: u32::from(u16::from_le_bytes(
                header[0..2]
                    .try_into()
                    .expect("inic src_rank slice is 2 bytes"),
            )),
            stream: u32::from(u16::from_le_bytes(
                header[2..4]
                    .try_into()
                    .expect("inic stream slice is 2 bytes"),
            )),
            offset: u32::from_le_bytes(
                header[4..8]
                    .try_into()
                    .expect("inic offset slice is 4 bytes"),
            ),
            fin: flags & FLAG_FIN != 0,
            credit: flags & FLAG_CREDIT != 0,
            nack: flags & FLAG_NACK != 0,
            ack: flags & FLAG_ACK != 0,
            busy: flags & FLAG_BUSY != 0,
            data: body.clone(),
        })
    }
}

/// Split `data` into a stream of packets; the last carries FIN. Empty
/// data becomes a single zero-length FIN packet. The bytes are copied
/// once into a shared buffer that every packet views
/// ([`packetize_view`]).
pub fn packetize(src_rank: u32, stream: u32, data: &[u8]) -> Vec<InicPacket> {
    packetize_view(src_rank, stream, &PayloadView::from(data))
}

/// [`packetize`] over bytes already in a [`PayloadView`]: each packet's
/// data is a sub-view of `data`, so no byte is copied.
pub fn packetize_view(src_rank: u32, stream: u32, data: &PayloadView) -> Vec<InicPacket> {
    let packet = |offset: usize, end: usize| InicPacket {
        src_rank,
        stream,
        offset: u32::try_from(offset).expect("inic stream offset fits the 32-bit wire field"),
        fin: end == data.len(),
        credit: false,
        nack: false,
        ack: false,
        busy: false,
        data: data.subview(offset, end),
    };
    if data.is_empty() {
        return vec![packet(0, 0)];
    }
    (0..data.len())
        .step_by(INIC_PAYLOAD)
        .map(|offset| packet(offset, (offset + INIC_PAYLOAD).min(data.len())))
        .collect()
}

/// Number of packets `bytes` of data occupy.
pub fn packet_count(bytes: usize) -> usize {
    if bytes == 0 {
        1
    } else {
        bytes.div_ceil(INIC_PAYLOAD)
    }
}

/// Total wire payload (headers + data) for `bytes` of stream data.
pub fn wire_payload_bytes(bytes: usize) -> usize {
    bytes + packet_count(bytes) * INIC_HEADER
}

/// Reassembly state of one incoming stream from one source, kept as an
/// in-order prefix (the watermark) plus the packets that arrived ahead
/// of it.
///
/// A packet at the watermark is appended to the stream buffer —
/// reserved from the total when it is known, never zero-filled — and
/// pulls along any held packets it makes contiguous; that append is
/// the one copy of each byte. A packet beyond the watermark is held as
/// its view of the frame it arrived in, until the gap below it fills.
/// Duplicates (retransmissions) are ignored: below the watermark by
/// position, above it by offset. Sender-side recovery is therefore
/// idempotent here.
pub struct StreamRx {
    total: Option<usize>,
    /// Bytes held beyond the watermark.
    held: usize,
    /// Out-of-order packets beyond the watermark, by offset (duplicate
    /// detection and the gap search).
    ahead: BTreeMap<u32, PayloadView>,
    /// The in-order prefix: `buf.len()` is the watermark.
    buf: Vec<u8>,
}

impl StreamRx {
    /// Expect exactly `total` bytes.
    pub fn new(total: usize) -> StreamRx {
        StreamRx {
            total: Some(total),
            held: 0,
            ahead: BTreeMap::new(),
            buf: Vec::with_capacity(total),
        }
    }

    /// Expect an unknown number of bytes; the FIN packet announces the
    /// total.
    pub fn new_unknown() -> StreamRx {
        StreamRx {
            total: None,
            held: 0,
            ahead: BTreeMap::new(),
            buf: Vec::new(),
        }
    }

    /// Fold one packet in. Returns `true` if it carried new bytes,
    /// `false` for a duplicate, which is ignored.
    ///
    /// # Panics
    /// Panics on control packets and on structural inconsistencies
    /// (total mismatch, overrun) — those are protocol bugs; corruption
    /// is already filtered out by the decode checksum.
    pub fn accept(&mut self, pkt: &InicPacket) -> bool {
        assert!(!pkt.is_control(), "control packets never enter reassembly");
        let start = usize::try_from(pkt.offset).expect("inic offset fits usize");
        if start < self.buf.len() || self.ahead.contains_key(&pkt.offset) {
            // A retransmission of a segment we already hold.
            return false;
        }
        let end = start + pkt.data.len();
        if pkt.fin {
            match self.total {
                Some(t) => assert_eq!(t, end, "fin total disagrees with announced total"),
                None => {
                    self.total = Some(end);
                    self.buf.reserve_exact(end - self.buf.len());
                }
            }
        }
        if let Some(t) = self.total {
            assert!(
                self.received() + pkt.data.len() <= t && end <= t,
                "stream overran its total"
            );
        }
        if start > self.buf.len() {
            self.held += pkt.data.len();
            // Held as a view of the frame it arrived in: no copy yet.
            self.ahead.insert(pkt.offset, PayloadView::clone(&pkt.data));
            return true;
        }
        self.append(&pkt.data);
        while let Some(entry) = self.ahead.first_entry() {
            let at = usize::try_from(*entry.key()).expect("inic offset fits usize");
            if at != self.buf.len() {
                break;
            }
            let data = entry.remove();
            self.held -= data.len();
            self.append(&data);
        }
        true
    }

    /// Extend the in-order prefix by `data`.
    fn append(&mut self, data: &[u8]) {
        // acc-lint: allow(R7, reason = "reassembly append: the one copy of each received byte, into the stream buffer handed to the gather")
        self.buf.extend_from_slice(data);
    }

    /// Bytes received so far.
    pub fn received(&self) -> usize {
        self.buf.len() + self.held
    }

    /// Whether every byte has arrived.
    pub fn complete(&self) -> bool {
        self.total == Some(self.received())
    }

    /// The first missing byte offset, or `None` if no gap is known
    /// (stream complete, or tail still open with an unknown total).
    pub fn missing(&self) -> Option<u32> {
        let mut expected =
            u32::try_from(self.buf.len()).expect("inic watermark fits the 32-bit offset");
        for (&off, data) in &self.ahead {
            if off > expected {
                return Some(expected);
            }
            expected = off
                + u32::try_from(data.len()).expect("inic segment length fits the 32-bit offset");
        }
        match self.total {
            Some(t) if usize::try_from(expected).expect("inic offset fits usize") < t => {
                Some(expected)
            }
            _ => None,
        }
    }

    /// The assembled stream.
    ///
    /// # Panics
    /// Panics if the stream is incomplete.
    pub fn into_bytes(self) -> Vec<u8> {
        assert!(self.complete(), "stream incomplete");
        assert!(self.ahead.is_empty(), "stream segments overlap or overran");
        self.buf
    }
}

/// Demultiplexes packets of many `(src_rank, stream)` flows into their
/// [`StreamRx`] states, remembering completed flows so that late
/// retransmissions are absorbed instead of resurrecting them.
#[derive(Default)]
pub struct StreamDemux {
    streams: BTreeMap<(u32, u32), StreamRx>,
    completed: BTreeSet<(u32, u32)>,
}

impl StreamDemux {
    /// Empty demux.
    pub fn new() -> StreamDemux {
        StreamDemux::default()
    }

    /// Announce a flow with a known total.
    pub fn expect(&mut self, src_rank: u32, stream: u32, total: usize) {
        let prev = self
            .streams
            .insert((src_rank, stream), StreamRx::new(total));
        assert!(
            prev.is_none(),
            "stream ({src_rank},{stream}) announced twice"
        );
    }

    /// Announce a flow whose total the FIN will reveal.
    pub fn expect_unknown(&mut self, src_rank: u32, stream: u32) {
        let prev = self
            .streams
            .insert((src_rank, stream), StreamRx::new_unknown());
        assert!(
            prev.is_none(),
            "stream ({src_rank},{stream}) announced twice"
        );
    }

    /// Fold one packet in; returns the assembled bytes when its flow
    /// completes. Packets for already-completed flows return `None`
    /// (late retransmissions are dropped silently).
    ///
    /// # Panics
    /// Panics on packets for flows never announced.
    pub fn accept(&mut self, pkt: &InicPacket) -> Option<(u32, u32, Vec<u8>)> {
        let key = (pkt.src_rank, pkt.stream);
        if self.completed.contains(&key) {
            return None;
        }
        let rx = self
            .streams
            .get_mut(&key)
            .unwrap_or_else(|| panic!("packet for unannounced stream {key:?}"));
        rx.accept(pkt);
        if rx.complete() {
            let rx = self
                .streams
                .remove(&key)
                .expect("demux: completed stream present in table");
            self.completed.insert(key);
            return Some((key.0, key.1, rx.into_bytes()));
        }
        None
    }

    /// Whether a flow has fully completed.
    pub fn is_completed(&self, src_rank: u32, stream: u32) -> bool {
        self.completed.contains(&(src_rank, stream))
    }

    /// The first missing offset of an open flow, if it has a known gap.
    pub fn missing(&self, src_rank: u32, stream: u32) -> Option<u32> {
        self.streams
            .get(&(src_rank, stream))
            .and_then(StreamRx::missing)
    }

    /// Number of announced, incomplete flows.
    pub fn open_streams(&self) -> usize {
        self.streams.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_pkt(src: u32, stream: u32, offset: u32, fin: bool, data: Vec<u8>) -> InicPacket {
        InicPacket {
            src_rank: src,
            stream,
            offset,
            fin,
            credit: false,
            nack: false,
            ack: false,
            busy: false,
            data: data.into(),
        }
    }

    /// The packet as contiguous wire bytes: header, then data.
    fn wire(pkt: &InicPacket) -> Vec<u8> {
        [&pkt.encode()[..], &pkt.data[..]].concat()
    }

    /// Decode contiguous wire bytes, split where a frame splits them:
    /// the first [`INIC_HEADER`] bytes are the header.
    fn decode(bytes: &[u8]) -> Result<InicPacket, WireError> {
        let split = bytes.len().min(INIC_HEADER);
        InicPacket::decode(&bytes[..split], &PayloadView::from(&bytes[split..]))
    }

    /// Known answer: pins the checksum the INIC header carries (a change
    /// is a wire-format change).
    #[test]
    fn checksum_known_answer() {
        let pkt = data_pkt(3, 7, 2048, true, (0..=255).collect());
        let wire = pkt.encode();
        let sum = u32::from_le_bytes(wire[12..16].try_into().expect("4 bytes"));
        assert_eq!(sum, 0x89D2_7626);
        let credit = InicPacket::credit_grant(1, 2, 6144).encode();
        let sum = u32::from_le_bytes(credit[12..16].try_into().expect("4 bytes"));
        assert_eq!(sum, 0x4066_BDD4);
    }

    #[test]
    fn decoded_packet_shares_the_frame_allocation() {
        let sent = data_pkt(1, 2, 0, true, vec![0x5A; 700]);
        let header = sent.encode();
        let frame = sent.data;
        let pkt = InicPacket::decode(&header, &frame).expect("clean frame decodes");
        assert_eq!(frame.ref_count(), 2, "decode must view, not copy");
        assert_eq!(pkt.data, vec![0x5A; 700]);
        let copy = pkt.clone();
        assert_eq!(frame.ref_count(), 3, "cloning a packet bumps a refcount");
        drop((pkt, copy));
        assert_eq!(frame.ref_count(), 1);
    }

    #[test]
    fn packetize_output_shares_one_buffer() {
        let data: Vec<u8> = (0..5000).map(|i| (i % 253) as u8).collect();
        let pkts = packetize(0, 1, &data);
        assert_eq!(pkts.len(), 5);
        for p in &pkts {
            assert_eq!(p.data.ref_count(), pkts.len(), "one backing buffer");
        }
        let view = PayloadView::new(data.clone());
        let viewed = packetize_view(0, 1, &view);
        assert_eq!(view.ref_count(), 1 + viewed.len(), "no copy of the view");
        assert_eq!(viewed, pkts);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let pkt = data_pkt(3, 7, 2048, true, (0..255).collect());
        let decoded = decode(&wire(&pkt)).unwrap();
        assert_eq!(decoded, pkt);
    }

    #[test]
    fn control_flags_roundtrip() {
        for pkt in [
            InicPacket::credit_grant(1, 2, 6144),
            InicPacket::stream_ack(4, 9),
            InicPacket::repair_nack(5, 1, 3072),
            InicPacket::reconfig_busy(3, 2000),
        ] {
            assert!(pkt.is_control());
            assert_eq!(decode(&wire(&pkt)).unwrap(), pkt);
        }
    }

    #[test]
    fn try_encode_rejects_id_overflow_instead_of_truncating() {
        // Regression: encode used to cast src_rank/stream to u16 with a
        // bare `as`, so rank 65536 went out on the wire as rank 0 and
        // the receiver attributed the stream to the wrong peer.
        let bad_rank = data_pkt(1 << 16, 0, 0, true, vec![1, 2, 3]);
        assert_eq!(bad_rank.try_encode(), Err(WireError::IdOverflow));
        let bad_stream = data_pkt(0, u32::from(u16::MAX) + 1, 0, true, Vec::new());
        assert_eq!(bad_stream.try_encode(), Err(WireError::IdOverflow));
    }

    #[test]
    fn try_encode_accepts_maximum_representable_ids() {
        let max = u32::from(u16::MAX);
        let pkt = data_pkt(max, max, 0, true, vec![0xEE; 8]);
        let header = pkt.try_encode().expect("65535 fits the u16 wire field");
        assert_eq!(InicPacket::decode(&header, &pkt.data).unwrap(), pkt);
    }

    #[test]
    fn try_encode_rejects_oversize_payload() {
        let pkt = data_pkt(0, 0, 0, true, vec![0; INIC_PAYLOAD + 1]);
        assert_eq!(pkt.try_encode(), Err(WireError::Oversize));
    }

    #[test]
    #[should_panic(expected = "unencodable INIC packet")]
    fn encode_panics_on_id_overflow() {
        data_pkt(1 << 16, 0, 0, true, Vec::new()).encode();
    }

    #[test]
    fn short_packet_rejected() {
        assert_eq!(decode(&[0u8; 5]), Err(WireError::Short));
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut bytes = wire(&data_pkt(0, 0, 0, true, vec![1; 100]));
        bytes.truncate(bytes.len() - 1);
        assert_eq!(decode(&bytes), Err(WireError::LengthMismatch));
    }

    #[test]
    fn checksum_catches_single_byte_flips() {
        let clean = wire(&data_pkt(2, 3, 1024, false, vec![0xAB; 256]));
        assert!(decode(&clean).is_ok());
        // Flip one byte anywhere — header, data, or the checksum field
        // itself — and decode must fail. (A flip in the length field is
        // caught as a length mismatch rather than a checksum error.)
        for i in 0..clean.len() {
            let mut bent = clean.clone();
            bent[i] ^= 0x40;
            assert!(decode(&bent).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn packetize_splits_and_sets_fin() {
        let data: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
        let pkts = packetize(1, 5, &data);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts.len(), packet_count(data.len()));
        assert_eq!(pkts[0].data.len(), INIC_PAYLOAD);
        assert_eq!(pkts[2].data.len(), 3000 - 2 * INIC_PAYLOAD);
        assert!(pkts[2].fin && !pkts[0].fin && !pkts[1].fin);
        assert_eq!(pkts[1].offset, 1024);
    }

    #[test]
    fn empty_stream_is_one_fin_packet() {
        let pkts = packetize(0, 1, &[]);
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].fin && pkts[0].data.is_empty());
        assert_eq!(packet_count(0), 1);
    }

    #[test]
    fn reassembly_in_any_order() {
        let data: Vec<u8> = (0..2500).map(|i| (i % 241) as u8).collect();
        let mut pkts = packetize(9, 2, &data);
        pkts.reverse();
        let mut rx = StreamRx::new(data.len());
        for p in &pkts {
            assert!(rx.accept(p));
        }
        assert!(rx.complete());
        assert_eq!(rx.into_bytes(), data);
    }

    #[test]
    fn duplicates_are_ignored_not_fatal() {
        let data = vec![7u8; 2000];
        let pkts = packetize(0, 1, &data);
        let mut rx = StreamRx::new(data.len());
        assert!(rx.accept(&pkts[0]));
        assert!(!rx.accept(&pkts[0]), "duplicate must be a no-op");
        assert!(rx.accept(&pkts[1]));
        assert!(!rx.accept(&pkts[1]), "duplicate after completion too");
        assert!(rx.complete());
        assert_eq!(rx.received(), data.len());
        assert_eq!(rx.into_bytes(), data);
    }

    #[test]
    fn missing_reports_first_gap() {
        let data = vec![1u8; 3 * INIC_PAYLOAD];
        let pkts = packetize(0, 1, &data);
        let mut rx = StreamRx::new(data.len());
        rx.accept(&pkts[2]);
        assert_eq!(rx.missing(), Some(0));
        rx.accept(&pkts[0]);
        assert_eq!(
            rx.missing(),
            Some(u32::try_from(INIC_PAYLOAD).expect("INIC_PAYLOAD fits u32"))
        );
        rx.accept(&pkts[1]);
        assert_eq!(rx.missing(), None);
    }

    #[test]
    fn missing_sees_open_tail_with_known_total() {
        let data = vec![1u8; 3 * INIC_PAYLOAD];
        let pkts = packetize(0, 1, &data);
        let mut rx = StreamRx::new(data.len());
        rx.accept(&pkts[0]);
        rx.accept(&pkts[1]);
        assert_eq!(
            rx.missing(),
            Some(2 * u32::try_from(INIC_PAYLOAD).expect("INIC_PAYLOAD fits u32"))
        );
    }

    fn ramp(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| u8::try_from(i % 239).expect("below 239"))
            .collect()
    }

    #[test]
    fn in_order_arrival_never_holds_a_packet() {
        let data = ramp(5 * INIC_PAYLOAD + 17);
        let mut rx = StreamRx::new(data.len());
        for p in &packetize(0, 1, &data) {
            assert!(rx.accept(p));
            assert!(
                rx.ahead.is_empty(),
                "in-order packets go straight to the prefix"
            );
        }
        assert_eq!(
            rx.buf.capacity(),
            data.len(),
            "buffer reserved from the total"
        );
        assert_eq!(rx.into_bytes(), data);
    }

    #[test]
    fn reversed_arrival_holds_until_the_head_lands() {
        let data = ramp(4 * INIC_PAYLOAD);
        let pkts = packetize(0, 1, &data);
        let mut rx = StreamRx::new(data.len());
        for p in pkts.iter().rev().take(3) {
            assert!(rx.accept(p));
        }
        assert_eq!((rx.buf.len(), rx.ahead.len()), (0, 3));
        assert_eq!(rx.received(), 3 * INIC_PAYLOAD);
        assert!(rx.accept(&pkts[0]));
        assert!(rx.ahead.is_empty(), "the head drains every held packet");
        assert_eq!(rx.into_bytes(), data);
    }

    #[test]
    fn interleaved_arrival_advances_the_watermark_in_steps() {
        let data = ramp(6 * INIC_PAYLOAD - 5);
        let pkts = packetize(0, 1, &data);
        let mut rx = StreamRx::new(data.len());
        for i in [1, 0, 3, 2, 5, 4] {
            assert!(rx.accept(&pkts[i]));
            let expect = if i % 2 == 0 {
                (i + 2) * INIC_PAYLOAD
            } else {
                i * INIC_PAYLOAD - INIC_PAYLOAD
            };
            assert_eq!(rx.buf.len(), expect.min(data.len()), "after packet {i}");
        }
        assert_eq!(rx.into_bytes(), data);
    }

    #[test]
    fn duplicates_below_and_above_the_watermark_are_dropped() {
        let data = ramp(4 * INIC_PAYLOAD);
        let pkts = packetize(0, 1, &data);
        let mut rx = StreamRx::new(data.len());
        assert!(rx.accept(&pkts[0]));
        assert!(rx.accept(&pkts[2]));
        assert!(!rx.accept(&pkts[0]), "duplicate below the watermark");
        assert!(!rx.accept(&pkts[2]), "duplicate of a held packet");
        assert_eq!(rx.received(), 2 * INIC_PAYLOAD);
        assert!(rx.accept(&pkts[1]));
        assert!(
            !rx.accept(&pkts[2]),
            "a drained packet is below the watermark now"
        );
        assert!(rx.accept(&pkts[3]));
        assert_eq!(rx.into_bytes(), data);
    }

    #[test]
    fn missing_starts_at_the_watermark() {
        let data = ramp(5 * INIC_PAYLOAD);
        let pkts = packetize(0, 1, &data);
        let at = |k: usize| u32::try_from(k * INIC_PAYLOAD).expect("fits u32");
        let mut rx = StreamRx::new(data.len());
        rx.accept(&pkts[0]);
        rx.accept(&pkts[1]);
        rx.accept(&pkts[3]);
        assert_eq!(rx.missing(), Some(at(2)), "the gap above the prefix");
        rx.accept(&pkts[2]);
        assert_eq!(rx.missing(), Some(at(4)), "the open tail");
        rx.accept(&pkts[4]);
        assert_eq!(rx.missing(), None);
    }

    #[test]
    fn fin_reveals_an_unknown_total() {
        let data = ramp(3 * INIC_PAYLOAD + 9);
        let pkts = packetize(0, 1, &data);
        let mut rx = StreamRx::new_unknown();
        rx.accept(&pkts[1]);
        assert_eq!(rx.missing(), Some(0), "a held packet proves a gap");
        rx.accept(&pkts[0]);
        assert_eq!(rx.missing(), None, "open tail, total unknown");
        assert!(!rx.complete());
        rx.accept(&pkts[3]);
        assert_eq!(rx.total, Some(data.len()), "fin announces the total");
        assert_eq!(
            rx.missing(),
            Some(u32::try_from(2 * INIC_PAYLOAD).expect("fits u32"))
        );
        rx.accept(&pkts[2]);
        assert!(rx.complete());
        assert_eq!(rx.into_bytes(), data);
    }

    #[test]
    #[should_panic(expected = "fin total disagrees")]
    fn fin_mismatch_panics() {
        let mut rx = StreamRx::new(100);
        rx.accept(&data_pkt(0, 0, 0, true, vec![0; 50]));
    }

    #[test]
    #[should_panic(expected = "never enter reassembly")]
    fn reassembly_rejects_credits() {
        let mut rx = StreamRx::new_unknown();
        rx.accept(&InicPacket::credit_grant(0, 0, 1024));
    }

    #[test]
    fn demux_routes_and_completes() {
        let a = vec![3u8; 1500];
        let b = vec![4u8; 800];
        let mut demux = StreamDemux::new();
        demux.expect(0, 1, a.len());
        demux.expect_unknown(1, 1);
        assert_eq!(demux.open_streams(), 2);
        let mut done = Vec::new();
        for p in packetize(0, 1, &a).iter().chain(packetize(1, 1, &b).iter()) {
            if let Some(d) = demux.accept(p) {
                done.push(d);
            }
        }
        assert_eq!(done, vec![(0, 1, a), (1, 1, b)]);
        assert_eq!(demux.open_streams(), 0);
        assert!(demux.is_completed(0, 1) && demux.is_completed(1, 1));
    }

    #[test]
    fn demux_absorbs_late_retransmissions() {
        let data = vec![9u8; 600];
        let pkts = packetize(2, 4, &data);
        let mut demux = StreamDemux::new();
        demux.expect(2, 4, data.len());
        assert!(demux.accept(&pkts[0]).is_some());
        // The flow is done; a straggling retransmission just vanishes.
        assert_eq!(demux.accept(&pkts[0]), None);
        assert!(demux.is_completed(2, 4));
    }

    #[test]
    #[should_panic(expected = "unannounced stream")]
    fn unannounced_stream_panics() {
        let mut demux = StreamDemux::new();
        demux.accept(&data_pkt(5, 5, 0, true, vec![1]));
    }

    #[test]
    #[should_panic(expected = "announced twice")]
    fn double_announce_panics() {
        let mut demux = StreamDemux::new();
        demux.expect(0, 0, 10);
        demux.expect_unknown(0, 0);
    }

    #[test]
    fn wire_overhead_is_under_two_percent() {
        // 16B header on 1024B payload ≈ 1.5% — the lightweight protocol
        // the paper contrasts with TCP/IP's 40+ bytes.
        let bytes = 1 << 20;
        let wire = wire_payload_bytes(bytes);
        let overhead = (wire - bytes) as f64 / bytes as f64;
        assert!(overhead < 0.02, "overhead {overhead}");
    }
}
