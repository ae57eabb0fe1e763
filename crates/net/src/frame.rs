//! Ethernet frames, addresses, and shared payload views.

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use acc_sim::DataSize;

/// Layer-2 overhead that occupies the wire per frame but never reaches
/// the payload: preamble + SFD (8) + dst/src/ethertype (14) + FCS (4) +
/// inter-frame gap (12).
pub const WIRE_OVERHEAD: u64 = 8 + 14 + 4 + 12;

/// Minimum Ethernet payload; shorter payloads are padded on the wire.
pub const MIN_PAYLOAD: u64 = 46;

/// Maximum standard Ethernet payload (no jumbo frames in 2001 commodity
/// gear, and the paper's INIC protocol deliberately uses 1024-byte
/// packets well under it).
pub const MAX_PAYLOAD: u64 = 1500;

/// A 48-bit MAC address, stored compactly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MacAddr(pub u64);

impl MacAddr {
    /// Deterministic per-node address used by cluster builders: node `i`
    /// NIC `j` gets a distinct MAC.
    pub fn for_node(node: usize, nic: usize) -> MacAddr {
        MacAddr(0x02_00_00_00_00_00 | ((node as u64) << 8) | nic as u64)
    }

    /// The broadcast address.
    pub const BROADCAST: MacAddr = MacAddr(0xFF_FF_FF_FF_FF_FF);
}

/// The protocol carried by a frame. The TCP path wraps payload in IP+TCP
/// headers; the INIC path runs its application-specific protocol directly
/// on Ethernet (Section 4.2: "each design can have a protocol built
/// directly on Ethernet").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EtherType {
    /// IPv4 (carrying the modelled TCP).
    Ipv4,
    /// The INIC application-specific protocol.
    Inic,
    /// Anything else (tests).
    Other(u16),
}

/// Why a frame could not be constructed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// Payload exceeds [`MAX_PAYLOAD`]; segmentation is the sender's job
    /// and oversize frames indicate a protocol bug.
    Oversize {
        /// The offending payload length in bytes.
        len: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversize { len } => {
                write!(f, "payload {len} exceeds Ethernet MTU {MAX_PAYLOAD}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A cheaply clonable view into immutable shared payload bytes.
///
/// Switch fan-out, retransmit buffers, and trace captures all hold the
/// *same* backing allocation behind an `Rc`; cloning a view (and thus a
/// [`Frame`]) bumps a refcount instead of deep-copying up to 1500 bytes.
/// The only mutation path is [`make_mut`](PayloadView::make_mut), which
/// is copy-on-write: a shared view materializes a private copy of just
/// its visible range, so impairment corruption on one replicated frame
/// never leaks into the other copies.
#[derive(Clone)]
pub struct PayloadView {
    bytes: Rc<Vec<u8>>,
    off: u32,
    len: u32,
}

thread_local! {
    /// The one backing buffer every empty view shares, so control
    /// packets and pure ACKs carry a payload without allocating one.
    static EMPTY: Rc<Vec<u8>> = Rc::new(Vec::new());
}

impl PayloadView {
    /// An empty view. Every empty view shares one backing buffer: no
    /// allocation.
    pub fn empty() -> PayloadView {
        PayloadView {
            bytes: EMPTY.with(Rc::clone),
            off: 0,
            len: 0,
        }
    }

    /// Wrap an owned buffer (no copy).
    pub fn new(bytes: Vec<u8>) -> PayloadView {
        let len = u32::try_from(bytes.len()).expect("payload buffer exceeds u32 range");
        PayloadView {
            bytes: Rc::new(bytes),
            off: 0,
            len,
        }
    }

    /// Bytes visible through this view.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[self.off as usize..(self.off + self.len) as usize]
    }

    /// A sub-view of `self` sharing the same backing allocation
    /// (`start..end` are offsets within this view, like slice indexing).
    ///
    /// # Panics
    /// Panics if the range is out of bounds — callers slice at most
    /// `self.len()`, so an overrun is a segmentation bug worth failing
    /// loudly on.
    pub fn subview(&self, start: usize, end: usize) -> PayloadView {
        assert!(
            start <= end && end <= self.len(),
            "subview {start}..{end} out of bounds for payload of {} bytes",
            self.len()
        );
        PayloadView {
            bytes: Rc::clone(&self.bytes),
            off: self.off + start as u32,
            len: (end - start) as u32,
        }
    }

    /// Copy the viewed bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        // acc-lint: allow(R7, reason = "the explicit copy-out API itself: callers opt into materialization; the forwarding path clones views instead")
        self.as_slice().to_vec()
    }

    /// Mutable access to the viewed bytes, copy-on-write.
    ///
    /// If the backing allocation is shared (other frames hold clones of
    /// this view) or the view covers a sub-range, the visible bytes are
    /// first materialized into a private full-range buffer; mutations
    /// then affect only this view.
    pub fn make_mut(&mut self) -> &mut [u8] {
        let whole = self.off == 0 && self.len as usize == self.bytes.len();
        if !whole || Rc::strong_count(&self.bytes) != 1 {
            // acc-lint: allow(R7, reason = "copy-on-write fallback: copies only when the allocation is shared or sub-ranged, the one sanctioned materialization point")
            *self = PayloadView::new(self.to_vec());
        }
        Rc::get_mut(&mut self.bytes).expect("payload COW buffer uniquely owned")
    }

    /// How many views (frames) currently share the backing allocation.
    pub fn ref_count(&self) -> usize {
        Rc::strong_count(&self.bytes)
    }
}

impl Deref for PayloadView {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for PayloadView {
    fn from(bytes: Vec<u8>) -> PayloadView {
        PayloadView::new(bytes)
    }
}

impl From<&[u8]> for PayloadView {
    fn from(bytes: &[u8]) -> PayloadView {
        // acc-lint: allow(R7, reason = "ingress conversion from borrowed bytes must own an allocation; runs at frame creation, never on the forwarding path")
        PayloadView::new(bytes.to_vec())
    }
}

impl PartialEq for PayloadView {
    fn eq(&self, other: &PayloadView) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PayloadView {}

impl PartialEq<Vec<u8>> for PayloadView {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<PayloadView> for Vec<u8> {
    fn eq(&self, other: &PayloadView) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u8]> for PayloadView {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl fmt::Debug for PayloadView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PayloadView")
            .field("len", &self.len)
            .field("off", &self.off)
            .field("shared", &(Rc::strong_count(&self.bytes) > 1))
            .finish()
    }
}

/// Largest protocol header a [`Frame`] carries inline: the modelled
/// IP+TCP header (40 bytes); the INIC header is 16.
pub const MAX_HEADER: usize = 40;

/// A protocol header held inline in its [`Frame`], in front of the
/// frame's [`PayloadView`]: at most [`MAX_HEADER`] bytes, no heap
/// allocation. A codec writes the header and leaves the data where it
/// already is, so framing a packet copies no payload byte.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    bytes: [u8; MAX_HEADER],
    len: u8,
}

impl FrameHeader {
    /// The empty header of a raw frame (all bytes in the payload).
    pub const EMPTY: FrameHeader = FrameHeader {
        bytes: [0; MAX_HEADER],
        len: 0,
    };

    /// A header holding a copy of `bytes`.
    ///
    /// # Panics
    /// Panics if `bytes` exceeds [`MAX_HEADER`]: codecs build their
    /// headers from fixed-size arrays, so an overrun is a codec bug.
    pub fn new(bytes: &[u8]) -> FrameHeader {
        assert!(
            bytes.len() <= MAX_HEADER,
            "frame header of {} bytes exceeds {MAX_HEADER}",
            bytes.len()
        );
        let mut h = FrameHeader::EMPTY;
        h.bytes[..bytes.len()].copy_from_slice(bytes);
        h.len = u8::try_from(bytes.len()).expect("header length bounded by MAX_HEADER");
        h
    }

    /// Header bytes.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the frame carries no header.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The header bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len()]
    }

    /// Mutable access to the header bytes (they are the frame's own:
    /// no copy-on-write needed).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        let len = self.len();
        &mut self.bytes[..len]
    }
}

impl Deref for FrameHeader {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for FrameHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameHeader")
            .field("len", &self.len)
            .finish()
    }
}

/// A simulated Ethernet frame: an inline protocol [`FrameHeader`] in
/// front of a shared [`PayloadView`] of the data.
///
/// The payload carries *real bytes* — the data that applications sort and
/// transform — so end-to-end correctness is checked, not just timing.
/// Cloning a frame copies the header and shares the payload allocation.
/// The Ethernet payload on the wire is the header followed by the
/// payload view; sizes count both.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Source address.
    pub src: MacAddr,
    /// Destination address.
    pub dst: MacAddr,
    /// Carried protocol.
    pub ethertype: EtherType,
    /// Protocol header, inline (empty on raw frames).
    pub header: FrameHeader,
    /// Payload bytes after the header (shared, copy-on-write).
    pub payload: PayloadView,
}

impl Frame {
    /// Build a raw frame (empty header), rejecting oversize payloads.
    pub fn try_new(
        src: MacAddr,
        dst: MacAddr,
        ethertype: EtherType,
        payload: impl Into<PayloadView>,
    ) -> Result<Frame, FrameError> {
        Frame::try_with_header(src, dst, ethertype, FrameHeader::EMPTY, payload.into())
    }

    /// Build a frame from a protocol header and the data it frames,
    /// rejecting frames whose header plus data exceed [`MAX_PAYLOAD`].
    /// The data view is moved in, not copied.
    pub fn try_with_header(
        src: MacAddr,
        dst: MacAddr,
        ethertype: EtherType,
        header: FrameHeader,
        payload: PayloadView,
    ) -> Result<Frame, FrameError> {
        let len = (header.len() + payload.len()) as u64;
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversize { len });
        }
        Ok(Frame {
            src,
            dst,
            ethertype,
            header,
            payload,
        })
    }

    /// Build a raw frame (empty header).
    ///
    /// # Panics
    /// Panics if the payload exceeds [`MAX_PAYLOAD`]; segmentation is the
    /// sender's job and oversize frames indicate a protocol bug. Callers
    /// that would rather surface the error use [`try_new`](Self::try_new).
    pub fn new(
        src: MacAddr,
        dst: MacAddr,
        ethertype: EtherType,
        payload: impl Into<PayloadView>,
    ) -> Frame {
        Frame::try_new(src, dst, ethertype, payload)
            .unwrap_or_else(|e| panic!("frame {src:?} -> {dst:?}: {e}"))
    }

    /// Ethernet payload bytes: the header plus the data after it.
    pub fn len(&self) -> usize {
        self.header.len() + self.payload.len()
    }

    /// Whether the frame carries no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes this frame occupies on the wire, including overhead, padding
    /// and the inter-frame gap — what serialization time is computed from.
    pub fn wire_size(&self) -> DataSize {
        let payload = (self.len() as u64).max(MIN_PAYLOAD);
        DataSize::from_bytes(payload + WIRE_OVERHEAD)
    }

    /// Bytes buffered for this frame in NIC/switch memory (Ethernet
    /// header + protocol header + data; the gap and preamble are not
    /// stored).
    pub fn buffer_size(&self) -> DataSize {
        DataSize::from_bytes(self.len() as u64 + 18)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_sim::Bandwidth;

    fn frame(n: usize) -> Frame {
        Frame::new(
            MacAddr::for_node(0, 0),
            MacAddr::for_node(1, 0),
            EtherType::Other(0),
            vec![0u8; n],
        )
    }

    #[test]
    fn wire_size_includes_overhead_and_padding() {
        assert_eq!(frame(1500).wire_size().bytes(), 1538);
        assert_eq!(frame(46).wire_size().bytes(), 84);
        // Tiny payloads pad to the 64-byte minimum frame (84 on the wire).
        assert_eq!(frame(1).wire_size().bytes(), 84);
        assert_eq!(frame(0).wire_size().bytes(), 84);
    }

    #[test]
    fn full_size_frame_rate_matches_line_rate() {
        // Canonical check: 1 Gb/s carries ~81,274 max-size frames/s.
        let gig = Bandwidth::from_mbit_per_sec(1000);
        let t = gig.transfer_time(frame(1500).wire_size());
        let fps = 1.0 / t.as_secs_f64();
        assert!((fps - 81_274.0).abs() < 1.0, "fps = {fps}");
    }

    #[test]
    #[should_panic(expected = "exceeds Ethernet MTU")]
    fn oversize_payload_rejected() {
        frame(1501);
    }

    #[test]
    fn try_new_reports_oversize_without_panicking() {
        let err = Frame::try_new(
            MacAddr::for_node(0, 0),
            MacAddr::for_node(1, 0),
            EtherType::Other(0),
            vec![0u8; 1501],
        )
        .unwrap_err();
        assert_eq!(err, FrameError::Oversize { len: 1501 });
        assert!(err.to_string().contains("exceeds Ethernet MTU"));
    }

    #[test]
    fn macs_are_unique_per_node_and_nic() {
        let mut seen = std::collections::HashSet::new();
        for node in 0..16 {
            for nic in 0..3 {
                assert!(seen.insert(MacAddr::for_node(node, nic)));
            }
        }
    }

    #[test]
    fn buffer_size_is_smaller_than_wire_size() {
        let f = frame(1024);
        assert!(f.buffer_size().bytes() < f.wire_size().bytes());
        assert_eq!(f.buffer_size().bytes(), 1042);
    }

    #[test]
    fn cloned_frames_share_payload_allocation() {
        let f = frame(1000);
        let g = f.clone();
        let h = f.clone();
        assert_eq!(f.payload.ref_count(), 3);
        assert_eq!(g.payload, h.payload);
    }

    #[test]
    fn make_mut_on_shared_view_copies_on_write() {
        let mut f = frame(100);
        let g = f.clone();
        f.payload.make_mut()[0] ^= 0xFF;
        assert_ne!(f.payload[0], g.payload[0], "corruption leaked into clone");
        assert_eq!(g.payload, vec![0u8; 100], "shared copy must stay pristine");
        assert_eq!(g.payload.ref_count(), 1, "COW detached the mutated view");
    }

    #[test]
    fn make_mut_on_unique_view_mutates_in_place() {
        let mut v = PayloadView::new(vec![1, 2, 3]);
        let before = v.ref_count();
        v.make_mut()[1] = 9;
        assert_eq!(before, 1);
        assert_eq!(v, vec![1u8, 9, 3]);
    }

    #[test]
    fn subview_shares_backing_and_bounds_check() {
        let v = PayloadView::new((0u8..100).collect());
        let mid = v.subview(10, 20);
        assert_eq!(mid.len(), 10);
        assert_eq!(&mid[..], &(10u8..20).collect::<Vec<_>>()[..]);
        assert_eq!(v.ref_count(), 2, "subview shares the allocation");
        let nested = mid.subview(5, 10);
        assert_eq!(&nested[..], &(15u8..20).collect::<Vec<_>>()[..]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn subview_past_end_rejected() {
        PayloadView::new(vec![0; 10]).subview(5, 11);
    }

    #[test]
    fn empty_views_share_one_backing_buffer() {
        let a = PayloadView::empty();
        let b = PayloadView::empty();
        assert!(
            Rc::ptr_eq(&a.bytes, &b.bytes),
            "no allocation per empty view"
        );
        let shared = a.ref_count();
        assert!(shared >= 2, "both views count: {shared}");
        drop(b);
        assert_eq!(a.ref_count(), shared - 1);
        let mut c = a.clone();
        assert!(c.make_mut().is_empty());
        assert!(
            !Rc::ptr_eq(&a.bytes, &c.bytes),
            "make_mut detaches a private buffer"
        );
        assert_eq!(c.ref_count(), 1);
        assert_eq!(
            a.ref_count(),
            shared - 1,
            "the shared empty buffer is untouched"
        );
        assert!(a.is_empty() && a.as_slice().is_empty());
    }

    fn framed(header: usize, data: usize) -> Frame {
        Frame::try_with_header(
            MacAddr::for_node(0, 0),
            MacAddr::for_node(1, 0),
            EtherType::Other(0),
            FrameHeader::new(&vec![0xAB; header]),
            PayloadView::new(vec![0u8; data]),
        )
        .expect("fits the MTU")
    }

    #[test]
    fn sizes_count_the_inline_header() {
        let f = framed(16, 1024);
        assert_eq!(f.len(), 1040);
        assert_eq!(f.buffer_size().bytes(), 1040 + 18);
        assert_eq!(f.wire_size().bytes(), 1040 + WIRE_OVERHEAD);
        // The same bytes as a raw frame occupy the same space.
        let raw = frame(1040);
        assert_eq!(f.wire_size(), raw.wire_size());
        assert_eq!(f.buffer_size(), raw.buffer_size());
        // A header-only frame still pads to the minimum payload.
        assert_eq!(
            framed(40, 0).wire_size().bytes(),
            MIN_PAYLOAD + WIRE_OVERHEAD
        );
        assert_eq!(framed(40, 1460).wire_size().bytes(), 1538);
    }

    #[test]
    fn header_plus_data_over_the_mtu_is_rejected() {
        let err = Frame::try_with_header(
            MacAddr::for_node(0, 0),
            MacAddr::for_node(1, 0),
            EtherType::Other(0),
            FrameHeader::new(&[0; 40]),
            PayloadView::new(vec![0; 1461]),
        )
        .unwrap_err();
        assert_eq!(err, FrameError::Oversize { len: 1501 });
    }

    #[test]
    #[should_panic(expected = "exceeds 40")]
    fn header_over_the_inline_capacity_panics() {
        FrameHeader::new(&[0; MAX_HEADER + 1]);
    }

    #[test]
    fn cloned_frame_copies_the_header_and_shares_the_data() {
        let f = framed(16, 100);
        let mut g = f.clone();
        g.header.as_mut_slice()[0] ^= 0xFF;
        assert_eq!(f.header[0], 0xAB, "headers are per frame");
        assert_eq!(f.payload.ref_count(), 2);
    }

    #[test]
    fn make_mut_on_subview_materializes_only_visible_range() {
        let v = PayloadView::new((0u8..100).collect());
        let mut mid = v.subview(10, 20);
        mid.make_mut()[0] = 0xAA;
        assert_eq!(mid.len(), 10);
        assert_eq!(mid[0], 0xAA);
        assert_eq!(v[10], 10, "parent view untouched by COW");
    }
}
