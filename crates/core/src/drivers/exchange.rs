//! The one transfer step under every driver, and the one TCP receive
//! buffer they share.
//!
//! The paper's combined mode makes the card the one transport both
//! applications use, and here the FFT, sort and collective drivers
//! share one transfer step too. A [`Step`] names only its legs: each
//! send a destination rank with its byte length, each receive a source
//! rank with its size (`None`: the message carries its own length). A
//! send's bytes are encoded on demand, straight into the buffer they
//! leave in. [`split`] is the one place that maps legs to transports:
//! on a host attachment every leg rides TCP; on a card, the legs
//! touching ranks whose cards died ride TCP on the fallback NIC, and
//! the rest are packed in step order into one `Unicast` scatter and one
//! `Raw` gather, or ride the driver's datapath transforms instead (the
//! FFT's `TransposeBlocks`/`InterleaveBlocks`, the sort's `BucketKeys`,
//! the collective's `ReduceF64` fold). A `None`-sized TCP message
//! carries an 8-byte little-endian length prefix.
//!
//! [`Exchange`] posts a step, takes in the deliveries and card
//! completions the failover core routes to it, drops what an aborted
//! attempt left behind, and reports two facts:
//! [`received`](Exchange::received) (the gather and every TCP message
//! are in) and [`sent`](Exchange::sent) (the scatter's completion is
//! in). [`take`](Exchange::take) hands back a transform's output whole
//! and every other received leg as one message per source in step
//! order, slicing a `Raw` gather by its bounds rather than copying it.
//! [`Inbox`] buffers TCP deliveries by `(src rank, channel)`.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use acc_fpga::{
    FpgaMsg, GatherKind, InicExpect, InicGatherComplete, InicMode, InicScatter, ScatterKind,
};
use acc_proto::{ProtoMsg, TcpSend};

use super::Attachment;
use crate::msg::Ctx;

/// Bytes of a length-prefixed message's prefix.
const PREFIX: usize = 8;

/// TCP receive buffers keyed by `(src rank, channel)`. Peers may run
/// ahead, so messages for steps this rank has not reached yet wait
/// here. `size` is a message's byte count when the receiver knows it,
/// `None` when the message is length-prefixed.
#[derive(Default)]
struct Inbox {
    bufs: BTreeMap<(usize, u16), Vec<u8>>,
}

impl Inbox {
    /// Buffer one delivery. The first delivery becomes the buffer,
    /// grown once to the message size as soon as that is known.
    fn deliver(&mut self, src: usize, chan: u16, data: Vec<u8>, size: Option<usize>) {
        let buf = self.bufs.entry((src, chan)).or_default();
        if buf.is_empty() {
            *buf = data;
        } else {
            buf.extend_from_slice(&data);
        }
        if let Some(total) = total_len(buf, size) {
            buf.reserve_exact(total.saturating_sub(buf.len()));
        }
    }

    /// Whether the message from `src` on `chan` has fully arrived.
    fn complete(&self, src: usize, chan: u16, size: Option<usize>) -> bool {
        self.bufs
            .get(&(src, chan))
            .is_some_and(|buf| total_len(buf, size).is_some_and(|total| buf.len() >= total))
    }

    /// Remove the message from `src` on `chan` once it has fully
    /// arrived: its body, without the length prefix. Panics if the
    /// sender delivered more than one message's bytes.
    fn take(&mut self, src: usize, chan: u16, size: Option<usize>) -> Option<Vec<u8>> {
        if !self.complete(src, chan, size) {
            return None;
        }
        let mut msg = self.bufs.remove(&(src, chan)).expect("checked complete");
        let total = total_len(&msg, size).expect("checked complete");
        assert_eq!(
            msg.len(),
            total,
            "message from rank {src} on channel {chan} over-delivered"
        );
        if size.is_none() {
            msg.drain(..PREFIX);
        }
        Some(msg)
    }
}

/// A message's total byte count on the wire, once known: `size`, or the
/// length prefix plus the body it announces.
fn total_len(buf: &[u8], size: Option<usize>) -> Option<usize> {
    if size.is_some() {
        return size;
    }
    let prefix = buf.get(..PREFIX)?.try_into().expect("prefix is 8 bytes");
    let body = usize::try_from(u64::from_le_bytes(prefix)).expect("message length fits usize");
    Some(PREFIX + body)
}

/// One transfer step: its legs, how to encode its sends, and the card
/// transforms that replace the default packing.
pub(super) struct Step<'a> {
    /// The TCP channel of the step's messages.
    pub(super) chan: u16,
    /// The card stream of the step's scatter and gather.
    pub(super) stream: u32,
    /// Whether a TCP message carries an 8-byte length prefix: its
    /// receiver does not know its size.
    pub(super) prefixed: bool,
    /// The sends, in order: each destination rank with its byte length.
    pub(super) sends: Vec<(usize, usize)>,
    /// `encode(q, out)` appends the bytes of the send to rank `q`.
    pub(super) encode: &'a dyn Fn(usize, &mut Vec<u8>),
    /// The receives, in order: each source rank with the size its
    /// message has (`None`: length-prefixed).
    pub(super) recvs: Vec<(usize, Option<usize>)>,
    /// The card's scatter transform and the whole input it transforms,
    /// in place of the `Unicast` packing. It carries every send that
    /// rides the card, so those are never encoded.
    pub(super) scatter: Option<(ScatterKind, Vec<u8>)>,
    /// The card's gather transform over the receives that ride the
    /// card, in place of the `Raw` gather.
    pub(super) gather: Option<GatherKind>,
}

impl<'a> Step<'a> {
    /// Exchange `tag` of an FFT or sort run, without transforms. The
    /// failover `epoch` namespaces its channel and stream, so a
    /// restarted step never meets the aborted one's demux state.
    pub(super) fn exchange(
        epoch: u64,
        tag: u8,
        sends: Vec<(usize, usize)>,
        recvs: Vec<(usize, Option<usize>)>,
        encode: &'a dyn Fn(usize, &mut Vec<u8>),
    ) -> Step<'a> {
        Step {
            chan: (epoch as u16) * 4 + u16::from(tag),
            stream: (epoch as u32) * 8 + u32::from(tag),
            prefixed: false,
            sends,
            encode,
            recvs,
            scatter: None,
            gather: None,
        }
    }
}

/// Where a step's legs ride, and the step in flight that tracks them.
struct Split {
    /// The card gather's announcement.
    gather: Option<InicExpect>,
    /// The card scatter: its kind and its bytes.
    scatter: Option<(ScatterKind, Vec<u8>)>,
    /// The TCP messages, in step order: each destination rank with its
    /// wire bytes.
    tcp: Vec<(usize, Vec<u8>)>,
    flight: InFlight,
}

/// Assign every leg of `step` to the card or to TCP, encoding each send
/// a scatter transform does not carry. `card` is the attachment's card
/// mode (`None` on a host attachment, where every leg rides TCP); the
/// legs touching a rank in `dead` ride the fallback NIC.
fn split(step: Step, card: Option<InicMode>, dead: &BTreeSet<usize>) -> Split {
    // Only rank-local recovery leaves dead peers, and a protocol-only
    // card always restarts fully: the relay never splits off TCP legs.
    debug_assert!(dead.is_empty() || card != Some(InicMode::ProtocolProcessor));
    debug_assert!(card.is_some() || (step.scatter.is_none() && step.gather.is_none()));
    let on_card = |q: usize| card.is_some() && !dead.contains(&q);
    let packs = step.scatter.is_none();
    let encode = |q, len, out: &mut Vec<u8>| {
        let start = out.len();
        (step.encode)(q, out);
        debug_assert_eq!(out.len() - start, len, "send to rank {q}");
    };
    let packed = step.sends.iter().filter(|&&(q, _)| packs && on_card(q));
    let mut data = Vec::with_capacity(packed.map(|&(_, len)| len).sum());
    let (mut parts, mut tcp) = (Vec::new(), Vec::new());
    for (q, len) in step.sends {
        if !on_card(q) {
            let prefix = if step.prefixed { PREFIX } else { 0 };
            let mut wire = Vec::with_capacity(prefix + len);
            if step.prefixed {
                wire.extend_from_slice(&(len as u64).to_le_bytes());
            }
            encode(q, len, &mut wire);
            tcp.push((q, wire));
        } else if packs {
            encode(q, len, &mut data);
            parts.push((q as u32, len));
        }
    }
    let unicast = (!parts.is_empty()).then_some((ScatterKind::Unicast { parts }, data));
    let scatter = step.scatter.or(unicast);
    let recvs: Vec<_> = step
        .recvs
        .into_iter()
        .map(|(q, size)| (q, size, on_card(q)))
        .collect();
    let sources: Vec<_> = recvs
        .iter()
        .filter(|r| r.2)
        .map(|&(q, size, _)| (q as u32, size))
        .collect();
    let raw = step.gather.is_none();
    let gather = (!sources.is_empty()).then(|| InicExpect {
        stream: step.stream,
        kind: step.gather.unwrap_or(GatherKind::Raw),
        sources,
    });
    let flight = InFlight {
        stream: (gather.is_some() || scatter.is_some()).then_some(step.stream),
        chan: step.chan,
        recvs,
        raw,
        awaits_gather: gather.is_some(),
        gather: None,
        awaits_scatter: scatter.is_some(),
    };
    Split {
        gather,
        scatter,
        tcp,
        flight,
    }
}

/// What a received step hands back.
pub(super) struct Received {
    /// The card gather transform's output and, for bucket gathers, its
    /// bucket end offsets.
    pub(super) gather: Option<(Vec<u8>, Option<Vec<usize>>)>,
    /// The `Raw` gather's bytes, which `legs` slices.
    raw: Vec<u8>,
    /// Every received leg the transform did not take, in step order.
    legs: Vec<(usize, Body)>,
}

/// Where a received leg's bytes are.
enum Body {
    /// A TCP message body.
    Tcp(Vec<u8>),
    /// A source's range of the `Raw` gather.
    Raw(Range<usize>),
}

impl Received {
    /// Every received leg the transform did not take, in step order:
    /// its source and its bytes.
    pub(super) fn msgs(&self) -> impl Iterator<Item = (usize, &[u8])> {
        self.legs.iter().map(|(src, body)| match body {
            Body::Tcp(msg) => (*src, &msg[..]),
            Body::Raw(at) => (*src, &self.raw[at.clone()]),
        })
    }
}

/// The step in flight.
struct InFlight {
    /// The card stream, when the step has a card part.
    stream: Option<u32>,
    chan: u16,
    /// Every receive in step order: source, size, whether on the card.
    recvs: Vec<(usize, Option<usize>, bool)>,
    /// Whether the card gather is the default `Raw` one.
    raw: bool,
    /// Whether the card gather is announced and not in yet.
    awaits_gather: bool,
    /// The card gather, once it arrived.
    gather: Option<(Vec<u8>, Option<Vec<usize>>)>,
    /// Whether the card scatter is posted and not done yet.
    awaits_scatter: bool,
}

/// One rank's transfer steps: the TCP inbox and the step in flight.
#[derive(Default)]
pub(super) struct Exchange {
    inbox: Inbox,
    step: Option<InFlight>,
    /// Card streams of taken steps whose scatter is still draining: a
    /// step may complete on what it received before its own sends are
    /// acknowledged.
    draining: Vec<u32>,
}

impl Exchange {
    /// Post `step` on `attachment`, with the legs touching `dead`
    /// ranks on the fallback NIC: announce its gather, post its
    /// scatter, then send its TCP messages in order.
    pub(super) fn start(
        &mut self,
        attachment: &Attachment,
        dead: &BTreeSet<usize>,
        step: Step,
        ctx: &mut Ctx,
    ) {
        let (chan, stream) = (step.chan, step.stream);
        let split = split(step, attachment.inic_mode(), dead);
        let fallback = match attachment {
            Attachment::Tcp { nic, macs } => Some((nic, macs)),
            Attachment::Inic { fallback, .. } => fallback.as_ref().map(|fb| (&fb.0, &fb.1)),
        };
        if let Attachment::Inic { card, macs, .. } = attachment {
            if let Some(expect) = split.gather {
                ctx.send_now(*card, FpgaMsg::Expect(expect));
            }
            if let Some((kind, data)) = split.scatter {
                let dests = macs.clone();
                let scatter = InicScatter {
                    stream,
                    kind,
                    data,
                    dests,
                };
                ctx.send_now(*card, FpgaMsg::Scatter(Box::new(scatter)));
            }
        }
        for (q, data) in split.tcp {
            let (nic, macs) = fallback.expect("a card's TCP legs need a fallback NIC");
            let peer = macs[q];
            ctx.send_now(*nic, ProtoMsg::Send(TcpSend { peer, chan, data }));
        }
        self.step = Some(split.flight);
    }

    /// Buffer a TCP delivery from `src` on `chan` whose message has
    /// `size` bytes (`None`: length-prefixed).
    pub(super) fn deliver(&mut self, src: usize, chan: u16, data: Vec<u8>, size: Option<usize>) {
        self.inbox.deliver(src, chan, data, size);
    }

    /// Take in a card gather: `false` when no step awaits it.
    pub(super) fn gathered(&mut self, g: InicGatherComplete) -> bool {
        let step = self.step.as_mut();
        let Some(step) = step.filter(|s| s.stream == Some(g.stream) && s.awaits_gather) else {
            return false;
        };
        step.awaits_gather = false;
        step.gather = Some((g.data, g.bucket_bounds));
        true
    }

    /// Take in a card scatter's completion: `false` when neither the
    /// step in flight nor a draining one awaits it.
    pub(super) fn scattered(&mut self, stream: u32) -> bool {
        let step = self.step.as_mut();
        if let Some(step) = step.filter(|s| s.stream == Some(stream) && s.awaits_scatter) {
            step.awaits_scatter = false;
        } else if let Some(at) = self.draining.iter().position(|&d| d == stream) {
            self.draining.swap_remove(at);
        } else {
            return false;
        }
        true
    }

    /// Whether the step in flight received everything: its card gather
    /// (if any) and every TCP message it waits for.
    pub(super) fn received(&self) -> bool {
        self.step.is_some() && matches!(self.pending(), (false, _, 0))
    }

    /// Whether the step in flight's scatter (if any) completed.
    pub(super) fn sent(&self) -> bool {
        self.step.as_ref().is_some_and(|step| !step.awaits_scatter)
    }

    /// Hand back a [`received`](Self::received) step's results, ending
    /// the step.
    pub(super) fn take(&mut self) -> Received {
        let step = self.step.take().expect("a received step");
        if step.awaits_scatter {
            self.draining.extend(step.stream);
        }
        let (mut gather, mut raw, mut bounds) = (step.gather, Vec::new(), Vec::new());
        if step.raw {
            if let Some((data, ends)) = gather.take() {
                (raw, bounds) = (data, ends.expect("a raw gather carries per-source bounds"));
            }
        }
        let (inbox, chan, recvs) = (&mut self.inbox, step.chan, &step.recvs);
        let leg = |&(src, size, on_card): &(usize, Option<usize>, bool)| {
            let body = if on_card {
                // The raw gather's bounds run in source rank order, one
                // per source (a step receives one message per source).
                let at = recvs.iter().filter(|r| r.2 && r.0 < src).count();
                Body::Raw(at.checked_sub(1).map_or(0, |prev| bounds[prev])..bounds[at])
            } else {
                Body::Tcp(inbox.take(src, chan, size).expect("checked received"))
            };
            (src, body)
        };
        let legs = recvs.iter().filter(|r| step.raw || !r.2).map(leg).collect();
        Received { gather, raw, legs }
    }

    /// The card stream a failover aborts: the step in flight's, while
    /// the card still owes it its gather or its scatter.
    pub(super) fn abort_stream(&self) -> Option<u32> {
        let (gather, scatter, _) = self.pending();
        let stream = self.step.as_ref().and_then(|step| step.stream);
        stream.filter(|_| gather || scatter)
    }

    /// Abandon the step in flight (a resume restores past it).
    pub(super) fn cancel(&mut self) {
        self.step = None;
    }

    /// Whether no TCP bytes are buffered.
    pub(super) fn inbox_empty(&self) -> bool {
        self.inbox.bufs.is_empty()
    }

    /// What the step in flight still waits for: the card gather, the
    /// card scatter, and the number of TCP messages not yet in.
    pub(super) fn pending(&self) -> (bool, bool, usize) {
        self.step.as_ref().map_or((false, false, 0), |step| {
            let tcp = step.recvs.iter().filter(|&&(q, size, on_card)| {
                !on_card && !self.inbox.complete(q, step.chan, size)
            });
            (step.awaits_gather, step.awaits_scatter, tcp.count())
        })
    }

    /// What the step in flight still waits for, for `wait_state`.
    pub(super) fn waiting_for(&self) -> String {
        if self.step.is_none() {
            return "no exchange in flight".to_owned();
        }
        let (card, _, tcp) = self.pending();
        format!("exchange awaits card: {card}, TCP messages: {tcp}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes a test step sends to rank `q`: `q + 1` copies of `q`.
    fn encode(q: usize, out: &mut Vec<u8>) {
        out.extend(std::iter::repeat_n(q as u8, q + 1));
    }

    /// A step sending to and receiving from ranks 3, 2 and 0, in that
    /// order.
    fn step(prefixed: bool) -> Step<'static> {
        let order = [3, 2, 0];
        Step {
            chan: 5,
            stream: 9,
            prefixed,
            sends: order.map(|q| (q, q + 1)).to_vec(),
            encode: &encode,
            recvs: order.map(|q| (q, Some(q + 1))).to_vec(),
            scatter: None,
            gather: None,
        }
    }

    fn dead(ranks: &[usize]) -> BTreeSet<usize> {
        ranks.iter().copied().collect()
    }

    const CARD: Option<InicMode> = Some(InicMode::Combined);

    #[test]
    fn dead_legs_ride_tcp_and_the_rest_pack_in_step_order() {
        let split = split(step(false), CARD, &dead(&[2]));
        assert_eq!(split.tcp, [(2, vec![2; 3])]);
        let Some((ScatterKind::Unicast { parts }, data)) = split.scatter else {
            panic!("the card sends pack into one unicast scatter");
        };
        assert_eq!(parts, [(3, 4), (0, 1)]);
        assert_eq!(data, [3, 3, 3, 3, 0]);
        let expect = split.gather.expect("the card receives gather");
        assert!(matches!(expect.kind, GatherKind::Raw));
        assert_eq!(expect.sources, [(3, Some(4)), (0, Some(1))]);
        let recvs = split.flight.recvs.iter();
        let on_card: Vec<_> = recvs.map(|&(q, _, card)| (q, card)).collect();
        assert_eq!(on_card, [(3, true), (2, false), (0, true)]);
    }

    #[test]
    fn unsized_legs_are_prefixed_on_tcp_only() {
        let split = split(step(true), CARD, &dead(&[2]));
        assert_eq!(
            split.tcp,
            [(2, [&3u64.to_le_bytes()[..], &[2; 3]].concat())]
        );
        let (_, data) = split.scatter.expect("the card legs");
        assert_eq!(data, [3, 3, 3, 3, 0], "the card sizes a stream by its fin");
        // On a host attachment every leg rides TCP, prefixed.
        let host = super::split(step(true), None, &BTreeSet::new());
        assert!(host.gather.is_none() && host.scatter.is_none());
        let prefixes: Vec<_> = host
            .tcp
            .iter()
            .map(|(q, wire)| (*q, wire[0], wire.len()))
            .collect();
        assert_eq!(prefixes, [(3, 4, 12), (2, 3, 11), (0, 1, 9)]);
    }

    /// An exchange tracking `split` of `step` under a combined card,
    /// with rank 2's card dead.
    fn in_flight(step: Step) -> Exchange {
        let flight = split(step, CARD, &dead(&[2])).flight;
        Exchange {
            step: Some(flight),
            ..Exchange::default()
        }
    }

    #[test]
    fn a_raw_gather_comes_back_per_source_in_step_order() {
        let mut xchg = in_flight(Step {
            sends: Vec::new(),
            ..step(false)
        });
        xchg.deliver(2, 5, vec![22; 3], Some(3));
        assert!(!xchg.received(), "the gather is not in yet");
        // The card hands sources back in rank order: 0, then 3.
        let data = [&[10][..], &[13; 4]].concat();
        let bucket_bounds = Some(vec![1, 5]);
        let gather = InicGatherComplete {
            stream: 9,
            data,
            bucket_bounds,
        };
        assert!(xchg.gathered(gather));
        assert!(xchg.received() && xchg.sent());
        let got = xchg.take();
        assert!(got.gather.is_none());
        let msgs: Vec<_> = got.msgs().map(|(q, msg)| (q, msg.to_vec())).collect();
        assert_eq!(msgs, [(3, vec![13; 4]), (2, vec![22; 3]), (0, vec![10])]);
    }

    #[test]
    fn a_transform_carries_the_card_legs_and_comes_back_whole() {
        let only_dead = |q, out: &mut Vec<u8>| {
            assert_eq!(q, 2, "a leg the transform carries was encoded");
            encode(q, out);
        };
        let mut xchg = in_flight(Step {
            encode: &only_dead,
            scatter: Some((ScatterKind::TransposeBlocks { m: 1 }, vec![7; 4])),
            gather: Some(GatherKind::ReduceF64 { elems: 1 }),
            ..step(false)
        });
        xchg.deliver(2, 5, vec![22; 3], Some(3));
        let gather = InicGatherComplete {
            stream: 9,
            data: vec![1; 8],
            bucket_bounds: None,
        };
        assert!(xchg.gathered(gather) && xchg.scattered(9));
        let got = xchg.take();
        assert_eq!(got.gather, Some((vec![1; 8], None)));
        let msgs: Vec<_> = got.msgs().map(|(q, msg)| (q, msg.to_vec())).collect();
        assert_eq!(
            msgs,
            [(2, vec![22; 3])],
            "only the dead rank's leg rides TCP"
        );
    }

    #[test]
    fn fixed_size_message_assembles_from_any_fragmentation() {
        let msg: Vec<u8> = (0..5000u32).map(|i| (i * 7) as u8).collect();
        let size = Some(msg.len());
        for piece in [1, 3, acc_proto::tcp::MSS] {
            let mut inbox = Inbox::default();
            for chunk in msg.chunks(piece) {
                assert_eq!(inbox.take(3, 7, size), None, "piece {piece}");
                inbox.deliver(3, 7, chunk.to_vec(), size);
            }
            assert_eq!(inbox.take(3, 7, size).as_ref(), Some(&msg));
            assert!(inbox.bufs.is_empty());
        }
    }

    #[test]
    fn length_prefix_may_itself_arrive_split() {
        let wire = [&20u64.to_le_bytes()[..], &[9; 20]].concat();
        let mut inbox = Inbox::default();
        for (from, to) in [(0, 3), (3, 8), (8, 28)] {
            assert!(!inbox.complete(3, 7, None));
            inbox.deliver(3, 7, wire[from..to].to_vec(), None);
        }
        assert_eq!(inbox.take(3, 7, None), Some(vec![9; 20]));
    }

    #[test]
    fn empty_prefixed_message_completes() {
        let mut inbox = Inbox::default();
        inbox.deliver(3, 7, 0u64.to_le_bytes().to_vec(), None);
        assert_eq!(inbox.take(3, 7, None), Some(Vec::new()));
        assert!(inbox.bufs.is_empty());
    }

    #[test]
    #[should_panic(expected = "over-delivered")]
    fn over_delivery_panics() {
        let mut inbox = Inbox::default();
        inbox.deliver(3, 7, vec![0; 4], Some(4));
        inbox.deliver(3, 7, vec![0; 1], Some(4));
        inbox.take(3, 7, Some(4));
    }
}
