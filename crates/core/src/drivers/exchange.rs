//! The one transfer step under every driver, and the one TCP receive
//! buffer they share.
//!
//! The paper's combined mode makes the card the one transport both
//! applications use, and here the FFT, sort and collective drivers
//! share one transfer step too. A [`Step`] is data: an optional card
//! part (a gather announced with its sources, a scatter with its
//! bytes, both under one stream), the TCP parts to send on the
//! channel, and the TCP messages to wait for, each with the size its
//! receiver expects. [`Exchange`] posts a step, takes in the
//! deliveries and card completions the failover core routes to it,
//! drops what an aborted attempt left behind, and reports two facts:
//! [`received`](Exchange::received) (the gather and every TCP message
//! are in) and [`sent`](Exchange::sent) (the scatter's completion is
//! in). Each driver builds its own steps and
//! reads the fact it needs: the FFT and sort complete an exchange on
//! what they receive, the collective engine closes a round once it
//! was also sent.
//!
//! TCP parts ride the attachment's NIC on a host attachment and the
//! fallback NIC on a card, where they carry the legs to and from ranks
//! whose cards died (the mixed-technology steps of rank-local
//! recovery). The FFT and sort build their all-to-all steps through
//! [`Route`]:
//!
//! * **host TCP** ([`Route::Tcp`]) — every part is posted at once on the
//!   attachment's NIC. The FFT's serialized pairwise transpose is p−1
//!   single-peer steps driven by the FFT's own step loop.
//! * **the card as a pure protocol processor** ([`Route::Relay`]) — the
//!   host's parts, in ring order, ride one `Unicast` scatter into a
//!   `Raw` gather.
//! * **the card datapath** ([`Route::Datapath`]) — the driver's own
//!   scatter and gather transforms.
//!
//! [`Inbox`] buffers TCP deliveries by `(src rank, channel)`. A message
//! either has a size the receiver knows or carries an 8-byte
//! little-endian length prefix — the same `Option<usize>` convention as
//! `InicExpect::sources`.

use std::collections::BTreeMap;

use acc_algos::transpose::ring_schedule;
use acc_fpga::{FpgaMsg, GatherKind, InicExpect, InicGatherComplete, InicScatter, ScatterKind};
use acc_proto::{ProtoMsg, TcpSend};

use super::failover::Failover;
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

/// `body` with the length prefix a receiver that does not know its size
/// reads it by.
fn prefixed(body: &[u8]) -> Vec<u8> {
    [&(body.len() as u64).to_le_bytes()[..], body].concat()
}

/// A gather's sources: each rank with the byte count the card expects
/// from it (`None` when the source sizes itself).
pub(super) type Sources = Vec<(u32, Option<usize>)>;

/// A step's card part: a gather and a scatter under one stream, each
/// only when the step has one.
pub(super) struct CardPart {
    pub(super) stream: u32,
    /// What the card assembles, and from which sources.
    pub(super) gather: Option<(GatherKind, Sources)>,
    /// What the card sends, and the bytes it transforms.
    pub(super) scatter: Option<(ScatterKind, Vec<u8>)>,
}

/// One transfer step, as data.
pub(super) struct Step {
    /// The TCP channel of the step's parts and messages.
    pub(super) chan: u16,
    /// The card part, if the step has one.
    pub(super) card: Option<CardPart>,
    /// The TCP parts to send, in order: each destination rank with its
    /// wire bytes.
    pub(super) sends: Vec<(usize, Vec<u8>)>,
    /// The TCP messages to wait for: each source rank with the size its
    /// message has (`None`: length-prefixed).
    pub(super) recvs: Vec<(usize, Option<usize>)>,
}

/// How an FFT or sort all-to-all step moves its parts.
pub(super) enum Route {
    /// Host TCP on the attachment's NIC: a part to each of `to`, in
    /// order, and a message from each of `from`.
    Tcp { to: Vec<usize>, from: Vec<usize> },
    /// The card as a pure protocol processor: every rank's part, in
    /// ring order (own rank first), rides one `Unicast` scatter into a
    /// `Raw` gather.
    Relay,
    /// The card datapath: `scatter` transforms the driver's whole input
    /// `data` on the way out, `gather` assembles on the way in.
    Datapath {
        scatter: ScatterKind,
        data: Vec<u8>,
        gather: GatherKind,
    },
}

impl Route {
    /// The step of all-to-all exchange `tag` (the driver's exchange
    /// number) over this route. Every message is `size` bytes, or
    /// length-prefixed when `None`. `part(q)` is the body of rank `q`'s
    /// part; it is called once per part that leaves this host. On the
    /// card, the parts for ranks whose cards died ride the fallback NIC.
    pub(super) fn step<C>(
        self,
        fo: &Failover<C>,
        tag: u8,
        size: Option<usize>,
        mut part: impl FnMut(usize) -> Vec<u8>,
    ) -> Step {
        let p = fo.attachment.macs().len();
        let live = |q: &usize| !fo.dead.contains(q);
        let dead = || fo.dead.iter().copied().collect::<Vec<usize>>();
        let (card, to, from) = match self {
            Route::Tcp { to, from } => (None, to, from),
            Route::Relay => {
                let (mut parts, mut data) = (Vec::new(), Vec::new());
                let ring = ring_schedule(p, fo.rank).map(|e| e.send_to);
                for q in std::iter::once(fo.rank).chain(ring).filter(live) {
                    let body = part(q);
                    // An empty part for ourselves has nothing to loop
                    // back.
                    if q != fo.rank || !body.is_empty() {
                        parts.push((q as u32, body.len()));
                        data.extend_from_slice(&body);
                    }
                }
                let kinds = (ScatterKind::Unicast { parts }, data, GatherKind::Raw);
                (Some(kinds), dead(), dead())
            }
            Route::Datapath {
                scatter,
                data,
                gather,
            } => (Some((scatter, data, gather)), dead(), dead()),
        };
        let card = card.map(|(scatter, data, gather)| CardPart {
            // Namespaced by the failover epoch, so a restarted step
            // never collides with the aborted one's demux state (epoch
            // 0 keeps the historical ids).
            stream: (fo.epoch as u32) * 8 + u32::from(tag),
            gather: Some((
                gather,
                (0..p).filter(live).map(|s| (s as u32, size)).collect(),
            )),
            scatter: Some((scatter, data)),
        });
        let mut wire = |q| match size {
            Some(_) => (q, part(q)),
            None => (q, prefixed(&part(q))),
        };
        Step {
            chan: (fo.epoch as u16) * 4 + u16::from(tag),
            card,
            sends: to.into_iter().map(&mut wire).collect(),
            recvs: from.into_iter().map(|q| (q, size)).collect(),
        }
    }
}

/// What a received step hands back.
pub(super) struct Received {
    /// The card gather's bytes and, for bucket and raw gathers, its end
    /// offsets (per bucket, or per source in rank order).
    pub(super) gather: Option<(Vec<u8>, Option<Vec<usize>>)>,
    /// The TCP message bodies, in the order the step expected them.
    pub(super) msgs: Vec<(usize, Vec<u8>)>,
}

/// The step in flight.
#[derive(Default)]
struct InFlight {
    /// The card stream, when the step has a card part.
    stream: Option<u32>,
    chan: u16,
    recvs: Vec<(usize, Option<usize>)>,
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
    /// Post `step`: announce its gather, post its scatter, then send
    /// its TCP parts in order.
    pub(super) fn start(
        &mut self,
        attachment: &Attachment,
        label: &str,
        step: Step,
        ctx: &mut Ctx,
    ) {
        let chan = step.chan;
        let mut flight = InFlight {
            chan,
            recvs: step.recvs,
            ..InFlight::default()
        };
        if let Some(part) = step.card {
            let Attachment::Inic { card, macs, .. } = attachment else {
                panic!("{label}: card exchange without a card");
            };
            let stream = part.stream;
            flight.stream = Some(stream);
            flight.awaits_gather = part.gather.is_some();
            flight.awaits_scatter = part.scatter.is_some();
            if let Some((kind, sources)) = part.gather {
                let expect = InicExpect {
                    stream,
                    kind,
                    sources,
                };
                ctx.send_now(*card, FpgaMsg::Expect(expect));
            }
            if let Some((kind, data)) = part.scatter {
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
        let tcp = match attachment {
            Attachment::Tcp { nic, macs } => Some((nic, macs)),
            Attachment::Inic { fallback, .. } => fallback.as_ref().map(|fb| (&fb.0, &fb.1)),
        };
        for (q, data) in step.sends {
            let (nic, macs) = tcp.expect("a card's TCP parts need a fallback NIC");
            let peer = macs[q];
            ctx.send_now(*nic, ProtoMsg::Send(TcpSend { peer, chan, data }));
        }
        self.step = Some(flight);
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
        let (inbox, chan) = (&mut self.inbox, step.chan);
        let mut take = |(s, size)| (s, inbox.take(s, chan, size).expect("checked received"));
        Received {
            gather: step.gather,
            msgs: step.recvs.into_iter().map(&mut take).collect(),
        }
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
            let tcp = step.recvs.iter();
            let tcp = tcp.filter(|&&(q, size)| !self.inbox.complete(q, step.chan, size));
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
