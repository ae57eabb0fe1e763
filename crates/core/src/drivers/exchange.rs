//! The one all-to-all exchange under the FFT and sort drivers, and the
//! one TCP receive buffer under every driver.
//!
//! The paper's two applications move data the same way: the FFT
//! transpose (§3.1) and the sort's bucket exchange (§3.2) both send one
//! part to every rank. [`Exchange`] runs one such step, epoch-tagged so
//! an aborted attempt's traffic never completes the restarted one, over
//! whichever path the attachment offers:
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
//! On the card, the parts for ranks whose cards died ride the fallback
//! NIC instead (the mixed-technology exchange of rank-local recovery).
//! A step is complete when the card gather (if any) and every expected
//! TCP message are in; it then hands back the gather and the messages,
//! and the driver applies its own transforms.
//!
//! [`Inbox`] buffers TCP deliveries by `(src rank, channel)`. A message
//! either has a size the receiver knows or carries an 8-byte
//! little-endian length prefix — the same `Option<usize>` convention as
//! `InicExpect::sources`.

use std::any::Any;
use std::collections::BTreeMap;

use acc_fpga::{
    GatherKind, InicExpect, InicGatherComplete, InicScatter, InicScatterDone, ScatterKind,
};
use acc_net::MacAddr;
use acc_proto::{TcpDelivered, TcpSend};
use acc_sim::{ComponentId, Ctx};

use super::failover::Failover;
use super::Attachment;

/// Bytes of a length-prefixed message's prefix.
const PREFIX: usize = 8;

/// TCP receive buffers keyed by `(src rank, channel)`. Peers may run
/// ahead, so messages for steps this rank has not reached yet wait
/// here. `size` is a message's byte count when the receiver knows it,
/// `None` when the message is length-prefixed.
#[derive(Default)]
pub(super) struct Inbox {
    bufs: BTreeMap<(usize, u16), Vec<u8>>,
}

impl Inbox {
    /// Buffer one delivery. The first delivery becomes the buffer,
    /// grown once to the message size as soon as that is known.
    pub(super) fn deliver(&mut self, src: usize, chan: u16, data: Vec<u8>, size: Option<usize>) {
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
    pub(super) fn complete(&self, src: usize, chan: u16, size: Option<usize>) -> bool {
        self.bufs
            .get(&(src, chan))
            .is_some_and(|buf| total_len(buf, size).is_some_and(|total| buf.len() >= total))
    }

    /// Remove the message from `src` on `chan` once it has fully
    /// arrived: its body, without the length prefix. Panics if the
    /// sender delivered more than one message's bytes.
    pub(super) fn take(&mut self, src: usize, chan: u16, size: Option<usize>) -> Option<Vec<u8>> {
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

    /// Whether no bytes are buffered.
    pub(super) fn is_empty(&self) -> bool {
        self.bufs.is_empty()
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

/// How one exchange step moves its parts.
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

/// What a completed step hands back.
pub(super) struct Received {
    /// The card gather's bytes and, for bucket and raw gathers, its end
    /// offsets (per bucket, or per source in rank order).
    pub(super) gather: Option<(Vec<u8>, Option<Vec<usize>>)>,
    /// The TCP message bodies, in the order the step expected them.
    pub(super) msgs: Vec<(usize, Vec<u8>)>,
}

/// The step in flight.
struct Step {
    /// The driver's exchange number.
    tag: u8,
    /// The card stream, when the step runs on the card.
    stream: Option<u32>,
    chan: u16,
    /// Ranks a TCP message is expected from.
    from: Vec<usize>,
    /// The card gather, once it arrived.
    gather: Option<(Vec<u8>, Option<Vec<usize>>)>,
}

/// One rank's all-to-all exchange: the TCP inbox and the step in flight.
pub(super) struct Exchange {
    /// Message size when every message has the same known size, `None`
    /// when messages are length-prefixed.
    size: Option<usize>,
    inbox: Inbox,
    step: Option<Step>,
}

impl Exchange {
    /// An idle exchange whose messages are `size` bytes each, or
    /// length-prefixed when `None`.
    pub(super) fn new(size: Option<usize>) -> Exchange {
        Exchange {
            size,
            inbox: Inbox::default(),
            step: None,
        }
    }

    /// Start step `tag` (the driver's exchange number) over `route`.
    /// `part(q)` is the body of rank `q`'s part; it is called once per
    /// part that leaves this host.
    pub(super) fn start(
        &mut self,
        fo: &Failover,
        tag: u8,
        route: Route,
        mut part: impl FnMut(usize) -> Vec<u8>,
        ctx: &mut Ctx,
    ) {
        let chan = chan(fo.epoch, tag);
        let live = |q: &usize| !fo.dead.contains(q);
        let (stream, from) = match (&fo.attachment, route) {
            (Attachment::Tcp { nic, macs }, Route::Tcp { to, from }) => {
                for q in to {
                    self.post(ctx, *nic, macs[q], chan, part(q));
                }
                (None, from)
            }
            (
                Attachment::Inic {
                    card,
                    macs,
                    fallback,
                    ..
                },
                route,
            ) => {
                let (p, stream) = (macs.len(), stream(fo.epoch, tag));
                let (scatter, data, gather) = match route {
                    Route::Relay => {
                        let (mut parts, mut data) = (Vec::new(), Vec::new());
                        for q in (0..p).map(|s| (fo.rank + s) % p).filter(live) {
                            let body = part(q);
                            // An empty part for ourselves has nothing to
                            // loop back.
                            if q != fo.rank || !body.is_empty() {
                                parts.push((q as u32, body.len()));
                                data.extend_from_slice(&body);
                            }
                        }
                        (ScatterKind::Unicast { parts }, data, GatherKind::Raw)
                    }
                    Route::Datapath {
                        scatter,
                        data,
                        gather,
                    } => (scatter, data, gather),
                    Route::Tcp { .. } => panic!("{}: TCP exchange on a card", fo.label),
                };
                let sources = (0..p).filter(live).map(|s| (s as u32, self.size)).collect();
                ctx.send_now(
                    *card,
                    InicExpect {
                        stream,
                        kind: gather,
                        sources,
                    },
                );
                ctx.send_now(
                    *card,
                    InicScatter {
                        stream,
                        kind: scatter,
                        data,
                        dests: macs.clone(),
                    },
                );
                // The dead ranks' parts cannot ride the card (their cards
                // are gone): the host ships them over the fallback NIC.
                let dead: Vec<usize> = fo.dead.iter().copied().collect();
                for &d in &dead {
                    let fallback = fallback.as_ref();
                    let (nic, macs) =
                        fallback.expect("rank-local degradation needs a fallback path");
                    self.post(ctx, *nic, macs[d], chan, part(d));
                }
                (Some(stream), dead)
            }
            (Attachment::Tcp { .. }, _) => panic!("{}: card exchange without a card", fo.label),
        };
        self.step = Some(Step {
            tag,
            stream,
            chan,
            from,
            gather: None,
        });
    }

    /// Post `body` to `peer` over `nic`, length-prefixed unless the
    /// receiver knows its size.
    fn post(&self, ctx: &mut Ctx, nic: ComponentId, peer: MacAddr, chan: u16, body: Vec<u8>) {
        let data = match self.size {
            Some(_) => body,
            None => [&(body.len() as u64).to_le_bytes()[..], &body].concat(),
        };
        ctx.send_now(nic, TcpSend { peer, chan, data });
    }

    /// Take in a TCP delivery or a card completion. Panics on any other
    /// event.
    pub(super) fn on_event(&mut self, ev: Box<dyn Any>, fo: &Failover) {
        match ev.downcast::<TcpDelivered>() {
            Ok(d) => {
                let src = fo.attachment.resolve_src(d.peer);
                let src = src.expect("delivery from unknown MAC");
                self.inbox.deliver(src, d.chan, d.data, self.size);
            }
            Err(ev) => match ev.downcast::<InicGatherComplete>() {
                // A gather of an abandoned step never matches a later
                // stream: drop it.
                Ok(g) => {
                    if let Some(step) = self.step.as_mut().filter(|s| s.stream == Some(g.stream)) {
                        step.gather = Some((g.data, g.bucket_bounds));
                    }
                }
                // Send-side completion is informational: a step
                // completes on what it receives.
                Err(ev) => assert!(ev.is::<InicScatterDone>(), "{}: unknown event", fo.label),
            },
        }
    }

    /// The step's results, once the card gather (if any) and every
    /// expected TCP message are in. A parked rank completes nothing.
    pub(super) fn poll(&mut self, fo: &Failover) -> Option<Received> {
        let step = self.step.as_ref().filter(|_| !fo.paused)?;
        let card_done = step.stream.is_none() || step.gather.is_some();
        let complete = |&s: &usize| self.inbox.complete(s, step.chan, self.size);
        if !(card_done && step.from.iter().all(complete)) {
            return None;
        }
        let step = self.step.take()?;
        let (inbox, size) = (&mut self.inbox, self.size);
        let mut take = |s| (s, inbox.take(s, step.chan, size).expect("checked complete"));
        let msgs = step.from.iter().map(|&s| take(s)).collect();
        Some(Received {
            gather: step.gather,
            msgs,
        })
    }

    /// The card stream a failover aborts: the one the step in flight
    /// runs under at the current epoch.
    pub(super) fn abort_stream(&self, fo: &Failover) -> Option<u32> {
        self.step.as_ref().map(|step| stream(fo.epoch, step.tag))
    }

    /// Abandon the step in flight (a resume restores past it).
    pub(super) fn cancel(&mut self) {
        self.step = None;
    }

    /// What the step in flight still waits for, for `wait_state`.
    pub(super) fn waiting_for(&self) -> String {
        let Some(step) = &self.step else {
            return "no exchange in flight".to_owned();
        };
        let tcp = step.from.iter();
        let tcp = tcp.filter(|&&s| !self.inbox.complete(s, step.chan, self.size));
        let card = step.stream.is_some() && step.gather.is_none();
        format!(
            "exchange awaits card: {card}, TCP messages: {}",
            tcp.count()
        )
    }
}

/// INIC stream of exchange `tag` under failover `epoch`, namespaced so
/// a restarted exchange never collides with the aborted one's demux
/// state (epoch 0 keeps the historical ids).
fn stream(epoch: u64, tag: u8) -> u32 {
    (epoch as u32) * 8 + u32::from(tag)
}

/// TCP channel of exchange `tag` under failover `epoch`, namespaced
/// like [`stream`].
fn chan(epoch: u64, tag: u8) -> u16 {
    (epoch as u16) * 4 + u16::from(tag)
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
            assert!(inbox.is_empty());
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
        assert!(inbox.is_empty());
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
