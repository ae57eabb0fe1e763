//! A shared bus with round-robin burst arbitration.
//!
//! Two instances appear in every prototype-INIC scenario:
//!
//! * the **system PCI bus** (32-bit 33 MHz ⇒ 132 MB/s peak), shared by
//!   the NIC/ACEII card DMA and everything else on the motherboard;
//! * the **ACEII on-card bus** — "a single 132 MB/s bus used to access
//!   both the Gigabit Ethernet and host memory" (Section 6), the
//!   prototype's defining bottleneck: host-DMA and network streams that
//!   the ideal INIC overlaps must time-share it.
//!
//! Requesters submit [`BusRequest`]s; the bus transfers them in bounded
//! bursts with per-burst arbitration overhead, rotating round-robin
//! across requesters so one long DMA cannot starve the MAC. A
//! [`BusDone`] event is returned to the requester when its whole request
//! has crossed.

use std::collections::VecDeque;

use acc_sim::{unknown_event, Bandwidth, Component, ComponentId, Ctx, DataSize, SimDuration};

use crate::msg::{HostCarrier, HostMsg};

/// Bus configuration.
#[derive(Clone, Copy, Debug)]
pub struct BusParams {
    /// Peak transfer rate.
    pub rate: Bandwidth,
    /// Maximum burst length before re-arbitration.
    pub burst: DataSize,
    /// Arbitration + address-phase overhead per burst.
    pub per_burst_overhead: SimDuration,
}

impl BusParams {
    /// 32-bit 33 MHz PCI: 132 MB/s peak, 4 KiB bursts, ~1 µs of
    /// arbitration/address/turnaround per burst — yielding the ~100 MB/s
    /// sustained figure typical of 2001 chipsets.
    pub fn pci_32_33() -> BusParams {
        BusParams {
            rate: Bandwidth::from_mb_per_sec(132),
            burst: DataSize::from_kib(4),
            per_burst_overhead: SimDuration::from_micros(1),
        }
    }

    /// Sustained rate for a long transfer under these parameters.
    pub fn sustained_rate(&self) -> Bandwidth {
        let burst_time = self.rate.transfer_time(self.burst) + self.per_burst_overhead;
        Bandwidth::from_bytes_per_sec((self.burst.bytes() as f64 / burst_time.as_secs_f64()) as u64)
    }

    /// Closed-form time for `bytes` crossing an *uncontended* bus —
    /// used by analytic models and to validate the component against.
    pub fn uncontended_time(&self, bytes: DataSize) -> SimDuration {
        if bytes.bytes() == 0 {
            return SimDuration::ZERO;
        }
        let full = bytes.bytes() / self.burst.bytes();
        let tail = bytes.bytes() % self.burst.bytes();
        let mut t = (self.rate.transfer_time(self.burst) + self.per_burst_overhead) * full;
        if tail > 0 {
            t += self.rate.transfer_time(DataSize::from_bytes(tail)) + self.per_burst_overhead;
        }
        t
    }
}

/// Request to move `bytes` across the bus. Direction does not matter to
/// the timing model; contention is what is being modelled.
#[derive(Clone, Copy, Debug)]
pub struct BusRequest {
    /// Transfer length.
    pub bytes: DataSize,
    /// Who to notify on completion.
    pub requester: ComponentId,
    /// Requester-chosen tag echoed in [`BusDone`].
    pub tag: u64,
}

/// Completion notification.
#[derive(Clone, Copy, Debug)]
pub struct BusDone {
    /// The tag from the originating [`BusRequest`].
    pub tag: u64,
}

/// A bus's own event: the current burst finished.
pub struct BurstDone(());

struct Transfer {
    requester: ComponentId,
    tag: u64,
    remaining: DataSize,
}

/// The bus component.
pub struct SharedBus {
    label: String,
    params: BusParams,
    /// Per-requester FIFO lanes, visited round-robin.
    // acc-lint: allow(R9, reason = "lane table, not a queue: the outer Vec gains one entry per distinct requester (the component set is fixed at build), and each per-lane FIFO carries that engine's in-flight transfers drained round-robin")
    lanes: Vec<(ComponentId, VecDeque<Transfer>)>,
    rr_next: usize,
    busy: bool,
    /// Lane whose head transfer owns the in-flight burst.
    active_lane: Option<usize>,
    bytes_moved: u64,
}

impl SharedBus {
    /// New idle bus.
    pub fn new(label: impl Into<String>, params: BusParams) -> SharedBus {
        SharedBus {
            label: label.into(),
            params,
            lanes: Vec::new(),
            rr_next: 0,
            busy: false,
            active_lane: None,
            bytes_moved: 0,
        }
    }

    /// Total bytes transferred so far.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    fn lane_mut(&mut self, requester: ComponentId) -> &mut VecDeque<Transfer> {
        if let Some(idx) = self.lanes.iter().position(|(id, _)| *id == requester) {
            return &mut self.lanes[idx].1;
        }
        self.lanes.push((requester, VecDeque::new()));
        &mut self.lanes.last_mut().expect("just pushed").1
    }

    fn start_burst_if_idle<M: HostCarrier>(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.busy {
            return;
        }
        let n = self.lanes.len();
        if n == 0 {
            return;
        }
        // Find the next non-empty lane round-robin.
        for off in 0..n {
            let idx = (self.rr_next + off) % n;
            if self.lanes[idx].1.is_empty() {
                continue;
            }
            // Grant a burst to the head transfer of this lane.
            let burst_len;
            {
                let head = self.lanes[idx].1.front_mut().expect("non-empty lane");
                burst_len =
                    DataSize::from_bytes(head.remaining.bytes().min(self.params.burst.bytes()));
                head.remaining = head.remaining.saturating_sub(burst_len);
            }
            self.busy = true;
            self.bytes_moved += burst_len.bytes();
            // Rotate the arbitration pointer past this lane so the next
            // grant visits the other requesters first.
            self.rr_next = (idx + 1) % n;
            let t = self.params.rate.transfer_time(burst_len) + self.params.per_burst_overhead;
            self.active_lane = Some(idx);
            ctx.self_in(t, M::from(HostMsg::Burst(BurstDone(()))));
            return;
        }
    }

    fn finish_burst<M: HostCarrier>(&mut self, ctx: &mut Ctx<'_, M>) {
        let idx = self
            .active_lane
            .take()
            .expect("BurstDone with no active lane");
        self.busy = false;
        let done = {
            let head = self.lanes[idx].1.front().expect("active lane emptied");
            head.remaining == DataSize::ZERO
        };
        if done {
            let t = self.lanes[idx].1.pop_front().expect("checked non-empty");
            let done = BusDone { tag: t.tag };
            ctx.send_now(t.requester, M::from(HostMsg::Done(done)));
            ctx.stats().counter(&self.label, "transfers_done").inc();
        }
        self.start_burst_if_idle(ctx);
    }
}

impl<M: HostCarrier> Component<M> for SharedBus {
    fn handle(&mut self, ev: M, ctx: &mut Ctx<'_, M>) {
        let Ok(ev) = ev.into_host() else {
            unknown_event(&self.label)
        };
        match ev {
            HostMsg::Request(req) => {
                assert!(req.bytes.bytes() > 0, "zero-byte bus request");
                ctx.stats().counter(&self.label, "requests").inc();
                let requester = req.requester;
                self.lane_mut(requester).push_back(Transfer {
                    requester: req.requester,
                    tag: req.tag,
                    remaining: req.bytes,
                });
                self.start_burst_if_idle(ctx);
            }
            HostMsg::Burst(BurstDone(())) => self.finish_burst(ctx),
            HostMsg::Done(_) => unknown_event(&self.label),
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_sim::{SimTime, Simulation};
    use std::any::Any;

    /// Records completion times of its bus requests.
    struct Requester {
        bus: ComponentId,
        submit: Vec<(u64, DataSize)>,
        completions: Vec<(u64, SimTime)>,
    }

    impl Component for Requester {
        fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
            if ev.downcast_ref::<()>().is_some() {
                let me = ctx.self_id();
                for (tag, bytes) in self.submit.drain(..) {
                    ctx.send_now(
                        self.bus,
                        BusRequest {
                            bytes,
                            requester: me,
                            tag,
                        },
                    );
                }
            } else if let Ok(done) = ev.downcast::<BusDone>() {
                self.completions.push((done.tag, ctx.now()));
            } else {
                panic!("requester: unknown event");
            }
        }
        fn name(&self) -> &str {
            "requester"
        }
    }

    fn build(
        submissions: Vec<Vec<(u64, DataSize)>>,
    ) -> (Simulation, Vec<ComponentId>, ComponentId) {
        let mut sim = Simulation::new(0);
        let bus_id = sim.reserve_id();
        let reqs: Vec<ComponentId> = submissions
            .into_iter()
            .map(|submit| {
                sim.add(Requester {
                    bus: bus_id,
                    submit,
                    completions: vec![],
                })
            })
            .collect();
        sim.register(bus_id, SharedBus::new("pci", BusParams::pci_32_33()));
        for &r in &reqs {
            sim.schedule_at(SimTime::ZERO, r, ());
        }
        (sim, reqs, bus_id)
    }

    #[test]
    fn single_transfer_matches_closed_form() {
        let bytes = DataSize::from_kib(64);
        let (mut sim, reqs, _) = build(vec![vec![(1, bytes)]]);
        sim.run();
        let done = &sim.component::<Requester>(reqs[0]).completions;
        assert_eq!(done.len(), 1);
        let expect = BusParams::pci_32_33().uncontended_time(bytes);
        assert_eq!(done[0].1, SimTime::ZERO + expect);
    }

    #[test]
    fn sustained_rate_is_below_peak() {
        let p = BusParams::pci_32_33();
        let sustained = p.sustained_rate().bytes_per_sec();
        assert!(sustained < p.rate.bytes_per_sec());
        // ~128 MB/s with 4 KiB bursts and 1 µs overhead per burst.
        assert!(
            (120_000_000..132_000_000).contains(&sustained),
            "{sustained}"
        );
    }

    #[test]
    fn two_requesters_share_fairly() {
        // Both move 1 MiB concurrently: each should finish in about the
        // time 2 MiB takes alone (i.e. bandwidth halves), and the two
        // finish within one burst of each other.
        let mb = DataSize::from_mib(1);
        let (mut sim, reqs, _) = build(vec![vec![(1, mb)], (vec![(2, mb)])]);
        sim.run();
        let t0 = sim.component::<Requester>(reqs[0]).completions[0].1;
        let t1 = sim.component::<Requester>(reqs[1]).completions[0].1;
        let both = BusParams::pci_32_33().uncontended_time(DataSize::from_mib(2));
        let later = t0.max(t1);
        assert_eq!(later, SimTime::ZERO + both);
        let gap = later.since(t0.min(t1));
        // Strict alternation would give a one-burst gap; lane-creation
        // order lets the first requester win one extra early burst, so
        // allow two.
        let one_burst = BusParams::pci_32_33().uncontended_time(DataSize::from_kib(4));
        assert!(gap <= one_burst * 2, "finish gap {gap} too large");
    }

    #[test]
    fn fifo_within_one_requester() {
        let (mut sim, reqs, _) = build(vec![vec![
            (1, DataSize::from_kib(8)),
            (2, DataSize::from_kib(8)),
            (3, DataSize::from_kib(8)),
        ]]);
        sim.run();
        let done = &sim.component::<Requester>(reqs[0]).completions;
        let tags: Vec<u64> = done.iter().map(|&(t, _)| t).collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    fn bus_counts_bytes() {
        let (mut sim, _, bus) = build(vec![vec![(1, DataSize::from_kib(10))]]);
        sim.run();
        assert_eq!(sim.component::<SharedBus>(bus).bytes_moved(), 10 * 1024);
    }

    #[test]
    fn three_requesters_share_round_robin() {
        // Each of three concurrent 1 MiB transfers finishes within one
        // burst of total/3 pacing, and the last at exactly the
        // all-alone time for 3 MiB.
        let mb = DataSize::from_mib(1);
        let (mut sim, reqs, _) = build(vec![vec![(1, mb)], vec![(2, mb)], vec![(3, mb)]]);
        sim.run();
        let times: Vec<f64> = reqs
            .iter()
            .map(|&r| sim.component::<Requester>(r).completions[0].1.as_secs_f64())
            .collect();
        let all = BusParams::pci_32_33()
            .uncontended_time(DataSize::from_mib(3))
            .as_secs_f64();
        let latest = times.iter().cloned().fold(0.0, f64::max);
        assert!((latest - all).abs() < 1e-9, "latest {latest} vs {all}");
        // Fairness: no requester finishes before ~2/3 of the total.
        let earliest = times.iter().cloned().fold(f64::MAX, f64::min);
        assert!(earliest > 0.6 * all, "earliest {earliest} vs {all}");
    }

    #[test]
    #[should_panic(expected = "zero-byte bus request")]
    fn zero_byte_request_is_rejected() {
        let (mut sim, _, bus) = build(vec![]);
        let fake = ComponentId::from_raw(0);
        sim.schedule_at(
            SimTime::ZERO,
            bus,
            BusRequest {
                bytes: DataSize::ZERO,
                requester: fake,
                tag: 0,
            },
        );
        sim.run();
    }

    #[test]
    fn contention_halves_effective_bandwidth() {
        // The prototype's problem in miniature: host-DMA and MAC streams
        // sharing one 132 MB/s bus each see ~half the sustained rate.
        let mb = DataSize::from_mib(4);
        let (mut sim, reqs, _) = build(vec![vec![(1, mb)], vec![(2, mb)]]);
        sim.run();
        let t = sim.component::<Requester>(reqs[0]).completions[0]
            .1
            .as_secs_f64();
        let alone = BusParams::pci_32_33().uncontended_time(mb).as_secs_f64();
        let ratio = t / alone;
        assert!((1.9..2.1).contains(&ratio), "contention ratio {ratio}");
    }
}
