//! Deterministic minimal routing with precomputed failover tables.
//!
//! [`compute_schedule`] turns a [`Topology`] plus a fault timeline
//! (trunk-down windows, switch kills) into a sequence of [`Epoch`]s.
//! Each epoch carries one complete per-switch next-hop table computed by
//! BFS over the *live* graph of that epoch, so failover is not a
//! reactive protocol but a precomputed table swap at the fault boundary
//! — deterministic by construction, with no convergence transient to
//! model.
//!
//! Tie-breaking between equal-cost next hops is shape-specific:
//!
//! * **Fat-tree** — D-mod-k / ECMP-rank: among the sorted candidate
//!   set, destination rank `r` takes candidate `r % len`. On a trunk
//!   failure the candidate set shrinks and the same rule lands on the
//!   surviving sibling (the "ECMP-rank fallback").
//! * **Torus** — dimension order: prefer the lowest dimension, positive
//!   direction first. A failed ring link makes BFS route the ±1 detour
//!   through the next dimension.
//!
//! Because every hop strictly decreases BFS distance to the
//! destination's home switch, routes are loop-free and never bounce a
//! frame back out its ingress trunk.
//!
//! Destinations with no live path surface per-epoch as a structured
//! [`PartitionReport`] (unreachable rank set, cut trunks, dead
//! switches) so the cluster layer can attribute stalls to the fabric
//! instead of a silent watchdog trip.

use std::collections::BTreeMap;
use std::fmt;

use acc_sim::SimTime;

use crate::fabric::{FabricSpec, Topology};
use crate::frame::MacAddr;

/// One NIC attachment point: a MAC homed at a switch, owned by a rank.
/// Primary NICs and (when wired) fallback NICs are both attachments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Attachment {
    /// The NIC's MAC address (the routing key).
    pub mac: MacAddr,
    /// The switch the NIC's uplink lands on.
    pub switch: usize,
    /// The owning rank (drives D-mod-k tie-breaking).
    pub rank: usize,
}

/// A trunk outage window: the link `(a, b)` carries nothing during
/// `[from, until)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrunkOutage {
    /// One endpoint switch id.
    pub a: usize,
    /// The other endpoint switch id.
    pub b: usize,
    /// Outage start (inclusive).
    pub from: SimTime,
    /// Outage end (exclusive).
    pub until: SimTime,
}

/// Ranks the fabric cannot currently reach, and why.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PartitionReport {
    /// Ranks with no live attachment in the main component, sorted.
    pub unreachable_ranks: Vec<usize>,
    /// Trunks severed by outage windows in this epoch, sorted.
    pub cut_trunks: Vec<(usize, usize)>,
    /// Switches dead in this epoch, sorted.
    pub dead_switches: Vec<usize>,
}

impl fmt::Display for PartitionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ranks {:?} unreachable", self.unreachable_ranks)?;
        if !self.dead_switches.is_empty() {
            write!(f, "; dead switches {:?}", self.dead_switches)?;
        }
        if !self.cut_trunks.is_empty() {
            write!(f, "; cut trunks {:?}", self.cut_trunks)?;
        }
        Ok(())
    }
}

/// Routing state for one fault-homogeneous time interval.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Epoch {
    /// When this epoch's tables take effect.
    pub start: SimTime,
    /// Per-switch next-hop table: destination MAC → neighbor switch id.
    /// Locally-attached MACs are resolved by the switch's own MAC table
    /// and do not appear here.
    pub tables: Vec<BTreeMap<MacAddr, usize>>,
    /// Ranks unreachable in this epoch, if any.
    pub partition: Option<PartitionReport>,
    /// Worst-case switches traversed between any two reachable
    /// attachments (1 on a single switch; 5 on a clean inter-pod
    /// fat-tree path). Drives deadline hop-inflation pricing.
    pub max_path_switches: usize,
}

/// The full routing timeline for a run: epochs sorted by start time,
/// the first at [`SimTime::ZERO`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FabricSchedule {
    /// Fault-homogeneous intervals in time order.
    pub epochs: Vec<Epoch>,
}

impl FabricSchedule {
    /// The epoch in effect at `now`.
    pub fn epoch_at(&self, now: SimTime) -> &Epoch {
        let mut cur = &self.epochs[0];
        for e in &self.epochs {
            if e.start <= now {
                cur = e;
            }
        }
        cur
    }

    /// Worst-case hop inflation across all epochs, relative to the
    /// single-switch baseline of 1 (always >= 1).
    pub fn max_inflation(&self) -> usize {
        self.epochs
            .iter()
            .map(|e| e.max_path_switches)
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// The first partition report anywhere in the timeline, if any.
    pub fn first_partition(&self) -> Option<&PartitionReport> {
        self.epochs.iter().find_map(|e| e.partition.as_ref())
    }
}

/// Compute the per-epoch routing timeline for `topo` under the given
/// fault schedule. Pure and deterministic: identical inputs produce
/// identical tables regardless of build order or thread count.
pub fn compute_schedule(
    topo: &Topology,
    attachments: &[Attachment],
    outages: &[TrunkOutage],
    switch_kills: &[(usize, SimTime)],
) -> FabricSchedule {
    let mut boundaries: Vec<SimTime> = vec![SimTime::ZERO];
    for o in outages {
        boundaries.push(o.from);
        boundaries.push(o.until);
    }
    for &(_, at) in switch_kills {
        boundaries.push(at);
    }
    boundaries.sort_unstable();
    boundaries.dedup();

    let epochs = boundaries
        .into_iter()
        .map(|start| build_epoch(topo, attachments, outages, switch_kills, start))
        .collect();
    FabricSchedule { epochs }
}

fn build_epoch(
    topo: &Topology,
    attachments: &[Attachment],
    outages: &[TrunkOutage],
    switch_kills: &[(usize, SimTime)],
    start: SimTime,
) -> Epoch {
    let n = topo.switch_count;
    let mut dead = vec![false; n];
    let mut dead_switches = Vec::new();
    for &(s, at) in switch_kills {
        if at <= start && !dead[s] {
            dead[s] = true;
            dead_switches.push(s);
        }
    }
    dead_switches.sort_unstable();
    let mut cut_trunks: Vec<(usize, usize)> = outages
        .iter()
        .filter(|o| o.from <= start && start < o.until)
        .map(|o| (o.a.min(o.b), o.a.max(o.b)))
        .filter(|&(a, b)| topo.has_trunk(a, b))
        .collect();
    cut_trunks.sort_unstable();
    cut_trunks.dedup();

    let live_link = |a: usize, b: usize| -> bool {
        let key = (a.min(b), a.max(b));
        !dead[a] && !dead[b] && cut_trunks.binary_search(&key).is_err()
    };

    let mut tables: Vec<BTreeMap<MacAddr, usize>> = vec![BTreeMap::new(); n];
    let mut max_path_switches = 1usize;

    for dst in attachments {
        if dead[dst.switch] {
            continue; // no switch can reach it; lookups fall to unroutable
        }
        let dist = bfs(topo, dst.switch, &dead, &live_link);
        // Hop-inflation bookkeeping: longest live route from any other
        // attachment's home to this one.
        for src in attachments {
            if src.mac == dst.mac || dead[src.switch] {
                continue;
            }
            if let Some(d) = dist[src.switch] {
                max_path_switches = max_path_switches.max(d + 1);
            }
        }
        for s in 0..n {
            if dead[s] || s == dst.switch {
                continue;
            }
            let Some(ds) = dist[s] else { continue };
            let candidates: Vec<usize> = topo
                .neighbors(s)
                .iter()
                .copied()
                .filter(|&nb| live_link(s, nb) && dist[nb] == Some(ds - 1))
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let pick = match topo.spec {
                FabricSpec::FatTree { .. } => candidates[dst.rank % candidates.len()],
                FabricSpec::Torus3D { .. } => *candidates
                    .iter()
                    .min_by_key(|&&nb| match topo.torus_edge(s, nb) {
                        Some((dim, plus)) => (dim, usize::from(!plus)),
                        None => (usize::MAX, 0),
                    })
                    .expect("non-empty candidate set"),
                FabricSpec::SingleSwitch => candidates[0],
            };
            tables[s].insert(dst.mac, pick);
        }
    }

    let partition =
        detect_partition(topo, attachments, &dead, &live_link).map(|unreachable| PartitionReport {
            unreachable_ranks: unreachable,
            cut_trunks: cut_trunks.clone(),
            dead_switches: dead_switches.clone(),
        });

    Epoch {
        start,
        tables,
        partition,
        max_path_switches,
    }
}

fn bfs(
    topo: &Topology,
    from: usize,
    dead: &[bool],
    live_link: &impl Fn(usize, usize) -> bool,
) -> Vec<Option<usize>> {
    let mut dist = vec![None; topo.switch_count];
    if dead[from] {
        return dist;
    }
    dist[from] = Some(0);
    let mut frontier = vec![from];
    let mut d = 0usize;
    while !frontier.is_empty() {
        d += 1;
        let mut next = Vec::new();
        for &s in &frontier {
            for &nb in topo.neighbors(s) {
                if dist[nb].is_none() && live_link(s, nb) {
                    dist[nb] = Some(d);
                    next.push(nb);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Sorted ranks with no live attachment in the main component (the
/// component holding the lowest surviving rank's first live
/// attachment), or `None` if every rank is reachable.
fn detect_partition(
    topo: &Topology,
    attachments: &[Attachment],
    dead: &[bool],
    live_link: &impl Fn(usize, usize) -> bool,
) -> Option<Vec<usize>> {
    let p = topo.home.len();
    if p == 0 {
        return None;
    }
    // Component labels over live switches.
    let mut comp: Vec<Option<usize>> = vec![None; topo.switch_count];
    let mut next_label = 0usize;
    for s in 0..topo.switch_count {
        if dead[s] || comp[s].is_some() {
            continue;
        }
        let dist = bfs(topo, s, dead, live_link);
        for (t, d) in dist.iter().enumerate() {
            if d.is_some() {
                comp[t] = Some(next_label);
            }
        }
        next_label += 1;
    }
    let live_comps = |rank: usize| -> Vec<usize> {
        let mut cs: Vec<usize> = attachments
            .iter()
            .filter(|a| a.rank == rank && !dead[a.switch])
            .filter_map(|a| comp[a.switch])
            .collect();
        cs.sort_unstable();
        cs.dedup();
        cs
    };
    let reference = (0..p).find_map(|r| live_comps(r).first().copied())?;
    let unreachable: Vec<usize> = (0..p)
        .filter(|&r| !live_comps(r).contains(&reference))
        .collect();
    if unreachable.is_empty() {
        None
    } else {
        Some(unreachable)
    }
}

/// Walk the routed path of `mac` starting at switch `from` under
/// `epoch`'s tables; returns the visited switch sequence, or `None` if
/// a lookup dead-ends. Panics if the walk exceeds `switch_count` hops
/// (a routing loop — forbidden by construction). Test/debug helper.
pub fn walk_path(
    topo: &Topology,
    epoch: &Epoch,
    from: usize,
    mac: MacAddr,
    home: usize,
) -> Option<Vec<usize>> {
    let mut path = vec![from];
    let mut cur = from;
    while cur != home {
        let next = *epoch.tables[cur].get(&mac)?;
        path.push(next);
        assert!(
            path.len() <= topo.switch_count,
            "routing loop for {mac:?}: {path:?}"
        );
        cur = next;
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_sim::SimDuration;

    fn primaries(topo: &Topology) -> Vec<Attachment> {
        topo.home
            .iter()
            .enumerate()
            .map(|(rank, &switch)| Attachment {
                mac: MacAddr::for_node(rank, 0),
                switch,
                rank,
            })
            .collect()
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn clean_fat_tree_routes_every_pair() {
        let topo = FabricSpec::FatTree { k: 4 }.build(16);
        let atts = primaries(&topo);
        let sched = compute_schedule(&topo, &atts, &[], &[]);
        assert_eq!(sched.epochs.len(), 1);
        let e = &sched.epochs[0];
        assert!(e.partition.is_none());
        assert_eq!(e.max_path_switches, 5, "inter-pod: edge-agg-core-agg-edge");
        for dst in &atts {
            for src in &atts {
                if src.rank == dst.rank {
                    continue;
                }
                let path = walk_path(&topo, e, src.switch, dst.mac, dst.switch)
                    .expect("reachable fault-free");
                assert!(path.len() <= 5);
            }
        }
    }

    #[test]
    fn fat_tree_ecmp_spreads_by_rank() {
        let topo = FabricSpec::FatTree { k: 4 }.build(16);
        let atts = primaries(&topo);
        let sched = compute_schedule(&topo, &atts, &[], &[]);
        let t0 = &sched.epochs[0].tables[0]; // edge 0
                                             // Destinations outside pod 0 split across both aggs (8 and 9).
        let ups: std::collections::BTreeSet<usize> = (4..16)
            .map(|r| *t0.get(&MacAddr::for_node(r, 0)).expect("routed"))
            .collect();
        assert_eq!(ups, [8, 9].into_iter().collect());
    }

    #[test]
    fn torus_uses_dimension_order() {
        let topo = FabricSpec::Torus3D { dims: [2, 2, 2] }.build(8);
        let atts = primaries(&topo);
        let sched = compute_schedule(&topo, &atts, &[], &[]);
        let e = &sched.epochs[0];
        // 0 -> 7 (opposite corner): x first, then y, then z.
        let path = walk_path(&topo, e, 0, MacAddr::for_node(7, 0), 7).expect("routed");
        assert_eq!(path, vec![0, 1, 3, 7]);
    }

    #[test]
    fn trunk_outage_reroutes_then_heals() {
        let topo = FabricSpec::Torus3D { dims: [4, 1, 1] }.build(4);
        let atts = primaries(&topo);
        // Cut 0-1 for [10ms, 20ms): 0 -> 1 must detour the long way.
        let out = TrunkOutage {
            a: 0,
            b: 1,
            from: at(10),
            until: at(20),
        };
        let sched = compute_schedule(&topo, &atts, &[out], &[]);
        assert_eq!(sched.epochs.len(), 3);
        let dst = MacAddr::for_node(1, 0);
        assert_eq!(
            walk_path(&topo, sched.epoch_at(SimTime::ZERO), 0, dst, 1).expect("direct"),
            vec![0, 1]
        );
        assert_eq!(
            walk_path(&topo, sched.epoch_at(at(15)), 0, dst, 1).expect("detour"),
            vec![0, 3, 2, 1],
            "ring detour the long way around"
        );
        assert_eq!(
            walk_path(&topo, sched.epoch_at(at(25)), 0, dst, 1).expect("healed"),
            vec![0, 1]
        );
        assert_eq!(sched.max_inflation(), 4);
        assert!(sched.first_partition().is_none());
    }

    #[test]
    fn severed_ring_partitions_with_report() {
        // 4-ring with both links around rank 3 cut: 3 is unreachable.
        let topo = FabricSpec::Torus3D { dims: [4, 1, 1] }.build(4);
        let atts = primaries(&topo);
        let outs = [
            TrunkOutage {
                a: 2,
                b: 3,
                from: at(10),
                until: at(30),
            },
            TrunkOutage {
                a: 3,
                b: 0,
                from: at(10),
                until: at(30),
            },
        ];
        let sched = compute_schedule(&topo, &atts, &outs, &[]);
        let mid = sched.epoch_at(at(15));
        let part = mid.partition.as_ref().expect("partitioned");
        assert_eq!(part.unreachable_ranks, vec![3]);
        assert_eq!(part.cut_trunks, vec![(0, 3), (2, 3)]);
        assert!(part.dead_switches.is_empty());
        assert!(!mid.tables[0].contains_key(&MacAddr::for_node(3, 0)));
        // Healed epoch routes again.
        assert!(sched.epoch_at(at(30)).partition.is_none());
    }

    #[test]
    fn switch_kill_fails_over_ecmp_sibling() {
        let topo = FabricSpec::FatTree { k: 4 }.build(16);
        let atts = primaries(&topo);
        // Kill agg 8 (pod 0) at 5ms: edge 0's uplinks collapse onto agg 9.
        let sched = compute_schedule(&topo, &atts, &[], &[(8, at(5))]);
        let e = sched.epoch_at(at(6));
        for r in 4..16 {
            assert_eq!(
                e.tables[0].get(&MacAddr::for_node(r, 0)),
                Some(&9),
                "rank {r} must fail over to the surviving agg"
            );
        }
        // Intra-pod pairs still reachable; no partition (all ranks still
        // have a live edge switch).
        assert!(e.partition.is_none());
    }

    #[test]
    fn dead_edge_switch_reports_partition() {
        let topo = FabricSpec::FatTree { k: 4 }.build(16);
        let atts = primaries(&topo);
        // Edge 0 seats ranks 0 and 1; killing it severs both.
        let sched = compute_schedule(&topo, &atts, &[], &[(0, at(5))]);
        let e = sched.epoch_at(at(6));
        let part = e.partition.as_ref().expect("partitioned");
        assert_eq!(part.unreachable_ranks, vec![0, 1]);
        assert_eq!(part.dead_switches, vec![0]);
        // With a fallback attachment on another edge, the same ranks
        // stay reachable.
        let mut with_fb = atts.clone();
        with_fb.push(Attachment {
            mac: MacAddr::for_node(0, 1),
            switch: topo.fallback_home(0),
            rank: 0,
        });
        with_fb.push(Attachment {
            mac: MacAddr::for_node(1, 1),
            switch: topo.fallback_home(1),
            rank: 1,
        });
        let sched = compute_schedule(&topo, &with_fb, &[], &[(0, at(5))]);
        assert!(sched.epoch_at(at(6)).partition.is_none());
    }

    #[test]
    fn tables_identical_across_rebuilds() {
        let topo = FabricSpec::FatTree { k: 4 }.build(16);
        let atts = primaries(&topo);
        let kills = [(8usize, at(5))];
        let a = compute_schedule(&topo, &atts, &[], &kills);
        let b = compute_schedule(&topo, &atts, &[], &kills);
        assert_eq!(a, b);
    }
}
