//! End-to-end AllReduce (collective-operations extension) tests.

use acc::core::cluster::{ClusterSpec, Technology};
use acc::core::RunRequest;

#[test]
fn allreduce_verifies_on_every_technology() {
    // All five, including the protocol-only INIC mode: the engine's
    // schedules run the raw-gather/unicast-scatter path there, with the
    // fold on the host.
    for tech in Technology::ALL {
        let r = RunRequest::allreduce(ClusterSpec::new(4, tech), 10_000)
            .execute()
            .into_reduce();
        assert!(r.verified, "{}", tech.label());
    }
}

#[test]
fn allreduce_across_processor_counts() {
    for p in [1usize, 2, 4, 8, 16] {
        for tech in [Technology::GigabitTcp, Technology::InicIdeal] {
            let r = RunRequest::allreduce(ClusterSpec::new(p, tech), 4096)
                .execute()
                .into_reduce();
            assert!(r.verified, "p={p} {}", tech.label());
        }
    }
}

#[test]
fn inic_allreduce_eliminates_host_reduction() {
    let elems = 100_000;
    let inic = RunRequest::allreduce(ClusterSpec::new(8, Technology::InicIdeal), elems)
        .execute()
        .into_reduce();
    assert!(inic.compute.is_zero(), "card must absorb the arithmetic");
    let tcp = RunRequest::allreduce(ClusterSpec::new(8, Technology::GigabitTcp), elems)
        .execute()
        .into_reduce();
    assert!(!tcp.compute.is_zero());
    assert!(
        inic.total < tcp.total,
        "INIC {:?} should beat TCP {:?}",
        inic.total,
        tcp.total
    );
}

#[test]
fn allreduce_is_deterministic() {
    let a = RunRequest::allreduce(ClusterSpec::new(4, Technology::InicIdeal), 50_000)
        .execute()
        .into_reduce();
    let b = RunRequest::allreduce(ClusterSpec::new(4, Technology::InicIdeal), 50_000)
        .execute()
        .into_reduce();
    assert_eq!(a.total, b.total);
}
