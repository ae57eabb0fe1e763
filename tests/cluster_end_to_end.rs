//! Cross-crate integration: full cluster runs on every technology, with
//! results verified against serial oracles (`RunRequest::execute`
//! panics internally on any mismatch) and the paper's qualitative
//! orderings asserted.

use acc::core::cluster::{
    ClusterSpec, KeyDistribution, PartitionStrategy, SortRunResult, Technology,
};
use acc::core::{RunRequest, Workload};

/// The integer sort with an explicit key distribution and partitioning.
fn sort_with(
    spec: ClusterSpec,
    total_keys: u64,
    distribution: KeyDistribution,
    strategy: PartitionStrategy,
) -> SortRunResult {
    let workload = Workload::Sort {
        total_keys,
        distribution,
        strategy,
    };
    RunRequest { spec, workload }.execute().into_sort()
}

#[test]
fn fft_verifies_on_every_technology() {
    for tech in Technology::ALL {
        let r = RunRequest::fft(ClusterSpec::new(4, tech), 64)
            .execute()
            .into_fft();
        assert!(r.verified, "{}", tech.label());
        assert!(r.total >= r.compute, "{}", tech.label());
    }
}

#[test]
fn fft_verifies_across_processor_counts() {
    for p in [1usize, 2, 4, 8] {
        for tech in [Technology::GigabitTcp, Technology::InicIdeal] {
            let r = RunRequest::fft(ClusterSpec::new(p, tech), 64)
                .execute()
                .into_fft();
            assert!(r.verified, "p={p} {}", tech.label());
        }
    }
}

#[test]
fn fft_transpose_ordering_matches_the_paper() {
    // Fig. 8(a)'s story at one operating point: INIC ideal beats the
    // prototype beats Gigabit TCP beats Fast Ethernet.
    let p = 8;
    let rows = 256;
    let t = |tech| {
        RunRequest::fft(ClusterSpec::new(p, tech), rows)
            .execute()
            .into_fft()
            .transpose
    };
    let ideal = t(Technology::InicIdeal);
    let proto = t(Technology::InicPrototype);
    let gige = t(Technology::GigabitTcp);
    let fast = t(Technology::FastEthernet);
    assert!(ideal < proto, "ideal {ideal} !< prototype {proto}");
    assert!(proto < gige, "prototype {proto} !< gigabit {gige}");
    assert!(gige < fast, "gigabit {gige} !< fast {fast}");
}

#[test]
fn fft_inic_runs_never_drop_frames() {
    // The INIC protocol's loss-freedom invariant (`execute` also
    // asserts it internally; this documents it at the API level).
    for tech in [Technology::InicIdeal, Technology::InicPrototype] {
        let r = RunRequest::fft(ClusterSpec::new(8, tech), 128)
            .execute()
            .into_fft();
        assert_eq!(r.switch_drops, 0, "{}", tech.label());
    }
}

#[test]
fn sort_verifies_on_every_technology() {
    for tech in Technology::ALL {
        let r = RunRequest::sort(ClusterSpec::new(4, tech), 1 << 16)
            .execute()
            .into_sort();
        assert!(r.verified, "{}", tech.label());
    }
}

#[test]
fn sort_verifies_across_processor_counts() {
    for p in [1usize, 2, 4, 8] {
        for tech in [
            Technology::GigabitTcp,
            Technology::InicIdeal,
            Technology::InicPrototype,
        ] {
            let r = RunRequest::sort(ClusterSpec::new(p, tech), 1 << 16)
                .execute()
                .into_sort();
            assert!(r.verified, "p={p} {}", tech.label());
        }
    }
}

#[test]
fn inic_absorbs_the_bucket_sorts() {
    // Section 3.2.2: both bucket sorts run on the card; host bucket time
    // must be zero on the ideal INIC, and only phase 2 returns on the
    // prototype (Fig. 7).
    let total = 1u64 << 18;
    let ideal = RunRequest::sort(ClusterSpec::new(4, Technology::InicIdeal), total)
        .execute()
        .into_sort();
    assert!(ideal.bucket1.is_zero() && ideal.bucket2.is_zero());
    let proto = RunRequest::sort(ClusterSpec::new(4, Technology::InicPrototype), total)
        .execute()
        .into_sort();
    assert!(proto.bucket1.is_zero());
    assert!(!proto.bucket2.is_zero(), "prototype host must re-bucket");
    let gige = RunRequest::sort(ClusterSpec::new(4, Technology::GigabitTcp), total)
        .execute()
        .into_sort();
    assert!(!gige.bucket1.is_zero() && !gige.bucket2.is_zero());
}

#[test]
fn sort_total_ordering_matches_the_paper() {
    // Fig. 8(b)'s story: ideal INIC < prototype ≤ Gigabit; prototype
    // still beats Gigabit ("the partial bucket sort can improve memory
    // access patterns enough for a performance improvement").
    let total = 1u64 << 20;
    let t = |tech| {
        RunRequest::sort(ClusterSpec::new(8, tech), total)
            .execute()
            .into_sort()
            .total
    };
    let ideal = t(Technology::InicIdeal);
    let proto = t(Technology::InicPrototype);
    let gige = t(Technology::GigabitTcp);
    assert!(ideal < proto, "ideal {ideal} !< prototype {proto}");
    assert!(proto < gige, "prototype {proto} !< gigabit {gige}");
}

#[test]
fn count_sort_time_is_technology_independent() {
    // Section 4.2: "T_countsort … is the same for any of our
    // implementations".
    let total = 1u64 << 18;
    let counts: Vec<_> = Technology::ALL
        .iter()
        .map(|&tech| {
            RunRequest::sort(ClusterSpec::new(4, tech), total)
                .execute()
                .into_sort()
                .count
        })
        .collect();
    for w in counts.windows(2) {
        let a = w[0].as_secs_f64();
        let b = w[1].as_secs_f64();
        assert!((a - b).abs() < 0.05 * a.max(b), "{a} vs {b}");
    }
}

#[test]
fn protocol_offload_alone_is_not_enough() {
    // Section 2's central claim: RC and the NIC "enable each other".
    // An INIC used purely as a protocol processor (no datapath
    // operators) must not recover the combined mode's win while the
    // partitions are DRAM-resident.
    // 512² at P=8 keeps the 512 KiB partitions DRAM-resident, where the
    // host's transpose memory passes are expensive. (At small, cache-
    // resident partitions protocol-only can tie or win — the host passes
    // become nearly free; the ablation binary shows both regimes.)
    let p = 8;
    let fft_proto = RunRequest::fft(ClusterSpec::new(p, Technology::InicProtocol), 512)
        .execute()
        .into_fft();
    let fft_comb = RunRequest::fft(ClusterSpec::new(p, Technology::InicIdeal), 512)
        .execute()
        .into_fft();
    assert!(fft_proto.verified && fft_comb.verified);
    assert!(
        fft_comb.total < fft_proto.total,
        "combined {:?} must beat protocol-only {:?}",
        fft_comb.total,
        fft_proto.total
    );
    // Protocol-only keeps the host memory passes; combined absorbs them.
    assert!(fft_comb.transpose_compute.is_zero());
    assert!(!fft_proto.transpose_compute.is_zero());

    let total = 1u64 << 20;
    let sort_tcp = RunRequest::sort(ClusterSpec::new(p, Technology::GigabitTcp), total)
        .execute()
        .into_sort();
    let sort_proto = RunRequest::sort(ClusterSpec::new(p, Technology::InicProtocol), total)
        .execute()
        .into_sort();
    let sort_comb = RunRequest::sort(ClusterSpec::new(p, Technology::InicIdeal), total)
        .execute()
        .into_sort();
    assert!(sort_proto.verified && sort_comb.verified);
    assert!(sort_comb.total < sort_proto.total);
    assert!(sort_proto.total < sort_tcp.total);
    // Protocol-only still pays both host bucket passes.
    assert!(!sort_proto.bucket1.is_zero() && !sort_proto.bucket2.is_zero());
}

#[test]
fn inic_eliminates_protocol_cpu_and_almost_all_interrupts() {
    // Section 4.1's "virtual elimination of interrupts": the commodity
    // path takes hundreds of receive interrupts and burns host CPU on
    // the stack; the INIC path takes exactly one completion interrupt
    // per node per transpose and zero protocol CPU.
    let p = 8;
    let gige = RunRequest::fft(ClusterSpec::new(p, Technology::GigabitTcp), 256)
        .execute()
        .into_fft();
    let inic = RunRequest::fft(ClusterSpec::new(p, Technology::InicIdeal), 256)
        .execute()
        .into_fft();
    assert!(!gige.protocol_cpu.is_zero());
    assert!(
        gige.interrupts > 100,
        "gige took {} interrupts",
        gige.interrupts
    );
    assert!(inic.protocol_cpu.is_zero());
    // Two transposes × P nodes × one completion interrupt.
    assert_eq!(inic.interrupts, 2 * p as u64);
    assert!(gige.interrupts > 10 * inic.interrupts);
}

#[test]
fn skewed_keys_stay_correct_and_splitters_restore_balance() {
    // The paper's uniform-key assumption, stress-tested: Gaussian keys
    // under top-bits partitioning still sort correctly (the INIC credit
    // flow control absorbs the incast at the hot ranks), but the
    // makespan degrades; sampled splitters — the pre-sort sampling the
    // paper recommends — recover it.
    let p = 8;
    let total = 1u64 << 20;
    let skewed = sort_with(
        ClusterSpec::new(p, Technology::InicIdeal),
        total,
        KeyDistribution::Gaussian,
        PartitionStrategy::TopBits,
    );
    assert!(skewed.verified);
    let balanced = sort_with(
        ClusterSpec::new(p, Technology::InicIdeal),
        total,
        KeyDistribution::Gaussian,
        PartitionStrategy::SampledSplitters,
    );
    assert!(balanced.verified);
    assert!(
        balanced.total.as_secs_f64() < 0.7 * skewed.total.as_secs_f64(),
        "splitters {:?} should clearly beat top-bits {:?} on skewed keys",
        balanced.total,
        skewed.total
    );
    // And on uniform keys, splitters cost (almost) nothing.
    let uniform_split = sort_with(
        ClusterSpec::new(p, Technology::InicIdeal),
        total,
        KeyDistribution::Uniform,
        PartitionStrategy::SampledSplitters,
    );
    let uniform_top = RunRequest::sort(ClusterSpec::new(p, Technology::InicIdeal), total)
        .execute()
        .into_sort();
    assert!(uniform_split.verified);
    let ratio = uniform_split.total.as_secs_f64() / uniform_top.total.as_secs_f64();
    assert!(
        ratio < 1.25,
        "splitter overhead on uniform keys: {ratio:.2}x"
    );
}

#[test]
fn skewed_keys_work_over_tcp_too() {
    let r = sort_with(
        ClusterSpec::new(4, Technology::GigabitTcp),
        1 << 18,
        KeyDistribution::Gaussian,
        PartitionStrategy::SampledSplitters,
    );
    assert!(r.verified);
}

#[test]
fn runs_are_reproducible() {
    let spec = ClusterSpec::new(4, Technology::GigabitTcp);
    let a = RunRequest::fft(spec.clone(), 64).execute().into_fft();
    let b = RunRequest::fft(spec.clone(), 64).execute().into_fft();
    assert_eq!(a.total, b.total);
    assert_eq!(a.transpose, b.transpose);
    let c = RunRequest::sort(spec.clone(), 1 << 16)
        .execute()
        .into_sort();
    let d = RunRequest::sort(spec, 1 << 16).execute().into_sort();
    assert_eq!(c.total, d.total);
}

#[test]
fn seed_changes_workload_but_not_correctness() {
    for seed in [1u64, 99, 0xDEAD] {
        let mut spec = ClusterSpec::new(4, Technology::InicIdeal);
        spec.seed = seed;
        assert!(
            RunRequest::sort(spec.clone(), 1 << 16)
                .execute()
                .into_sort()
                .verified
        );
        assert!(RunRequest::fft(spec, 64).execute().into_fft().verified);
    }
}
