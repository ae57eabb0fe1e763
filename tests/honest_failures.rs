//! Honest-failure tests: the resource models must *reject* scenarios
//! the real hardware could not run, rather than silently producing
//! numbers for them.

use acc::core::cluster::{ClusterSpec, Technology};
use acc::core::RunRequest;

#[test]
#[should_panic(expected = "card memory exhausted")]
fn prototype_card_rejects_partitions_beyond_its_memory() {
    // 1024×1024 complex doubles at P=2 needs an 8 MiB receive slab per
    // card; the ACEII model carries 4 MiB. A real deployment would have
    // to shrink the problem or add nodes — the simulator must say so,
    // not fake a timing.
    let mut spec = ClusterSpec::new(2, Technology::InicPrototype);
    spec.verify = false;
    RunRequest::fft(spec, 1024).execute().into_fft();
}

#[test]
fn ideal_card_handles_the_same_partition() {
    // Same scenario on the next-generation card (64 MiB) is fine.
    let mut spec = ClusterSpec::new(2, Technology::InicIdeal);
    spec.verify = false;
    let r = RunRequest::fft(spec, 1024).execute().into_fft();
    assert!(r.total.as_millis_f64() > 0.0);
}

#[test]
#[should_panic(expected = "P must divide rows")]
fn fft_rejects_indivisible_node_counts() {
    RunRequest::fft(ClusterSpec::new(3, Technology::GigabitTcp), 64)
        .execute()
        .into_fft();
}

#[test]
#[should_panic(expected = "power of two")]
fn fft_rejects_non_power_of_two_matrices() {
    RunRequest::fft(ClusterSpec::new(2, Technology::GigabitTcp), 96)
        .execute()
        .into_fft();
}
