//! Parallel-sweep determinism: running sweep points concurrently must not
//! change a single byte of the artifacts.
//!
//! The four sweeps whose cells report only *simulated* time measure them
//! on a scoped thread pool and reassemble them in grid order; each cell is
//! an independent simulation fully determined by its inputs (and, for
//! robustness and soak, the fault seed). These tests serialize the
//! two-worker and `rayon::force_sequential` sweeps and compare the JSON
//! byte-for-byte. (`planner_scale` and `fleet` carry wall-clock columns
//! and run their cells one at a time: there is no pool to compare.)

use experiments::{latency_sweep, robustness, scaling, soak};

#[test]
fn robustness_sweep_is_byte_identical_to_sequential() {
    let par = rayon::with_threads(2, || robustness::sweep(true, robustness::DEFAULT_SEED));
    let seq = rayon::force_sequential(|| robustness::sweep(true, robustness::DEFAULT_SEED));
    assert_eq!(
        serde_json::to_string_pretty(&par).unwrap(),
        serde_json::to_string_pretty(&seq).unwrap(),
        "parallel robustness sweep diverged from the sequential artifact"
    );
}

#[test]
fn scaling_sweep_is_byte_identical_to_sequential() {
    let par = rayon::with_threads(2, || scaling::sweep(true));
    let seq = rayon::force_sequential(|| scaling::sweep(true));
    assert_eq!(
        serde_json::to_string_pretty(&par).unwrap(),
        serde_json::to_string_pretty(&seq).unwrap(),
        "parallel scaling sweep diverged from the sequential artifact"
    );
}

#[test]
fn latency_sweep_is_byte_identical_to_sequential() {
    let par = rayon::with_threads(2, || latency_sweep::sweep(true));
    let seq = rayon::force_sequential(|| latency_sweep::sweep(true));
    assert_eq!(
        serde_json::to_string_pretty(&par).unwrap(),
        serde_json::to_string_pretty(&seq).unwrap(),
        "parallel latency sweep diverged from the sequential artifact"
    );
}

#[test]
fn soak_sweep_is_byte_identical_to_sequential() {
    let par = rayon::with_threads(2, || soak::sweep(true, soak::DEFAULT_SEED));
    let seq = rayon::force_sequential(|| soak::sweep(true, soak::DEFAULT_SEED));
    assert_eq!(
        serde_json::to_string_pretty(&par).unwrap(),
        serde_json::to_string_pretty(&seq).unwrap(),
        "parallel soak sweep diverged from the sequential artifact"
    );
}
