//! Shared helpers for the cross-crate integration tests.

use mflow_netstack::{NoiseConfig, StackConfig};
use mflow_runtime::PacketResult;
use mflow_sim::MS;

/// Shortens and de-noises a config for CI-speed integration runs.
pub fn quick(mut cfg: StackConfig) -> StackConfig {
    cfg.noise = NoiseConfig::off();
    cfg.duration_ns = 16 * MS;
    cfg.warmup_ns = 5 * MS;
    cfg
}

/// Relative comparison helper: `a` within `tol` (fractional) of `b`.
pub fn within(a: f64, b: f64, tol: f64) -> bool {
    if b == 0.0 {
        return a == 0.0;
    }
    (a / b - 1.0).abs() <= tol
}

/// Asserts a runtime output stream is strictly increasing in `seq`: in
/// order and duplicate-free. `ctx` names the scenario in the failure.
#[track_caller]
pub fn assert_strictly_increasing(digests: &[PacketResult], ctx: &str) {
    for pair in digests.windows(2) {
        assert!(
            pair[0].seq < pair[1].seq,
            "{ctx}: inversion or duplicate at seq {} -> {}",
            pair[0].seq,
            pair[1].seq
        );
    }
}

/// SplitMix64 over one key: deterministic, order-independent draws for
/// seed-driven test generators.
pub fn splitmix(seed: u64, k: u64) -> u64 {
    let mut x = seed
        .wrapping_add(k)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
