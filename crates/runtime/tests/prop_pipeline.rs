//! Property-based tests of the threaded pipeline: for arbitrary frame
//! counts, payload sizes, worker counts and batch sizes, the parallel
//! pipeline must emit exactly the serial result.

use mflow_runtime::{
    generate_frames, process_parallel, process_serial, BackpressurePolicy, RuntimeConfig,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_equals_serial(
        n in 1usize..1200,
        payload in 0usize..800,
        workers in 1usize..6,
        batch in 1usize..512,
        depth in 1usize..8,
    ) {
        let frames = generate_frames(n, payload);
        let serial = process_serial(&frames);
        let parallel = process_parallel(
            &frames,
            &RuntimeConfig {
                workers,
                batch_size: batch,
                queue_depth: depth,
                ..RuntimeConfig::default()
            },
        ).unwrap();
        prop_assert_eq!(serial.digests, parallel.digests);
    }

    #[test]
    fn every_sequence_number_appears_exactly_once(
        n in 1usize..1500,
        workers in 2usize..5,
        batch in 1usize..64,
    ) {
        let frames = generate_frames(n, 32);
        let out = process_parallel(
            &frames,
            &RuntimeConfig {
                workers,
                batch_size: batch,
                queue_depth: 4,
                ..RuntimeConfig::default()
            },
        ).unwrap();
        prop_assert_eq!(out.digests.len(), n);
        for (i, r) in out.digests.iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64, "wrong seq at position {}", i);
        }
    }

    #[test]
    fn lossless_policies_stay_exact_at_any_watermark(
        n in 1usize..900,
        workers in 1usize..4,
        batch in 1usize..64,
        depth in 1usize..5,
        watermark in 1usize..5,
        policy_sel in 0usize..2,
    ) {
        // Block and Inline never lose packets, whatever the watermark
        // does — the output must equal the serial run bit for bit.
        let frames = generate_frames(n, 32);
        let serial = process_serial(&frames);
        let out = process_parallel(
            &frames,
            &RuntimeConfig {
                workers,
                batch_size: batch,
                queue_depth: depth,
                backpressure: if policy_sel == 1 {
                    BackpressurePolicy::Inline
                } else {
                    BackpressurePolicy::Block
                },
                high_watermark: Some(watermark.min(depth)),
                inline_fallback: false,
                ..RuntimeConfig::default()
            },
        ).unwrap();
        prop_assert_eq!(serial.digests, out.digests);
        prop_assert_eq!(out.telemetry.shed, 0);
    }

    #[test]
    fn ring_transport_honours_any_valid_merger_depth(
        n in 1usize..600,
        workers in 1usize..4,
        batch in 1usize..48,
        depth_exp in 0u32..10,
    ) {
        // merger_depth sweeps the powers of two from 1 to 512: tiny
        // rings force producer-side waiting, large ones free-run; output
        // must be exact either way.
        let frames = generate_frames(n, 32);
        let serial = process_serial(&frames);
        let out = process_parallel(
            &frames,
            &RuntimeConfig {
                workers,
                batch_size: batch,
                queue_depth: 2,
                merger_depth: 1usize << depth_exp,
                ..RuntimeConfig::default()
            },
        ).unwrap();
        prop_assert_eq!(serial.digests, out.digests);
    }
}
