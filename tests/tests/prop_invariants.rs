//! Property-based invariants across the crates: the reassembler never
//! loses, duplicates or reorders under arbitrary adversarial arrival
//! interleavings, and the simulator conserves packets for arbitrary
//! configurations.

use integration_tests::splitmix;
use mflow::{MergeCounter, MfTag, Offer};
use proptest::prelude::*;

/// Tags `n` items into micro-flows of size `batch` over `lanes` lanes.
fn tag(n: u64, batch: u64, lanes: usize) -> Vec<(MfTag, u64)> {
    (0..n)
        .map(|i| {
            let id = i / batch;
            (
                MfTag {
                    id,
                    lane: (id as usize) % lanes,
                    last: i % batch == batch - 1 || i == n - 1,
                },
                i,
            )
        })
        .collect()
}

/// Interleaves the lanes in an arbitrary (seeded) way while preserving
/// per-lane FIFO order — the only ordering the hardware guarantees.
fn lane_preserving_shuffle(stream: Vec<(MfTag, u64)>, lanes: usize, seed: u64) -> Vec<(MfTag, u64)> {
    let mut queues: Vec<std::collections::VecDeque<(MfTag, u64)>> =
        vec![std::collections::VecDeque::new(); lanes];
    for (tag, v) in stream {
        queues[tag.lane].push_back((tag, v));
    }
    let mut out = Vec::new();
    let mut s = seed | 1;
    loop {
        let nonempty: Vec<usize> = (0..lanes).filter(|&l| !queues[l].is_empty()).collect();
        if nonempty.is_empty() {
            break;
        }
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let pick = nonempty[(s >> 33) as usize % nonempty.len()];
        out.push(queues[pick].pop_front().unwrap());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_counter_restores_order_under_any_interleaving(
        n in 1u64..3000,
        batch in 1u64..512,
        lanes in 1usize..6,
        seed in any::<u64>(),
    ) {
        let stream = lane_preserving_shuffle(tag(n, batch, lanes), lanes, seed);
        let mut mc = MergeCounter::new();
        let mut out = Vec::with_capacity(n as usize);
        for (t, v) in stream {
            mc.offer(t, v, &mut out);
        }
        prop_assert_eq!(out, (0..n).collect::<Vec<_>>());
        prop_assert_eq!(mc.buffered(), 0);
        prop_assert_eq!(mc.released(), n);
    }

    #[test]
    fn merge_counter_never_loses_items_even_when_incomplete(
        n in 10u64..1000,
        batch in 2u64..128,
        lanes in 2usize..5,
        drop_from in 0.2f64..0.9,
        seed in any::<u64>(),
    ) {
        // Truncate the stream mid-flight (e.g. end of a run): released +
        // buffered must always equal offered, and released items are a
        // prefix of the original order.
        let full = lane_preserving_shuffle(tag(n, batch, lanes), lanes, seed);
        let keep = ((full.len() as f64) * drop_from) as usize;
        let mut mc = MergeCounter::new();
        let mut out = Vec::new();
        for (t, v) in full.into_iter().take(keep) {
            mc.offer(t, v, &mut out);
        }
        prop_assert_eq!(out.len() + mc.buffered(), keep);
        for (i, pair) in out.windows(2).enumerate() {
            prop_assert!(pair[0] < pair[1], "inversion at {i}");
        }
        let buffered = mc.drain_all();
        prop_assert_eq!(buffered.len() + out.len(), keep);
    }

    #[test]
    fn faulted_merge_output_is_an_ordered_dupfree_accounted_subsequence(
        n in 10u64..2000,
        batch in 1u64..128,
        lanes in 1usize..5,
        deadline in 1u64..64,
        drop_millis in 0u64..300,
        dup_millis in 0u64..300,
        seed in any::<u64>(),
    ) {
        // Arbitrary loss + duplication against a flush-deadline merger:
        // the output must stay strictly ordered and duplicate-free, and
        // every missing item must be accounted for — either dropped at
        // injection or a member of a flushed micro-flow.
        let stream = lane_preserving_shuffle(tag(n, batch, lanes), lanes, seed);
        // Duplicate some micro-flows wholesale, each copy under a tag of
        // its own, appended behind the stream (the shape redispatch
        // produces).
        let mut dup_tail: Vec<(MfTag, u64)> = Vec::new();
        let mut next_recovery = lanes;
        let n_mfs = n.div_ceil(batch);
        for id in 0..n_mfs {
            if splitmix(seed ^ 0xD0B1, id) % 1000 < dup_millis {
                let lane = next_recovery;
                next_recovery += 1;
                dup_tail.extend(
                    stream
                        .iter()
                        .filter(|(t, _)| t.id == id)
                        .map(|&(t, v)| (MfTag { lane, ..t }, v)),
                );
            }
        }
        let mut mc = MergeCounter::with_flush_deadline(deadline);
        let mut out = Vec::new();
        let mut dropped = std::collections::BTreeSet::new();
        let mut offered = 0u64;
        for (t, v) in stream.into_iter().chain(dup_tail) {
            if splitmix(seed ^ 0xD709, v) % 1000 < drop_millis {
                dropped.insert(v);
                continue;
            }
            offered += 1;
            mc.offer(t, v, &mut out);
        }
        mc.flush_stalled(&mut out);
        // Flush releases every parked item: nothing stays buffered.
        prop_assert_eq!(mc.buffered(), 0);
        // Full accounting: every offer was released, rejected late, or
        // rejected duplicate.
        prop_assert_eq!(
            out.len() as u64 + mc.late_drops() + mc.dup_drops(),
            offered
        );
        // Ordered and duplicate-free.
        for pair in out.windows(2) {
            prop_assert!(pair[0] < pair[1], "inversion or duplicate: {:?}", pair);
        }
        // Every missing item is accounted for.
        let present: std::collections::BTreeSet<u64> = out.iter().copied().collect();
        for v in 0..n {
            if !present.contains(&v) {
                let mf = v / batch;
                prop_assert!(
                    dropped.contains(&v) || mc.flushed_ids().contains(&mf),
                    "item {v} vanished without being dropped or flushed (mf {mf})"
                );
            }
        }
    }

    #[test]
    fn flush_stalled_releases_every_parked_item_for_any_prefix(
        n in 10u64..1500,
        batch in 2u64..128,
        lanes in 2usize..5,
        keep_frac in 0.1f64..0.95,
        seed in any::<u64>(),
    ) {
        // Cut the stream at an arbitrary point (a crashed run): the
        // end-of-stream flush must release every parked item, in order,
        // with the skipped micro-flows reported.
        let full = lane_preserving_shuffle(tag(n, batch, lanes), lanes, seed);
        let keep = (((full.len() as f64) * keep_frac) as usize).max(1);
        let mut mc = MergeCounter::new();
        let mut out = Vec::new();
        for (t, v) in full.into_iter().take(keep) {
            mc.offer(t, v, &mut out);
        }
        let parked = mc.buffered();
        mc.flush_stalled(&mut out);
        prop_assert_eq!(mc.buffered(), 0, "flush left items parked");
        prop_assert_eq!(out.len(), keep, "offered {} released {}", keep, out.len());
        for pair in out.windows(2) {
            prop_assert!(pair[0] < pair[1]);
        }
        // If anything was parked, the flush must have skipped some ID.
        if parked > 0 {
            prop_assert!(mc.flushed() > 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn offer_run_is_the_per_item_loop(
        steps in 1u64..120,
        lanes in 1usize..5,
        deadline in 0u64..10,
        seed in any::<u64>(),
    ) {
        // An adversarial interleaving of runs over lanes: runs in turn,
        // runs ahead of the counter, ids the counter already passed,
        // copies on another lane, unclosed runs, continuations of an open
        // micro-flow and empty runs — with and without a flush deadline
        // that can fire part-way through a run. After every run, the
        // counter fed whole runs and the one fed item by item must be
        // indistinguishable.
        let new = || match deadline {
            0 => MergeCounter::new(),
            d => MergeCounter::with_flush_deadline(d),
        };
        let (mut by_run, mut by_item) = (new(), new());
        let (mut run_out, mut item_out) = (Vec::new(), Vec::new());
        let mut next_item = 0u64;
        for step in 0..steps {
            let draw = |salt: u64| splitmix(seed ^ salt, step);
            let id = match draw(1) % 4 {
                0 => by_run.counter(),
                1 => by_run.counter() + 1 + draw(2) % 4,
                _ => draw(2) % 12,
            };
            let lane = (draw(3) % lanes as u64) as usize;
            let closed = draw(4) % 4 != 0;
            let len = draw(5) % 6;
            let items: Vec<u64> = (next_item..next_item + len).collect();
            next_item += len;

            by_run.offer_run(id, lane, closed, items.iter().copied(), &mut run_out);
            for (k, &item) in items.iter().enumerate() {
                let last = closed && k + 1 == items.len();
                by_item.offer(MfTag { id, lane, last }, item, &mut item_out);
            }
            prop_assert_eq!(&run_out, &item_out, "out diverged at step {}", step);
            prop_assert_eq!(by_run.stats(), by_item.stats(), "stats diverged at step {}", step);
            prop_assert_eq!(by_run.counter(), by_item.counter());
            prop_assert_eq!(by_run.flushed_ids(), by_item.flushed_ids());
            prop_assert_eq!(by_run.approx_bytes(), by_item.approx_bytes());
            // And nothing unobservable (the stall clock, parked tags)
            // differs either, or a later step would tell.
            prop_assert_eq!(format!("{by_run:?}"), format!("{by_item:?}"));
        }
        by_run.flush_stalled(&mut run_out);
        by_item.flush_stalled(&mut item_out);
        prop_assert_eq!(run_out, item_out);
        prop_assert_eq!(by_run.stats(), by_item.stats());
    }

    #[test]
    fn whole_runs_in_any_order_with_extra_copies_deliver_the_stream(
        n in 1u64..3000,
        batch in 1u64..128,
        copy_millis in 0u64..500,
        seed in any::<u64>(),
    ) {
        // The stream's closed runs (the primary copies, tag 0), plus
        // extra copies of some of them under tags of their own, in any
        // order at all: no lane order is kept. The first copy of each
        // micro-flow to arrive is delivered, whichever it is, and every
        // later one is rejected whole, as a duplicate while its
        // micro-flow is still in the window and as late once the counter
        // has passed it.
        let items: Vec<u64> = (0..n).collect();
        let mut stream: Vec<(u64, usize, &[u64])> = items
            .chunks(batch as usize)
            .zip(0u64..)
            .map(|(run, id)| (id, 0, run))
            .collect();
        let runs = stream.len();
        for k in 0..runs {
            if splitmix(seed ^ 0xC0B1, k as u64) % 1000 < copy_millis {
                let (id, _, run) = stream[k];
                stream.push((id, stream.len(), run));
            }
        }
        for i in (1..stream.len()).rev() {
            let j = splitmix(seed ^ 0x5EED, i as u64) % (i as u64 + 1);
            stream.swap(i, j as usize);
        }
        let mut mc = MergeCounter::new();
        let mut out = Vec::with_capacity(n as usize);
        let mut seen = std::collections::BTreeSet::new();
        let mut extra_items = 0;
        for &(id, tag, run) in &stream {
            let fate = mc.offer_run(id, tag, true, run.iter().copied(), &mut out);
            if seen.insert(id) {
                prop_assert_eq!(fate, Offer::Accepted, "first copy of mf {}", id);
            } else {
                prop_assert!(fate != Offer::Accepted, "second copy of mf {} accepted", id);
                extra_items += run.len() as u64;
            }
        }
        prop_assert_eq!(out, items);
        prop_assert_eq!(mc.late_drops() + mc.dup_drops(), extra_items);
        prop_assert_eq!((mc.buffered(), mc.flushed(), mc.counter()), (0, 0, runs as u64));
    }
}

mod backpressure_accounting {
    use super::*;
    use integration_tests::{cell, CELLS};
    use mflow_runtime::{
        generate_frames, BackpressurePolicy, LaneStall, PolicyKind, RuntimeConfig, RuntimeFaults,
    };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn shed_plus_delivered_plus_flushed_equals_offered_under_every_policy(
            n in 50usize..600,
            workers in 2usize..5,
            batch in 1usize..48,
            depth in 1usize..4,
            watermark in 1usize..4,
            cell_ix in 0usize..CELLS,
        ) {
            // Pressure a lane with a sustained stall and check the
            // conservation law of the overload model: every offered
            // packet ends up delivered, shed (whole micro-flows, with a
            // lane attributed), or inside a flushed micro-flow — under
            // Block, DropTail and Inline alike, over every steering policy
            // (pinned, chained, or splitting) and both stateful modes.
            // `Cell::run` checks the law; what follows is this suite's.
            let frames = generate_frames(n, 32);
            let cell = cell(
                RuntimeConfig {
                    workers,
                    batch_size: batch,
                    queue_depth: depth,
                    backpressure: BackpressurePolicy::DropTail { budget: u64::MAX },
                    high_watermark: Some(watermark.min(depth)),
                    inline_fallback: false,
                    ..RuntimeConfig::default()
                },
                cell_ix,
            );
            let (policy, steering) = (cell.cfg.backpressure, cell.cfg.policy);
            let mut faults = RuntimeFaults::none();
            faults.lane_stall = Some(LaneStall { worker: 0, ms: 1 });
            faults.flush_timeout_ms = Some(100);
            let out = cell.run(&frames, &faults);

            // Nothing but shedding removes a packet here.
            prop_assert_eq!(
                out.digests.len() as u64 + out.telemetry.shed,
                n as u64,
                "delivered + shed != offered"
            );
            // Lossless policies must not shed, period.
            if !matches!(policy, BackpressurePolicy::DropTail { .. }) {
                prop_assert_eq!(out.telemetry.shed, 0);
                prop_assert_eq!(out.digests.len(), n);
            }
            for &(_, lane) in &out.sheds {
                prop_assert!(lane < workers, "shed attributed to non-primary lane {}", lane);
            }
            // Non-splitting policies never interleave one flow across
            // lanes on the primary path; any merge-input disorder must
            // come from recovery/inline lanes, which only exist when the
            // run could shed or go inline.
            if steering != PolicyKind::Mflow
                && matches!(policy, BackpressurePolicy::Block)
            {
                prop_assert_eq!(out.telemetry.ooo, 0, "pinned policy raced at merge");
            }
        }
    }
}

mod sim_conservation {
    use super::*;
    use integration_tests::quick;
    use mflow::{try_install, MflowConfig};
    use mflow_netstack::{FlowSpec, PathKind, StackConfig, StackSim};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn tcp_runs_never_lose_data_for_any_batch_and_window(
            batch in 1u32..600,
            window_kb in 64u64..4096,
            msg_kb in 1u64..64,
            seed in any::<u64>(),
        ) {
            let mut flow = FlowSpec::tcp(msg_kb * 1024, 0);
            flow.load = mflow_netstack::LoadModel::Closed {
                window_bytes: window_kb * 1024,
            };
            let mut cfg = quick(StackConfig::single_flow(PathKind::Overlay, flow));
            cfg.seed = seed;
            let mut mcfg = MflowConfig::tcp_full_path();
            mcfg.batch_size = batch;
            let (policy, merge) = try_install(mcfg).expect("stock mflow config");
            let r = StackSim::try_run(cfg, policy, Some(merge)).expect("valid stack config");
            prop_assert_eq!(r.ring_drops, 0);
            prop_assert_eq!(r.sock_push_fail_tcp, 0);
            prop_assert_eq!(r.tcp_ooo_inserts, 0);
            // A handful of skbs may sit in the merger when the simulation
            // deadline cuts the run mid-micro-flow; anything larger is a
            // leak.
            prop_assert!(r.telemetry.residue < 520, "merger leak: {}", r.telemetry.residue);
            prop_assert!(r.delivered_bytes > 0);
        }
    }
}
