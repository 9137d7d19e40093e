//! The crew does not grow with the number of calls.
//!
//! A binary of its own, with this one test, because the reading is the
//! process's OS thread count: any sibling test would share the process
//! and the crew, and move it.

use mflow_runtime::{generate_frames, process_parallel, process_serial, RuntimeConfig};

/// The `Threads:` line of `/proc/self/status`; `None` where there is no
/// such file.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn two_thousand_calls_hold_no_more_threads_than_ten() {
    if os_threads().is_none() {
        eprintln!("skipped: no /proc/self/status on this host");
        return;
    }
    let frames = generate_frames(46, 1448);
    let serial = process_serial(&frames).digests;
    let cfg = RuntimeConfig {
        workers: 2,
        batch_size: 8,
        ..RuntimeConfig::default()
    };
    let call = || assert_eq!(process_parallel(&frames, &cfg).unwrap().digests, serial);
    (0..10).for_each(|_| call());
    let after_ten = os_threads();
    (0..2_000).for_each(|_| call());
    // Two workers, parked (the merge runs on them, not on a job of its
    // own); the same two as after ten calls. (Back to back, no thread is ever idle for the keep-alive, so
    // none retires in between either.)
    assert_eq!(os_threads(), after_ten);
}
