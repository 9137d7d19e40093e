//! What the numbers were measured on: the host header that opens every
//! output and every trace file, the process CPU clock, and the pin that
//! keeps every thread of a run on one CPU.

use std::io;
use std::path::Path;
use std::process::Command;

/// Linux reports `/proc/<pid>/stat` times in clock ticks of `USER_HZ`,
/// which is 100 on every Linux ABI.
const NS_PER_TICK: u64 = 1_000_000_000 / 100;

/// utime + stime, in clock ticks, from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are fields 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU time this process (every thread, living or joined) has used.
pub fn process_cpu_ns() -> io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    parse_stat_cpu_ticks(&stat)
        .map(|ticks| ticks * NS_PER_TICK)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparseable /proc/self/stat"))
}

/// The kernel's `cpu_set_t`: one bit per CPU, 1024 of them.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The lowest-numbered CPU in an affinity mask.
fn first_cpu(set: &CpuSet) -> Option<usize> {
    let word = set.iter().position(|&w| w != 0)?;
    Some(word * 64 + set[word].trailing_zeros() as usize)
}

/// Restricts the calling thread, and so every thread it spawns from now
/// on, to the lowest-numbered CPU it is allowed on, and returns that CPU.
///
/// `process_parallel` spawns its workers and merger anew on every call.
/// On the 2-CPU VMs this runs on, the guest scheduler leaves freshly
/// spawned threads on their parent's CPU for up to a second before it
/// moves one to the idle CPU, so which of the four threads share a CPU
/// changes from call to call and from run to run, and unpinned throughput
/// moves by 30 % with it. On one CPU there is nothing to place.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut set: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `set` is a live, writable buffer of the `size` bytes passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = first_cpu(&set)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads `one`.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// The commit of the repo this package sits in, or "unknown" when that
/// directory is not a git work tree (git is told not to look above it).
fn git_commit() -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).parent();
    let above = repo.and_then(Path::parent).unwrap_or(Path::new("/"));
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env("GIT_CEILING_DIRECTORIES", above)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The host header, serialized as one JSON object. `host_cpus` is the
/// CPU count before pinning and `pinned_cpu` the CPU every thread runs on.
pub fn header_json(
    host_cpus: usize,
    pinned_cpu: usize,
    seed: u64,
    workers: usize,
    segments: usize,
    window_s: f64,
    trace: bool,
) -> String {
    format!(
        "{{\"available_parallelism\": {host_cpus}, \"profile\": \"{}\", \"opt_level\": \"{}\", \
         \"rustc\": \"{}\", \"git_commit\": \"{}\", \"seed\": {seed}, \"workers\": {workers}, \
         \"threads\": {}, \"pinning\": \"cpu {pinned_cpu}\", \"segments\": {segments}, \"window_s\": {window_s}, \
         \"trace\": {trace}}}",
        env!("BENCH_PROFILE"),
        env!("BENCH_OPT_LEVEL"),
        env!("BENCH_RUSTC_VERSION"),
        git_commit(),
        // The caller dispatches, the workers process, one merger reorders.
        workers + 2,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_reads_utime_plus_stime() {
        let stat = "4242 (mflow-benchmark) R 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    1234 66 0 0 20 0 4 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1300));
    }

    #[test]
    fn stat_parser_survives_spaces_and_parens_in_the_command_name() {
        let stat = "7 (a (b) c d) S 1 7 7 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(11));
    }

    #[test]
    fn stat_parser_rejects_short_or_garbled_input() {
        assert_eq!(parse_stat_cpu_ticks(""), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(
            parse_stat_cpu_ticks("1 (x) R 1 1 1 0 -1 0 0 0 0 0 nope 6"),
            None
        );
    }

    #[test]
    fn first_cpu_is_the_lowest_set_bit() {
        let mut set: CpuSet = [0; 16];
        assert_eq!(first_cpu(&set), None);
        set[1] = 0b1100;
        set[3] = 1;
        assert_eq!(first_cpu(&set), Some(66));
    }

    #[test]
    fn pinning_leaves_one_cpu_and_spawned_threads_inherit_it() {
        let cpus = || std::thread::available_parallelism().unwrap().get();
        // On a thread of its own, so the other tests keep their CPUs.
        let (pinned, inherited) = std::thread::spawn(move || {
            pin_to_one_cpu().unwrap();
            (cpus(), std::thread::spawn(cpus).join().unwrap())
        })
        .join()
        .unwrap();
        assert_eq!((pinned, inherited), (1, 1));
    }

    #[test]
    fn live_clock_is_readable_and_monotonic() {
        let a = process_cpu_ns().unwrap();
        let b = process_cpu_ns().unwrap();
        assert!(b >= a);
    }
}
