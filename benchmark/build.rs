//! Records how the harness was built, for the host header: cargo's
//! profile and opt-level, and the compiler's `-V` line.

use std::process::Command;

fn main() {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let rustc_version = Command::new(var("RUSTC"))
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_PROFILE={}", var("PROFILE"));
    println!("cargo:rustc-env=BENCH_OPT_LEVEL={}", var("OPT_LEVEL"));
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={rustc_version}");
    println!("cargo:rerun-if-changed=build.rs");
}
