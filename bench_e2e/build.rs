//! Records the toolchain in the binary, so every result names it without
//! the benchmark starting a process at run time.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=BENCH_E2E_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
