//! Host fingerprint and process memory.

use std::path::Path;
use std::process::Command;

use alf_obs::json::JsonWriter;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out at `repo`, read from `.git` without running
/// git; `"none"` outside a git checkout.
fn git_rev(repo: &Path) -> String {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "none".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "none".into())
}

/// The host fingerprint as a JSON object.
pub fn fingerprint_json(repo: &Path, workload: &str, seed: u64, seconds: u64) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("nproc", nproc() as u64);
    w.field_str("rustc", &rustc_version());
    w.field_str("profile", env!("PERFBENCH_PROFILE"));
    w.field_str("rustflags", env!("PERFBENCH_RUSTFLAGS"));
    #[cfg(target_arch = "x86_64")]
    {
        let features = ["sse4.2", "avx", "avx2", "fma", "avx512f"]
            .into_iter()
            .filter(|f| match *f {
                "sse4.2" => is_x86_feature_detected!("sse4.2"),
                "avx" => is_x86_feature_detected!("avx"),
                "avx2" => is_x86_feature_detected!("avx2"),
                "fma" => is_x86_feature_detected!("fma"),
                _ => is_x86_feature_detected!("avx512f"),
            })
            .collect::<Vec<_>>()
            .join(",");
        w.field_str("cpu_features", &features);
    }
    w.field_str("git_rev", &git_rev(repo));
    w.field_str("workload", workload);
    w.field_u64("seed", seed);
    w.field_u64("seconds", seconds);
    w.end_object();
    w.finish()
}
