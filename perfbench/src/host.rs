//! Host fingerprint and process memory.

use std::path::Path;

/// What every result records about where and how it ran.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let backend = vektor::dispatch::resolve(None);
    vec![
        ("git_revision", git_revision(Path::new("."))),
        ("executed_backend", backend.name().to_string()),
        ("compiled_isa", vektor::dispatch::compiled_isa().to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "resolved_threads",
            md_core::runtime::resolve_threads(1).to_string(),
        ),
        ("server_jobs", "1".to_string()),
    ]
}

/// The revision checked out in `root`, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size (MiB) of process `pid` ("self" for this one).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
