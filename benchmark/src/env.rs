//! The environment block every output file carries, so a number can be
//! traced back to the machine, toolchain and commit that produced it.

use serde::{Deserialize, Serialize};

/// Where and how a run was made.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnvBlock {
    /// CPUs the process may run on (`available_parallelism`, which is
    /// what `nproc` prints). Engine threads never exceed it.
    pub available_parallelism: usize,
    /// `rustc --version`, handed over by `run.sh`.
    pub rustc: String,
    /// `git rev-parse HEAD`, handed over by `run.sh`; `unknown` outside
    /// a git checkout.
    pub git_sha: String,
    /// `release` or `debug`, from how this binary was compiled.
    pub build_profile: String,
    pub seed: u64,
    /// 1-minute load average when the run started and ended.
    pub loadavg_start: f64,
    pub loadavg_end: f64,
}

/// The 1-minute load average (0 where `/proc/loadavg` is missing).
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

impl EnvBlock {
    /// Capture at the start of a run; `loadavg_end` is filled by
    /// [`EnvBlock::finish`].
    pub fn start(seed: u64) -> EnvBlock {
        let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        let load = loadavg_1m();
        EnvBlock {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: var("GBENCH_RUSTC"),
            git_sha: var("GBENCH_GIT_SHA"),
            build_profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
            seed,
            loadavg_start: load,
            loadavg_end: load,
        }
    }

    pub fn finish(&mut self) {
        self.loadavg_end = loadavg_1m();
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
