//! Host facts and process resource readings, from `/proc` on Linux.

use std::process::Command;

/// Worker threads the fleet workloads use: the host's available
/// parallelism, so nothing runs more threads than there are cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User + system CPU seconds this process has used, all threads included,
/// to the nanosecond (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`); 0 if the
/// clock is unavailable.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration,
    // laid out as the 64-bit Linux ABI's `struct timespec`.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(target_os = "linux"))]
pub fn cpu_seconds() -> f64 {
    0.0
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string())
}

/// First line of a command's standard output, or "unknown".
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The facts every result is recorded with, as one JSON object.
pub fn facts_json(workload: &str, seed: u64, workers: usize) -> String {
    let rustc = command_line(Command::new("rustc").arg("--version"));
    // Only the current directory may answer: a checkout without `.git`
    // must not pick up the commit of some enclosing repository.
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    let commit = command_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    );
    format!(
        "{{\"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}, \"workload\": {}, \"seed\": {}, \"workers\": {}}}}}",
        nproc(),
        quote(&cpu_model()),
        quote(&rustc),
        quote(&commit),
        quote(workload),
        seed,
        workers
    )
}

/// A JSON string literal (quotes, backslashes and control characters
/// escaped).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn proc_readings_are_positive_on_linux() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
        let spin = (0..20_000_000u64).fold(0u64, |a, x| a.wrapping_add(x * x));
        std::hint::black_box(spin);
        assert!(cpu_seconds() > 0.0);
    }
}
