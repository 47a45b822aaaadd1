//! Linux-only process inputs: per-thread on-CPU time from
//! `/proc/self/task/*/schedstat`, peak resident memory from `VmHWM` and
//! the CPU time the host took away from `/proc/stat`.
//! Everything returns `None` where `/proc` does not provide it.

use std::collections::HashMap;
use std::fs;
use std::path::Path;

/// Kernel thread id of the calling thread, read from the
/// `/proc/thread-self` link (`<pid>/task/<tid>`).
pub fn current_tid() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// First field of a `schedstat` line: nanoseconds spent on a CPU.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// On-CPU nanoseconds per live thread under `task_dir`. A thread that
/// exits between the directory listing and the read simply has no entry.
pub fn thread_cpu_ns_in(task_dir: &Path) -> Option<HashMap<u32, u64>> {
    let mut out = HashMap::new();
    for entry in fs::read_dir(task_dir).ok()? {
        let Ok(entry) = entry else { continue };
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(text) = fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        if let Some(ns) = parse_schedstat(&text) {
            out.insert(tid, ns);
        }
    }
    (!out.is_empty()).then_some(out)
}

pub fn thread_cpu_ns() -> Option<HashMap<u32, u64>> {
    thread_cpu_ns_in(Path::new("/proc/self/task"))
}

/// On-CPU nanoseconds spent between two samples by every thread that is
/// not one of the benchmark's `own` threads. Threads are matched by id;
/// one that exists only in `after` started inside the window and counts
/// in full, one that exists only in `before` has exited and its time
/// since `before` is lost — which is why samples are taken while the
/// engine's threads are alive.
pub fn engine_cpu_ns(before: &HashMap<u32, u64>, after: &HashMap<u32, u64>, own: &[u32]) -> u64 {
    after
        .iter()
        .filter(|(tid, _)| !own.contains(tid))
        .map(|(tid, ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum()
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_kb(&fs::read_to_string("/proc/self/status").ok()?).map(|kb| kb as f64 / 1024.0)
}

pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU seconds the host has taken from this machine's CPUs since boot:
/// the `steal` column of the first line of `/proc/stat`, which counts in
/// ticks of 10 ms.
pub fn host_steal_s() -> Option<f64> {
    parse_steal_ticks(&fs::read_to_string("/proc/stat").ok()?).map(|ticks| ticks as f64 / 100.0)
}

pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let mut fields = stat.lines().next()?.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal
    fields.nth(7)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_column_of_the_total_line() {
        let stat =
            "cpu  583486 0 500035 1424947 12723 0 141166 93178 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(93_178));
        assert_eq!(parse_steal_ticks("cpu 1 2 3\n"), None);
        assert_eq!(parse_steal_ticks("intr 1 2 3 4 5 6 7 8 9\n"), None);
    }

    #[test]
    fn schedstat_first_field_is_cpu_time() {
        assert_eq!(parse_schedstat("684375 1845291 2\n"), Some(684_375));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn exited_thread_is_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("cde-bench-task-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("101")).unwrap();
        fs::write(dir.join("101/schedstat"), "5000 1 1\n").unwrap();
        // Listed by readdir, gone by the time it is read.
        fs::create_dir_all(dir.join("102")).unwrap();
        fs::create_dir_all(dir.join("not-a-tid")).unwrap();
        let got = thread_cpu_ns_in(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(got, HashMap::from([(101, 5000)]));
    }

    #[test]
    fn engine_cpu_excludes_own_and_tolerates_churn() {
        let before = HashMap::from([(1, 100), (2, 1_000), (3, 50)]);
        // 3 exited, 4 started inside the window, 1 is the generator.
        let after = HashMap::from([(1, 9_100), (2, 4_000), (4, 700)]);
        assert_eq!(engine_cpu_ns(&before, &after, &[1]), 3_000 + 700);
    }

    #[test]
    fn vm_hwm_is_parsed_from_status() {
        assert_eq!(
            parse_vm_hwm_kb("Name:\tx\nVmHWM:\t    1776 kB\nVmRSS:\t 900 kB\n"),
            Some(1776)
        );
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_process_reports_itself() {
        let tid = current_tid().expect("thread-self link");
        assert!(thread_cpu_ns().unwrap().contains_key(&tid));
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
