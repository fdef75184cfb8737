//! Facts about the host a run measured on, read from `/proc/self/status`.

/// The `/proc/self/status` field `key` (e.g. `VmHWM`), trimmed.
fn status_field(key: &str) -> Result<String, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
        .ok_or_else(|| format!("/proc/self/status has no {key} field"))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let v = status_field("VmHWM")?;
    let kib: f64 = v
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM {v:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1`).
pub fn cpus_allowed_list() -> String {
    status_field("Cpus_allowed_list").unwrap_or_else(|_| "unknown".to_string())
}

/// Number of CPUs in a `Cpus_allowed_list` value (`0-3,8` → 5); `None`
/// if it does not parse.
pub fn count_cpus(list: &str) -> Option<usize> {
    let mut n = 0;
    for part in list.split(',') {
        n += match part.split_once('-') {
            Some((a, b)) => {
                let (a, b): (usize, usize) = (a.trim().parse().ok()?, b.trim().parse().ok()?);
                b.checked_sub(a)? + 1
            }
            None => {
                part.trim().parse::<usize>().ok()?;
                1
            }
        };
    }
    Some(n)
}

/// `std::thread::available_parallelism`, the `nproc` of this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count() {
        assert_eq!(count_cpus("0"), Some(1));
        assert_eq!(count_cpus("0-1"), Some(2));
        assert_eq!(count_cpus("0-3,8,10-11"), Some(7));
        assert_eq!(count_cpus("3-1"), None);
        assert_eq!(count_cpus("x"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(count_cpus(&cpus_allowed_list()).unwrap() >= 1);
    }
}
