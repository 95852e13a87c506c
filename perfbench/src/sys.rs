//! Process resource readings from Linux's `/proc`, without a libc
//! binding.

use std::io;

/// Clock ticks per second of the times in `/proc/<pid>/stat` (USER_HZ,
/// 100 on every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of the whole process, every thread included
/// (finished ones too), in seconds. The resolution is one tick, 10 ms.
pub fn process_cpu_s() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    parse_cpu_s(&stat).ok_or_else(|| invalid("/proc/self/stat"))
}

/// Reset the peak resident set size (`VmHWM`) to the current one.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size (`VmHWM`) since start or the last reset, MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    parse_vm_hwm_mb(&status).ok_or_else(|| invalid("/proc/self/status"))
}

fn invalid(path: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse {path}"))
}

fn parse_cpu_s(stat: &str) -> Option<f64> {
    // Field 2, the command name, is parenthesised and may hold spaces, so
    // fields are counted after the last ')': utime and stime (fields 14
    // and 15) are the 12th and 13th after it.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim();
    Some(kb.parse::<u64>().ok()? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_is_read_after_the_command_name() {
        let stat = "4242 (odd (name) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_s(stat), Some(3.0));
        assert_eq!(parse_cpu_s("4242 (short) S 1"), None);
    }

    #[test]
    fn peak_rss_is_read_in_mib() {
        let status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1024 kB\n"), None);
    }

    #[test]
    fn live_readings_parse() {
        assert!(process_cpu_s().expect("/proc/self/stat") >= 0.0);
        assert!(peak_rss_mb().expect("/proc/self/status") > 0.0);
    }
}
