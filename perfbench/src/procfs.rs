//! The two kernel readings the harness reports: this process's peak
//! resident set and the host's TIME_WAIT socket count.

use std::fs;

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// Sockets in TIME_WAIT in this network namespace (the `tw` field of
/// `/proc/net/sockstat`), or `None` where it cannot be read.
pub fn time_wait_sockets() -> Option<u64> {
    let sockstat = fs::read_to_string("/proc/net/sockstat").ok()?;
    parse_sockstat_tw(&sockstat)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..].split_whitespace().next()?.parse().ok()
}

fn parse_sockstat_tw(sockstat: &str) -> Option<u64> {
    let line = sockstat.lines().find(|l| l.starts_with("TCP:"))?;
    let fields: Vec<&str> = line.split_whitespace().collect();
    let at = fields.iter().position(|f| *f == "tw")?;
    fields.get(at + 1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  296960 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(296_960));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 1 kB\n"), None);
    }

    #[test]
    fn reads_time_wait_count() {
        let sockstat =
            "sockets: used 140\nTCP: inuse 7 orphan 0 tw 25013 alloc 9 mem 2\nUDP: inuse 1 mem 0\n";
        assert_eq!(parse_sockstat_tw(sockstat), Some(25_013));
        assert_eq!(parse_sockstat_tw("UDP: inuse 1 mem 0\n"), None);
    }

    #[test]
    fn live_readings_are_available_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
            assert!(time_wait_sockets().is_some());
        }
    }
}
