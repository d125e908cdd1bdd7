//! Process resource readings from procfs.

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// User plus system CPU time of every thread of this process, in seconds
/// (`utime + stime` of `/proc/self/stat`, in USER_HZ = 100 ticks).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_available_and_plausible() {
        let rss = peak_rss_bytes().expect("VmHWM");
        assert!(rss > 1 << 20, "{rss}");
        let t = cpu_seconds().expect("stat");
        assert!(t >= 0.0);
    }
}
