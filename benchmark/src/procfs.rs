//! What `/proc` says about a process and about the host: peak resident
//! memory, CPU seconds, load average, CPU model. Parsers take the file
//! text so the self-tests can feed them fixed input.

use std::fs;
use std::path::Path;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is
/// 100 on every Linux ABI this harness runs on; `sysconf` would need
/// libc, which the harness does not link.
const CLK_TCK: f64 = 100.0;

/// `VmHWM` (peak resident set) in MB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command come state (3) … utime (14), stime (15).
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// The 1-minute load average from the text of `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The first `model name` from the text of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The filesystem type holding `path`, from the text of
/// `/proc/mounts`: the longest mount point that prefixes the path.
pub fn parse_fs_type(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (point, fs) = (f.nth(1)?, f.next()?);
            path.starts_with(point).then_some((point.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, fs)| fs.to_string())
}

fn proc_file(pid: Option<u32>, name: &str) -> Option<String> {
    let who = pid.map_or("self".to_string(), |p| p.to_string());
    fs::read_to_string(format!("/proc/{who}/{name}")).ok()
}

/// Peak resident memory of `pid` (`None` = this process) in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    parse_vm_hwm_mb(&proc_file(pid, "status")?)
}

/// CPU seconds `pid` (`None` = this process) has used so far.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    parse_cpu_seconds(&proc_file(pid, "stat")?)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The host facts recorded beside every set of results.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub out_fs: String,
    pub loadavg_1min: f64,
}

impl Host {
    /// Reads the host facts now; `out_dir` is where the benchmark
    /// writes its caches and journals.
    pub fn read(out_dir: &Path) -> Host {
        let text = |p: &str| fs::read_to_string(p).unwrap_or_default();
        let unknown = || "unknown".to_string();
        Host {
            nproc: nproc(),
            cpu_model: parse_cpu_model(&text("/proc/cpuinfo")).unwrap_or_else(unknown),
            kernel: text("/proc/sys/kernel/osrelease").trim().to_string(),
            out_fs: parse_fs_type(&text("/proc/mounts"), out_dir).unwrap_or_else(unknown),
            loadavg_1min: parse_loadavg(&text("/proc/loadavg")).unwrap_or(f64::NAN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_parser_reads_peak_rss() {
        let status =
            "Name:\tringmesh\nVmPeak:\t  204800 kB\nVmHWM:\t   51712 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.5));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        // utime = 250 ticks, stime = 50 ticks -> 3.0 s.
        let stat = "4242 (ring) mesh (x)) S 1 4242 4242 0 -1 4194304 900 0 0 0 250 50 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn host_text_parsers() {
        assert_eq!(parse_loadavg("0.42 0.30 0.18 2/84 14525\n"), Some(0.42));
        let cpuinfo = "processor\t: 0\nmodel name\t: Intel(R) Xeon(R) Processor @ 2.10GHz\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Intel(R) Xeon(R) Processor @ 2.10GHz")
        );
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /root/repo/benchmark/out tmpfs rw 0 0\n";
        let fs = |p: &str| parse_fs_type(mounts, Path::new(p));
        assert_eq!(fs("/root/repo/benchmark/out/x").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/root/repo/benchmark").as_deref(), Some("ext4"));
    }

    #[test]
    fn this_process_is_readable() {
        assert!(peak_rss_mb(None).is_some_and(|mb| mb > 0.0));
        assert!(cpu_seconds(None).is_some());
        assert!(nproc() >= 1);
    }
}
