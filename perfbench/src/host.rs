//! Host facts recorded with every result, peak memory, and the
//! append-only result history.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark's own directory (where its golden files and history live).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The checkout root the benchmark was built in.
pub fn repo_root() -> PathBuf {
    bench_dir()
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's stdout, or `"unknown"`.
fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"], &repo_root())
}

/// The commit under test; `"unknown"` outside a git checkout.
pub fn commit() -> String {
    command_line("git", &["rev-parse", "--short=12", "HEAD"], &repo_root())
}

/// UTC date and time of now, `YYYY-MM-DDTHH:MM:SSZ`.
pub fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs()) as i64;
    let (days, rem) = (secs.div_euclid(86_400), secs.rem_euclid(86_400));
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem / 60 % 60,
        rem % 60
    )
}

/// `struct rusage` on 64-bit Linux: `ru_utime` and `ru_stime` (two
/// `struct timeval`s, four longs), then fourteen longs of which `ru_maxrss`
/// (KiB) is the first.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

/// `getrusage` targets: the whole process, or the calling thread.
const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

#[cfg(target_os = "linux")]
fn rusage(who: i32) -> Option<RUsage> {
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux, and `who` is one of the two targets
    // above.
    let rc = unsafe { getrusage(who, &mut usage) };
    (rc == 0).then_some(usage)
}

#[cfg(not(target_os = "linux"))]
fn rusage(_who: i32) -> Option<RUsage> {
    None
}

/// Resident high-water mark of this process, MiB: since it started or
/// since the last [`restart_peak_rss`] (`VmHWM`, or the `getrusage` mark
/// where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    let hwm = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    match hwm {
        Some(kib) => kib / 1024.0,
        None => rusage(RUSAGE_SELF).map_or(f64::NAN, |u| u.maxrss as f64 / 1024.0),
    }
}

/// Hand freed heap memory back to the system (`malloc_trim`) and restart
/// the resident high-water mark from the present resident set
/// (`/proc/self/clear_refs` 5), so the next [`peak_rss_mb`] covers only
/// what runs after this call. Where either is unsupported the mark simply
/// keeps running.
pub fn restart_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only walks glibc's own arenas and takes
        // their locks; any argument is valid.
        unsafe { malloc_trim(0) };
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn cpu_of(u: RUsage) -> f64 {
    let [us, uu, ss, su] = u.times;
    (us + ss) as f64 + (uu + su) as f64 / 1e6
}

/// CPU time this process has used, user plus system, seconds. Time the
/// host takes the virtual CPU away is not charged to it.
pub fn cpu_seconds() -> f64 {
    rusage(RUSAGE_SELF).map_or(f64::NAN, cpu_of)
}

/// CPU time the calling thread has used, user plus system, seconds.
pub fn thread_cpu_seconds() -> f64 {
    rusage(RUSAGE_THREAD).map_or(f64::NAN, cpu_of)
}

/// Append one JSON line to `history/<workload>.jsonl` in the benchmark's
/// directory. Failure to write is reported, never fatal.
pub fn append_history(workload: &str, line: &str) {
    let dir = bench_dir().join("history");
    let res = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(format!("{workload}.jsonl")))?;
        writeln!(f, "{line}")
    });
    if let Err(e) = res {
        eprintln!("perfbench: could not append history: {e}");
    }
}

/// Write a file under `out/` in the benchmark's directory.
pub fn write_out(name: &str, body: &str) -> Option<PathBuf> {
    let dir = bench_dir().join("out");
    let path = dir.join(name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("perfbench: could not write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn date_shape() {
        let d = super::utc_now();
        assert_eq!(d.len(), 20);
        assert!(d.starts_with("20") && d.ends_with('Z'));
    }
}
