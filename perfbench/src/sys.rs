//! Process and thread accounting from `/proc`, and the environment record
//! every result carries.

use hmdiv_serve::Json;

/// Clock ticks per second of the `/proc/self/stat` CPU fields.
const CLOCK_TICKS: u64 = 100;

/// User + system CPU of the whole process (dead threads included), in
/// nanoseconds; 0 where `/proc` is unavailable.
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * (1_000_000_000 / CLOCK_TICKS)
}

/// CPU time of the calling thread in nanoseconds (scheduler accounting).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of the process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the machine from
/// `/proc/stat`; `(0, 0)` where unavailable. Steal is time the hypervisor
/// gave this machine's CPUs to someone else while they had work.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of CPU time stolen by the host since `from` (a [`cpu_ticks`]
/// reading): how far the measuring host, not the program, slowed a run.
pub fn steal_share(from: (u64, u64)) -> f64 {
    let (steal, total) = cpu_ticks();
    let total = total.saturating_sub(from.1);
    if total == 0 {
        return 0.0;
    }
    steal.saturating_sub(from.0) as f64 / total as f64
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out in the working directory, read from `.git`
/// without walking to parent directories; `"unknown"` outside a git
/// checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let rev = read(".git/HEAD").and_then(|head| {
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_owned());
        };
        read(&format!(".git/{reference}"))
            .map(|r| r.trim().to_owned())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_owned)
            })
    });
    rev.unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The machine and build a result was measured on.
pub fn environment() -> Json {
    Json::Obj(vec![
        ("nproc".to_owned(), Json::Num(nproc() as f64)),
        ("cpu".to_owned(), Json::str(cpu_model())),
        ("rustc".to_owned(), Json::str(env!("PERFBENCH_RUSTC"))),
        ("git_rev".to_owned(), Json::str(git_rev())),
        ("os".to_owned(), Json::str(std::env::consts::OS)),
    ])
}
