//! Host-side measurement: wall and process CPU clocks, peak resident
//! memory, the facts every result records about the machine and build,
//! and the seeded shuffle that orders scenarios.

use std::time::Instant;

/// `struct timeval` of the 64-bit Linux ABI.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the 64-bit Linux ABI: two `timeval`s, then fourteen
/// `long` counters this module does not read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Process CPU time (user + system, every thread including exited ones)
/// in seconds, to the microsecond, from `getrusage(RUSAGE_SELF)`. Time the
/// hypervisor steals from the virtual CPUs is not counted, which is what
/// makes it steadier than wall time on a shared host.
#[allow(unsafe_code)]
pub fn process_cpu_s() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` laid out as the
    // 64-bit Linux ABI defines it, and getrusage writes only that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Reset the kernel's peak-RSS mark to the current RSS, so a later
/// [`peak_rss_mb`] covers only what follows. Ignored where unsupported.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall and CPU time of one measured section.
#[derive(Debug, Clone, Copy, Default)]
pub struct Elapsed {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

impl Elapsed {
    /// Sum two sections.
    pub fn add(self, other: Elapsed) -> Elapsed {
        Elapsed {
            wall_s: self.wall_s + other.wall_s,
            cpu_s: self.cpu_s + other.cpu_s,
        }
    }
}

/// Run `f`, returning its result with the wall and CPU time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Elapsed) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    (out, Elapsed { wall_s, cpu_s })
}

/// The median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// SplitMix64: a small, well-mixed generator for seeding scenario order.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose whole stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The commit the checkout was built from, when it is a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// The FNV-1a 64 offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the FNV-1a 64 hash `h`.
pub fn fnv1a(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 over every file under `crates/` (sorted by path) and the
/// lock file: an identity for the source that was benchmarked when the
/// checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let h = files.iter().fold(FNV_OFFSET, |h, path| {
        let bytes = std::fs::read(path).unwrap_or_default();
        fnv1a(h, path.to_string_lossy().bytes().chain(bytes))
    });
    format!("{h:016x}")
}

/// The facts every result records: cores, worker budget, build profile,
/// source identity and the seed. One-core and two-core figures are not
/// comparable, so a reader must be able to tell them apart.
pub fn facts_json(workload: &str, seed: u64, seconds: u64, trace: bool, jobs: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = git_commit().unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"nproc\": {nproc}, \"jobs\": {jobs}, \"profile\": \"{profile}\", \"commit\": \"{commit}\", \
         \"source_digest\": \"{}\"}}",
        u8::from(trace),
        source_digest()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..30).collect();
            SplitMix64::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(shuffled(1), shuffled(1));
        assert_ne!(shuffled(1), shuffled(2));
        let mut sorted = shuffled(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn process_clocks_read_something() {
        let (_, e) = timed(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(e.wall_s > 0.0 && e.cpu_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
