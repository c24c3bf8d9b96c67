//! Sample statistics, the process's own CPU and memory readings, output
//! hashing, and the machine probe.

use std::collections::BTreeMap;
use std::time::Instant;

/// `xs` in ascending order.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in (0, 1]: the smallest sample with at
/// least `p` of the samples at or below it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_SEED`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: the one generator every seeded choice in the benchmark
/// draws from.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// User + system CPU time of this process (all threads), in milliseconds,
/// from `/proc/self/stat` fields 14 and 15. The kernel reports them in
/// `USER_HZ` ticks, which is 100 on every Linux ABI.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut f = rest.split_ascii_whitespace();
    let utime: f64 = f.nth(11).and_then(|s| s.parse().ok()).expect("utime");
    let stime: f64 = f.next().and_then(|s| s.parse().ok()).expect("stime");
    (utime + stime) * 10.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

// The two calls of the C library (which `std` links already) that set where
// a thread may run; `std` has no safe operation for it.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and so every thread started after this call, to
/// one CPU: the highest-numbered of those it may run on. Returns that CPU.
///
/// `std::thread::available_parallelism` then reads 1, so the crates take
/// their sequential paths and a run measures the work of one op, not how a
/// hypervisor schedules two virtual CPUs against each other (see the
/// README's design rule 5 for what that cost on the host this was built on).
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // The kernel's `cpu_set_t`: 1024 CPUs, one bit each.
    let mut allowed = [0u64; 16];
    // SAFETY: pid 0 is the calling thread; `allowed` is a live, writable
    // buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let word = allowed
        .iter()
        .rposition(|&w| w != 0)
        .ok_or("sched_getaffinity returned an empty CPU set")?;
    let bit = 63 - allowed[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: pid 0 is the calling thread; `one` is a live buffer of exactly
    // the size passed, and the call only reads it.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(word * 64 + bit)
}

/// Mean of the fastest quarter of `xs` (at least one sample).
///
/// On a shared host interference only ever adds time, and it comes in
/// bursts: the fastest quarter of a run's identical ops are the ones the
/// host left alone. Their mean repeats between runs where the median moves
/// with however many bursts the run happened to catch.
pub fn quiet_mean(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let k = (v.len() / 4).max(1);
    v[..k].iter().sum::<f64>() / k as f64
}

/// What [`Probe::tick`] takes on the reference host. Times are reported as
/// they would read there: `measured × CALIB_REFERENCE_MS ÷ probe`.
pub const CALIB_REFERENCE_MS: f64 = 20.0;

/// The machine probe: a fixed, benchmark-owned kernel in two halves, about
/// 10 ms each. The first is integer mixing and read-modify-writes scattered
/// over a 4 MiB table, so it feels a slow core and a contended cache. The
/// second does what a compiler's data structures do — 30 000 small blocks
/// boxed, a B-tree of short vectors filled, both walked and freed — so it
/// feels the allocator, the kernel's memory management behind it and
/// pointer chasing. It calls nothing under `crates/`, so its time moves
/// only when the host does. It runs before every op; the quiet level of the
/// ops is divided by the quiet level of the probe, which takes the slow
/// swings of a shared host (neighbours filling the cache, a throttled core)
/// out of the reported times. The README's design rule 4 has what each half
/// bought.
pub struct Probe {
    table: Vec<u64>,
    /// Wall time of each tick so far, ms.
    pub ticks_ms: Vec<f64>,
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

const XORSHIFT_SEED: u64 = 0x2545_f491_4f6c_dd1d;

impl Probe {
    pub fn new() -> Probe {
        Probe {
            table: (0..(4usize << 20) / 8).map(|i| i as u64).collect(),
            ticks_ms: Vec::new(),
        }
    }

    /// Run the kernel once; returns and records its wall time in ms. Always
    /// outside the window an op's allocations are counted in.
    pub fn tick(&mut self) -> f64 {
        let t = Instant::now();
        let mask = self.table.len() - 1;
        let mut x = XORSHIFT_SEED;
        for _ in 0..2_400_000 {
            x = xorshift(x);
            let slot = &mut self.table[x as usize & mask];
            *slot = slot.wrapping_add(x);
        }
        std::hint::black_box(&self.table);

        let mut x = XORSHIFT_SEED;
        let mut tree = BTreeMap::new();
        let mut boxes = Vec::new();
        for i in 0..30_000u64 {
            x = xorshift(x);
            tree.insert(x & 0xffff, vec![i; (x & 7) as usize + 1]);
            boxes.push(Box::new([x; 6]));
        }
        let mut sum = 0u64;
        for (k, v) in &tree {
            sum = sum.wrapping_add(k + v.len() as u64);
        }
        for b in &boxes {
            sum = sum.wrapping_add(b[3]);
        }
        std::hint::black_box(sum);
        drop((tree, boxes));

        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.ticks_ms.push(ms);
        ms
    }

    /// How far the quiet levels of the first, middle and last third of the
    /// ticks are apart, as a share of the smallest.
    pub fn drift(&self) -> f64 {
        let third = self.ticks_ms.len() / 3;
        if third == 0 {
            return 0.0;
        }
        let levels: Vec<f64> = self
            .ticks_ms
            .chunks(third)
            .take(3)
            .map(quiet_mean)
            .collect();
        let max = levels.iter().cloned().fold(f64::MIN, f64::max);
        let min = levels.iter().cloned().fold(f64::MAX, f64::min);
        (max - min) / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_tied_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 5.0, 5.0, 1.0]), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quiet_mean_is_the_mean_of_the_fastest_quarter() {
        let xs = [9.0, 1.0, 8.0, 3.0, 7.0, 2.0, 6.0, 5.0];
        assert_eq!(quiet_mean(&xs), 1.5, "two of eight: 1 and 2");
        assert_eq!(
            quiet_mean(&[4.0, 2.0, 3.0]),
            2.0,
            "fewer than four: the fastest"
        );
        assert_eq!(
            quiet_mean(&[5.0, 5.0, 5.0, 5.0, 50.0]),
            5.0,
            "a burst never enters"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let odd = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&odd, 0.5), 3.0);
        assert_eq!(percentile(&odd, 0.9), 5.0);
        assert_eq!(percentile(&odd, 0.2), 1.0);
        let even = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&even, 0.5), 2.0);
        assert_eq!(percentile(&even, 0.75), 3.0);
        assert_eq!(percentile(&even, 1.0), 4.0);
        let tied = [2.0, 2.0, 2.0, 9.0];
        assert_eq!(percentile(&tied, 0.5), 2.0);
        assert_eq!(percentile(&tied, 0.9), 9.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..100).collect();
        let mut b = a.clone();
        SplitMix64(7).shuffle(&mut a);
        SplitMix64(7).shuffle(&mut b);
        assert_eq!(a, b, "same seed, same order");
        let mut c: Vec<usize> = (0..100).collect();
        SplitMix64(8).shuffle(&mut c);
        assert_ne!(a, c, "another seed, another order");
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pinning_leaves_one_cpu_for_this_thread_and_its_children() {
        // On a thread of its own, so the harness's threads stay where they
        // were.
        let pinned = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pin");
            let seen_by_child = std::thread::spawn(std::thread::available_parallelism)
                .join()
                .expect("child");
            (
                cpu,
                std::thread::available_parallelism().map(|n| n.get()).ok(),
                seen_by_child.map(|n| n.get()).ok(),
            )
        })
        .join()
        .expect("pinned thread");
        assert_eq!((pinned.1, pinned.2), (Some(1), Some(1)));
        assert!(pinned.0 < 1024);
    }

    #[test]
    fn cpu_and_rss_read_back_positive() {
        let t = Instant::now();
        while t.elapsed().as_millis() < 30 {
            std::hint::black_box(fnv1a(FNV_SEED, b"spin"));
        }
        assert!(cpu_ms() >= 20.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
