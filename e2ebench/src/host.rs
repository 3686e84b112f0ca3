//! Host-side helpers: the program-independent speed reference, resource
//! usage, result digests and order statistics.

use std::hint::black_box;
use std::time::Instant;

/// Words in each reference-kernel buffer: 16 MiB of `u64`, past the
/// per-core L2 and into the shared L3, where neighbours contend as they do
/// with the simulator's own working set. (A 2 MiB, L2-resident buffer
/// tracked the simulator's drift worse: the ten-run spread of wall time
/// over reference time was 0.09-0.10, against 0.045-0.053 at 16 MiB, on
/// the same host in the same hour.)
const REF_WORDS: usize = 1 << 21;
/// Random updates per reference-kernel call (about 0.3 s on a 2-vCPU
/// Xeon KVM guest).
const REF_UPDATES: u64 = 16_000_000;

/// The host-speed reference: a fixed xorshift random-update loop over a
/// 16 MiB buffer, independent of the simulator, run on one thread per
/// buffer at once (as many threads as the workload computes on). Timed
/// immediately before every workload iteration, it records how fast the
/// host ran just then, as context for that iteration's wall time. Returns
/// the wall time until every thread is done.
pub fn reference_kernel(bufs: &mut [Vec<u64>]) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for buf in bufs.iter_mut() {
            s.spawn(move || random_updates(buf));
        }
    });
    t0.elapsed().as_secs_f64()
}

fn random_updates(buf: &mut [u64]) {
    assert_eq!(buf.len(), REF_WORDS);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..REF_UPDATES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (REF_WORDS - 1);
        buf[i] = buf[i].wrapping_mul(0x2545_f491_4f6c_dd1d) ^ x;
    }
    black_box(buf);
}

/// Zeroed buffers for [`reference_kernel`], one per thread.
pub fn reference_buffers(threads: usize) -> Vec<Vec<u64>> {
    vec![vec![0; REF_WORDS]; threads]
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Resource usage of this process (`children == false`) or of every
/// waited-for descendant (`children == true`): peak RSS in MiB of the
/// largest such process, and CPU seconds (user + system).
pub fn rusage(children: bool) -> (f64, f64) {
    let mut ru = RUsage::default();
    let who = if children { -1 } else { 0 };
    // SAFETY: `RUsage` matches the kernel's `struct rusage` layout on
    // 64-bit Linux, and getrusage only writes into it.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    (
        ru.maxrss_kib as f64 / 1024.0,
        secs(ru.utime) + secs(ru.stime),
    )
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// FNV-1a over `bytes`, folded into `h` (start from [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a value's `Debug` rendering: every simulated statistic a
/// result type carries, including each `f64` at full round-trip precision.
pub fn digest_debug<T: std::fmt::Debug>(h: u64, value: &T) -> u64 {
    fnv1a(h, format!("{value:?}").as_bytes())
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
