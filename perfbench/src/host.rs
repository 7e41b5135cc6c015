//! The host-speed yardstick.
//!
//! On a small shared VM the same code runs at different speeds from minute
//! to minute: neighbours on the host take cache, memory bandwidth and the
//! core's sibling thread, and a whole 30 s run can fall into a slow spell
//! (`serve_mix` ran at about 530 operations per second through one 15 s
//! run and at 745–903 in the five runs of the same seed just before it).
//! Every 0.1 s the timed phase stops between two operations and runs a
//! fixed 2 ms loop of this module — dependent loads over a table in the
//! core's own L2, mixed with integer arithmetic — and the end-to-end
//! timings are scaled by how fast it ran against [`NOMINAL`]: a window in
//! which the loop ran at 80 % of nominal has its times multiplied by 0.8.
//! The loop is no part of the program, and its table is warmed before it
//! is timed, so its speed depends little on what the program left in the
//! cache. The scaling takes out the share of the host's slow spells that
//! slows the loop as much as the program.

use std::sync::OnceLock;
use std::time::Instant;

/// Steps per microsecond of [`sample`] on a quiet 2-vCPU Xeon guest
/// (Sapphire Rapids, 2 MiB L2 per core): the speed the end-to-end timings
/// are scaled to.
pub const NOMINAL: f64 = 170.0;

/// Seconds of timed phase between two samples.
pub const SAMPLE_EVERY_S: f64 = 0.1;

/// Milliseconds one sample runs the loop for.
const SAMPLE_MS: f64 = 2.0;

/// A 256 KiB cyclic permutation of table indexes.
fn table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let n = 64 * 1024;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut next = vec![0u32; n];
        for k in 0..n {
            next[order[k] as usize] = order[(k + 1) % n];
        }
        next
    })
}

/// Runs the yardstick loop on the calling thread for about 2 ms, after an
/// untimed pass that brings its table back into cache, and returns its
/// speed in steps per microsecond.
pub fn sample() -> f64 {
    let table = table();
    std::hint::black_box(table.iter().fold(0, |a, &v| a ^ v));
    let start = Instant::now();
    let (mut i, mut x, mut steps) = (0u32, 1u64, 0u64);
    while start.elapsed().as_secs_f64() * 1e3 < SAMPLE_MS {
        for _ in 0..256 {
            i = table[i as usize];
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(u64::from(i));
            x ^= x >> 29;
        }
        steps += 256;
    }
    std::hint::black_box(x);
    steps as f64 / (start.elapsed().as_secs_f64() * 1e6)
}
