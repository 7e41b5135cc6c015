//! What the three workloads share: the run configuration, the closed-loop
//! driver that runs seeded operation cycles, and the run header.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host;
use crate::measure::{hwm_mb, median, process_cpu_ms, rss_mb, Samples};
use crate::rng::Rng;
use crate::trace::Tracer;

/// Document sizes: the benchmark's own, or small ones for the package's
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Test,
}

/// How long the timed phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole cycles until about this many seconds have passed.
    Seconds(f64),
    /// Exactly this many cycles (deterministic; used by the tests).
    Cycles(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    pub scale: Scale,
    /// Set-up rounds for the `setup_s` median, and set-ups per round.
    pub setup_rounds: usize,
    pub setups_per_round: usize,
    /// Record a description of every timed operation (tests only).
    pub log_ops: bool,
}

/// Cumulative cache counters of the services a workload drives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub compiled_hits: u64,
    pub compiled_misses: u64,
    pub index_hits: u64,
    pub index_misses: u64,
    pub index_invalidations: u64,
}

impl Counters {
    pub fn add(&mut self, s: &smoqe::ServiceStats) {
        self.compiled_hits += s.compiled_hits;
        self.compiled_misses += s.compiled_misses;
        self.index_hits += s.index_hits;
        self.index_misses += s.index_misses;
        self.index_invalidations += s.index_invalidations;
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            compiled_hits: self.compiled_hits - before.compiled_hits,
            compiled_misses: self.compiled_misses - before.compiled_misses,
            index_hits: self.index_hits - before.index_hits,
            index_misses: self.index_misses - before.index_misses,
            index_invalidations: self.index_invalidations - before.index_invalidations,
        }
    }
}

/// Span recorder and per-layer samples of one run.
pub struct Cx {
    pub tr: Tracer,
    pub s: Samples,
}

impl Cx {
    pub fn new(trace: bool) -> Cx {
        Cx {
            tr: Tracer::new(trace),
            s: Samples::default(),
        }
    }

    pub fn traced(&self) -> bool {
        self.tr.on()
    }
}

/// A workload: a source of seeded operation cycles and a way to run one
/// operation against the system.
pub trait Workload {
    type Op: std::fmt::Debug;

    /// The next cycle of operations. Each cycle holds the workload's fixed
    /// mix; the seed decides the order and the choices within it. An empty
    /// cycle means the pre-computed inputs are used up.
    fn next_cycle(&mut self, rng: &mut Rng) -> Vec<Self::Op>;

    /// The untimed warm-up: by default one cycle.
    fn warm_up(&mut self, rng: &mut Rng) -> Vec<Self::Op> {
        self.next_cycle(rng)
    }

    /// Runs one operation and checks its answer. Returns the operation's
    /// latency in milliseconds (the check is not timed), or what went
    /// wrong: an error, a refusal or a wrong answer.
    fn run(&mut self, op: &Self::Op, cx: &mut Cx) -> Result<f64, String>;

    fn counters(&self) -> Counters;
}

/// One timed cycle: the workload's whole mix once.
#[derive(Debug, Default)]
pub struct Cycle {
    pub seconds: f64,
    /// Process CPU time (all threads) spent in the cycle.
    pub cpu_ms: f64,
    pub attempted: u64,
    /// Latencies of the cycle's operations that succeeded.
    pub latencies_ms: Vec<f64>,
    /// Speeds of the host yardstick sampled during the cycle (its time is
    /// not in `seconds` or `cpu_ms`).
    pub host: Vec<f64>,
}

/// What the timed phase measured.
#[derive(Debug, Default)]
pub struct Timed {
    pub cycles: Vec<Cycle>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    /// Peak resident set over the warm-up and the timed phase, in MiB.
    pub peak_rss_mb: f64,
    /// Resident set before and after the warm-up, in MiB.
    pub rss_before_warm_up_mb: f64,
    pub rss_after_warm_up_mb: f64,
    pub counters: Counters,
    pub op_log: Vec<String>,
}

impl Timed {
    /// Every successful operation's latency, in order.
    pub fn latencies_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.cycles
            .iter()
            .flat_map(|c| c.latencies_ms.iter().copied())
    }
}

/// Prints the first few failures to stderr and counts them all.
fn note_failure(count: &mut u64, what: &str, err: &str) {
    *count += 1;
    if *count <= 5 {
        eprintln!("perfbench: {what} failed: {err}");
    }
}

/// Runs the untimed warm-up, then whole cycles until `budget` is spent.
/// Spans and samples of the warm-up are discarded.
pub fn drive<W: Workload>(w: &mut W, cfg: &Config, rng: &mut Rng, cx: &mut Cx) -> Timed {
    let mut timed = Timed::default();
    let mut warm_failures = 0;
    let hwm_before = hwm_mb();
    timed.rss_before_warm_up_mb = rss_mb();
    for op in w.warm_up(rng) {
        if let Err(e) = w.run(&op, cx) {
            cx.tr.close_open();
            note_failure(&mut warm_failures, &format!("warm-up {op:?}"), &e);
        }
    }
    cx.tr.clear();
    cx.s = Samples::default();
    timed.rss_after_warm_up_mb = rss_mb();

    let before = w.counters();
    let start = Instant::now();
    let mut last_sample = start;
    timed.peak_rss_mb = rss_mb();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let done = timed.cycles.len();
        let more = match cfg.budget {
            Budget::Cycles(n) => done < n,
            // Stop at the cycle boundary closest to the budget.
            Budget::Seconds(s) => done == 0 || elapsed + 0.5 * elapsed / (done as f64) < s,
        };
        if !more {
            break;
        }
        let ops = w.next_cycle(rng);
        if ops.is_empty() {
            eprintln!("perfbench: the seeded inputs ran out; the timed phase ends early");
            break;
        }
        let cycle_start = Instant::now();
        let cpu0 = process_cpu_ms();
        let (mut sample_s, mut sample_cpu_ms) = (0.0, 0.0);
        let mut cycle = Cycle::default();
        for op in ops {
            timed.attempted += 1;
            cycle.attempted += 1;
            cx.tr.set_op(timed.attempted as u32);
            if cfg.log_ops {
                timed.op_log.push(format!("{op:?}"));
            }
            match w.run(&op, cx) {
                Ok(ms) => cycle.latencies_ms.push(ms),
                Err(e) => {
                    cx.tr.close_open();
                    note_failure(&mut timed.failed, &format!("{op:?}"), &e);
                }
            }
            if timed.attempted % 32 == 0 {
                timed.peak_rss_mb = timed.peak_rss_mb.max(rss_mb());
            }
            if last_sample.elapsed().as_secs_f64() >= host::SAMPLE_EVERY_S {
                let (t0, c0) = (Instant::now(), process_cpu_ms());
                cycle.host.push(host::sample());
                sample_s += t0.elapsed().as_secs_f64();
                sample_cpu_ms += process_cpu_ms() - c0;
                last_sample = Instant::now();
            }
        }
        cycle.cpu_ms = process_cpu_ms() - cpu0 - sample_cpu_ms;
        cycle.seconds = cycle_start.elapsed().as_secs_f64() - sample_s;
        timed.cycles.push(cycle);
        timed.peak_rss_mb = timed.peak_rss_mb.max(rss_mb());
    }
    timed.elapsed_s = start.elapsed().as_secs_f64();
    // The high-water mark catches peaks inside an operation; it counts
    // only when serving (warm-up and timed phase) raised it above what
    // generation and the oracle left behind. Otherwise the samples taken
    // between operations stand.
    let hwm = hwm_mb();
    if hwm > hwm_before {
        timed.peak_rss_mb = hwm;
    }
    timed.counters = w.counters().since(&before);
    // A warm-up failure is a wrong answer too: fail the run.
    timed.failed += warm_failures;
    timed.attempted += warm_failures;
    timed
}

/// Consecutive timed cycles, and the host's speed while they ran.
#[derive(Debug)]
pub struct Window<'a> {
    pub cycles: &'a [Cycle],
    /// The yardstick's median speed in the window over [`host::NOMINAL`]:
    /// the window's times multiplied by it are the times at nominal speed.
    pub host: f64,
}

impl Window<'_> {
    pub fn ops(&self) -> u64 {
        self.cycles.iter().map(|c| c.attempted).sum()
    }

    /// Seconds the window's cycles took, at nominal host speed.
    pub fn seconds(&self) -> f64 {
        self.cycles.iter().map(|c| c.seconds).sum::<f64>() * self.host
    }

    /// Process CPU milliseconds, at nominal host speed.
    pub fn cpu_ms(&self) -> f64 {
        self.cycles.iter().map(|c| c.cpu_ms).sum::<f64>() * self.host
    }

    /// Latencies of the successful operations, at nominal host speed.
    pub fn latencies_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.cycles
            .iter()
            .flat_map(|c| c.latencies_ms.iter().map(|ms| ms * self.host))
    }
}

/// The timed cycles cut into windows of `per_window` consecutive cycles,
/// each with the yardstick's speed while it ran. A window without a
/// yardstick sample takes the run's median sample.
pub fn windows(cycles: &[Cycle], per_window: usize) -> Vec<Window<'_>> {
    let samples =
        |cs: &[Cycle]| -> Vec<f64> { cs.iter().flat_map(|c| c.host.iter().copied()).collect() };
    let all = samples(cycles);
    let run = if all.is_empty() {
        host::NOMINAL
    } else {
        median(&all)
    };
    cycles
        .chunks(per_window.max(1))
        .map(|cycles| {
            let mine = samples(cycles);
            let speed = if mine.is_empty() { run } else { median(&mine) };
            Window {
                cycles,
                host: speed / host::NOMINAL,
            }
        })
        .collect()
}

/// Set-up rounds per run, and set-ups timed together in one round.
/// `setup_s` is the median over the rounds of a round's time per set-up:
/// a round is long enough that a short stall on the host is a small part
/// of it, and the median drops a round a longer stall hit.
pub const SETUP_ROUNDS: usize = 5;
pub const SETUPS_PER_ROUND: usize = 4;

/// Runs `set_up` `rounds × per_round` times, dropping each system before
/// the next set-up starts (untimed). Returns the last system and each
/// round's seconds per set-up at nominal host speed: scaled by the mean of
/// two yardstick samples, one before the round and one after it.
pub fn time_set_ups<S>(
    rounds: usize,
    per_round: usize,
    mut set_up: impl FnMut() -> S,
) -> (S, Vec<f64>) {
    let mut system = None;
    let mut per_setup = Vec::new();
    for _ in 0..rounds.max(1) {
        let before = host::sample();
        let mut seconds = 0.0;
        for _ in 0..per_round.max(1) {
            drop(system.take());
            let start = Instant::now();
            system = Some(set_up());
            seconds += start.elapsed().as_secs_f64();
        }
        let speed = (before + host::sample()) / 2.0;
        per_setup.push(seconds / per_round.max(1) as f64 * speed / host::NOMINAL);
    }
    (system.expect("at least one set-up"), per_setup)
}

/// Times `f`, returning its result and the elapsed milliseconds.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// The run header's facts about a workload.
#[derive(Debug, Default)]
pub struct Header {
    pub client_threads: usize,
    pub server_workers: usize,
    /// Thread budget of parallel operations (0 when there are none). The
    /// calling client thread waits while the pool runs, so a parallel
    /// operation adds `budget - 1` running threads.
    pub parallel_budget: usize,
    /// Threads the benchmark starts besides the main thread.
    pub threads_started: String,
    /// The one CPU the workload's threads are pinned to, if any.
    pub pinned_cpu: Option<usize>,
    /// CPUs the process may use, counted before any pinning.
    pub nproc: usize,
    /// Cycles per window of [`windows`]: about 0.5–1 s of the workload on
    /// a 2-vCPU host, so that each window holds several yardstick samples.
    pub cycles_per_window: usize,
    /// name → (nodes, XML bytes)
    pub docs: BTreeMap<String, (usize, usize)>,
}

impl Header {
    /// Client threads + server workers + parallel threads beyond the
    /// waiting caller: the most threads that run at once.
    pub fn busy_threads(&self) -> usize {
        self.client_threads + self.server_workers + self.parallel_budget.saturating_sub(1)
    }
}

/// The header of the two `smoqed` workloads. Pins the calling thread, and
/// so the server threads it starts later, to one CPU first.
pub fn wire_header(cycles_per_window: usize) -> Header {
    Header {
        cycles_per_window,
        client_threads: 1,
        server_workers: 1,
        parallel_budget: 0,
        threads_started: "per set-up one smoqed server: 1 accept thread + 1 worker \
                          (the previous server is shut down and joined first)"
            .into(),
        nproc: nproc(),
        pinned_cpu: pin_to_one_cpu(),
        docs: BTreeMap::new(),
    }
}

/// Everything a workload run hands back to `main`.
pub struct Outcome {
    pub header: Header,
    pub setup_s: Vec<f64>,
    pub timed: Timed,
    pub cx: Cx,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of glibc's `cpu_set_t` in 64-bit words (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread — and every thread it starts afterwards — to
/// the highest-numbered CPU it may run on, and returns that CPU.
///
/// The wire workloads are a closed loop of one client and one server
/// worker that hand each request back and forth and never run at once.
/// On one CPU the hand-over is a context switch; across two vCPUs it is a
/// cross-CPU wake-up whose latency on a shared host swings run to run by
/// more than the request itself costs.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly `cpusetsize` bytes,
    // and pid 0 names the calling thread.
    let ok = unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } == 0;
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .filter(|_| ok)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `cpusetsize` bytes,
    // and pid 0 names the calling thread.
    let ok = unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } == 0;
    ok.then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(attempted: u64, seconds: f64) -> Cycle {
        Cycle {
            seconds,
            attempted,
            ..Cycle::default()
        }
    }

    #[test]
    fn windows_are_scaled_to_nominal_host_speed() {
        // The yardstick ran at 80 % of nominal in the first window, and
        // was not sampled in the second, which takes the run's median; the
        // third is a partial window.
        let mut cycles = vec![cycle(100, 1.0), cycle(100, 1.0), cycle(100, 1.0)];
        cycles[0].host = vec![
            0.7 * host::NOMINAL,
            0.8 * host::NOMINAL,
            0.9 * host::NOMINAL,
        ];
        cycles[0].latencies_ms = vec![10.0];
        cycles[0].cpu_ms = 500.0;
        let w = windows(&cycles, 1);
        assert_eq!(w.len(), 3);
        assert!((w[0].seconds() - 0.8).abs() < 1e-12);
        assert!((w[0].cpu_ms() - 400.0).abs() < 1e-9);
        assert!((w[1].seconds() - 0.8).abs() < 1e-12);
        assert_eq!(w[0].latencies_ms().collect::<Vec<_>>(), [8.0]);
        assert_eq!(windows(&cycles, 2).len(), 2);
        // Without a sample anywhere the times stand as run.
        assert_eq!(windows(&cycles[1..], 1)[0].seconds(), 1.0);
    }
}
