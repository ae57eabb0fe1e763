//! Deterministic parallel run executor.
//!
//! Every campaign in this crate is an embarrassingly parallel matrix of
//! independent `(spec, plan, seed)` runs: each simulation owns its RNG,
//! its event queue and its stats, and shares nothing with its siblings.
//! The [`Executor`] fans such runs across OS threads with a
//! dependency-free work queue over [`std::thread::scope`] — and keeps
//! every report **byte-identical to serial order** by collecting results
//! into their submission slots, so output order never depends on thread
//! scheduling.
//!
//! Determinism contract: for any task list, `Executor::new(1)` and
//! `Executor::new(n)` return the same `Vec` in the same order. The only
//! thing parallelism may change is wall-clock time. `--jobs 1` (or
//! `ACC_JOBS=1`) therefore remains the bit-exact escape hatch should a
//! platform's threading ever be in doubt.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use acc_core::{RunOutcome, RunRequest};

/// Environment variable overriding the worker count (same meaning as
/// `--jobs N`; the CLI flag wins when both are present).
pub const JOBS_ENV: &str = "ACC_JOBS";

/// A pool of worker threads executing independent closures, preserving
/// submission order in the result vector.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor with exactly `jobs` workers.
    ///
    /// # Panics
    /// Panics if `jobs` is zero.
    pub fn new(jobs: usize) -> Executor {
        assert!(jobs >= 1, "executor needs at least one worker");
        Executor { jobs }
    }

    /// Strictly serial executor — the bit-exact escape hatch.
    pub fn serial() -> Executor {
        Executor::new(1)
    }

    /// Worker count from the environment: `ACC_JOBS` if set, otherwise
    /// the machine's available parallelism.
    pub fn auto() -> Executor {
        if let Some(jobs) = jobs_from_env() {
            return Executor::new(jobs);
        }
        Executor::new(default_parallelism())
    }

    /// Worker count from the process command line: the value after a
    /// `--jobs` flag (or `--jobs=N`), falling back to [`auto`](Self::auto)
    /// when absent. Campaign binaries call this once at startup.
    ///
    /// # Panics
    /// Panics on a malformed or zero `--jobs` value — a CLI usage error
    /// worth failing loudly on rather than silently serializing.
    pub fn from_cli() -> Executor {
        match jobs_from_args(std::env::args()) {
            Some(jobs) => Executor::new(jobs),
            None => Executor::auto(),
        }
    }

    /// Run every task, returning results in submission order.
    ///
    /// With one worker (or one task) this is a plain in-order loop; with
    /// more, a claim-index work queue under [`std::thread::scope`].
    /// Worker panics propagate at scope join, so a failing run aborts
    /// the campaign just as it would serially.
    pub fn map<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return tasks.into_iter().map(|f| f()).collect();
        }
        // Task slots + result slots, one per submission index. Workers
        // claim the next unclaimed index and deposit the result in the
        // matching slot; collection order is then index order no matter
        // which thread ran what.
        let task_slots: Vec<Mutex<Option<F>>> =
            tasks.into_iter().map(|f| Mutex::new(Some(f))).collect();
        let result_slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let task = lock_clean(&task_slots[i])
                            .take()
                            .expect("claim indices are unique, slot cannot be empty");
                        let result = task();
                        *lock_clean(&result_slots[i]) = Some(result);
                    })
                })
                .collect();
            // Join explicitly so a failing run re-raises its own panic
            // payload (message intact), not the scope's generic one.
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        result_slots
            .into_iter()
            .map(|slot| {
                lock_clean_owned(slot).expect("scope joined all workers, every slot is filled")
            })
            .collect()
    }

    /// Execute a batch of [`RunRequest`]s, outcomes in submission order.
    pub fn run_all(&self, requests: Vec<RunRequest>) -> Vec<RunOutcome> {
        self.map(requests.into_iter().map(|r| move || r.execute()).collect())
    }
}

/// Lock a mutex, shrugging off poisoning: a poisoned slot means another
/// worker panicked, and that panic is already propagating via the scope
/// join — the data in *this* slot is still intact.
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_clean_owned<T>(m: Mutex<T>) -> T {
    m.into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `ACC_JOBS` from the environment, if set.
///
/// # Panics
/// Panics on a malformed or zero value.
fn jobs_from_env() -> Option<usize> {
    let raw = std::env::var(JOBS_ENV).ok()?;
    let jobs: usize = raw
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("{JOBS_ENV}={raw:?} is not a worker count"));
    assert!(jobs >= 1, "{JOBS_ENV} must be at least 1");
    Some(jobs)
}

/// Parse `--jobs N` or `--jobs=N` out of an argument stream.
fn jobs_from_args(args: impl Iterator<Item = String>) -> Option<usize> {
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let raw = if arg == "--jobs" {
            args.next()
                .unwrap_or_else(|| panic!("--jobs needs a worker count"))
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            v.to_owned()
        } else {
            continue;
        };
        let jobs: usize = raw
            .parse()
            .unwrap_or_else(|_| panic!("--jobs {raw:?} is not a worker count"));
        assert!(jobs >= 1, "--jobs must be at least 1");
        return Some(jobs);
    }
    None
}

/// The machine's available parallelism (1 if unknown).
fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_coll::{Algorithm, CollectiveOp};
    use acc_core::{ClusterSpec, Technology};
    use acc_net::FabricSpec;

    #[test]
    fn map_preserves_submission_order() {
        let ex = Executor::new(4);
        let tasks: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    // Stagger completion so late submissions often finish
                    // first; the result order must not care.
                    std::thread::sleep(std::time::Duration::from_micros(64 - i as u64));
                    i * 3
                }
            })
            .collect();
        let got = ex.map(tasks);
        assert_eq!(got, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let build = || {
            (0..16)
                .map(|i| move || format!("task-{i}:{}", i * i))
                .collect::<Vec<_>>()
        };
        let serial = Executor::serial().map(build());
        let parallel = Executor::new(8).map(build());
        assert_eq!(serial, parallel);
    }

    /// The executor's determinism contract on real runs: every shape
    /// the campaigns fan out (FFT, sort, both AllReduce algorithms, a
    /// fat-tree and a torus fabric) yields the same simulated totals
    /// through the two-worker queue as executed directly.
    #[test]
    fn run_all_matches_direct_execution() {
        let mut requests: Vec<RunRequest> = Vec::new();
        for tech in [Technology::GigabitTcp, Technology::InicIdeal] {
            requests.push(RunRequest::sort(ClusterSpec::new(2, tech), 1 << 10));
            requests.push(RunRequest::fft(ClusterSpec::new(4, tech), 16));
            for algo in [Algorithm::Ring, Algorithm::RecursiveDoubling] {
                requests.push(RunRequest::collective(
                    ClusterSpec::new(4, tech),
                    CollectiveOp::AllReduce,
                    algo,
                    1 << 10,
                ));
            }
        }
        requests.push(RunRequest::collective(
            ClusterSpec::new(16, Technology::InicIdeal).with_fabric(FabricSpec::FatTree { k: 4 }),
            CollectiveOp::AllReduce,
            Algorithm::Ring,
            1 << 10,
        ));
        requests.push(RunRequest::collective(
            ClusterSpec::new(4, Technology::InicIdeal)
                .with_fabric(FabricSpec::Torus3D { dims: [2, 2, 1] }),
            CollectiveOp::AllToAll,
            Algorithm::Bruck,
            1 << 10,
        ));
        let direct: Vec<_> = requests
            .iter()
            .cloned()
            .map(|r| r.execute().total())
            .collect();
        let parallel: Vec<_> = Executor::new(2)
            .run_all(requests)
            .iter()
            .map(RunOutcome::total)
            .collect();
        assert_eq!(direct, parallel);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let got: Vec<u32> = Executor::new(8).map(Vec::<fn() -> u32>::new());
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "boom at index 3")]
    fn worker_panic_propagates() {
        let tasks: Vec<_> = (0..8)
            .map(|i| {
                move || {
                    if i == 3 {
                        panic!("boom at index {i}");
                    }
                    i
                }
            })
            .collect();
        let _ = Executor::new(4).map(tasks);
    }

    #[test]
    fn jobs_flag_parsing() {
        let parse =
            |argv: &[&str]| jobs_from_args(argv.iter().map(std::string::ToString::to_string));
        assert_eq!(parse(&["bin", "--jobs", "4"]), Some(4));
        assert_eq!(parse(&["bin", "--jobs=2", "--rounds", "8"]), Some(2));
        assert_eq!(parse(&["bin", "--rounds", "8"]), None);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_jobs_rejected() {
        let _ = jobs_from_args(["bin", "--jobs", "0"].iter().map(|s| (*s).to_owned()));
    }
}
