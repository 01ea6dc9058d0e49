//! Watchdog deadlines and bounded retry-with-backoff for scoring calls.
//!
//! A stalled detector (wedged BLAS call, pathological input, injected
//! fault) must not wedge the whole service. Each micro-batch scoring call
//! can therefore run under a wall-clock deadline: the job executes on a
//! long-lived worker thread while the service waits with a timeout. On a
//! miss the job is *abandoned* — its worker keeps running but its result
//! will be discarded — and the call retries with exponential backoff.
//!
//! Workers are reused: a worker whose result was received parks on an
//! idle list shared by every clone of the watchdog, and the next attempt
//! hands it a job over a channel instead of spawning a thread. A worker
//! that missed its deadline, or died because its job panicked, is never
//! handed another job: the watchdog drops its job channel, so an abandoned
//! worker exits by itself once its stalled job finishes.
//!
//! Abandoned workers are the dangerous resource: each one is a live stall.
//! The watchdog counts them exactly (an atomic handshake decides, for
//! every attempt, whether the waiter or the worker "won") and refuses to
//! start new work once `max_wedged` are still live, surfacing
//! [`WatchdogError::Exhausted`] so the caller can fall down the detector
//! ladder instead of piling up stuck threads.
//!
//! With no deadline configured the job runs inline on the caller's thread:
//! zero threads, zero timing dependence — the mode the deterministic
//! tests pin.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

/// A type-erased attempt, run to completion by a worker thread.
type Job = Box<dyn FnOnce() + Send>;

/// Why a watchdog-supervised call produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchdogError {
    /// Every attempt (1 + retries) overran the deadline.
    DeadlineExceeded {
        /// Attempts made, all of which timed out.
        attempts: u32,
    },
    /// Too many abandoned scoring threads are still live; no new attempt
    /// was spawned.
    Exhausted {
        /// Abandoned threads currently live.
        wedged: usize,
        /// The configured cap.
        cap: usize,
    },
}

impl std::fmt::Display for WatchdogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatchdogError::DeadlineExceeded { attempts } => {
                write!(f, "scoring call missed its deadline {attempts} time(s)")
            }
            WatchdogError::Exhausted { wedged, cap } => {
                write!(f, "{wedged} wedged scoring thread(s) live (cap {cap})")
            }
        }
    }
}

impl std::error::Error for WatchdogError {}

/// Timing-dependent counters, reported but never part of the
/// deterministic contract (they are zero in inline mode).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchdogStats {
    /// Attempts that overran the deadline.
    pub deadline_misses: u64,
    /// Re-attempts after a miss.
    pub retries: u64,
    /// Calls abandoned after exhausting retries or hitting the wedge cap.
    pub gave_up: u64,
}

/// Supervises scoring calls with deadlines, retries and a cap on
/// abandoned threads. Cloning shares the wedged-thread accounting and the
/// idle workers.
#[derive(Debug, Clone)]
pub struct Watchdog {
    deadline: Option<Duration>,
    retries: u32,
    backoff: Duration,
    max_wedged: usize,
    wedged: Arc<AtomicUsize>,
    /// Job channels of the parked workers, each idle since its last result
    /// was received.
    idle: Arc<Mutex<Vec<mpsc::Sender<Job>>>>,
}

impl Watchdog {
    /// A watchdog with the given policy. `deadline: None` means inline
    /// execution (no threads, no timeouts, no retries).
    #[must_use]
    pub fn new(
        deadline: Option<Duration>,
        retries: u32,
        backoff: Duration,
        max_wedged: usize,
    ) -> Self {
        Self {
            deadline,
            retries,
            backoff,
            max_wedged: max_wedged.max(1),
            wedged: Arc::new(AtomicUsize::new(0)),
            idle: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Abandoned threads currently live.
    #[must_use]
    pub fn wedged_live(&self) -> usize {
        self.wedged.load(Ordering::SeqCst)
    }

    /// Runs `make_job()` under the deadline policy, retrying on misses.
    /// The factory is invoked once per attempt; each job must be
    /// self-contained (`Send + 'static`) because an abandoned attempt
    /// outlives the call.
    ///
    /// # Errors
    ///
    /// [`WatchdogError::DeadlineExceeded`] after all attempts time out;
    /// [`WatchdogError::Exhausted`] when the wedged-thread cap blocks a
    /// new attempt.
    pub fn run<R, F>(
        &self,
        make_job: impl Fn() -> F,
        stats: &mut WatchdogStats,
    ) -> Result<R, WatchdogError>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let Some(deadline) = self.deadline else {
            return Ok(make_job()());
        };
        let mut backoff = self.backoff;
        let attempts = self.retries + 1;
        for attempt in 0..attempts {
            if attempt > 0 {
                stats.retries += 1;
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            let live = self.wedged.load(Ordering::SeqCst);
            if live >= self.max_wedged {
                stats.gave_up += 1;
                return Err(WatchdogError::Exhausted {
                    wedged: live,
                    cap: self.max_wedged,
                });
            }
            match self.attempt(make_job(), deadline) {
                Some(r) => return Ok(r),
                None => stats.deadline_misses += 1,
            }
        }
        stats.gave_up += 1;
        Err(WatchdogError::DeadlineExceeded { attempts })
    }

    /// One supervised attempt; `None` on deadline miss (the job's worker is
    /// then abandoned and self-accounts via the `settled` handshake).
    fn attempt<R, F>(&self, job: F, deadline: Duration) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let (tx, rx) = mpsc::sync_channel::<R>(1);
        // Exactly one side wins `settled`. Worker wins → it sends and the
        // waiter collects (possibly just after its timeout). Waiter wins →
        // the attempt counts as wedged until the worker finishes and
        // decrements; the worker discards its result.
        let settled = Arc::new(AtomicBool::new(false));
        let worker_settled = Arc::clone(&settled);
        let wedged = Arc::clone(&self.wedged);
        let worker = self.dispatch(Box::new(move || {
            let result = job();
            if worker_settled.swap(true, Ordering::SeqCst) {
                // Abandoned: the waiter gave up on this attempt.
                wedged.fetch_sub(1, Ordering::SeqCst);
                lgo_trace::sched("serve/wedged_recovered", 1);
            } else {
                // The send cannot fail: the waiter saw `settled` flip and
                // is blocking on `recv`.
                let _ = tx.send(result);
            }
        }));
        let result = match rx.recv_timeout(deadline) {
            Ok(r) => Some(r),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if settled.swap(true, Ordering::SeqCst) {
                    // The worker finished in the timeout race window and
                    // already sent; collect its result.
                    rx.recv().ok()
                } else {
                    self.wedged.fetch_add(1, Ordering::SeqCst);
                    lgo_trace::sched("serve/wedged_threads", 1);
                    None
                }
            }
            // The job panicked and took its worker down.
            Err(mpsc::RecvTimeoutError::Disconnected) => None,
        };
        // Only a worker whose result arrived is known to be free again;
        // any other is dropped here, so it exits after its current job.
        if result.is_some() {
            self.idle_workers().push(worker);
        }
        result
    }

    /// Hands `job` to a parked worker, or to a newly spawned one when none
    /// is idle; returns the job channel of the worker running it.
    fn dispatch(&self, mut job: Job) -> mpsc::Sender<Job> {
        let parked = self.idle_workers().pop();
        if let Some(worker) = parked {
            match worker.send(job) {
                Ok(()) => return worker,
                // The worker is gone after all; spawn a replacement.
                Err(mpsc::SendError(back)) => job = back,
            }
        }
        let (worker, jobs) = mpsc::channel::<Job>();
        lgo_trace::sched("serve/watchdog_spawns", 1);
        // Detached on purpose: joining an abandoned worker would wait out
        // its stall. Every worker exits once its job channel is dropped.
        std::thread::spawn(move || {
            job();
            for job in jobs {
                job();
            }
        });
        worker
    }

    fn idle_workers(&self) -> std::sync::MutexGuard<'_, Vec<mpsc::Sender<Job>>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dog(deadline_ms: u64, retries: u32, max_wedged: usize) -> Watchdog {
        Watchdog::new(
            Some(Duration::from_millis(deadline_ms)),
            retries,
            Duration::from_millis(1),
            max_wedged,
        )
    }

    #[test]
    fn inline_mode_runs_on_caller_thread() {
        let w = Watchdog::new(None, 3, Duration::from_millis(1), 2);
        let mut s = WatchdogStats::default();
        let caller = std::thread::current().id();
        let ran_on = w.run(|| move || std::thread::current().id(), &mut s);
        assert_eq!(ran_on, Ok(caller));
        assert_eq!(s, WatchdogStats::default(), "no timing counters inline");
    }

    #[test]
    fn fast_job_succeeds_under_deadline() {
        let w = dog(1_000, 0, 2);
        let mut s = WatchdogStats::default();
        assert_eq!(w.run(|| || 21 * 2, &mut s), Ok(42));
        assert_eq!(s.deadline_misses, 0);
        assert_eq!(w.wedged_live(), 0);
    }

    #[test]
    fn stalled_job_times_out_and_is_counted() {
        let w = dog(10, 1, 8);
        let mut s = WatchdogStats::default();
        let out: Result<(), _> = w.run(
            || || std::thread::sleep(Duration::from_millis(400)),
            &mut s,
        );
        assert_eq!(out, Err(WatchdogError::DeadlineExceeded { attempts: 2 }));
        assert_eq!(s.deadline_misses, 2);
        assert_eq!(s.retries, 1);
        assert_eq!(s.gave_up, 1);
        assert_eq!(w.wedged_live(), 2, "both attempts still sleeping");
        // Once the abandoned workers finish they deregister themselves.
        std::thread::sleep(Duration::from_millis(600));
        assert_eq!(w.wedged_live(), 0);
    }

    #[test]
    fn wedge_cap_blocks_new_attempts() {
        let w = dog(5, 0, 1);
        let mut s = WatchdogStats::default();
        let _: Result<(), _> = w.run(
            || || std::thread::sleep(Duration::from_millis(300)),
            &mut s,
        );
        assert_eq!(w.wedged_live(), 1);
        let out = w.run(|| || 7, &mut s);
        assert_eq!(out, Err(WatchdogError::Exhausted { wedged: 1, cap: 1 }));
        assert_eq!(s.gave_up, 2);
    }

    #[test]
    fn recovery_after_wedge_drains() {
        let w = dog(5, 0, 1);
        let mut s = WatchdogStats::default();
        // The job holds its worker until the test opens the gate, so it
        // misses the deadline however the threads are scheduled.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let wedged: Result<(), _> = w.run(
            || {
                let gate = Arc::clone(&gate);
                move || {
                    gate.wait();
                }
            },
            &mut s,
        );
        assert_eq!(wedged, Err(WatchdogError::DeadlineExceeded { attempts: 1 }));
        assert_eq!(w.wedged_live(), 1);
        assert_eq!(
            w.run(|| || 7, &mut s),
            Err(WatchdogError::Exhausted { wedged: 1, cap: 1 }),
            "the wedged thread holds the cap"
        );
        gate.wait();
        // The released worker drains on its own schedule: wait for the
        // count, with a bound only a hung worker reaches.
        let released = std::time::Instant::now();
        while w.wedged_live() > 0 {
            assert!(
                released.elapsed() < Duration::from_secs(60),
                "the released worker never drained"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // The probe shares the drained accounting; its deadline is one no
        // scheduler stall reaches, so only a refused call can fail it.
        let probe = Watchdog {
            deadline: Some(Duration::from_secs(60)),
            ..w.clone()
        };
        assert_eq!(probe.run(|| || 7, &mut s), Ok(7), "service recovered");
    }

    #[test]
    fn successive_runs_reuse_one_worker() {
        let w = dog(1_000, 0, 2);
        let mut s = WatchdogStats::default();
        let on_worker = || || std::thread::current().id();
        let first = w.run(on_worker, &mut s).unwrap();
        let second = w.run(on_worker, &mut s).unwrap();
        assert_ne!(first, std::thread::current().id(), "supervised, not inline");
        assert_eq!(first, second, "the parked worker ran the second job");
    }

    #[test]
    fn missed_deadline_retires_its_worker() {
        let w = dog(200, 0, 4);
        let mut s = WatchdogStats::default();
        let on_worker = || || std::thread::current().id();
        let parked = w.run(on_worker, &mut s).unwrap();
        // The stalled job lands on the parked worker and holds it until
        // the test opens the gate.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let stalled: Result<(), _> = w.run(
            || {
                let gate = Arc::clone(&gate);
                move || {
                    gate.wait();
                }
            },
            &mut s,
        );
        assert_eq!(stalled, Err(WatchdogError::DeadlineExceeded { attempts: 1 }));
        assert_eq!(w.wedged_live(), 1);
        let fresh = w.run(on_worker, &mut s).unwrap();
        assert_ne!(fresh, parked, "an abandoned worker gets no new job");
        gate.wait();
        let give_up = std::time::Instant::now() + Duration::from_secs(10);
        while w.wedged_live() > 0 && std::time::Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(w.wedged_live(), 0, "the stalled job ended and deregistered");
        assert_eq!(w.run(on_worker, &mut s), Ok(fresh));
    }

    #[test]
    fn panicking_job_is_a_miss_then_the_next_run_succeeds() {
        let w = dog(1_000, 1, 2);
        let mut s = WatchdogStats::default();
        let out: Result<u32, _> = w.run(|| || panic!("injected scorer panic"), &mut s);
        assert_eq!(out, Err(WatchdogError::DeadlineExceeded { attempts: 2 }));
        assert_eq!(s.deadline_misses, 2);
        assert_eq!(s.retries, 1);
        assert_eq!(s.gave_up, 1);
        assert_eq!(w.wedged_live(), 0, "a dead worker is not a wedged one");
        assert_eq!(w.run(|| || 7, &mut s), Ok(7));
        assert_eq!(s.deadline_misses, 2);
    }

    #[test]
    fn clones_run_concurrently_without_deadlock() {
        let w = dog(5_000, 0, 2);
        let start = Arc::new(std::sync::Barrier::new(2));
        let callers: Vec<_> = (0..2u64)
            .map(|caller| {
                let w = w.clone();
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut s = WatchdogStats::default();
                    (0..40u64)
                        .map(|k| {
                            w.run(
                                || {
                                    move || {
                                        std::thread::sleep(Duration::from_micros(200));
                                        caller * 1_000 + k
                                    }
                                },
                                &mut s,
                            )
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        for (caller, handle) in (0..2u64).zip(callers) {
            let got = handle.join().unwrap().unwrap();
            let want: Vec<u64> = (0..40).map(|k| caller * 1_000 + k).collect();
            assert_eq!(got, want);
        }
        assert_eq!(w.wedged_live(), 0);
    }
}
