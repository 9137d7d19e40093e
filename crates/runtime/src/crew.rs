//! Scoped jobs on a process-wide crew of parked threads.
//!
//! [`scope`] has the contract of [`std::thread::scope`] — a job may borrow
//! the caller's stack, the scope returns only after every job it spawned
//! has ended, also when its body unwinds, and a job's panic is caught and
//! handed to [`JoinHandle::join`] (and to nobody else, so join what you
//! spawn) — except that the threads outlive the scope, as the paper's
//! splitting cores are long-lived contexts the dispatching core only
//! *kicks*: creating and destroying an OS thread per spawn was more than
//! half of a 46-frame call.
//!
//! A spawn pops the idle thread that parked last and fills its mailbox;
//! **with none idle it creates one — no queue, no size cap**, because
//! pipeline jobs block on each other's rings (a chain stage waits for its
//! next stage to drain, every stage for its upstream to close), so a job
//! held back until a thread frees up is a deadlock. The crew grows to the most
//! jobs ever in flight at once and shrinks as threads idle for
//! [`KEEP_ALIVE`] retire. Crew threads are detached and take their name,
//! stack size and CPU affinity when created, not per job. Everything is
//! `Mutex` + `Condvar`; the one `unsafe` is the lifetime erasure of the
//! boxed job that every scoped-thread implementation needs.

use std::io;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// How long a thread stays parked without a job before it retires: far
/// above the gap between back-to-back calls, far below "this process no
/// longer uses the pipeline". (Tests shorten it to watch retirement.)
const KEEP_ALIVE: Duration = Duration::from_millis(if cfg!(test) { 40 } else { 1000 });

/// Locks a crew mutex. None is held across code that can panic (jobs run
/// with no lock held; every update is one assignment), so poison carries
/// no information, and recovering keeps [`AllEnded::drop`] panic-free.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a crew thread is handed: the job with its lifetime erased, where
/// its result goes, and the scope that is waiting for it.
struct Job {
    task: Box<dyn FnOnce() + Send + 'static>,
    outcome: Arc<Outcome>,
    pending: Arc<Pending>,
}

/// One job's result, shared by the thread that publishes it and the
/// [`JoinHandle`] that waits for it.
#[derive(Default)]
struct Outcome {
    result: Mutex<Option<thread::Result<()>>>,
    published: Condvar,
}

/// A scope's count of jobs handed to a thread and not yet ended. In an
/// `Arc`, not on the scope's stack: the thread that takes it to zero still
/// unlocks and notifies after the decrement that lets the scope return.
#[derive(Default)]
struct Pending {
    jobs: Mutex<usize>,
    none_left: Condvar,
}

impl Pending {
    fn job_ended(&self) {
        let mut jobs = lock(&self.jobs);
        *jobs -= 1;
        if *jobs == 0 {
            self.none_left.notify_all();
        }
    }
}

/// The drop guard [`Scope::spawn`]'s `unsafe` rests on: blocks until every
/// counted job has ended, whether the scope's body returned or unwound.
struct AllEnded(Arc<Pending>);

impl Drop for AllEnded {
    fn drop(&mut self) {
        let jobs = lock(&self.0.jobs);
        let _none_left = self.0.none_left.wait_while(jobs, |jobs| *jobs > 0);
    }
}

/// Where one parked thread receives its next job.
struct Mailbox {
    job: Mutex<Option<Job>>,
    arrived: Condvar,
}

/// A set of parked threads: the process-wide [`CREW`] behind [`scope`], or
/// a private one in a unit test, where sizes can be asserted exactly.
struct Crew {
    /// Most recently parked last. A thread lists itself, once, and whoever
    /// unlists it either owes it exactly one job or is the thread, retiring.
    idle: Mutex<Vec<Arc<Mailbox>>>,
    /// Creates the OS thread for a mailbox that already holds its first
    /// job: [`os_thread`], or a test's stand-in that refuses.
    start: fn(&'static Crew, Arc<Mailbox>) -> io::Result<()>,
}

static CREW: Crew = Crew {
    idle: Mutex::new(Vec::new()),
    start: os_thread,
};

fn os_thread(crew: &'static Crew, mailbox: Arc<Mailbox>) -> io::Result<()> {
    let builder = thread::Builder::new().name("mflow-crew".into());
    builder.spawn(move || crew.serve(&mailbox)).map(drop)
}

impl Crew {
    fn scope<'env, F, T>(&'static self, body: F) -> T
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
    {
        let scope = Scope {
            crew: self,
            pending: Arc::default(),
            lifetimes: PhantomData,
        };
        let _all_ended = AllEnded(Arc::clone(&scope.pending));
        body(&scope)
    }

    /// Gives `job` to the thread that parked last — the warmest, and the
    /// others age towards retirement — or, with nobody idle, to a new one.
    /// `Err` when the OS refuses that thread; the job is then dropped unrun.
    fn hand(&'static self, job: Job) -> io::Result<()> {
        let parked = lock(&self.idle).pop();
        let Some(mailbox) = parked else {
            let (job, arrived) = (Mutex::new(Some(job)), Condvar::new());
            return (self.start)(self, Arc::new(Mailbox { job, arrived }));
        };
        *lock(&mailbox.job) = Some(job);
        mailbox.arrived.notify_one();
        Ok(())
    }

    /// A crew thread's whole life: run a job, park, repeat until retired.
    fn serve(&self, me: &Arc<Mailbox>) {
        while let Some(job) = self.next_job(me) {
            let result = catch_unwind(AssertUnwindSafe(job.task));
            // Idle *before* anyone can learn that the job ended, or a caller
            // that opens its next scope the instant this one returns finds
            // nobody idle and the crew grows by a thread per such race.
            lock(&self.idle).push(Arc::clone(me));
            job.pending.job_ended();
            *lock(&job.outcome.result) = Some(result);
            job.outcome.published.notify_all();
        }
    }

    /// Parks until the mailbox is filled; `None` once [`KEEP_ALIVE`] has
    /// passed with the thread still listed idle, which it then unlists.
    fn next_job(&self, me: &Arc<Mailbox>) -> Option<Job> {
        let mut slot = lock(&me.job);
        loop {
            if let Some(job) = slot.take() {
                return Some(job);
            }
            let (guard, wait) =
                (me.arrived.wait_timeout(slot, KEEP_ALIVE)).unwrap_or_else(PoisonError::into_inner);
            slot = guard;
            if wait.timed_out() && slot.is_none() {
                // Unlisted already means a spawner popped this thread and
                // is about to fill the mailbox: keep waiting for it.
                // (Spawners never hold both locks, so nesting is safe.)
                let mut idle = lock(&self.idle);
                if let Some(at) = idle.iter().position(|m| Arc::ptr_eq(m, me)) {
                    idle.remove(at);
                    return None;
                }
            }
        }
    }
}

/// Runs `body` with a [`Scope`] whose jobs run on the process-wide crew.
/// Returns — or resumes `body`'s unwind — only after every job spawned in
/// the scope has ended.
pub(crate) fn scope<'env, F, T>(body: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    CREW.scope(body)
}

/// The spawning side of a [`scope`]; invariant in both lifetimes like
/// [`std::thread::Scope`], whose signature it mirrors.
pub(crate) struct Scope<'scope, 'env: 'scope> {
    crew: &'static Crew,
    pending: Arc<Pending>,
    lifetimes: PhantomData<(&'scope mut &'scope (), &'env mut &'env ())>,
}

impl<'scope> Scope<'scope, '_> {
    /// Starts `f` on a crew thread. Panics, like
    /// [`std::thread::Scope::spawn`], when the OS refuses a thread.
    pub(crate) fn spawn<F>(&'scope self, f: F) -> JoinHandle<'scope>
    where
        F: FnOnce() + Send + 'scope,
    {
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: only the trait object's lifetime bound changes, so the
        // layout is the same; what must hold is that the closure is
        // neither called nor dropped after `'scope`. It is consumed in one
        // of two places. A crew thread calls it inside `catch_unwind`,
        // which also drops its captures, strictly before
        // `Pending::job_ended`; the job is counted below before any thread
        // can see it; and `AllEnded`, dropped when `Crew::scope` returns
        // or unwinds and therefore inside `'scope`, waits for the count to
        // reach zero. Or the OS refuses a thread, and `Crew::hand` drops
        // the closure unrun before it returns `Err`, inside this call.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
        let outcome = Arc::<Outcome>::default();
        let job = Job {
            task,
            outcome: Arc::clone(&outcome),
            pending: Arc::clone(&self.pending),
        };
        *lock(&self.pending.jobs) += 1;
        if let Err(e) = self.crew.hand(job) {
            // No thread has the job, so none will end it: uncount it, or
            // `AllEnded` waits for ever instead of this panic surfacing.
            self.pending.job_ended();
            panic!("failed to spawn a crew thread: {e}");
        }
        let scope = PhantomData;
        JoinHandle { outcome, scope }
    }
}

/// The waiting side of one job.
#[must_use = "a job's panic is reported only through `join`"]
pub(crate) struct JoinHandle<'scope> {
    outcome: Arc<Outcome>,
    scope: PhantomData<&'scope ()>,
}

impl JoinHandle<'_> {
    /// Whether the job has ended (returned or panicked).
    pub(crate) fn is_finished(&self) -> bool {
        lock(&self.outcome.result).is_some()
    }

    /// Blocks until the job has ended or `timeout` has passed, whichever
    /// comes first; `true` when the job has ended.
    pub(crate) fn wait_finished(&self, timeout: Duration) -> bool {
        let published = &self.outcome.published;
        let result = lock(&self.outcome.result);
        let (result, _) = (published.wait_timeout_while(result, timeout, |r| r.is_none()))
            .unwrap_or_else(PoisonError::into_inner);
        result.is_some()
    }

    /// Blocks until the job has ended; `Err` carries its panic payload.
    pub(crate) fn join(self) -> thread::Result<()> {
        let published = &self.outcome.published;
        let mut result = (published.wait_while(lock(&self.outcome.result), |r| r.is_none()))
            .unwrap_or_else(PoisonError::into_inner);
        result.take().expect("waited until published")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::resume_unwind;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};

    /// A crew of the test's own: no other test's jobs park on it.
    fn private_crew() -> &'static Crew {
        crew_started_by(os_thread)
    }

    fn crew_started_by(start: fn(&'static Crew, Arc<Mailbox>) -> io::Result<()>) -> &'static Crew {
        let idle = Mutex::new(Vec::new());
        Box::leak(Box::new(Crew { idle, start }))
    }

    /// Exact between scopes: a thread lists itself idle before its job
    /// counts as ended, and a scope returns only after that.
    fn size(crew: &Crew) -> usize {
        lock(&crew.idle).len()
    }

    #[test]
    fn jobs_borrow_the_callers_stack_and_have_all_run_at_return() {
        let weights = vec![1usize, 2, 3, 4, 5, 6, 7, 8];
        let sum = AtomicUsize::new(0);
        private_crew().scope(|s| {
            for i in 0..weights.len() {
                let (weights, sum) = (&weights, &sum);
                drop(s.spawn(move || {
                    sum.fetch_add(weights[i], Ordering::SeqCst);
                }));
            }
        });
        assert_eq!(sum.load(Ordering::SeqCst), 36);
    }

    #[test]
    fn a_panic_reaches_its_join_only_and_the_thread_serves_again() {
        let crew = private_crew();
        let mut first = None;
        for _ in 0..100 {
            // The barrier keeps both jobs in flight at once, so the crew
            // is exactly two threads after the first scope.
            let both = Barrier::new(2);
            crew.scope(|s| {
                let dies = s.spawn(|| {
                    both.wait();
                    resume_unwind(Box::new("job panic")); // no hook, no noise
                });
                let lives = s.spawn(|| {
                    both.wait();
                });
                let payload = dies.join().expect_err("the panic is the job's result");
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"job panic"));
                assert!(lives.join().is_ok());
            });
            let first = *first.get_or_insert_with(|| size(crew));
            assert_eq!(first, 2);
            assert!(size(crew) <= first, "the crew grew to {}", size(crew));
        }
    }

    #[test]
    fn a_scope_whose_body_unwinds_still_waits_for_its_jobs() {
        let done = AtomicBool::new(false);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            private_crew().scope(|s| {
                drop(s.spawn(|| {
                    // Long enough that a scope which did not wait would
                    // be caught below with `done` still false.
                    thread::sleep(Duration::from_millis(30));
                    done.store(true, Ordering::SeqCst);
                }));
                resume_unwind(Box::new("body panic"));
            })
        }));
        assert!(unwound.is_err());
        assert!(done.load(Ordering::SeqCst), "the job outlived its scope");
    }

    #[test]
    fn jobs_of_one_scope_always_run_side_by_side() {
        // Three jobs that need each other, from eight callers at once: a
        // bounded or queueing pool deadlocks here sooner or later.
        let crew = private_crew();
        thread::scope(|callers| {
            for _ in 0..8 {
                callers.spawn(|| {
                    for _ in 0..200 {
                        let all = Barrier::new(3);
                        crew.scope(|s| {
                            let jobs = [(); 3].map(|()| {
                                s.spawn(|| {
                                    all.wait();
                                })
                            });
                            jobs.into_iter().for_each(|h| h.join().unwrap());
                        });
                    }
                });
            }
        });
        assert!(size(crew) <= 24, "more threads than jobs ever in flight");
    }

    #[test]
    fn wait_finished_times_out_on_a_running_job_and_sees_it_end() {
        let (release, held) = mpsc::channel::<()>();
        private_crew().scope(|s| {
            let job = s.spawn(move || held.recv().unwrap());
            assert!(!job.wait_finished(Duration::from_millis(5)));
            assert!(!job.is_finished());
            release.send(()).unwrap();
            assert!(job.wait_finished(Duration::from_secs(60)));
            assert!(job.is_finished());
            assert!(job.wait_finished(Duration::ZERO));
            job.join().unwrap();
        });
    }

    #[test]
    fn idle_threads_retire_and_the_crew_starts_over() {
        let crew = private_crew();
        crew.scope(|s| s.spawn(|| ()).join().unwrap());
        assert_eq!(size(crew), 1);
        for _ in 0..1_000 {
            if size(crew) == 0 {
                break;
            }
            thread::sleep(KEEP_ALIVE / 4);
        }
        assert_eq!(size(crew), 0, "still parked long after the keep-alive");
        crew.scope(|s| s.spawn(|| ()).join().unwrap());
        assert_eq!(size(crew), 1);
    }

    #[test]
    fn a_refused_thread_panics_the_spawn_and_cannot_hang_the_scope() {
        static STARTS: AtomicUsize = AtomicUsize::new(0);
        fn second_refused(crew: &'static Crew, mailbox: Arc<Mailbox>) -> io::Result<()> {
            match STARTS.fetch_add(1, Ordering::SeqCst) {
                0 => os_thread(crew, mailbox),
                _ => Err(io::Error::other("refused")),
            }
        }
        let crew = crew_started_by(second_refused);
        let (release, held) = mpsc::channel::<()>();
        let ran = AtomicBool::new(false);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            crew.scope(|s| {
                // Busy until the scope unwinds, so the second spawn finds
                // nobody idle and needs the thread it will not get.
                let ran = &ran;
                drop(s.spawn(move || {
                    let _ = held.recv();
                    ran.store(true, Ordering::SeqCst);
                }));
                let _release_on_unwind = release;
                drop(s.spawn(|| unreachable!("no thread ever had this job")));
            })
        }));
        let payload = unwound.expect_err("the refused spawn panics");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("refused"), "{message}");
        // Getting here at all is the point: a count left incremented for
        // the job nobody runs would have parked `AllEnded` for ever.
        assert!(ran.load(Ordering::SeqCst), "the job that had a thread ran");
    }
}
