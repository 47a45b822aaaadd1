//! Keep-awake threads: one spinner per CPU at the `SCHED_IDLE` policy,
//! which the kernel runs only when a CPU has nothing else and preempts
//! the moment anything else wakes.
//!
//! Why a benchmark wants them: on a virtual machine a CPU with nothing
//! to run halts, the host takes the core away, and the next timer or
//! wake-up first waits for the host to hand it back — tens to hundreds
//! of microseconds that depend on the host's other tenants, charged to
//! whichever thread was waking. A workload whose threads mostly sleep
//! (`paced_rtt`, `lossy_count`) then reports the host's mood as engine
//! CPU and reply latency. With the spinners a sleeping engine thread's
//! CPU never halts: its wake-up is a context switch inside the guest,
//! which costs the same from one minute to the next.
//!
//! Every workload runs beside them. The floods keep both CPUs busy
//! themselves, yet ten interleaved pairs of runs on a host that was
//! taking a fifth of the CPU away spread `probes_per_s` by 29 % with the
//! spinners and 58 % without on `reflector_flood`, 17 % and 40 % on
//! `chain_flood`, at the same or a better median: the short parks of the
//! shard and of the resolver are wake-ups too.

use crate::procstat;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }

    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }

    const SCHED_IDLE: i32 = 5;

    /// Moves the calling thread to `SCHED_IDLE`; `false` if the kernel
    /// refused.
    pub fn enter_idle_class() -> bool {
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: `param` is a valid `struct sched_param` for the length
        // of the call, pid 0 names the calling thread, and the call
        // changes nothing but that thread's scheduling policy.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn enter_idle_class() -> bool {
        false
    }
}

/// Kernel ids of the spinners that are running, for CPU accounting to
/// leave out.
static SPINNERS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

pub fn spinner_tids() -> Vec<u32> {
    SPINNERS.lock().map_or(Vec::new(), |tids| tids.clone())
}

/// The running spinners; dropping it stops and joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// One spinner per available CPU. Where the idle class cannot be
    /// entered no spinner is left running: at normal priority it would
    /// compete with the program under test.
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let (mut threads, mut tids) = (Vec::new(), Vec::new());
        for _ in 0..cpus {
            let (tx, rx) = mpsc::channel();
            let flag = Arc::clone(&stop);
            let spawned = std::thread::Builder::new()
                .name("bench-keepawake".into())
                .spawn(move || {
                    let entered = sys::enter_idle_class();
                    let _ = tx.send(entered.then(procstat::current_tid).flatten());
                    // Spinning on `yield_now`, not on a pause: when a
                    // thread of the program yields onto this CPU the
                    // spinner hands it straight back, where a plain
                    // spin would keep it until the next tick.
                    while entered && !flag.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                });
            let Ok(thread) = spawned else { break };
            threads.push(thread);
            if let Ok(Some(tid)) = rx.recv() {
                tids.push(tid);
            }
        }
        if let Ok(mut spinners) = SPINNERS.lock() {
            *spinners = tids;
        }
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        if let Ok(mut spinners) = SPINNERS.lock() {
            spinners.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn spinners_start_stop_and_are_accounted_apart() {
        let awake = KeepAwake::start();
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let tids = spinner_tids();
        assert_eq!(tids.len(), cpus);
        assert!(!tids.contains(&procstat::current_tid().unwrap()));
        let all = procstat::thread_cpu_ns().unwrap();
        assert!(tids.iter().all(|tid| all.contains_key(tid)));
        drop(awake);
        assert!(spinner_tids().is_empty());
    }
}
