//! CPU placement: after set-up, the serving tier *and* the load generator
//! run on one core.
//!
//! The box the harness was sized on is a 2-vCPU VM where a wake-up that
//! crosses cores costs an inter-processor interrupt of very uneven
//! latency. Left alone, server and generator threads migrate, and each run
//! settles in a placement of its own; splitting them over the two cores
//! made every request cross twice and left `scan_lists` throughput moving
//! ±20% between identical runs, against ±4% with everything on one core
//! (where a request is a chain of same-core hand-offs). A request is
//! sequential through client, connection thread and worker anyway, so one
//! core loses little capacity, and the other core is left to absorb
//! whatever else the machine does. Set-up runs unpinned, as a
//! deployment's would.
//!
//! Threads inherit the mask of the thread that spawns them, so pinning the
//! main thread before the servers are spawned pins every server thread.

use std::sync::OnceLock;

/// A CPU mask as the kernel takes it: 1024 bits.
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::Mask;

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable array of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a live array of exactly the size passed, which
        // the call only reads; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Mask;

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_mask: &Mask) -> bool {
        false
    }
}

/// The mask the process started with, read once before anything is pinned.
fn original() -> Option<&'static Mask> {
    static ORIGINAL: OnceLock<Option<Mask>> = OnceLock::new();
    ORIGINAL.get_or_init(sys::get).as_ref()
}

/// Remembers the process's starting mask. Call before the first pin.
pub fn init() {
    original();
}

/// Pins the calling thread — and every thread it spawns from now on — to
/// the serving core: the first core the process may use. Returns whether
/// it took.
pub fn pin_to_serving_core() -> bool {
    let Some(allowed) = original() else {
        return false;
    };
    let Some(word) = allowed.iter().position(|&w| w != 0) else {
        return false;
    };
    let mut mask: Mask = [0; 16];
    mask[word] = 1 << allowed[word].trailing_zeros();
    sys::set(&mask)
}

/// Lets the calling thread run on every core the process started with.
pub fn unpin() -> bool {
    original().is_some_and(sys::set)
}
