//! Pinning the benchmark to one CPU.
//!
//! On a virtual machine a thread woken on another CPU waits for the host to
//! run that virtual CPU, and how long depends on the host's other tenants,
//! not on the program: unpinned, the same commit's `point-lookup` qps moved
//! between 2,100 and 3,500 from one 2 s window to the next; pinned, the
//! windows of a run agree within a few percent (see README.md). So the
//! single-threaded workloads (`point-lookup`, `cold-boot`) run on one CPU,
//! chosen first thing in `run` before any thread exists, and every later
//! thread inherits it. `analytic-scan`, whose queries run on 2 threads, is
//! not pinned. [`with_all_cpus`] lifts the pin for the parallel speed-up
//! probe, whose worker threads are started inside it.

use std::io;
use std::sync::OnceLock;

#[cfg(target_os = "linux")]
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_ulong};

    /// `cpu_set_t` holds 1024 bits.
    const WORDS: usize = 1024 / c_ulong::BITS as usize;
    const BITS: usize = c_ulong::BITS as usize;
    pub type Mask = [c_ulong; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
    }

    /// The calling thread's CPU mask.
    pub fn get() -> io::Result<Mask> {
        let mut mask: Mask = [0; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(mask)
    }

    /// Sets the calling thread's CPU mask.
    pub fn set(mask: &Mask) -> io::Result<()> {
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        if unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// The highest-numbered CPU in `mask` and the mask holding only it.
    pub fn last_cpu(mask: &Mask) -> Option<(usize, Mask)> {
        let cpu = (0..WORDS * BITS)
            .rev()
            .find(|&i| (mask[i / BITS] >> (i % BITS)) & 1 == 1)?;
        let mut one: Mask = [0; WORDS];
        one[cpu / BITS] = 1 << (cpu % BITS);
        Some((cpu, one))
    }
}

/// The masks before and after pinning.
#[cfg(target_os = "linux")]
struct Masks {
    all: sys::Mask,
    one: sys::Mask,
}

#[cfg(target_os = "linux")]
static PINNED: OnceLock<Masks> = OnceLock::new();

/// Restricts the calling thread, and every thread it starts later, to the
/// highest-numbered CPU it may run on; returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let all = sys::get()?;
    let (cpu, one) = sys::last_cpu(&all).ok_or_else(|| io::Error::other("empty CPU mask"))?;
    sys::set(&one)?;
    let _ = PINNED.set(Masks { all, one });
    Ok(cpu)
}

/// Runs `f` with the calling thread allowed on every CPU it had before
/// pinning, so threads `f` starts may run in parallel.
#[cfg(target_os = "linux")]
pub fn with_all_cpus<T>(f: impl FnOnce() -> T) -> io::Result<T> {
    let Some(masks) = PINNED.get() else {
        return Ok(f());
    };
    sys::set(&masks.all)?;
    let out = f();
    sys::set(&masks.one)?;
    Ok(out)
}

/// Elsewhere the benchmark runs unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> io::Result<usize> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "CPU pinning needs Linux",
    ))
}

#[cfg(not(target_os = "linux"))]
pub fn with_all_cpus<T>(f: impl FnOnce() -> T) -> io::Result<T> {
    Ok(f())
}
