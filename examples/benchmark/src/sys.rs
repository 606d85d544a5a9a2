//! What the benchmark asks of libc: CPU-time clocks, which the run needs,
//! and three process and socket settings, each best effort: where a setting
//! is unavailable (another OS or C library) or fails, the run goes on and
//! measures the default behaviour.

use std::io;
use std::net::TcpStream;

#[cfg(target_os = "linux")]
mod ffi {
    use std::ffi::{c_int, c_long, c_ulong, c_void};

    pub const IPPROTO_TCP: c_int = 6;
    pub const TCP_QUICKACK: c_int = 12;
    pub const PR_SET_TIMERSLACK: c_int = 29;
    pub const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

    /// `struct timespec` on Linux: `time_t` and `long` are both `long`.
    #[repr(C)]
    pub struct Timespec {
        pub sec: c_long,
        pub nsec: c_long,
    }

    extern "C" {
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        pub fn prctl(option: c_int, ...) -> c_int;
        pub fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
        pub fn pthread_self() -> c_ulong;
        pub fn pthread_getcpuclockid(thread: c_ulong, clock: *mut c_int) -> c_int;
    }

    #[cfg(target_env = "gnu")]
    pub const M_TRIM_THRESHOLD: c_int = -1;
    #[cfg(target_env = "gnu")]
    pub const M_TOP_PAD: c_int = -2;
    #[cfg(target_env = "gnu")]
    pub const M_MMAP_THRESHOLD: c_int = -3;
    #[cfg(target_env = "gnu")]
    pub const M_ARENA_MAX: c_int = -8;

    #[cfg(target_env = "gnu")]
    extern "C" {
        pub fn mallopt(param: c_int, value: c_int) -> c_int;
    }
}

/// Sets a 1 ns timer slack on the calling thread, inherited by the threads
/// it spawns afterwards. With the default 50 µs slack every open-loop send
/// would wake up to 50 µs after its due time, and that lateness would count
/// as latency.
pub fn precise_sleeps() {
    #[cfg(target_os = "linux")]
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and changes only
    // this thread's timer slack.
    unsafe {
        ffi::prctl(ffi::PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// Keeps memory the process frees for its own reuse instead of handing it
/// back to the kernel, in one pool for all threads. Each round of a run
/// builds a fresh server and drops it; with glibc's defaults the next round
/// would fault all its memory in again page by page, at a cost per page
/// that depends on the host's load (on a shared VM it made `cold_window`'s
/// p50 vary by a sixth between runs). With one arena per thread, the fresh
/// connection threads of a round could still land on arenas that had not
/// grown yet: a later `day_rollover` round faulted anywhere from 0 to
/// 74 000 pages in its open-loop phase, and with a single arena it faults
/// under 500. A long-running server reuses the heap it has grown, as every
/// round after the first now does.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: mallopt only changes allocator parameters; it is called
    // before any other thread exists.
    unsafe {
        ffi::mallopt(ffi::M_TRIM_THRESHOLD, 1 << 30);
        ffi::mallopt(ffi::M_TOP_PAD, 64 << 20);
        ffi::mallopt(ffi::M_MMAP_THRESHOLD, 32 << 20);
        ffi::mallopt(ffi::M_ARENA_MAX, 1);
    }
}

/// Makes the kernel acknowledge the data this socket receives at once
/// rather than with the next request. The server does not set
/// `TCP_NODELAY`, so Nagle's algorithm holds each reply until the one
/// before it is acknowledged; with delayed acknowledgements that chains
/// every reply to the arrival of the next request, and latency would be the
/// gap between requests whatever the server's work. Linux clears the flag
/// as it sees fit, so it is set again after every read.
pub fn quick_ack(stream: &TcpStream) {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        let one: std::ffi::c_int = 1;
        // SAFETY: the descriptor is open for the borrow of `stream`, and
        // the option value points to a live c_int of the length passed.
        unsafe {
            ffi::setsockopt(
                stream.as_raw_fd(),
                ffi::IPPROTO_TCP,
                ffi::TCP_QUICKACK,
                (&one as *const std::ffi::c_int).cast(),
                std::mem::size_of::<std::ffi::c_int>() as u32,
            );
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = stream;
}

/// A CPU-time clock: of the whole process, or of one thread, readable from
/// any thread of the process. On a VM whose kernel accounts steal time, as
/// Linux guests on KVM do, neither counts the time the host ran something
/// else on this VM's CPUs.
#[derive(Debug, Clone, Copy)]
pub struct CpuClock(std::ffi::c_int);

impl CpuClock {
    #[cfg(target_os = "linux")]
    pub fn process() -> io::Result<CpuClock> {
        let clock = CpuClock(ffi::CLOCK_PROCESS_CPUTIME_ID);
        clock.ns().map(|_| clock)
    }

    /// The calling thread's clock.
    #[cfg(target_os = "linux")]
    pub fn this_thread() -> io::Result<CpuClock> {
        let mut id = 0;
        // SAFETY: pthread_self has no preconditions, and `id` is a live
        // c_int for pthread_getcpuclockid to write.
        let err = unsafe { ffi::pthread_getcpuclockid(ffi::pthread_self(), &mut id) };
        if err != 0 {
            return Err(io::Error::from_raw_os_error(err));
        }
        Ok(CpuClock(id))
    }

    /// CPU time consumed so far, ns.
    #[cfg(target_os = "linux")]
    pub fn ns(self) -> io::Result<u64> {
        let mut ts = ffi::Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a live timespec for clock_gettime to write.
        if unsafe { ffi::clock_gettime(self.0, &mut ts) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
    }

    #[cfg(not(target_os = "linux"))]
    pub fn process() -> io::Result<CpuClock> {
        Err(unsupported())
    }

    #[cfg(not(target_os = "linux"))]
    pub fn this_thread() -> io::Result<CpuClock> {
        Err(unsupported())
    }

    #[cfg(not(target_os = "linux"))]
    pub fn ns(self) -> io::Result<u64> {
        Err(unsupported())
    }
}

#[cfg(not(target_os = "linux"))]
fn unsupported() -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        "CPU-time clocks are read through Linux's clock_gettime",
    )
}
