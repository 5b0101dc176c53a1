//! Probes of the benchmark's own process (Linux, x86_64): CPU clocks,
//! per-thread CPU and context switches grouped by thread name, resident
//! memory, and the two syscalls the generator needs (timer slack and
//! epoll). Raw `extern "C"` declarations against the libc the binary
//! already links, as `amf-service`'s reactor does: no crate dependency.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::os::unix::thread::JoinHandleExt;
use std::thread::JoinHandle;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `struct epoll_event`; packed on x86_64, where the kernel ABI elides
/// the padding other architectures keep.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn pthread_getcpuclockid(thread: u64, clock: *mut i32) -> i32;
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CLOEXEC: i32 = 0x80000;
/// `USER_HZ`: the unit of the per-thread times in `/proc/*/stat`.
const CLOCK_TICKS_PER_S: u64 = 100;

/// Shrinks the calling thread's timer slack to 1 ns. The default 50 µs
/// slack lets the kernel defer every `nanosleep` wake-up, which added
/// ~45 µs to each open-loop sample.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches only
    // the calling thread's scheduling state.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64, 0u64, 0u64, 0u64);
    }
}

fn read_clock(clock: i32) -> Option<u64> {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return None;
    }
    Some(ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
}

/// CPU time of the whole process (every thread, live or exited), ns.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID).unwrap_or(0)
}

/// CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID).unwrap_or(0)
}

/// CPU clock of a spawned thread, readable from any thread while that
/// thread has not exited.
#[derive(Clone, Copy)]
pub struct ThreadClock(i32);

impl ThreadClock {
    /// The CPU clock of the thread behind `handle`.
    pub fn of<T>(handle: &JoinHandle<T>) -> Option<Self> {
        let mut clock = 0i32;
        // SAFETY: the handle's pthread_t names a live, unjoined thread and
        // `clock` is writable.
        (unsafe { pthread_getcpuclockid(handle.as_pthread_t(), &mut clock) } == 0)
            .then_some(Self(clock))
    }

    /// CPU time of that thread so far, ns.
    pub fn cpu_ns(self) -> u64 {
        read_clock(self.0).unwrap_or(0)
    }
}

/// Resident set size of the process, bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// The layer a thread belongs to, by the name its spawner gave it
/// (`comm` is truncated to 15 bytes, hence the prefixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadGroup {
    /// `amf-service-reactor`.
    Reactor,
    /// `amf-task-worker`.
    TaskWorker,
    /// `amf-task-timer`.
    TaskTimer,
    /// `peer<N>-*`: lease-ring session threads.
    Peer,
    /// `fault-proxy-*`.
    FaultProxy,
    /// The benchmark's own `bench-*` threads and its main thread.
    Bench,
    /// Anything else.
    Other,
}

impl ThreadGroup {
    fn of(name: &str, is_main: bool) -> Self {
        if is_main || name.starts_with("bench-") {
            ThreadGroup::Bench
        } else if name.starts_with("amf-service-rea") {
            ThreadGroup::Reactor
        } else if name.starts_with("amf-task-worker") {
            ThreadGroup::TaskWorker
        } else if name.starts_with("amf-task-timer") {
            ThreadGroup::TaskTimer
        } else if name.starts_with("peer") {
            ThreadGroup::Peer
        } else if name.starts_with("fault-proxy") {
            ThreadGroup::FaultProxy
        } else {
            ThreadGroup::Other
        }
    }
}

/// Per-thread CPU (µs, tick-granular) and context switches of every live
/// thread, summed by [`ThreadGroup`].
#[derive(Debug, Clone, Default)]
pub struct ThreadSample {
    groups: Vec<(ThreadGroup, u64, u64)>,
}

impl ThreadSample {
    /// Reads `/proc/self/task/*/{stat,status}`.
    pub fn take() -> Self {
        let pid = std::process::id().to_string();
        let mut groups: Vec<(ThreadGroup, u64, u64)> = Vec::new();
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return Self { groups };
        };
        for entry in dir.flatten() {
            let tid = entry.file_name().to_string_lossy().into_owned();
            let path = entry.path();
            let Ok(stat) = std::fs::read_to_string(path.join("stat")) else {
                continue;
            };
            let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
                continue;
            };
            let name = &stat[open + 1..close];
            // Fields after the command: state is field 3, utime 14, stime 15.
            let rest: Vec<&str> = stat[close + 1..].split_whitespace().collect();
            let ticks = |i: usize| rest.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            let cpu_us = (ticks(11) + ticks(12)) * 1_000_000 / CLOCK_TICKS_PER_S;
            let ctx = std::fs::read_to_string(path.join("status"))
                .map(|s| {
                    s.lines()
                        .filter(|l| l.contains("ctxt_switches:"))
                        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                        .sum()
                })
                .unwrap_or(0);
            let group = ThreadGroup::of(name, tid == pid);
            match groups.iter_mut().find(|(g, _, _)| *g == group) {
                Some(slot) => {
                    slot.1 += cpu_us;
                    slot.2 += ctx;
                }
                None => groups.push((group, cpu_us, ctx)),
            }
        }
        Self { groups }
    }

    /// CPU µs of `group` at the time of the sample.
    pub fn cpu_us(&self, group: ThreadGroup) -> u64 {
        self.groups
            .iter()
            .find(|(g, _, _)| *g == group)
            .map_or(0, |s| s.1)
    }

    /// Context switches of every thread outside [`ThreadGroup::Bench`].
    pub fn ctx_switches_outside_bench(&self) -> u64 {
        self.groups
            .iter()
            .filter(|(g, _, _)| *g != ThreadGroup::Bench)
            .map(|s| s.2)
            .sum()
    }
}

/// A level-triggered epoll set over a few sockets, tokens = their index.
pub struct Poller {
    ep: OwnedFd,
}

impl Poller {
    /// Registers `fds` for readability; token `i` is `fds[i]`.
    pub fn new(fds: &[&impl AsRawFd]) -> io::Result<Self> {
        // SAFETY: plain syscall; the returned fd is owned immediately.
        let ep = unsafe {
            let fd = epoll_create1(EPOLL_CLOEXEC);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            OwnedFd::from_raw_fd(fd)
        };
        for (i, fd) in fds.iter().enumerate() {
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: i as u64,
            };
            // SAFETY: both fds are open and `ev` is valid for the call.
            if unsafe { epoll_ctl(ep.as_raw_fd(), EPOLL_CTL_ADD, fd.as_raw_fd(), &mut ev) } != 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(Self { ep })
    }

    /// Waits up to `timeout_ms` and appends the ready tokens to `ready`.
    pub fn wait(&self, timeout_ms: i32, ready: &mut Vec<usize>) -> io::Result<()> {
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        // SAFETY: `events` holds 8 writable entries, as declared.
        let n = unsafe { epoll_wait(self.ep.as_raw_fd(), events.as_mut_ptr(), 8, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            return if err.kind() == io::ErrorKind::Interrupted {
                Ok(())
            } else {
                Err(err)
            };
        }
        ready.extend(events[..n as usize].iter().map(|e| e.data as usize));
        Ok(())
    }
}
