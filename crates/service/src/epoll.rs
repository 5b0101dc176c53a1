//! Minimal epoll / eventfd binding shared by the service reactor and the
//! peer node's I/O loop: raw `extern "C"` declarations against the libc
//! the binary already links (no crate dependency, per the no-registry
//! shims policy). Level-triggered throughout.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};

// --- epoll / eventfd binding (x86_64 linux) --------------------------

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

/// `struct epoll_event`; packed on x86_64, where the kernel ABI elides
/// the padding other architectures keep.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    pub(crate) events: u32,
    pub(crate) data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

pub(crate) fn epoll_add(ep: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    // SAFETY: `ev` is a live, correctly laid out `epoll_event` for the
    // duration of the call; bad descriptors are reported as errors.
    if unsafe { epoll_ctl(ep, EPOLL_CTL_ADD, fd, &mut ev) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

// --- helpers ----------------------------------------------------------

/// A fresh close-on-exec epoll instance.
pub(crate) fn create() -> io::Result<OwnedFd> {
    // SAFETY: no pointers cross the call.
    let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` was just returned open and is owned by nothing else.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// Re-arms `fd`'s interest set.
pub(crate) fn epoll_mod(ep: i32, fd: i32, events: u32, data: u64) {
    let mut ev = EpollEvent { events, data };
    // SAFETY: as in `epoll_add`.
    unsafe { epoll_ctl(ep, EPOLL_CTL_MOD, fd, &mut ev) };
}

/// Whether an `accept` failed because the process or the system ran
/// out of file descriptors (EMFILE / ENFILE). The pending connection
/// stays queued, so a level-triggered listener would report it ready
/// again at once: callers stop polling the listener until an fd frees.
pub(crate) fn out_of_fds(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23 | 24))
}

/// Stops watching `fd`.
pub(crate) fn epoll_del(ep: i32, fd: i32) {
    // SAFETY: `EPOLL_CTL_DEL` ignores the event pointer, which may be
    // null since Linux 2.6.9.
    unsafe { epoll_ctl(ep, EPOLL_CTL_DEL, fd, std::ptr::null_mut()) };
}

/// Waits up to `timeout_ms` (-1: forever) and returns the ready prefix
/// of `events`; an interrupted wait returns no events.
pub(crate) fn wait(ep: &OwnedFd, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: the kernel writes at most `events.len()` entries into the
    // exclusively borrowed slice.
    let n = unsafe {
        epoll_wait(
            ep.as_raw_fd(),
            events.as_mut_ptr(),
            events.len() as i32,
            timeout_ms,
        )
    };
    if n < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(0)
        } else {
            Err(e)
        };
    }
    Ok(n as usize)
}

/// A nonblocking eventfd: [`signal`] from any thread interrupts an
/// `epoll_wait` that watches it for `EPOLLIN`; [`clear`] re-arms it.
pub(crate) fn event_fd() -> io::Result<File> {
    // SAFETY: no pointers cross the call.
    let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` was just returned open and is owned by nothing else.
    Ok(unsafe { File::from_raw_fd(fd) })
}

/// Adds one to the eventfd's counter, making it readable.
pub(crate) fn signal(efd: &File) {
    let _ = (&*efd).write(&1u64.to_ne_bytes());
}

/// Resets the eventfd's counter.
pub(crate) fn clear(efd: &File) {
    let mut buf = [0u8; 8];
    let _ = (&*efd).read(&mut buf);
}
