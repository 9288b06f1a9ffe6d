//! A thin, zero-dependency epoll binding.
//!
//! The repo's zero-dep stance rules out the `libc` crate, but std
//! already links the platform C library — so the handful of symbols the
//! server's event loop needs (`epoll_create1` / `epoll_ctl` /
//! `epoll_wait`, `pipe2`, and raw fd `read`/`write`/`close`) are
//! declared here directly and wrapped in safe RAII types:
//!
//! * [`Epoll`] — an epoll instance. Interest registration is
//!   level-triggered (the loop re-arms write interest explicitly,
//!   which keeps the state machine simple and misses nothing).
//! * [`WakePipe`] — a nonblocking self-pipe. A serving worker that
//!   finishes a job writes one byte to wake `epoll_wait` (only when the
//!   loop's mailbox goes from idle to pending); the loop drains it and
//!   empties the mailbox. Saturation is harmless: a full pipe means a
//!   wakeup is already pending.
//!
//! These are Linux system calls, and cs-net builds on Linux only. The
//! module is public so event-driven *clients* can reuse it —
//! `cs-netload`'s connection sweep multiplexes a thousand sockets from
//! one thread this way, keeping load generation from competing with the
//! system under test for scheduler slots.

use std::io;
use std::os::unix::io::RawFd;

// Constants from the Linux UAPI headers (stable ABI).
/// Readiness: the fd has bytes to read.
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the fd accepts writes without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Condition: the fd is in an error state.
pub const EPOLLERR: u32 = 0x008;
/// Condition: the peer hung up.
pub const EPOLLHUP: u32 = 0x010;
/// Condition: the peer shut down the write half (half-close).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const O_NONBLOCK: i32 = 0o4000;
const O_CLOEXEC: i32 = 0o2000000;

/// One readiness event, ABI-compatible with `struct epoll_event`.
///
/// On x86-64 the kernel struct is packed (no padding between the
/// 32-bit event mask and the 64-bit data word); other architectures
/// use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// An all-zero event, for pre-sizing wait buffers.
    pub fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }

    /// The readiness mask (`EPOLLIN | ...`).
    pub fn events(&self) -> u32 {
        // By-value copy: taking a reference into the packed struct
        // would be UB on x86-64.
        self.events
    }

    /// The registered token.
    pub fn token(&self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn pipe2(fds: *mut i32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32, context: &str) -> io::Result<i32> {
    if ret < 0 {
        let err = io::Error::last_os_error();
        Err(io::Error::new(err.kind(), format!("{context}: {err}")))
    } else {
        Ok(ret)
    }
}

/// An epoll instance (closed on drop).
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) }, "epoll_create1")?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64, context: &str) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) }, context)?;
        Ok(())
    }

    /// Registers `fd` with the given interest mask and token.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token, "epoll_ctl(ADD)")
    }

    /// Replaces the interest mask for a registered fd.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token, "epoll_ctl(MOD)")
    }

    /// Deregisters an fd. Errors are ignorable at close time (closing
    /// an fd deregisters it anyway), so this returns them for the
    /// caller to drop or log.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent::zeroed();
        // Pre-2.6.9 kernels required a non-null event for DEL; passing
        // one is harmless everywhere.
        cvt(
            // SAFETY: `ev` outlives the call.
            unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) },
            "epoll_ctl(DEL)",
        )?;
        Ok(())
    }

    /// Waits up to `timeout_ms` for readiness; fills `events` and
    /// returns how many are valid. A zero return is a timeout.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = events.len().min(i32::MAX as usize) as i32;
        loop {
            // SAFETY: the buffer is valid for `max` entries.
            let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), max, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(io::Error::new(err.kind(), format!("epoll_wait: {err}")));
            }
            return Ok(n as usize);
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe {
            close(self.fd);
        }
    }
}

/// The write end of a wake pipe, cheap to clone into other threads.
/// [`Waker::wake`] never blocks: a full pipe already holds a pending
/// wakeup byte.
#[derive(Clone)]
pub struct Waker {
    fd: RawFd,
    /// Keeps the write-end fd open until the last clone drops.
    _owner: std::sync::Arc<PipeFd>,
}

/// Owns the raw write-end fd so the last [`Waker`] clone closes it.
struct PipeFd(RawFd);

impl Drop for PipeFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe {
            close(self.0);
        }
    }
}

impl Waker {
    /// Wakes the reactor. Best-effort by design: `EAGAIN` (pipe full)
    /// means a wakeup is already queued.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: one byte from a live stack slot; fd kept open by `_owner`.
        unsafe {
            let _ = write(self.fd, &byte, 1);
        }
    }
}

/// The read end of the wake pipe, registered with the reactor's epoll.
pub struct WakePipe {
    read_fd: RawFd,
    waker: Waker,
}

impl WakePipe {
    /// Creates a nonblocking close-on-exec pipe pair.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        // SAFETY: fds is a valid 2-slot array.
        cvt(
            unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) },
            "pipe2",
        )?;
        Ok(WakePipe {
            read_fd: fds[0],
            waker: Waker {
                fd: fds[1],
                _owner: std::sync::Arc::new(PipeFd(fds[1])),
            },
        })
    }

    /// The fd to register for `EPOLLIN`.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// A cloneable wake handle for other threads.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Drains every pending wakeup byte (nonblocking).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: buf is a valid 64-byte buffer.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: we own the read end; the write end closes with the
        // last Waker clone.
        unsafe {
            close(self.read_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_wakes_epoll_and_drains() {
        let ep = Epoll::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        ep.add(pipe.read_fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::zeroed(); 4];
        // No wakeup queued: times out with zero events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        let waker = pipe.waker();
        let t = std::thread::spawn(move || waker.wake());
        let n = ep.wait(&mut events, 2_000).unwrap();
        t.join().unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].events() & EPOLLIN, 0);

        pipe.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn repeated_wakes_saturate_without_blocking() {
        let pipe = WakePipe::new().unwrap();
        let waker = pipe.waker();
        // Far more wakes than the pipe buffer holds; must not block.
        for _ in 0..100_000 {
            waker.wake();
        }
        pipe.drain();
    }

    #[test]
    fn modify_and_delete_round_trip() {
        let ep = Epoll::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        ep.add(pipe.read_fd(), EPOLLIN, 1).unwrap();
        ep.modify(pipe.read_fd(), EPOLLIN, 2).unwrap();
        pipe.waker().wake();
        let mut events = [EpollEvent::zeroed(); 4];
        let n = ep.wait(&mut events, 2_000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 2);
        ep.delete(pipe.read_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }
}
