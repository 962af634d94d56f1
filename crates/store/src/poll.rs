//! Readiness primitives for the worker pool: an `epoll(7)` set and an
//! `eventfd(2)` doorbell.
//!
//! std has no readiness API, so this module makes the raw calls itself
//! (Linux only). Each call is wrapped once here; the rest of the crate
//! sees two small safe types:
//!
//! * [`Poller`] — one epoll set, **level-triggered**: a socket stays
//!   reported for as long as it is ready, so a connection cut off by
//!   the read budget is simply reported again on the next wait;
//! * [`Doorbell`] — an eventfd another thread rings to wake the worker
//!   blocked on the set it is registered in. Rings before the wait are
//!   not lost: the eventfd counter stays readable until drained.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};
use std::time::Duration;

/// `struct epoll_event`: packed on x86-64 only, as in the kernel ABI.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub(crate) struct Event {
    events: u32,
    token: u64,
}

impl Event {
    /// The token the ready descriptor was registered with.
    pub(crate) fn token(&self) -> u64 {
        self.token
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut Event) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut Event, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;

/// What a registered descriptor is waited on for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Interest {
    Readable,
    Writable,
}

impl Interest {
    fn bits(self) -> u32 {
        match self {
            Interest::Readable => EPOLLIN,
            Interest::Writable => EPOLLOUT,
        }
    }
}

/// Turn a `-1`-on-error return into an `io::Result`.
fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Own a descriptor a successful call just returned.
fn owned(ret: c_int) -> io::Result<OwnedFd> {
    // SAFETY: `check` passed, so `ret` is a fresh descriptor nobody
    // else owns.
    check(ret).map(|fd| unsafe { OwnedFd::from_raw_fd(fd) })
}

/// One epoll set.
pub(crate) struct Poller {
    fd: OwnedFd,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: no pointers involved.
        owned(unsafe { epoll_create1(EPOLL_CLOEXEC) }).map(|fd| Poller { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Option<Interest>) -> io::Result<()> {
        let mut event = Event {
            events: interest.map_or(0, Interest::bits),
            token,
        };
        // SAFETY: `event` outlives the call; the kernel only reads it.
        check(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) }).map(drop)
    }

    /// Start watching `fd`; its readiness is reported under `token`.
    pub(crate) fn add(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), token, Some(interest))
    }

    /// Change what a watched `fd` is waited on for.
    pub(crate) fn modify(
        &self,
        fd: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), token, Some(interest))
    }

    /// Stop watching `fd`. (Closing a descriptor also removes it.)
    pub(crate) fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd.as_raw_fd(), 0, None)
    }

    /// Block until a watched descriptor is ready or `timeout` passes
    /// (`None`: no timeout), filling `events`; returns the ready prefix.
    /// A signal interrupting the wait reads as an empty wake-up.
    pub(crate) fn wait<'e>(
        &self,
        events: &'e mut [Event],
        timeout: Option<Duration>,
    ) -> io::Result<&'e [Event]> {
        // Round up so a sub-millisecond timeout still blocks.
        let ms = timeout.map_or(-1, |t| {
            t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int
        });
        let max = events.len().min(c_int::MAX as usize) as c_int;
        // SAFETY: the kernel writes at most `max` events into `events`.
        match check(unsafe { epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, ms) }) {
            Ok(n) => Ok(&events[..n as usize]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(&events[..0]),
            Err(e) => Err(e),
        }
    }
}

/// An eventfd doorbell: [`ring`](Doorbell::ring) from any thread wakes
/// the worker whose [`Poller`] watches it.
pub(crate) struct Doorbell {
    fd: OwnedFd,
}

impl Doorbell {
    pub(crate) fn new() -> io::Result<Doorbell> {
        // SAFETY: no pointers involved.
        owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }).map(|fd| Doorbell { fd })
    }

    /// Wake the watcher. Never blocks; rings coalesce until drained.
    pub(crate) fn ring(&self) {
        let one = 1u64;
        // SAFETY: writes 8 bytes from a live u64. The only failure is a
        // counter at its maximum, which is already readable.
        unsafe { write(self.fd.as_raw_fd(), (&one as *const u64).cast(), 8) };
    }

    /// Reset the doorbell; returns the rings since the last drain.
    pub(crate) fn drain(&self) -> u64 {
        let mut rings = 0u64;
        // SAFETY: reads at most 8 bytes into a live u64. An unrung
        // (nonblocking) eventfd fails with EAGAIN and leaves it 0.
        unsafe { read(self.fd.as_raw_fd(), (&mut rings as *mut u64).cast(), 8) };
        rings
    }
}

impl AsRawFd for Doorbell {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn doorbell_wakes_a_waiting_poller_and_coalesces_rings() {
        let poller = Poller::new().expect("epoll");
        let bell = Doorbell::new().expect("eventfd");
        poller.add(&bell, 7, Interest::Readable).expect("add");
        let mut events = vec![Event::default(); 4];
        let ready = poller
            .wait(&mut events, Some(Duration::from_millis(1)))
            .expect("wait");
        assert!(ready.is_empty(), "an unrung doorbell is not ready");
        bell.ring();
        bell.ring();
        let ready = poller.wait(&mut events, None).expect("wait");
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].token(), 7);
        assert_eq!(bell.drain(), 2);
        assert_eq!(bell.drain(), 0, "drained");
    }

    #[test]
    fn interest_follows_modify_and_delete() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let poller = Poller::new().expect("epoll");
        let mut events = vec![Event::default(); 4];
        let now = Some(Duration::ZERO);
        poller.add(&server, 1, Interest::Readable).expect("add");
        assert!(poller.wait(&mut events, now).expect("wait").is_empty());
        client.write_all(b"x").expect("write");
        let ready = poller.wait(&mut events, None).expect("wait");
        assert_eq!(ready.len(), 1, "readable");
        assert_eq!(
            poller.wait(&mut events, now).expect("wait").len(),
            1,
            "level-triggered: still reported while unread"
        );
        poller
            .modify(&server, 1, Interest::Writable)
            .expect("modify");
        assert_eq!(poller.wait(&mut events, now).expect("wait").len(), 1);
        poller.delete(&server).expect("delete");
        assert!(poller.wait(&mut events, now).expect("wait").is_empty());
    }
}
