//! Vendored readiness and resource syscall shims.
//!
//! The workspace's no-external-deps discipline extends to the event loop:
//! instead of pulling in `libc`/`mio`, this module declares the handful
//! of C symbols the reactor needs (`epoll_*`, `getrlimit`/`setrlimit`) as
//! `extern "C"` items — the Rust standard library already links the
//! platform libc, so the symbols resolve without adding a dependency.
//!
//! Three primitives are exposed:
//!
//! * [`Poller`] — level-triggered readiness notification over raw fds
//!   (Linux epoll). Tokens are plain `u64`s chosen by the caller.
//! * [`Waker`] — a cross-thread wakeup channel built from a loopback
//!   TCP pair (pure std, no extra syscalls), with a pending-flag so N
//!   wakes between two [`Waker::clear`]s cost one socket write.
//! * [`raise_nofile_limit`] — lift `RLIMIT_NOFILE`'s soft limit to the
//!   hard limit, so a 10k-connection server doesn't die at the default
//!   1024-fd soft cap.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};

#[cfg(target_os = "linux")]
pub(crate) use epoll::Poller;

#[cfg(not(target_os = "linux"))]
compile_error!("iolap-serve's reactor requires Linux epoll");

/// What a polled fd is ready for. `error` folds in hangup: a conn with
/// either flag set should be read (to observe EOF) or torn down.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// Caller-chosen registration token.
    pub token: u64,
    /// Readable (or peer half-closed — a read will return 0).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup condition on the fd.
    pub error: bool,
}

/// Interest set for a registration. Both-false is valid and means "keep
/// the registration but report nothing" — the reactor parks dispatched
/// connections this way so buffered pipelined bytes don't busy-wake the
/// loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Report readability.
    pub readable: bool,
    /// Report writability.
    pub writable: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest { readable: true, writable: false };
    pub(crate) const WRITE: Interest = Interest { readable: false, writable: true };
    pub(crate) const NONE: Interest = Interest { readable: false, writable: false };
}

// ---------------------------------------------------------------------------
// Linux: epoll
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod epoll;

// ---------------------------------------------------------------------------
// Waker
// ---------------------------------------------------------------------------

/// Cross-thread reactor wakeup: a connected loopback TCP pair. Workers
/// (and the shutdown path) call [`wake`](Waker::wake); the reactor
/// registers [`read_fd`](Waker::read_fd) for readability and calls
/// [`clear`](Waker::clear) when it fires. The `pending` flag collapses
/// any number of wakes between two clears into one socket write.
pub(crate) struct Waker {
    tx: TcpStream,
    rx: TcpStream,
    pending: AtomicBool,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        // std has no socketpair; a loopback accept gives the same thing.
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nodelay(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx, pending: AtomicBool::new(false) })
    }

    /// The fd the reactor should register for readability.
    pub(crate) fn read_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Wake the reactor (idempotent until the next [`clear`](Waker::clear)).
    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            use std::io::Write;
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    /// Drain pending wake bytes. The reactor must drain its message
    /// queues *after* calling this, so a wake that races the drain is
    /// either observed now or re-signals the socket.
    pub(crate) fn clear(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        self.pending.store(false, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// RLIMIT_NOFILE
// ---------------------------------------------------------------------------

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Raise the process's open-file soft limit to its hard limit and return
/// the soft limit now in effect. Best-effort: on any failure the current
/// (unchanged) soft limit is returned. Servers holding tens of thousands
/// of sockets call this once at startup; the default soft limit on most
/// distributions is 1024, which a 10k-connection sweep blows through.
pub fn raise_nofile_limit() -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid out-pointer for the duration of the call.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.cur < lim.max {
        let want = RLimit { cur: lim.max, max: lim.max };
        // SAFETY: passing a valid, initialized struct by const pointer.
        if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
            return want.cur;
        }
    }
    lim.cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn waker_wakes_and_clears() {
        let w = Waker::new().unwrap();
        let poller = Poller::new().unwrap();
        poller.add(w.read_fd(), 7, Interest::READ).unwrap();

        // No wake: times out with no events.
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());

        // Multiple wakes collapse into one readable event.
        w.wake();
        w.wake();
        w.wake();
        poller.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // After clear, the level-triggered source goes quiet...
        w.clear();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());

        // ...and the next wake fires again.
        w.wake();
        poller.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn poller_reports_listener_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 42, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "no pending connection yet");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        // Interest NONE parks the registration without removing it.
        poller.modify(listener.as_raw_fd(), 42, Interest::NONE).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "parked registration must stay quiet");

        poller.modify(listener.as_raw_fd(), 42, Interest::READ).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        assert_eq!(events.len(), 1, "re-armed registration reports again");

        poller.remove(listener.as_raw_fd()).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn nofile_limit_reports_a_sane_value() {
        let n = raise_nofile_limit();
        assert!(n >= 256, "soft fd limit {n} is implausibly low");
        // Calling it again is idempotent.
        assert_eq!(raise_nofile_limit(), n);
    }
}
