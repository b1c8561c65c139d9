//! The program under test as a child process: spawn `laab serve --listen`
//! at its defaults, wait until it accepts, read its CPU time from
//! `/proc`, and make sure it is gone — child reaped, socket file removed
//! — on every way out.

use std::io;
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use laab_serve::proto::{self, Message};

/// Set by SIGINT / SIGTERM; every loop in the harness polls it and winds
/// down normally, so the [`Server`] drop guard runs.
pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// How long the server may take from `exec` to accepting.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a graceful shutdown may take before the child is killed.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(5);

extern "C" fn on_signal(_signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Route SIGINT and SIGTERM to [`INTERRUPTED`] instead of killing the
/// harness outright (which would orphan the server child).
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C library's; the handler only stores to an
    // atomic, which is async-signal-safe, and it lives for the program.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Have the kernel SIGKILL the calling (child) process when the thread
/// that spawned it dies — the one exit path no drop guard or signal
/// handler covers is the harness itself being SIGKILLed.
fn die_with_parent() -> io::Result<()> {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: `prctl(PR_SET_PDEATHSIG, sig)` takes one integer argument
    // and only sets a field of the calling process.
    if unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// A running `laab serve` child bound to a unix socket.
pub struct Server {
    child: Child,
    socket: PathBuf,
    started: Instant,
}

impl Server {
    /// Spawn `<binary> serve --listen unix:<socket> --seed <seed>` — no
    /// tuning flags — and wait until the socket accepts. A stale socket
    /// file left by a crashed run is replaced.
    pub fn spawn(binary: &Path, socket: &Path, seed: u64) -> io::Result<Server> {
        match std::fs::remove_file(socket) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let mut command = Command::new(binary);
        command
            .args(["serve", "--listen", &format!("unix:{}", socket.display())])
            .args(["--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        // SAFETY: the closure runs in the forked child before `exec` and
        // makes one async-signal-safe system call that touches no memory.
        unsafe { command.pre_exec(die_with_parent) };
        let started = Instant::now();
        let child = command
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("spawning {}: {e}", binary.display())))?;
        // From here on the guard owns the child: any early return kills it.
        let mut server = Server { child, socket: socket.to_path_buf(), started };
        loop {
            if UnixStream::connect(socket).is_ok() {
                return Ok(server);
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!("server exited before accepting: {status}")));
            }
            if started.elapsed() > ACCEPT_TIMEOUT || INTERRUPTED.load(Ordering::SeqCst) {
                return Err(io::Error::other("server did not accept in time"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// When the child was `exec`ed (the origin of `setup_s`).
    pub fn started(&self) -> Instant {
        self.started
    }

    /// A fresh connection with the harness's 2 s answer timeout.
    pub fn connect(&self) -> io::Result<UnixStream> {
        let stream = UnixStream::connect(&self.socket)?;
        stream.set_read_timeout(Some(crate::client::ANSWER_TIMEOUT))?;
        Ok(stream)
    }

    /// CPU time (user + system) the server has consumed, nanoseconds:
    /// the on-CPU time of every thread from `/proc/<pid>/task/*/schedstat`.
    pub fn cpu_ns(&self) -> io::Result<u64> {
        let mut total = 0;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.child.id()))? {
            // A thread may exit between the listing and the read.
            let Ok(text) = std::fs::read_to_string(task?.path().join("schedstat")) else {
                continue;
            };
            total += text.split(' ').next().and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
        }
        Ok(total)
    }

    /// Ask the server to shut down and wait for it. All client
    /// connections must already be closed (the server drains its readers
    /// first). Falls back to killing the child after a timeout.
    pub fn stop(mut self) -> io::Result<()> {
        let mut stream = self.connect()?;
        proto::write_message(&mut stream, &Message::Shutdown)?;
        let _ack = proto::read_message(&mut stream);
        drop(stream);
        let asked = Instant::now();
        while asked.elapsed() < SHUTDOWN_TIMEOUT {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err(io::Error::other("server ignored the shutdown frame"))
        // Drop kills it.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Errors are ignored: the child may already be gone, and a panic
        // here would abort an unwinding harness.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_binary_that_never_listens_is_an_error_and_leaves_nothing_behind() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/guard-test");
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("never.sock");
        // A stale file at the socket path is replaced, not fatal.
        std::fs::write(&socket, b"stale").unwrap();
        let err = Server::spawn(Path::new("/bin/true"), &socket, 1).err().expect("no listener");
        assert!(err.to_string().contains("exited before accepting"), "{err}");
        assert!(!socket.exists());
        assert!(Server::spawn(&dir.join("no-such-binary"), &socket, 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
