//! The socket protocol: server lifetimes, set-up timing, ramps and
//! measured windows, for one workload or for the interleaved set.

use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Duration;

use laab_serve::workload::Request;

use crate::client::{Conn, Driven, Round};
use crate::host::{steal_jiffies, steal_share, Yardstick};
use crate::oracle::Oracle;
use crate::server::{Server, INTERRUPTED};
use crate::workloads::{Shape, Workload, CONNECTIONS};

/// How the measured time is laid out. Every measured window is preceded
/// by an unmeasured ramp of the same traffic; windows of different
/// workloads interleave inside a round, so slow drift of the host lands
/// on all of them alike, and the reported value is the median window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Protocol {
    /// Server start-ups; `setup_s` is the median over them.
    pub lifetimes: usize,
    /// Rounds served by one server before it is restarted.
    pub rounds_per_lifetime: usize,
    /// Unmeasured traffic before each window.
    pub ramp: Duration,
    /// One measured window.
    pub window: Duration,
}

impl Protocol {
    /// The full set: 6 rounds × (1 s ramp + 5 s measured) per workload,
    /// the server restarted every two rounds.
    pub const SET: Protocol = Protocol {
        lifetimes: 3,
        rounds_per_lifetime: 2,
        ramp: Duration::from_secs(1),
        window: Duration::from_secs(5),
    };

    /// Smoke: one round of 1 s.
    pub const QUICK: Protocol = Protocol {
        lifetimes: 1,
        rounds_per_lifetime: 1,
        ramp: Duration::from_millis(200),
        window: Duration::from_secs(1),
    };

    /// One workload alone: `seconds` of measured time in the set's six
    /// rounds, but a fresh server for every round — start-ups are cheap
    /// next to a window, and `setup_s` is then a median of six.
    pub fn measuring_for(seconds: f64) -> Protocol {
        let rounds = Protocol::SET.rounds();
        Protocol {
            lifetimes: rounds,
            rounds_per_lifetime: 1,
            ramp: Duration::from_millis(500),
            window: Duration::from_secs_f64(seconds / rounds as f64),
        }
    }

    /// Rounds in a run.
    pub fn rounds(&self) -> usize {
        self.lifetimes * self.rounds_per_lifetime
    }
}

/// One measured window plus what the host and the server process did
/// during it.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// The reduced client-side samples.
    pub round: Round,
    /// Server CPU time (user + system) over the window, nanoseconds.
    pub cpu_ns: u64,
    /// Hypervisor steal share over the window.
    pub steal_share: f64,
    /// Frozen-kernel GFLOP/s measured right after the window.
    pub yardstick_gflops: f64,
}

/// The raw outcome of a socket run.
pub struct Measured {
    /// Seconds from `exec` to the last warm-up answer, per start-up.
    pub setup_s: Vec<f64>,
    /// Per workload (in the order given), its windows in round order.
    pub windows: Vec<(Workload, Vec<Window>)>,
}

fn interrupted() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "interrupted")
}

/// The signatures a start-up answers once, solo, before anything is
/// timed: those of the workloads the plan cache can hold, or — when the
/// run has none — of the cold workload itself.
fn setup_shapes(workloads: &[Workload], seed: u64) -> Vec<Shape> {
    let of = |keep: fn(&Workload) -> bool| -> Vec<Shape> {
        workloads.iter().filter(|w| keep(w)).flat_map(|w| w.shapes(seed)).collect()
    };
    let warm = of(|w| w.warm());
    if warm.is_empty() {
        of(|_| true)
    } else {
        warm
    }
}

/// Run `workloads` against freshly spawned servers under `protocol`.
/// `seed` seeds the request streams and is the server's operand seed.
pub fn run(
    workloads: &[Workload],
    protocol: Protocol,
    seed: u64,
    binary: &Path,
    socket: &Path,
) -> io::Result<Measured> {
    let mut oracle = Oracle::new(seed);
    let mut yardstick = Yardstick::new();
    let warmup: Vec<Request> = setup_shapes(workloads, seed)
        .into_iter()
        .map(|(family, n, dtype)| Request { family, n, dtype, payload: 0 })
        .collect();
    // Streams outlive server restarts: payload ids never repeat in a run.
    let mut streams: Vec<Vec<Box<dyn Iterator<Item = Request> + Send>>> = workloads
        .iter()
        .map(|&w| {
            (0..CONNECTIONS)
                .map(|c| {
                    Box::new(w.connection_stream(seed, c)) as Box<dyn Iterator<Item = _> + Send>
                })
                .collect()
        })
        .collect();
    let mut measured = Measured {
        setup_s: Vec::new(),
        windows: workloads.iter().map(|&w| (w, Vec::new())).collect(),
    };

    for _ in 0..protocol.lifetimes {
        let server = Server::spawn(binary, socket, seed)?;
        let mut conns = (0..CONNECTIONS)
            .map(|_| Conn::new(server.connect()?))
            .collect::<io::Result<Vec<Conn>>>()?;
        let answered =
            conns[0].drive(&mut warmup.iter().copied(), 1, crate::client::ANSWER_TIMEOUT * 30);
        measured.setup_s.push(server.started().elapsed().as_secs_f64());
        let check = Round::reduce(0.0, vec![answered], &mut oracle);
        if check.failed > 0 || check.verified != warmup.len() as u64 {
            return Err(io::Error::other(format!(
                "set-up: {} of {} warm-up requests answered Ok and bitwise correct",
                check.verified,
                warmup.len()
            )));
        }

        for _ in 0..protocol.rounds_per_lifetime {
            for (w, &workload) in workloads.iter().enumerate() {
                let mut drive_all = |window: Duration| -> Vec<Driven> {
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = conns
                            .iter_mut()
                            .zip(streams[w].iter_mut())
                            .map(|(conn, stream)| {
                                scope.spawn(move || conn.drive(stream, workload.depth(), window))
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("a connection thread panicked"))
                            .collect()
                    })
                };
                drive_all(protocol.ramp);
                let before = (server.cpu_ns()?, steal_jiffies());
                let driven = drive_all(protocol.window);
                let after = (server.cpu_ns()?, steal_jiffies());
                if INTERRUPTED.load(Ordering::SeqCst) {
                    return Err(interrupted());
                }
                measured.windows[w].1.push(Window {
                    round: Round::reduce(protocol.window.as_secs_f64(), driven, &mut oracle),
                    cpu_ns: after.0 - before.0,
                    steal_share: steal_share(before.1, after.1),
                    yardstick_gflops: yardstick.measure(),
                });
            }
        }
        drop(conns);
        server.stop()?;
    }
    Ok(measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_workload_protocol_keeps_the_sets_rounds_on_six_start_ups() {
        let p = Protocol::measuring_for(12.0);
        assert_eq!((p.lifetimes, p.rounds(), p.window), (6, 6, Duration::from_secs(2)));
        assert_eq!(Protocol::SET.rounds(), 6);
    }

    #[test]
    fn set_up_answers_the_24_warm_signatures_or_the_cold_ones_when_alone() {
        assert_eq!(setup_shapes(&Workload::ALL, 1).len(), 24);
        assert_eq!(setup_shapes(&[Workload::TinyClosed], 1).len(), 12);
        assert_eq!(setup_shapes(&[Workload::ChurnCold], 1).len(), 480);
    }
}
