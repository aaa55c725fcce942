//! Open-loop load generation over a few pipelined connections.
//!
//! Requests are due on a fixed schedule (`start + i / rate`), whatever the
//! system under test does: a stall does not thin the load, it queues it. One
//! pacing thread writes request `i` on connection `i mod C` when it falls due
//! and never waits for a reply; one thread per connection reads replies, which
//! arrive in order. Latency is counted from the *due* time, so the wait a
//! stall imposes on later requests is in it, and how late the pacer itself
//! ran is reported beside it.

use std::io;
use std::time::{Duration, Instant};

/// The writing half of one connection.
pub trait SendHalf: Send {
    /// Write request number `request` without waiting for its reply.
    fn send(&mut self, request: usize) -> io::Result<()>;
}

/// The reading half of one connection; replies come back in request order.
pub trait RecvHalf: Send {
    type Reply: Send;
    fn recv(&mut self) -> io::Result<Self::Reply>;
}

/// When each request is due.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub rate_rps: f64,
    pub total: usize,
}

impl Schedule {
    pub fn due(&self, request: usize) -> Instant {
        self.start + Duration::from_secs_f64(request as f64 / self.rate_rps)
    }
}

/// One request's fate.
#[derive(Debug)]
pub struct Sample<R> {
    pub due: Instant,
    /// When the pacer began writing it (never before `due`).
    pub sent: Instant,
    /// When its reply had been read, and the reply; `Err` if the connection
    /// failed before that.
    pub outcome: Result<(Instant, R), String>,
}

impl<R> Sample<R> {
    /// Microseconds from the due time to the reply.
    pub fn latency_us(&self) -> Option<f64> {
        let (done, _) = self.outcome.as_ref().ok()?;
        Some(done.saturating_duration_since(self.due).as_secs_f64() * 1e6)
    }

    /// Microseconds the pacer wrote this request after it was due.
    pub fn late_us(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }
}

/// While alive, asks the kernel to wake the process's main thread from
/// sleeps on time rather than within the default 50 µs slack; the pacer is
/// that thread in a benchmark run. Best effort: where the file is missing or
/// the pacer is another thread, it runs later, which the lateness metrics
/// show.
struct TightTimerSlack {
    previous: Option<String>,
}

const TIMER_SLACK_FILE: &str = "/proc/self/timerslack_ns";

impl TightTimerSlack {
    fn set() -> Self {
        let previous = std::fs::read_to_string(TIMER_SLACK_FILE).ok();
        if previous.is_some() {
            let _ = std::fs::write(TIMER_SLACK_FILE, "1");
        }
        Self { previous }
    }
}

impl Drop for TightTimerSlack {
    fn drop(&mut self) {
        if let Some(previous) = &self.previous {
            let _ = std::fs::write(TIMER_SLACK_FILE, previous.trim());
        }
    }
}

fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Drive `schedule` over `conns`; returns one sample per request, in request
/// order. The calling thread paces; each connection gets a reader thread.
pub fn open_loop<S, R>(conns: Vec<(S, R)>, schedule: Schedule) -> Vec<Sample<R::Reply>>
where
    S: SendHalf,
    R: RecvHalf,
{
    assert!(!conns.is_empty(), "open loop needs a connection");
    let n_conns = conns.len();
    let (mut senders, receivers): (Vec<S>, Vec<R>) = conns.into_iter().unzip();
    // Requests handed to each connection: i, i + C, i + 2C, ...
    let share = |c: usize| (schedule.total + n_conns - 1 - c) / n_conns;

    std::thread::scope(|scope| {
        let readers: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(c, mut rx)| {
                let expect = share(c);
                scope.spawn(move || {
                    let mut replies = Vec::with_capacity(expect);
                    for _ in 0..expect {
                        match rx.recv() {
                            Ok(reply) => replies.push(Ok((Instant::now(), reply))),
                            Err(e) => {
                                // The connection is gone: everything still
                                // owed on it fails the same way.
                                let why = e.to_string();
                                replies.resize_with(expect, || Err(why.clone()));
                                break;
                            }
                        }
                    }
                    replies
                })
            })
            .collect();

        let _slack = TightTimerSlack::set();
        let mut sent_at = Vec::with_capacity(schedule.total);
        let mut send_errors: Vec<Option<String>> = vec![None; n_conns];
        for i in 0..schedule.total {
            sleep_until(schedule.due(i));
            sent_at.push(Instant::now());
            let c = i % n_conns;
            if send_errors[c].is_none() {
                if let Err(e) = senders[c].send(i) {
                    send_errors[c] = Some(e.to_string());
                }
            }
        }
        // Dropping the writers lets a reader stuck behind a failed write
        // see end-of-stream instead of waiting out its timeout.
        drop(senders);

        let mut per_conn: Vec<std::vec::IntoIter<_>> = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked").into_iter())
            .collect();
        (0..schedule.total)
            .map(|i| Sample {
                due: schedule.due(i),
                sent: sent_at[i],
                outcome: per_conn[i % n_conns]
                    .next()
                    .unwrap_or_else(|| Err("reader returned too few replies".to_string())),
            })
            .collect()
    })
}

/// How the pacer kept to the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lateness {
    /// Share of requests written more than one per-connection gap after
    /// their due time, i.e. after the next request on that connection was
    /// already due.
    pub late_share: f64,
    pub late_p99_us: f64,
}

/// Summarise [`Sample::late_us`] values of a load at `rate_rps` over
/// `n_conns` connections.
pub fn lateness(late_us: &[f64], rate_rps: f64, n_conns: usize) -> Lateness {
    let gap_us = n_conns as f64 / rate_rps * 1e6;
    let mut late = late_us.to_vec();
    let over = late.iter().filter(|&&l| l > gap_us).count();
    late.sort_by(f64::total_cmp);
    Lateness {
        late_share: over as f64 / late.len().max(1) as f64,
        late_p99_us: crate::stats::quantile_sorted(&late, 0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A stub server: answers each request after `service`, except that it
    /// stops for `stall` before answering request `stall_at`. Its inbox holds
    /// `inbox` requests, so a long stall eventually blocks the writer too.
    struct StubTx(mpsc::SyncSender<usize>);
    struct StubRx(mpsc::Receiver<usize>);

    impl SendHalf for StubTx {
        fn send(&mut self, request: usize) -> io::Result<()> {
            self.0
                .send(request)
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "stub gone"))
        }
    }

    impl RecvHalf for StubRx {
        type Reply = usize;
        fn recv(&mut self) -> io::Result<usize> {
            self.0
                .recv()
                .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "stub closed"))
        }
    }

    fn stub(
        inbox: usize,
        stall_at: usize,
        stall: Duration,
        die_at: Option<usize>,
    ) -> ((StubTx, StubRx), std::thread::JoinHandle<()>) {
        let (req_tx, req_rx) = mpsc::sync_channel::<usize>(inbox);
        let (rep_tx, rep_rx) = mpsc::channel::<usize>();
        let server = std::thread::spawn(move || {
            while let Ok(i) = req_rx.recv() {
                if Some(i) == die_at {
                    return;
                }
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                if rep_tx.send(i).is_err() {
                    return;
                }
            }
        });
        ((StubTx(req_tx), StubRx(rep_rx)), server)
    }

    #[test]
    fn latency_counts_from_due_time_through_a_stall() {
        // 1 kHz for 100 requests on one connection; the stub stalls 40 ms at
        // request 20 but its inbox is deep, so the pacer keeps to schedule.
        let (conn, server) = stub(1000, 20, Duration::from_millis(40), None);
        let schedule = Schedule {
            start: Instant::now() + Duration::from_millis(5),
            rate_rps: 1000.0,
            total: 100,
        };
        let samples = open_loop(vec![conn], schedule);
        server.join().unwrap();
        assert_eq!(samples.len(), 100);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(*s.outcome.as_ref().map(|(_, r)| r).unwrap(), i, "in order");
            assert!(s.sent >= s.due, "never sent early");
        }
        let lat = |i: usize| samples[i].latency_us().unwrap();
        // Before the stall: well under the stall length.
        assert!(lat(5) < 20_000.0, "{}", lat(5));
        // The stalled request waits the whole stall; one due 10 ms later
        // waits what is left of it, ~30 ms; a closed loop would have sent it
        // after the stall and seen almost nothing.
        assert!(lat(20) >= 39_000.0, "{}", lat(20));
        assert!((25_000.0..39_000.0).contains(&lat(30)), "{}", lat(30));
        // Requests due after the stall ended are quick again.
        assert!(lat(90) < 20_000.0, "{}", lat(90));
        // The pacer itself was on time throughout.
        let late: Vec<f64> = samples.iter().map(Sample::late_us).collect();
        let l = lateness(&late, schedule.rate_rps, 1);
        assert!(l.late_share < 0.1, "{l:?}");
    }

    #[test]
    fn a_blocked_writer_shows_as_generator_lateness() {
        // Inbox of one: during the 40 ms stall the pacer's write blocks, so
        // later requests leave late. That is charged to the generator, and
        // the latency from the due time still covers the whole wait.
        let (conn, server) = stub(1, 10, Duration::from_millis(40), None);
        let schedule = Schedule {
            start: Instant::now() + Duration::from_millis(5),
            rate_rps: 1000.0,
            total: 60,
        };
        let samples = open_loop(vec![conn], schedule);
        server.join().unwrap();
        let late_20 = samples[20].late_us();
        assert!(late_20 > 15_000.0, "request 20 left {late_20} us late");
        assert!(samples[20].latency_us().unwrap() >= late_20);
        let late: Vec<f64> = samples.iter().map(Sample::late_us).collect();
        let l = lateness(&late, schedule.rate_rps, 1);
        assert!(l.late_share > 0.2, "{l:?}");
        assert!(l.late_p99_us > 15_000.0, "{l:?}");
    }

    #[test]
    fn requests_interleave_over_connections_and_a_dead_one_fails_its_share() {
        let (a, sa) = stub(100, usize::MAX, Duration::ZERO, None);
        let (b, sb) = stub(100, usize::MAX, Duration::ZERO, Some(5));
        let schedule = Schedule {
            start: Instant::now(),
            rate_rps: 5000.0,
            total: 21,
        };
        let samples = open_loop(vec![a, b], schedule);
        sa.join().unwrap();
        sb.join().unwrap();
        for (i, s) in samples.iter().enumerate() {
            match (&s.outcome, i % 2, i) {
                // Connection 0 carries the even requests and answers all.
                (Ok((_, r)), 0, _) => assert_eq!(*r, i),
                // Connection 1 answers 1 and 3, then dies at request 5.
                (Ok((_, r)), 1, 1 | 3) => assert_eq!(*r, i),
                (Err(_), 1, _) if i >= 5 => {}
                other => panic!("request {i}: unexpected {other:?}"),
            }
        }
        assert_eq!(samples.iter().filter(|s| s.outcome.is_err()).count(), 8);
    }
}
