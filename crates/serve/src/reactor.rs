//! The event loop: one thread owning every open connection.
//!
//! The reactor is a readiness-polling loop over nonblocking sockets —
//! `std`-only, so there is no `epoll` registration; "readiness" is
//! discovered by attempting the read/write and treating `WouldBlock`
//! as not-ready. Three event sources feed each sweep:
//!
//! 1. **accepts** — sockets handed over by the accept thread through a
//!    lock-free [`EventRing`];
//! 2. **completions** — job ids pushed by the scheduler's completion
//!    hook (with an overflow flag falling back to a full waiter sweep);
//! 3. **the connections themselves** — each driven through its
//!    [`Connection`] state machine: reading (incremental parse),
//!    waiting (a parked `wait_ms` submission), writing (partial-write
//!    cursor), plus read/write deadlines.
//!
//! Between sweeps the reactor parks on a [`Waker`]. The wake protocol
//! is the lost-wakeup-free pattern the `ecl-mc` harnesses check: the
//! waker sets a pending flag *under the mutex* before notifying, and
//! the parker consumes the flag before sleeping, so a wake that races
//! the park decision is never dropped. Parking is adaptive: after
//! recent progress the loop spins with `yield_now` (sub-millisecond
//! latency while traffic is hot), then backs off exponentially to a
//! 10 ms cap, always clipped to the nearest connection deadline.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ecl_profiling::json::escape;

use crate::conn::{CloseReason, ConnPhase, Connection, ReadEvent, WriteEvent};
use crate::http::{self, HttpError};
use crate::jobs::JobRecord;
use crate::ring::EventRing;
use crate::server::{self, Routed, ServerShared, JSON};

/// Shortest park / initial backoff step.
const MIN_PARK: Duration = Duration::from_micros(200);
/// Backoff cap — also the worst-case latency for discovering socket
/// readiness without an explicit wake.
const MAX_PARK: Duration = Duration::from_millis(10);
/// How long after the last productive sweep the loop keeps spinning
/// with `yield_now` before it starts parking.
const SPIN_WINDOW: Duration = Duration::from_millis(1);
/// Max state-machine transitions driven per connection per sweep —
/// bounds time spent on one chatty pipelining client before the sweep
/// returns to the others.
const MAX_TRANSITIONS: u32 = 4;

/// Wakes the reactor out of a park. `wake` sets the pending flag under
/// the mutex *then* notifies; `park` consumes the flag before deciding
/// to sleep — together that makes a wake that races the park decision
/// impossible to lose (checked schedule-exhaustively by the
/// `serve-reactor-wakeup` harness in `ecl-mc`).
pub(crate) struct Waker {
    pending: Mutex<bool>,
    ready: Condvar,
}

impl Waker {
    pub(crate) fn new() -> Arc<Waker> {
        Arc::new(Waker { pending: Mutex::new(false), ready: Condvar::new() })
    }

    /// Signals the reactor; callable from any thread, never blocks
    /// beyond the flag mutex.
    pub(crate) fn wake(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        *pending = true;
        self.ready.notify_one();
    }

    /// Sleeps until woken or `timeout`, consuming a pending wake.
    fn park(&self, timeout: Duration) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        if !*pending {
            let (guard, _) = match self.ready.wait_timeout(pending, timeout) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            pending = guard;
        }
        *pending = false;
    }
}

/// A parked `wait_ms` submission.
struct Wait {
    job: Arc<JobRecord>,
    /// Client's wait budget; past it we answer with the current job
    /// state (matching the old blocking `wait_terminal` semantics).
    respond_by: Instant,
    keep_alive: bool,
}

struct Slot {
    conn: Connection<TcpStream>,
    wait: Option<Wait>,
}

pub(crate) struct Reactor {
    shared: Arc<ServerShared>,
    accepts: Arc<EventRing<TcpStream>>,
    completions: Arc<EventRing<u64>>,
    completions_overflow: Arc<AtomicBool>,
    waker: Arc<Waker>,
    read_timeout: Duration,
    write_timeout: Duration,
    conns: HashMap<u64, Slot>,
    /// job id → connection id, for exactly-once completion handoff.
    waiters: HashMap<u64, u64>,
    next_conn: u64,
}

impl Reactor {
    pub(crate) fn new(
        shared: Arc<ServerShared>,
        accepts: Arc<EventRing<TcpStream>>,
        completions: Arc<EventRing<u64>>,
        completions_overflow: Arc<AtomicBool>,
        waker: Arc<Waker>,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> Reactor {
        Reactor {
            shared,
            accepts,
            completions,
            completions_overflow,
            waker,
            read_timeout,
            write_timeout,
            conns: HashMap::new(),
            waiters: HashMap::new(),
            next_conn: 0,
        }
    }

    pub(crate) fn run(mut self) {
        let mut backoff = MIN_PARK;
        let mut last_progress = Instant::now();
        loop {
            let now = Instant::now();
            let mut progress = false;

            while let Some(stream) = self.accepts.pop() {
                progress = true;
                self.register(stream, now);
            }

            while let Some(job_id) = self.completions.pop() {
                progress = true;
                self.complete(job_id, now);
            }
            if self.completions_overflow.swap(false, Ordering::AcqRel) {
                progress = true;
                self.sweep_terminal_waiters(now);
            }

            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for id in ids {
                progress |= self.drive(id, now);
            }

            if self.shared.stopping.load(Ordering::Acquire) {
                progress |= self.wind_down();
                if self.conns.is_empty() {
                    return;
                }
            }

            if progress {
                last_progress = Instant::now();
                backoff = MIN_PARK;
                continue;
            }
            if last_progress.elapsed() < SPIN_WINDOW {
                std::thread::yield_now();
                continue;
            }
            let mut park = backoff;
            if let Some(deadline) = self.next_deadline() {
                park = park.min(deadline.saturating_duration_since(Instant::now()));
            }
            self.waker.park(park.max(MIN_PARK));
            backoff = (backoff * 2).min(MAX_PARK);
        }
    }

    fn register(&mut self, stream: TcpStream, now: Instant) {
        let id = self.next_conn;
        self.next_conn += 1;
        let conn =
            Connection::new(stream, self.shared.limits, now, self.read_timeout, self.write_timeout);
        self.conns.insert(id, Slot { conn, wait: None });
        // Drive immediately: the request is often already buffered in
        // the kernel by the time the handoff lands here.
        let _ = self.drive(id, now);
    }

    /// Exactly-once completion handoff: the waiter entry is removed
    /// *before* the response is staged, so a duplicate signal (ring
    /// push racing the post-registration terminal re-check) finds no
    /// waiter and is a no-op. Schedule-checked by `serve-reactor-handoff`.
    fn complete(&mut self, job_id: u64, now: Instant) {
        let Some(conn_id) = self.waiters.remove(&job_id) else { return };
        let Some(slot) = self.conns.get_mut(&conn_id) else { return };
        let Some(wait) = slot.wait.take() else { return };
        let body = server::job_body(&wait.job);
        slot.conn.start_response(now, 200, JSON, body.as_bytes(), wait.keep_alive);
        let _ = self.drive(conn_id, now);
    }

    /// Overflow fallback: the completion ring dropped at least one id,
    /// so scan every registered waiter for terminal jobs.
    fn sweep_terminal_waiters(&mut self, now: Instant) {
        let due: Vec<u64> = self
            .waiters
            .keys()
            .copied()
            .filter(|job_id| {
                self.shared.scheduler.job(*job_id).is_none_or(|j| j.state().is_terminal())
            })
            .collect();
        for job_id in due {
            self.complete(job_id, now);
        }
    }

    /// Drives one connection through up to [`MAX_TRANSITIONS`] state
    /// transitions. Returns whether anything moved.
    fn drive(&mut self, id: u64, now: Instant) -> bool {
        let mut progress = false;
        for _ in 0..MAX_TRANSITIONS {
            let Some(slot) = self.conns.get_mut(&id) else { return progress };
            match slot.conn.phase() {
                ConnPhase::Closed => {
                    self.reap(id);
                    return true;
                }
                ConnPhase::Waiting => {
                    let due = slot.wait.as_ref().is_some_and(|w| now >= w.respond_by);
                    if !due {
                        return progress;
                    }
                    let Some(wait) = slot.wait.take() else { return progress };
                    self.waiters.remove(&wait.job.id);
                    let body = server::job_body(&wait.job);
                    slot.conn.start_response(now, 200, JSON, body.as_bytes(), wait.keep_alive);
                    progress = true;
                }
                ConnPhase::Reading => {
                    if let Some(reason) = slot.conn.expired(now) {
                        if matches!(reason, CloseReason::ReadTimeout) {
                            self.shared.metrics.conn_read_timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                        slot.conn.close();
                        progress = true;
                        continue;
                    }
                    match slot.conn.poll_read(now) {
                        ReadEvent::Pending => return progress,
                        ReadEvent::Request(req) => {
                            progress = true;
                            self.shared.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
                            if slot.conn.served() > 0 {
                                self.shared
                                    .metrics
                                    .keepalive_reuses
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            // Correlation id: allocated the moment a
                            // complete request exists, echoed back via
                            // `x-ecl-req`, and threaded through the
                            // scheduler so traces/samples carry it.
                            let req_id = ecl_obs::next_req_id();
                            slot.conn.set_req_id(req_id);
                            self.handle_request(id, &req, now, req_id);
                        }
                        ReadEvent::Bad(e) => {
                            progress = true;
                            self.fail_request(id, &e, now);
                        }
                        ReadEvent::Eof { mid_request } => {
                            progress = true;
                            if mid_request {
                                // The peer half-closed mid-request; a
                                // best-effort 400 may still reach it.
                                self.shared.metrics.http_malformed.fetch_add(1, Ordering::Relaxed);
                                self.shared.metrics.http_errors.fetch_add(1, Ordering::Relaxed);
                                slot.conn.start_response(
                                    now,
                                    400,
                                    JSON,
                                    b"{\"error\": \"truncated request\"}",
                                    false,
                                );
                            } else {
                                slot.conn.close();
                            }
                        }
                        ReadEvent::Broken(_) => {
                            progress = true;
                            if slot.conn.mid_request() {
                                self.shared
                                    .metrics
                                    .http_unanswerable
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            slot.conn.close();
                        }
                    }
                }
                ConnPhase::Writing => {
                    if let Some(reason) = slot.conn.expired(now) {
                        if matches!(reason, CloseReason::WriteTimeout) {
                            self.shared.metrics.conn_write_timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                        slot.conn.close();
                        progress = true;
                        continue;
                    }
                    match slot.conn.poll_write(now) {
                        WriteEvent::Pending => return progress,
                        WriteEvent::Flushed { close: _ } => {
                            // close:true left the phase at Closed; the
                            // next transition reaps it.
                            progress = true;
                        }
                        WriteEvent::Broken => {
                            // Response was generated but undeliverable.
                            self.shared.metrics.http_unanswerable.fetch_add(1, Ordering::Relaxed);
                            slot.conn.close();
                            progress = true;
                        }
                    }
                }
            }
        }
        progress
    }

    fn handle_request(&mut self, id: u64, req: &http::Request, now: Instant, req_id: u64) {
        let keep_alive = req.wants_keep_alive() && !self.shared.stopping.load(Ordering::Acquire);
        match server::route(req, &self.shared, req_id) {
            Routed::Now((status, content_type, body)) => {
                if status >= 400 {
                    self.shared.metrics.http_errors.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(slot) = self.conns.get_mut(&id) {
                    slot.conn.start_response(
                        now,
                        status,
                        content_type,
                        body.as_bytes(),
                        keep_alive,
                    );
                }
            }
            Routed::Wait { job, wait } => {
                let job_id = job.id;
                if let Some(slot) = self.conns.get_mut(&id) {
                    slot.conn.set_waiting();
                    slot.wait =
                        Some(Wait { job: Arc::clone(&job), respond_by: now + wait, keep_alive });
                    self.waiters.insert(job_id, id);
                }
                // Close the registration race: if the job went
                // terminal before the waiter was registered, the hook
                // has already fired into a ring we may have drained.
                if job.state().is_terminal() {
                    self.complete(job_id, now);
                }
            }
        }
    }

    /// A parse error: answer it when a status exists (always-answer
    /// policy — 400/413/431 with `Connection: close`), otherwise count
    /// it as unanswerable and hang up.
    fn fail_request(&mut self, id: u64, e: &HttpError, now: Instant) {
        let Some(slot) = self.conns.get_mut(&id) else { return };
        match http::error_status(e) {
            Some(status) => {
                self.shared.metrics.http_malformed.fetch_add(1, Ordering::Relaxed);
                self.shared.metrics.http_errors.fetch_add(1, Ordering::Relaxed);
                let body = format!("{{\"error\": \"{}\"}}", escape(&format!("{e:?}")));
                slot.conn.start_response(now, status, JSON, body.as_bytes(), false);
            }
            None => {
                self.shared.metrics.http_unanswerable.fetch_add(1, Ordering::Relaxed);
                slot.conn.close();
            }
        }
    }

    fn reap(&mut self, id: u64) {
        if let Some(slot) = self.conns.remove(&id) {
            if let Some(wait) = &slot.wait {
                self.waiters.remove(&wait.job.id);
            }
            drop(slot);
            self.shared.live_connections.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Shutdown sweep: close idle/reading connections (their clients
    /// would otherwise pin the drain until the read deadline), drop
    /// stray handoffs, and let waiting/writing connections finish —
    /// their jobs complete because the workers outlive the reactor.
    fn wind_down(&mut self) -> bool {
        let mut progress = false;
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, s)| matches!(s.conn.phase(), ConnPhase::Reading))
            .map(|(id, _)| *id)
            .collect();
        for id in idle {
            if let Some(slot) = self.conns.get_mut(&id) {
                slot.conn.close();
            }
            self.reap(id);
            progress = true;
        }
        while let Some(stream) = self.accepts.pop() {
            drop(stream);
            self.shared.live_connections.fetch_sub(1, Ordering::AcqRel);
            progress = true;
        }
        progress
    }

    fn next_deadline(&self) -> Option<Instant> {
        let mut min: Option<Instant> = None;
        for slot in self.conns.values() {
            let conn_deadline = slot.conn.next_deadline();
            let wait_deadline = slot.wait.as_ref().map(|w| w.respond_by);
            for cand in [conn_deadline, wait_deadline].into_iter().flatten() {
                min = Some(min.map_or(cand, |m| m.min(cand)));
            }
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wake_before_park_is_not_lost() {
        let waker = Waker::new();
        waker.wake();
        let start = Instant::now();
        waker.park(Duration::from_secs(5));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "pre-park wake should make park return immediately"
        );
    }

    #[test]
    fn park_consumes_the_pending_flag() {
        let waker = Waker::new();
        waker.wake();
        waker.park(Duration::from_secs(5));
        // Second park has no pending wake; it must wait for the
        // timeout rather than return instantly.
        let start = Instant::now();
        waker.park(Duration::from_millis(50));
        assert!(start.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn wake_from_another_thread_interrupts_a_park() {
        let waker = Waker::new();
        let remote = Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake();
        });
        let start = Instant::now();
        waker.park(Duration::from_secs(10));
        assert!(start.elapsed() < Duration::from_secs(5));
        handle.join().expect("waker thread");
    }
}
