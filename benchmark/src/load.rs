//! The load loop of one phase: closed loop (a fixed number of calls in
//! flight, never idle) or open loop (a fixed arrival rate, each request timed
//! **from the instant it was due**, so a stall of the generator or of the
//! service shows up in latency instead of vanishing), plus the paced CDC
//! probe writes of the open-loop phases.
//!
//! The loop talks to the service through [`Port`], so the scheduler is unit
//! tested against a simulated service on a virtual clock.

use crate::stats::{Windowed, WINDOWS};
use crate::trace::{Tracer, SAMPLE_EVERY};

/// Closed-loop calls in flight.
pub const CLOSED_INFLIGHT: usize = 256;
/// One CDC probe write is due every ten milliseconds.
pub const PROBE_EVERY_NS: u64 = 10_000_000;
/// How long a phase waits for its last replies before counting the rest as
/// unanswered.
const DRAIN_NS: u64 = 10_000_000_000;
/// Open-loop submissions issued back to back before replies are drained
/// again, so a catch-up burst does not delay the receipt time of replies.
const MAX_BURST: usize = 32;
/// The open-loop generator's own window: with this many calls unanswered it
/// holds further requests back (still timed from when they were due) instead
/// of pushing them into the front door, as a client library with a bounded
/// connection pool does. Below the service's default admission bound of
/// 1 024, so a disk or view stall of a few hundred ms queues in the client
/// and is not shed.
pub const OPEN_MAX_INFLIGHT: usize = 768;
/// Slots of the in-flight table; above the service's admission bound.
const RING: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    Closed { inflight: usize },
    Open { rps: u32 },
}

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub pace: Pace,
    pub warmup_ns: u64,
    pub measure_ns: u64,
    /// Open-loop phases: write the paced CDC probes alongside the requests
    /// (and, in `workload`, run the sealed-view reader and the subscriber).
    pub aux: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub seq: u64,
    pub ok: bool,
}

/// The loop's view of the service and of time.
pub trait Port {
    fn now_ns(&self) -> u64;
    /// Submit the next op of the stream, or a probe write of `probe`.
    /// `Err(())` means the front door shed the call (no side effect).
    fn submit(&mut self, probe: Option<i64>) -> Result<u64, ()>;
    fn try_recv(&mut self) -> Option<Reply>;
    /// Block for one reply until `deadline_ns` at the latest.
    fn recv_until(&mut self, deadline_ns: u64) -> Option<Reply>;
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    seq: u64,
    due_ns: u64,
    live: bool,
    probe: Option<i64>,
    /// Root span of a traced request (0 = not traced).
    span: u64,
    submitted_ns: u64,
}

/// Everything one phase measured.
#[derive(Debug)]
pub struct PhaseData {
    /// Due-time → reply latency in µs, windowed by due time.
    pub lat_us: Windowed,
    /// Replies received per window of the measured part.
    pub done: [u64; WINDOWS],
    pub window_s: f64,
    /// When the measured part began, on the port's clock.
    pub measure_from_ns: u64,
    /// How late the generator submitted each open-loop request, µs.
    pub late_us: Vec<f64>,
    /// `(probe value, ack time ns)` of every probe write acked in the
    /// measured part.
    pub probe_acks: Vec<(i64, u64)>,
    /// Time inside `submit`, ns, for the traced sample of requests.
    pub submit_ns: Vec<f64>,
    pub attempted: u64,
    pub answered: u64,
    pub shed: u64,
    pub errors: u64,
    /// Replies that matched no live in-flight slot (answered twice, or never
    /// submitted).
    pub duplicates: u64,
    pub unanswered: u64,
    /// Largest probe value submitted (0 if none).
    pub last_probe: i64,
}

impl PhaseData {
    /// Replies per second: the quiet quartile over the windows.
    pub fn tput_rps(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .done
            .iter()
            .map(|&n| n as f64 / self.window_s)
            .collect();
        crate::stats::quiet_quartile(&mut rates, true)
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.unanswered + self.duplicates
    }
}

struct Loop<'a, P: Port> {
    port: &'a mut P,
    tracer: &'a mut Tracer,
    ring: Vec<Slot>,
    inflight: usize,
    submitted: u64,
    measure_from: u64,
    measure_to: u64,
    data: PhaseData,
}

impl<P: Port> Loop<'_, P> {
    fn issue(&mut self, due_ns: u64, probe: Option<i64>, timed_late: bool) {
        let traced = self.tracer.enabled && self.submitted.is_multiple_of(SAMPLE_EVERY);
        let start = self.port.now_ns();
        self.data.attempted += 1;
        if timed_late && due_ns >= self.measure_from {
            self.data
                .late_us
                .push(start.saturating_sub(due_ns) as f64 / 1e3);
        }
        let Ok(seq) = self.port.submit(probe) else {
            self.data.shed += 1;
            return;
        };
        self.submitted += 1;
        self.inflight += 1;
        let mut slot = Slot {
            seq,
            due_ns,
            live: true,
            probe,
            span: 0,
            submitted_ns: 0,
        };
        if traced {
            let end = self.port.now_ns();
            self.data.submit_ns.push((end - start) as f64);
            // The root span is closed when the reply arrives.
            slot.span = self
                .tracer
                .push(0, "request", due_ns.min(start), 0, seq + 1);
            self.tracer
                .push(slot.span, "late", due_ns.min(start), start, seq + 1);
            self.tracer.push(slot.span, "submit", start, end, seq + 1);
            slot.submitted_ns = end;
        }
        self.ring[seq as usize % RING] = slot;
    }

    fn on_reply(&mut self, reply: Reply) {
        let now = self.port.now_ns();
        let slot = &mut self.ring[reply.seq as usize % RING];
        if !slot.live || slot.seq != reply.seq {
            self.data.duplicates += 1;
            return;
        }
        slot.live = false;
        let slot = *slot;
        self.inflight -= 1;
        self.data.answered += 1;
        if !reply.ok {
            self.data.errors += 1;
        }
        let measured = self.measure_from..self.measure_to;
        if measured.contains(&slot.due_ns) {
            let latency_us = now.saturating_sub(slot.due_ns) as f64 / 1e3;
            self.data
                .lat_us
                .push(slot.due_ns - self.measure_from, latency_us);
        }
        if measured.contains(&now) {
            let window = (now - self.measure_from) as f64 / 1e9 / self.data.window_s;
            self.data.done[(window as usize).min(WINDOWS - 1)] += 1;
            if let Some(value) = slot.probe {
                self.data.probe_acks.push((value, now));
            }
        }
        if slot.span != 0 {
            self.tracer
                .push(slot.span, "inflight", slot.submitted_ns, now, slot.seq + 1);
            self.tracer.close(slot.span, now);
        }
    }
}

/// Run one phase against `port`. `first_probe` is the first probe value to
/// write; later probes count up from it.
pub fn drive<P: Port>(
    port: &mut P,
    plan: &Plan,
    first_probe: i64,
    tracer: &mut Tracer,
) -> PhaseData {
    let t0 = port.now_ns();
    let measure_from = t0 + plan.warmup_ns;
    let measure_to = measure_from + plan.measure_ns;
    let mut lp = Loop {
        port,
        tracer,
        ring: vec![Slot::default(); RING],
        inflight: 0,
        submitted: 0,
        measure_from,
        measure_to,
        data: PhaseData {
            lat_us: Windowed::new(plan.measure_ns),
            done: [0; WINDOWS],
            window_s: plan.measure_ns as f64 / 1e9 / WINDOWS as f64,
            measure_from_ns: measure_from,
            late_us: Vec::new(),
            probe_acks: Vec::new(),
            submit_ns: Vec::new(),
            attempted: 0,
            answered: 0,
            shed: 0,
            errors: 0,
            duplicates: 0,
            unanswered: 0,
            last_probe: 0,
        },
    };
    let period_ns = match plan.pace {
        Pace::Open { rps } => 1e9 / f64::from(rps),
        Pace::Closed { .. } => 0.0,
    };
    let due_of = |k: u64| t0 + (k as f64 * period_ns) as u64;
    let mut issued = 0u64;
    let mut next_probe = if plan.aux {
        t0 + PROBE_EVERY_NS
    } else {
        u64::MAX
    };
    let mut probe_value = first_probe;

    loop {
        let now = lp.port.now_ns();
        if now >= measure_to {
            break;
        }
        // Replies first, so their receipt time is not delayed by submitting.
        while let Some(reply) = lp.port.try_recv() {
            lp.on_reply(reply);
        }
        let mut next_due = measure_to;
        match plan.pace {
            Pace::Closed { inflight } => {
                while lp.inflight < inflight {
                    let due = lp.port.now_ns();
                    lp.issue(due, None, false);
                }
            }
            Pace::Open { .. } => {
                let mut burst = 0;
                while due_of(issued) <= now && burst < MAX_BURST && lp.inflight < OPEN_MAX_INFLIGHT
                {
                    lp.issue(due_of(issued), None, true);
                    issued += 1;
                    burst += 1;
                }
                // With the window full, wait for a reply, not for a due time.
                if lp.inflight < OPEN_MAX_INFLIGHT {
                    next_due = due_of(issued);
                }
            }
        }
        if now >= next_probe {
            lp.issue(next_probe, Some(probe_value), false);
            lp.data.last_probe = probe_value;
            probe_value += 1;
            // A stalled generator skips the probes it missed: a burst of
            // writes to one key would only measure itself.
            next_probe += PROBE_EVERY_NS * ((now - next_probe) / PROBE_EVERY_NS + 1);
        }
        let deadline = next_due.min(next_probe).min(measure_to);
        if deadline > lp.port.now_ns() {
            if let Some(reply) = lp.port.recv_until(deadline) {
                lp.on_reply(reply);
            }
        }
    }

    let give_up = measure_to + DRAIN_NS;
    while lp.inflight > 0 && lp.port.now_ns() < give_up {
        if let Some(reply) = lp.port.recv_until(give_up) {
            lp.on_reply(reply);
        }
    }
    lp.data.unanswered = lp.inflight as u64;
    lp.data
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::VecDeque;

    /// A simulated service on a virtual clock: every call is answered
    /// `service_ns` after it was submitted. `recv_until` may oversleep once
    /// (the generator thread descheduled), and one reply may be duplicated.
    struct SimPort {
        clock: Cell<u64>,
        service_ns: u64,
        next_seq: u64,
        pending: VecDeque<(u64, u64)>,
        stall_at_ns: u64,
        stall_ns: u64,
        duplicate_seq: Option<u64>,
        max_inflight_seen: usize,
    }

    impl SimPort {
        fn new(service_ns: u64) -> Self {
            SimPort {
                clock: Cell::new(1_000),
                service_ns,
                next_seq: 0,
                pending: VecDeque::new(),
                stall_at_ns: u64::MAX,
                stall_ns: 0,
                duplicate_seq: None,
                max_inflight_seen: 0,
            }
        }
    }

    impl Port for SimPort {
        fn now_ns(&self) -> u64 {
            // Reading the clock costs a little virtual time, so loops advance.
            self.clock.set(self.clock.get() + 20);
            self.clock.get()
        }
        fn submit(&mut self, _probe: Option<i64>) -> Result<u64, ()> {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.clock.set(self.clock.get() + 500);
            self.pending
                .push_back((self.clock.get() + self.service_ns, seq));
            self.max_inflight_seen = self.max_inflight_seen.max(self.pending.len());
            Ok(seq)
        }
        fn try_recv(&mut self) -> Option<Reply> {
            let &(ready, seq) = self.pending.front()?;
            if ready > self.clock.get() {
                return None;
            }
            if self.duplicate_seq == Some(seq) {
                self.duplicate_seq = None;
            } else {
                self.pending.pop_front();
            }
            Some(Reply { seq, ok: true })
        }
        fn recv_until(&mut self, deadline_ns: u64) -> Option<Reply> {
            if self.clock.get() >= self.stall_at_ns {
                self.stall_at_ns = u64::MAX;
                self.clock
                    .set(self.clock.get().max(deadline_ns) + self.stall_ns);
                return None;
            }
            match self.pending.front() {
                Some(&(ready, _)) if ready <= deadline_ns => {
                    self.clock.set(self.clock.get().max(ready));
                    self.try_recv()
                }
                _ => {
                    self.clock.set(self.clock.get().max(deadline_ns));
                    None
                }
            }
        }
    }

    fn open_plan(rps: u32) -> Plan {
        Plan {
            pace: Pace::Open { rps },
            warmup_ns: 100_000_000,
            measure_ns: 1_000_000_000,
            aux: false,
        }
    }

    #[test]
    fn open_loop_times_from_due_so_a_generator_stall_shows() {
        let mut port = SimPort::new(200_000);
        port.stall_at_ns = 400_000_000;
        port.stall_ns = 50_000_000;
        let data = drive(&mut port, &open_plan(1_000), 1, &mut Tracer::new(false));
        assert_eq!(data.failed(), 0);
        // ~1000 requests were due in the measured second and all are timed.
        assert!((990..=1_010).contains(&data.lat_us.samples()));
        // The ~50 requests due during the stall carry it; timed from their
        // send they would all read ~0.2 ms.
        let worst = data.lat_us.overall_percentile(100.0).unwrap();
        assert!(worst >= 49_000.0, "stall vanished: worst {worst} µs");
        let slow = (0..=100)
            .filter(|p| data.lat_us.overall_percentile(f64::from(*p)).unwrap() > 1_000.0)
            .count();
        assert!(
            (4..=7).contains(&slow),
            "{slow} % of requests saw the stall"
        );
        // The generator's own lateness is reported, too.
        let late_max = data.late_us.iter().copied().fold(0.0, f64::max);
        assert!(late_max >= 49_000.0, "late max {late_max}");
        // One window holds the stall; the windowed statistic does not move.
        assert!(data.lat_us.quiet_percentile(50.0).unwrap() < 300.0);
    }

    #[test]
    fn open_loop_without_a_stall_reads_the_service_time() {
        let mut port = SimPort::new(200_000);
        let data = drive(&mut port, &open_plan(2_000), 1, &mut Tracer::new(false));
        assert_eq!(data.failed(), 0);
        assert_eq!(data.attempted, data.answered);
        let p50 = data.lat_us.quiet_percentile(50.0).unwrap();
        assert!((200.0..260.0).contains(&p50), "{p50}");
        assert!((1_900.0..2_100.0).contains(&data.tput_rps()));
    }

    #[test]
    fn open_loop_holds_requests_back_when_its_window_is_full() {
        // 20 000 req/s against a 100 ms service would need 2 000 in flight.
        let mut port = SimPort::new(100_000_000);
        let data = drive(&mut port, &open_plan(20_000), 1, &mut Tracer::new(false));
        assert_eq!(port.max_inflight_seen, OPEN_MAX_INFLIGHT);
        assert_eq!(data.failed(), 0);
        // The held-back requests are still timed from when they were due.
        let p50 = data.lat_us.overall_percentile(50.0).unwrap();
        assert!(p50 > 300_000.0, "queueing in the client vanished: {p50} µs");
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_answers_everything_once() {
        let mut port = SimPort::new(100_000);
        let plan = Plan {
            pace: Pace::Closed { inflight: 8 },
            warmup_ns: 10_000_000,
            measure_ns: 100_000_000,
            aux: false,
        };
        let data = drive(&mut port, &plan, 1, &mut Tracer::new(false));
        assert_eq!(port.max_inflight_seen, 8);
        assert_eq!(data.failed(), 0);
        assert_eq!(data.attempted, data.answered);
        assert!(data.tput_rps() > 50_000.0, "{}", data.tput_rps());
    }

    #[test]
    fn a_reply_delivered_twice_is_counted_as_a_failure() {
        let mut port = SimPort::new(100_000);
        port.duplicate_seq = Some(5);
        let data = drive(&mut port, &open_plan(1_000), 1, &mut Tracer::new(false));
        assert_eq!(data.duplicates, 1);
        assert_eq!(data.failed(), 1);
    }

    #[test]
    fn probes_are_paced_and_requests_traced() {
        let mut port = SimPort::new(200_000);
        let mut plan = open_plan(1_000);
        plan.aux = true;
        let mut tracer = Tracer::new(true);
        let data = drive(&mut port, &plan, 100, &mut tracer);
        assert_eq!(data.failed(), 0);
        // One probe per 10 ms over the measured second.
        assert!((95..=101).contains(&data.probe_acks.len()));
        assert!(data.probe_acks.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(data.probe_acks[0].0 - 100 >= 9, "warm-up probes come first");
        // Four spans per traced request, one request in 64 traced.
        assert!(!data.submit_ns.is_empty() && tracer.len() >= 4 * 1_100 / 64);
    }
}
