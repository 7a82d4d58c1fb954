//! The micro-batching executor: coalesces concurrent evaluation requests
//! into dense batch calls.
//!
//! The executor is a **bounded queue with no thread of its own**. Callers
//! [`submit`](Batcher::submit) work and get a [`Ticket`]; whoever calls
//! [`flush_queued`](Batcher::flush_queued) next drains the whole queue and
//! evaluates it on the calling thread, grouping what it found:
//!
//! * profile evaluations against the same compiled model become one
//!   [`CompiledModel::evaluate_profiles_par`] call;
//! * scenario batches against the same model *and* profile become one
//!   [`CompiledModel::evaluate_scenarios_par`] call;
//! * everything else ([`Work::Direct`]) runs inline.
//!
//! A poller shard routes every ready connection's lines, flushes once,
//! then writes: pipelined requests and requests from different
//! connections coalesce into one dense call with no thread hand-off.
//! Blocking callers need no flusher: [`Ticket::wait`] flushes whatever is
//! queued before it blocks. Under light load a request flows through alone
//! (batch of one); under concurrent load batches form from whatever queued
//! since the last flush — no timers, no added latency floor.
//!
//! Heavy work (a dense group of at least [`par_threshold`] items, or a
//! `cohort` evaluation) runs on the flushing thread and shards through
//! `prob::par` from there: it holds only the flushing shard, and the other
//! shards keep serving.
//!
//! **Bit-identity:** each profile/scenario is evaluated independently and
//! the `_par` entry points are thread-count-invariant, so a batched result
//! is bit-for-bit the result a direct in-process call would produce. A
//! grouped scenario call that fails is re-run per job sequentially so each
//! ticket gets *its own* typed error, not its neighbour's.
//!
//! **Backpressure:** admission is **cost-based** — each job declares how
//! many scalar evaluations it expands to (one per profile, one per
//! scenario, cohort-member count for cohort work), and
//! [`submit`](Batcher::submit) fails fast with [`ServeError::Overloaded`]
//! once the queued cost would exceed capacity. One bulk request can no
//! longer monopolize a flush window while counting as a single queue slot;
//! memory stays flat under overload and the client learns to back off.
//!
//! **Wakeable tickets:** a [`Ticket`] can be waited on (blocking, for the
//! client library and tests) or polled with [`try_take`](Ticket::try_take)
//! by the event-driven connection poller; an optional [`Waker`] supplied
//! at submit time fires when the reply lands, so a shard whose request
//! another thread flushed learns of it without polling.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use hmdiv_core::extrapolate::Scenario;
use hmdiv_core::{CompiledModel, CompiledProfile};
use hmdiv_obs::{Stage, StageSet};
use hmdiv_prob::Probability;

use crate::error::ServeError;
use crate::json::Json;

/// A unit of work submitted to the executor.
pub enum Work {
    /// Evaluate eq. (8) for one bound profile — batchable per model.
    Profile {
        /// The compiled model (grouped by `Arc` identity).
        model: Arc<CompiledModel>,
        /// The bound profile to evaluate.
        profile: CompiledProfile,
    },
    /// Evaluate a batch of what-if scenarios — batchable per
    /// (model, profile) pair.
    Scenarios {
        /// The compiled model (grouped by `Arc` identity).
        model: Arc<CompiledModel>,
        /// The bound profile the scenarios are judged against.
        profile: CompiledProfile,
        /// The scenarios to evaluate, in order.
        scenarios: Vec<Scenario>,
    },
    /// Arbitrary work that runs inline on the flushing thread (importance
    /// rankings, cohort evaluations, detection-model evaluations).
    Direct(Box<dyn FnOnce() -> Result<Outcome, ServeError> + Send>),
}

impl std::fmt::Debug for Work {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Work::Profile { .. } => f.write_str("Work::Profile"),
            Work::Scenarios { scenarios, .. } => {
                write!(f, "Work::Scenarios({})", scenarios.len())
            }
            Work::Direct(_) => f.write_str("Work::Direct"),
        }
    }
}

/// What a completed unit of work yields.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A single failure probability.
    One(Probability),
    /// One failure probability per scenario, in submission order.
    Many(Vec<Probability>),
    /// A pre-rendered JSON result (from [`Work::Direct`]).
    Value(Json),
}

type Reply = Result<Outcome, ServeError>;

/// A callback fired when a reply lands in its slot — the event-driven
/// poller registers one so a sleeping readiness thread learns that a
/// connection it owns has work to write, without polling every ticket.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// The write-once reply cell a [`Ticket`] and its [`ReplyHandle`] share.
struct ReplySlot {
    state: Mutex<SlotState>,
    bell: Condvar,
}

struct SlotState {
    reply: Option<Reply>,
    /// Set the first time the slot is filled and never cleared — a waiter
    /// taking the reply must not reopen the slot for a late
    /// `ShuttingDown` overwrite from the handle's drop.
    filled: bool,
}

impl ReplySlot {
    fn new() -> Arc<ReplySlot> {
        Arc::new(ReplySlot {
            state: Mutex::new(SlotState {
                reply: None,
                filled: false,
            }),
            bell: Condvar::new(),
        })
    }

    /// First fill wins; returns whether this call was it.
    fn fill(&self, result: Reply) -> bool {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if st.filled {
            return false;
        }
        st.filled = true;
        st.reply = Some(result);
        drop(st);
        self.bell.notify_all();
        true
    }
}

/// A claim on a submitted unit of work.
pub struct Ticket {
    slot: Arc<ReplySlot>,
    /// The queue the work went into, flushed by [`Ticket::wait`].
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Flushes whatever is queued on the calling thread, then blocks
    /// until the reply lands (another thread may be evaluating it).
    ///
    /// # Errors
    ///
    /// Whatever the work produced; [`ServeError::ShuttingDown`] if the
    /// job was dropped before it was evaluated.
    pub fn wait(self) -> Reply {
        self.shared.flush_queued();
        let mut st = self
            .slot
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(reply) = st.reply.take() {
                return reply;
            }
            st = self
                .slot
                .bell
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Takes the reply if it has landed, without blocking — the poller's
    /// entry point. Returns `None` while the work is still in flight.
    pub fn try_take(&self) -> Option<Reply> {
        self.slot
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .reply
            .take()
    }
}

/// The reply half of a queued job, plus the request's stage stamps when
/// the connection admitted it with tracing on. Dropping an unfilled
/// handle (a panicking flush, a drain race) delivers `ShuttingDown` so no ticket
/// waits forever.
struct ReplyHandle {
    enqueued: Instant,
    trace: Option<Arc<StageSet>>,
    slot: Arc<ReplySlot>,
    waker: Option<Waker>,
}

impl ReplyHandle {
    /// Fills the slot (first fill wins) and fires the waker.
    fn complete(&self, result: Reply) {
        if self.slot.fill(result) {
            if let Some(wake) = &self.waker {
                wake();
            }
        }
    }
}

impl Drop for ReplyHandle {
    fn drop(&mut self) {
        self.complete(Err(ServeError::ShuttingDown));
    }
}

/// One queued job.
struct Pending {
    work: Work,
    deadline: Option<Instant>,
    handle: ReplyHandle,
}

struct State {
    queue: VecDeque<Pending>,
    /// Total admission cost of everything queued (scalar evaluations, not
    /// request count) — the quantity the capacity bound is enforced on.
    queued_cost: usize,
    draining: bool,
}

struct Shared {
    state: Mutex<State>,
    capacity: usize,
    threads: usize,
}

impl Shared {
    fn new(capacity: usize, threads: usize) -> Arc<Shared> {
        Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                queued_cost: 0,
                draining: false,
            }),
            capacity,
            threads: threads.max(1),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Takes the whole queue and evaluates it on the calling thread.
    fn flush_queued(&self) {
        let batch: Vec<Pending> = {
            let mut st = self.lock();
            if st.queue.is_empty() {
                return;
            }
            // The whole queue drains at once, so the queued cost resets
            // with it — capacity frees as a unit per flush.
            st.queued_cost = 0;
            st.queue.drain(..).collect()
        };
        flush(batch, self.threads);
    }
}

/// The micro-batching executor.
pub struct Batcher {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("capacity", &self.shared.capacity)
            .field("threads", &self.shared.threads)
            .finish_non_exhaustive()
    }
}

impl Batcher {
    /// Creates the executor with a bounded queue of `capacity` cost units,
    /// evaluating dense batches on `threads` shards.
    ///
    /// # Errors
    ///
    /// None today; the `Result` keeps the constructor's contract stable.
    pub fn start(capacity: usize, threads: usize) -> Result<Batcher, ServeError> {
        Ok(Batcher {
            shared: Shared::new(capacity, threads),
        })
    }

    /// Submits work with its admission `cost` — the number of scalar
    /// evaluations the job expands to (clamped to at least 1). The job
    /// only enqueues; it runs at the next [`flush_queued`](Self::flush_queued)
    /// or [`Ticket::wait`]. A `trace` stage set, when supplied, learns the
    /// queue depth observed at admission and is stamped with
    /// queue/batch/eval stages as the job is flushed. A `waker`, when
    /// supplied, fires the moment the reply lands so an event-driven
    /// caller can sleep on its poller instead of blocking on the ticket.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Overloaded`] when admitting `cost` would push the
    ///   queued cost past capacity. A single job whose cost exceeds the
    ///   whole capacity is always shed — the bound is the contract.
    /// * [`ServeError::ShuttingDown`] when the executor is draining.
    pub fn submit(
        &self,
        work: Work,
        cost: usize,
        deadline: Option<Instant>,
        trace: Option<Arc<StageSet>>,
        waker: Option<Waker>,
    ) -> Result<Ticket, ServeError> {
        let cost = cost.max(1);
        let slot = ReplySlot::new();
        let mut st = self.shared.lock();
        if st.draining {
            return Err(ServeError::ShuttingDown);
        }
        if let Some(t) = &trace {
            t.set_queue_depth(st.queue.len() as u64);
        }
        if st.queued_cost + cost > self.shared.capacity {
            hmdiv_obs::counter_add("serve.overloaded", 1);
            return Err(ServeError::Overloaded {
                capacity: self.shared.capacity,
            });
        }
        st.queued_cost += cost;
        st.queue.push_back(Pending {
            work,
            deadline,
            handle: ReplyHandle {
                enqueued: Instant::now(),
                trace,
                slot: Arc::clone(&slot),
                waker,
            },
        });
        Ok(Ticket {
            slot,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Drains the whole queue and evaluates it on the calling thread;
    /// returns at once when nothing is queued. Concurrent callers each
    /// take a disjoint batch, so no job is evaluated twice.
    pub fn flush_queued(&self) {
        self.shared.flush_queued();
    }

    /// Jobs currently queued (for tests and the `metrics` verb; the bound
    /// is enforced by [`submit`](Batcher::submit) on cost, not count).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Total admission cost currently queued — the quantity bounded by
    /// capacity (for tests and the `metrics` verb).
    #[must_use]
    pub fn queue_cost(&self) -> usize {
        self.shared.lock().queued_cost
    }

    /// Stops accepting work and flushes everything still queued on the
    /// calling thread. Idempotent.
    pub fn drain(&self) {
        self.shared.lock().draining = true;
        self.shared.flush_queued();
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Replies to one job, recording its queue-to-reply latency.
fn reply(h: ReplyHandle, result: Reply) {
    hmdiv_obs::observe_since("serve.request", h.enqueued);
    h.complete(result);
}

/// The dense-batch size below which a group is evaluated on the flushing
/// thread alone: spawning shard threads costs tens of microseconds,
/// while small groups evaluate in far less than that. The `_par` entry
/// points are thread-count-invariant, so this is purely a latency
/// policy — results are bit-identical either way. The `metrics` verb
/// reports it.
#[must_use]
pub const fn par_threshold() -> usize {
    1024
}

/// Shard count for one dense group: serial under the threshold.
fn group_threads(len: usize, threads: usize) -> usize {
    if len < par_threshold() {
        1
    } else {
        threads
    }
}

/// Stamps the batch-formation and evaluation stages for one dense group,
/// and tells each traced request how large its batch turned out to be.
fn stamp_group(
    traces: &[Option<Arc<StageSet>>],
    formed: Instant,
    eval_start: Instant,
    eval_end: Instant,
    batch_size: u64,
) {
    for t in traces.iter().flatten() {
        t.stamp(Stage::Batch, formed, eval_start);
        t.stamp(Stage::Eval, eval_start, eval_end);
        t.set_batch_size(batch_size);
    }
}

fn flush(batch: Vec<Pending>, threads: usize) {
    hmdiv_obs::counter_add("serve.batch.flushes", 1);
    hmdiv_obs::counter_add("serve.batch.jobs", batch.len() as u64);
    #[allow(clippy::cast_precision_loss)]
    hmdiv_obs::gauge_set("serve.batch.last_size", batch.len() as f64);
    // Satellite metrics sampled once per flush: how deep the queue was
    // when it was drained (everything drained is everything that was
    // waiting) and the resulting batch size on the power-of-two ladder.
    #[allow(clippy::cast_precision_loss)]
    hmdiv_obs::gauge_set("serve.queue_depth", batch.len() as f64);
    hmdiv_obs::observe_count("serve.batch_size", batch.len() as u64);

    /// Profile jobs grouped by compiled-model identity.
    type ProfileGroup = (Arc<CompiledModel>, Vec<(CompiledProfile, ReplyHandle)>);
    /// Scenario jobs grouped by (compiled model, bound profile).
    type ScenarioGroup = (
        Arc<CompiledModel>,
        CompiledProfile,
        Vec<(Vec<Scenario>, ReplyHandle)>,
    );
    let now = Instant::now();
    let mut profile_groups: Vec<ProfileGroup> = Vec::new();
    let mut scenario_groups: Vec<ScenarioGroup> = Vec::new();

    for p in batch {
        // Everything drained spent `enqueued → now` waiting in the queue.
        if let Some(t) = &p.handle.trace {
            t.stamp(Stage::Queue, p.handle.enqueued, now);
        }
        if p.deadline.is_some_and(|d| now >= d) {
            hmdiv_obs::counter_add("serve.deadline_exceeded", 1);
            reply(p.handle, Err(ServeError::DeadlineExceeded));
            continue;
        }
        match p.work {
            Work::Profile { model, profile } => {
                match profile_groups
                    .iter_mut()
                    .find(|(m, _)| Arc::ptr_eq(m, &model))
                {
                    Some((_, jobs)) => jobs.push((profile, p.handle)),
                    None => profile_groups.push((model, vec![(profile, p.handle)])),
                }
            }
            Work::Scenarios {
                model,
                profile,
                scenarios,
            } => {
                match scenario_groups
                    .iter_mut()
                    .find(|(m, pr, _)| Arc::ptr_eq(m, &model) && *pr == profile)
                {
                    Some((_, _, jobs)) => jobs.push((scenarios, p.handle)),
                    None => scenario_groups.push((model, profile, vec![(scenarios, p.handle)])),
                }
            }
            Work::Direct(f) => {
                let eval_start = Instant::now();
                let result = f();
                if let Some(t) = &p.handle.trace {
                    t.stamp(Stage::Batch, now, eval_start);
                    t.stamp_since(Stage::Eval, eval_start);
                    t.set_batch_size(1);
                }
                reply(p.handle, result);
            }
        }
    }

    for (model, jobs) in profile_groups {
        let profiles: Vec<CompiledProfile> = jobs.iter().map(|(pr, _)| pr.clone()).collect();
        let traces: Vec<Option<Arc<StageSet>>> =
            jobs.iter().map(|(_, h)| h.trace.clone()).collect();
        let eval_start = Instant::now();
        let failures =
            model.evaluate_profiles_par(&profiles, group_threads(profiles.len(), threads));
        stamp_group(
            &traces,
            now,
            eval_start,
            Instant::now(),
            profiles.len() as u64,
        );
        for ((_, h), failure) in jobs.into_iter().zip(failures) {
            reply(h, Ok(Outcome::One(failure)));
        }
    }

    for (model, profile, jobs) in scenario_groups {
        let mut all = Vec::with_capacity(jobs.iter().map(|(s, _)| s.len()).sum());
        let mut ranges = Vec::with_capacity(jobs.len());
        for (scenarios, _) in &jobs {
            let start = all.len();
            all.extend(scenarios.iter().cloned());
            ranges.push(start..all.len());
        }
        let traces: Vec<Option<Arc<StageSet>>> =
            jobs.iter().map(|(_, h)| h.trace.clone()).collect();
        let eval_start = Instant::now();
        match model.evaluate_scenarios_par(&all, &profile, group_threads(all.len(), threads)) {
            Ok(failures) => {
                stamp_group(&traces, now, eval_start, Instant::now(), all.len() as u64);
                for ((_, h), range) in jobs.into_iter().zip(ranges) {
                    reply(h, Ok(Outcome::Many(failures[range].to_vec())));
                }
            }
            Err(_) => {
                // At least one job in the group is bad; re-run each alone
                // (sequentially — correctness over speed on the error path)
                // so every ticket gets its own typed error.
                stamp_group(&traces, now, eval_start, Instant::now(), all.len() as u64);
                for (scenarios, h) in jobs {
                    let result = model
                        .evaluate_scenarios(&scenarios, &profile)
                        .map(Outcome::Many)
                        .map_err(ServeError::Model);
                    reply(h, result);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmdiv_core::paper;
    use hmdiv_core::ClassId;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    fn model_and_profile() -> (Arc<CompiledModel>, CompiledProfile) {
        let model = paper::example_model().unwrap();
        let compiled = Arc::clone(model.compiled());
        let profile = compiled
            .bind_profile(&paper::field_profile().unwrap())
            .unwrap();
        (compiled, profile)
    }

    /// Submits `work` at cost 1 with no deadline, trace or waker.
    fn enqueue(batcher: &Batcher, work: Work) -> Result<Ticket, ServeError> {
        batcher.submit(work, 1, None, None, None)
    }

    fn profile_work(model: &Arc<CompiledModel>, profile: &CompiledProfile) -> Work {
        Work::Profile {
            model: Arc::clone(model),
            profile: profile.clone(),
        }
    }

    fn scenario_work(
        model: &Arc<CompiledModel>,
        profile: &CompiledProfile,
        scenarios: Vec<Scenario>,
    ) -> Work {
        Work::Scenarios {
            model: Arc::clone(model),
            profile: profile.clone(),
            scenarios,
        }
    }

    fn null_work() -> Work {
        Work::Direct(Box::new(|| Ok(Outcome::Value(Json::Null))))
    }

    /// A ticket on a bare reply cell, with an empty queue to flush.
    fn ticket_for(slot: &Arc<ReplySlot>) -> Ticket {
        Ticket {
            slot: Arc::clone(slot),
            shared: Shared::new(0, 1),
        }
    }

    fn assert_one(reply: Reply, want: Probability) {
        match reply {
            Ok(Outcome::One(p)) => assert_eq!(p.value().to_bits(), want.value().to_bits()),
            other => panic!("expected One({want:?}), got {other:?}"),
        }
    }

    // ReplySlot is the one lock-free-adjacent cell every reply crosses;
    // these focused tests are the CI Miri targets for it.

    #[test]
    fn reply_slot_first_fill_wins_and_never_reopens() {
        let slot = ReplySlot::new();
        assert!(slot.fill(Ok(Outcome::One(Probability::HALF))));
        // A late ShuttingDown overwrite (handle drop) must lose the race.
        assert!(!slot.fill(Err(ServeError::ShuttingDown)));
        assert_one(ticket_for(&slot).try_take().unwrap(), Probability::HALF);
        // Taking the reply empties the cell but keeps it closed.
        assert!(!slot.fill(Ok(Outcome::One(Probability::ZERO))));
        assert!(ticket_for(&slot).try_take().is_none());
    }

    #[test]
    fn reply_slot_concurrent_fillers_have_exactly_one_winner() {
        for _ in 0..16 {
            let slot = ReplySlot::new();
            let wins = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        if slot.fill(Ok(Outcome::One(Probability::HALF))) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(wins.load(Ordering::Relaxed), 1);
            assert!(ticket_for(&slot).wait().is_ok());
        }
    }

    #[test]
    fn reply_slot_wait_observes_a_racing_fill() {
        let slot = ReplySlot::new();
        let filler = Arc::clone(&slot);
        let handle = std::thread::spawn(move || {
            filler.fill(Ok(Outcome::One(Probability::ONE)));
        });
        // wait() must block (not spin-fail) until the fill lands, however
        // the threads interleave.
        assert!(ticket_for(&slot).wait().is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn single_profile_round_trips_bit_identically() {
        let (model, profile) = model_and_profile();
        let batcher = Batcher::start(8, 2).unwrap();
        let ticket = enqueue(&batcher, profile_work(&model, &profile)).unwrap();
        assert_one(ticket.wait(), model.system_failure(&profile));
    }

    #[test]
    fn grouped_scenarios_match_direct_evaluation() {
        let (model, profile) = model_and_profile();
        let scenarios: Vec<Scenario> = (1..=6)
            .map(|i| Scenario::new().improve_machine(ClassId::new("difficult"), f64::from(i) * 2.0))
            .collect();
        let direct = model.evaluate_scenarios(&scenarios, &profile).unwrap();
        let batcher = Batcher::start(16, 3).unwrap();
        // Submit in two chunks against the same model+profile so the first
        // wait's flush coalesces them into one dense call.
        let [t1, t2] = [&scenarios[..3], &scenarios[3..]].map(|chunk| {
            let work = scenario_work(&model, &profile, chunk.to_vec());
            batcher.submit(work, 3, None, None, None).unwrap()
        });
        let got: Vec<Probability> = match (t1.wait().unwrap(), t2.wait().unwrap()) {
            (Outcome::Many(a), Outcome::Many(b)) => a.into_iter().chain(b).collect(),
            other => panic!("expected Many+Many, got {other:?}"),
        };
        assert_eq!(got.len(), direct.len());
        for (g, d) in got.iter().zip(&direct) {
            assert_eq!(g.value().to_bits(), d.value().to_bits());
        }
    }

    #[test]
    fn scenario_errors_attribute_to_the_right_ticket() {
        let (model, profile) = model_and_profile();
        let good = vec![Scenario::new().improve_machine_everywhere(2.0)];
        let bad = vec![Scenario::new().improve_machine(ClassId::new("ghost"), 2.0)];
        let batcher = Batcher::start(16, 2).unwrap();
        let t_good = enqueue(&batcher, scenario_work(&model, &profile, good)).unwrap();
        let t_bad = enqueue(&batcher, scenario_work(&model, &profile, bad)).unwrap();
        assert!(t_good.wait().is_ok(), "good job must not inherit the error");
        assert!(matches!(
            t_bad.wait(),
            Err(ServeError::Model(
                hmdiv_core::ModelError::UnknownClass { ref class }
            )) if class.name() == "ghost"
        ));
    }

    #[test]
    fn expired_deadlines_are_rejected_without_evaluation() {
        let (model, profile) = model_and_profile();
        let batcher = Batcher::start(8, 1).unwrap();
        // A deadline of "now" is already unmeetable by the time the queue
        // is flushed: deterministic expiry, no sleeps.
        let work = Work::Profile { model, profile };
        let ticket = batcher
            .submit(work, 1, Some(Instant::now()), None, None)
            .unwrap();
        assert!(matches!(ticket.wait(), Err(ServeError::DeadlineExceeded)));
    }

    #[test]
    fn full_queue_rejects_with_overloaded_and_stays_bounded() {
        let batcher = Batcher::start(2, 1).unwrap();
        // Rendezvous: a Direct job signals it started, then blocks until
        // released. A helper thread flushes it by waiting on its ticket,
        // so that flush is held and the queue is empty.
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let blocker = Work::Direct(Box::new(move || {
            started_tx.send(()).ok();
            release_rx.recv().ok();
            Ok(Outcome::Value(Json::Null))
        }));
        let blocker = enqueue(&batcher, blocker).unwrap();
        let flusher = std::thread::spawn(move || blocker.wait());
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the helper never started the blocker");
        // Fill the queue to capacity while that flush is held.
        let queued: Vec<Ticket> = (0..2)
            .map(|_| enqueue(&batcher, null_work()).unwrap())
            .collect();
        assert!(batcher.queue_len() <= 2, "queue must stay within capacity");
        // The next submit is shed, not buffered.
        assert!(matches!(
            enqueue(&batcher, null_work()),
            Err(ServeError::Overloaded { capacity: 2 })
        ));
        // Release the held flush: everything accepted completes.
        release_tx.send(()).unwrap();
        assert!(flusher.join().unwrap().is_ok());
        for t in queued {
            assert!(t.wait().is_ok());
        }
    }

    // Caller-runs flushing: these socket-free tests are CI Miri targets
    // alongside the reply cell.

    #[test]
    fn flush_on_another_thread_is_bit_identical_and_wakes_once() {
        let (model, profile) = model_and_profile();
        let batcher = Batcher::start(8, 2).unwrap();
        let wakes = Arc::new(AtomicUsize::new(0));
        let waker: Waker = {
            let wakes = Arc::clone(&wakes);
            Arc::new(move || {
                wakes.fetch_add(1, Ordering::SeqCst);
            })
        };
        // Thread A submits; thread B flushes.
        let ticket = std::thread::scope(|s| {
            let work = profile_work(&model, &profile);
            let submit = s.spawn(|| batcher.submit(work, 1, None, None, Some(waker)));
            let ticket = submit.join().unwrap().unwrap();
            assert_eq!(wakes.load(Ordering::SeqCst), 0, "submit only enqueues");
            s.spawn(|| batcher.flush_queued()).join().unwrap();
            ticket
        });
        assert_eq!(wakes.load(Ordering::SeqCst), 1, "the reply rang once");
        assert_one(ticket.try_take().unwrap(), model.system_failure(&profile));
        batcher.flush_queued();
        drop(batcher);
        assert_eq!(wakes.load(Ordering::SeqCst), 1, "no second ring");
    }

    #[test]
    fn flush_queued_concurrently_evaluates_each_job_once() {
        let batcher = Batcher::start(64, 1).unwrap();
        let runs: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        let runs = Arc::new(runs);
        std::thread::scope(|s| {
            let submitter = s.spawn(|| {
                (0..32)
                    .map(|i| {
                        let runs = Arc::clone(&runs);
                        let work = Work::Direct(Box::new(move || {
                            runs[i].fetch_add(1, Ordering::SeqCst);
                            Ok(Outcome::Value(Json::Null))
                        }));
                        enqueue(&batcher, work).unwrap()
                    })
                    .collect::<Vec<Ticket>>()
            });
            // Two flushers race the submitter and each other.
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..8 {
                        batcher.flush_queued();
                        std::thread::yield_now();
                    }
                });
            }
            for t in submitter.join().unwrap() {
                assert!(t.wait().is_ok());
            }
        });
        for (i, n) in runs.iter().enumerate() {
            assert_eq!(n.load(Ordering::SeqCst), 1, "job {i} ran {n:?} times");
        }
        assert_eq!(batcher.queue_cost(), 0);
    }

    #[test]
    fn drain_flushes_queued_work_then_rejects_new_work() {
        let (model, profile) = model_and_profile();
        let batcher = Batcher::start(8, 2).unwrap();
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| enqueue(&batcher, profile_work(&model, &profile)).unwrap())
            .collect();
        batcher.drain();
        for t in tickets {
            assert!(t.wait().is_ok(), "in-flight work must complete on drain");
        }
        assert!(matches!(
            enqueue(&batcher, profile_work(&model, &profile)),
            Err(ServeError::ShuttingDown)
        ));
        batcher.drain(); // idempotent
    }

    #[test]
    fn batched_load_is_bit_identical_across_mixed_models() {
        // Two distinct models in one flush exercise the per-model grouping.
        let (model_a, profile_a) = model_and_profile();
        let model_b = {
            let improved = Scenario::new()
                .improve_machine(ClassId::new("easy"), 2.0)
                .apply(&paper::example_model().unwrap())
                .unwrap();
            Arc::clone(improved.compiled())
        };
        let profile_b = model_b
            .bind_profile(&paper::field_profile().unwrap())
            .unwrap();
        let batcher = Batcher::start(64, 4).unwrap();
        let tickets: Vec<(Ticket, Probability)> = (0..20)
            .map(|i| {
                let (m, pr) = if i % 2 == 0 {
                    (&model_a, &profile_a)
                } else {
                    (&model_b, &profile_b)
                };
                let ticket = enqueue(&batcher, profile_work(m, pr)).unwrap();
                (ticket, m.system_failure(pr))
            })
            .collect();
        for (t, want) in tickets {
            assert_one(t.wait(), want);
        }
    }
}
