//! The two schedulers and what they share: the readiness-driven pump
//! (the default), the reference round-robin pump it is checked against,
//! the run arena, sleeping and waking, admission, launch and the orphan
//! discard.

use std::collections::VecDeque;
use std::time::Instant;

use timego_netsim::{NodeId, RxMeta};

use super::op::Stepped;
use super::{clock, ActiveOp, Engine, EngineEvent, OpId, OpOutcome};
use crate::error::ProtocolError;
use crate::machine::{Machine, Tags};
use crate::sched::{SchedMode, SchedPhase};

/// One admitted operation's scheduler slot in the run arena. Both
/// scheduler modes share this storage; the readiness fields (`ready`,
/// `slept_epoch`, `sleep_gen`, `wd_due`) are only consulted by the
/// event-driven mode — the reference round-robin sweeps every slot in
/// `run_order` regardless.
pub(super) struct RunSlot {
    pub(super) a: ActiveOp,
    /// Incarnation number, unique across the engine's lifetime. Slab
    /// slots are reused, so timing-wheel entries validate `(slot, inc)`
    /// before acting.
    pub(super) inc: u64,
    /// Eligible to be stepped this sweep. Cleared when a step returns
    /// `Idle` (the op goes to sleep on its wake conditions), set again
    /// by a packet touch or wheel timer.
    ready: bool,
    /// The engine's tick epoch when the op last went to sleep — the
    /// lazy-tick anchor: on wake it receives `tick_epoch - slept_epoch`
    /// timer ticks at once. Ticks are counted in the *engine-advance*
    /// domain, not raw substrate cycles: the reference scheduler ticks
    /// ops once per engine-driven idle `advance`, while cycles burned
    /// *inside* an op's step (blocking NI waits) tick nobody.
    slept_epoch: u64,
    /// Bumped on every wake so a stale wheel wake for an earlier sleep
    /// of the same slot is recognized and ignored.
    sleep_gen: u64,
    /// Whether this op currently holds a live entry in the subscriber
    /// list of its source / destination respectively. Lists hold only
    /// *sleeping* ops and are drained wholesale on touch, so a touch at
    /// a hot node costs its sleeper count, not its lifetime subscriber
    /// count; these flags keep re-sleeps from pushing duplicate entries
    /// while an undrained one is still queued.
    subbed: [bool; 2],
    /// Absolute clock at which the no-progress watchdog would expire
    /// this op (`last_progress_at + bound + 1`). Wheel watchdog entries
    /// re-validate against this and lazily re-arm when the op progressed
    /// since they were scheduled.
    pub(super) wd_due: u64,
}

/// What one timing-wheel expiry means to the event-driven scheduler.
/// Every variant is validated against current engine state when it
/// fires — entries are never eagerly cancelled, they just go stale.
pub(super) enum WheelItem {
    /// Wake a sleeping op: the earliest future cycle at which its next
    /// step could be anything but a cost-free `Idle` (retry window,
    /// timeout threshold, RTO, or plain backpressure re-poll).
    Wake { slot: u32, inc: u64, gen: u64 },
    /// A deadline armed via [`Submit::deadline`](super::Submit::deadline)
    /// may be due.
    Deadline { id: OpId },
    /// A running op's no-progress watchdog may have expired.
    Watchdog { slot: u32, inc: u64 },
    /// A parked op's recovery backoff window closes here. Carries no
    /// payload — it exists so `next_due` bounds idle clock-jumps and the
    /// loop re-runs `release_recovered` at exactly the right cycle.
    ParkResume,
}

impl Engine {
    /// Drive every submitted operation to completion (success or
    /// error), interleaving all of them over the machine's substrate.
    /// Outcomes are collected per [`OpId`]; an individual operation's
    /// failure does not abort the others.
    pub fn run(&mut self, m: &mut Machine) {
        self.idle_streak = 0;
        while self.unfinished() > 0 {
            self.pump(m);
        }
    }

    /// One scheduler quantum: admit pending operations, sweep every
    /// running state machine until none can make further progress
    /// without time passing, then advance the substrate and deliver
    /// timer ticks. Returns the number of operations still unfinished.
    ///
    /// This is the open-loop building block: a paced driver alternates
    /// `pump` with [`Engine::submit`] calls to inject new operations at a
    /// controlled offered rate while earlier ones are still in flight
    /// ([`Engine::run`] is just `pump` until nothing is left). When the
    /// engine is empty, `pump` advances the clock one cycle so a driver
    /// waiting for its next injection slot still makes time pass.
    pub fn pump(&mut self, m: &mut Machine) -> usize {
        self.counters.quanta += 1;
        if self.unfinished() == 0 {
            m.advance(1);
            self.counters.advances += 1;
            return 0;
        }
        match self.mode {
            SchedMode::EventDriven => self.pump_event(m),
            SchedMode::ReferenceRoundRobin => self.pump_reference(m),
        }
    }

    /// The retained reference scheduler: round-robin every running op
    /// each pass, scan every deadline and watchdog, `advance(1)` when
    /// nothing progresses. The `sched_equivalence` soak pins the
    /// event-driven scheduler's trace and bills against this.
    fn pump_reference(&mut self, m: &mut Machine) -> usize {
        // Fold any node crash-restarts into protocol state before
        // stepping: erase the crashed endpoint's sessions and caches so
        // the ops observe the restart, not ghosts of the old incarnation.
        m.observe_restarts();
        // Receiver-side GC: epoch-TTL sweep of dead sessions and
        // expired reply-cache entries. Tables owned by live operations
        // are exempt; a clean run sweeps (and bills) nothing.
        self.collect_garbage(m);
        loop {
            if self.supervise_reference(m) {
                continue;
            }
            self.release_recovered(m);
            self.admit(m);
            if self.run_order.is_empty() {
                if self.jump_to_parked(m) {
                    continue;
                }
                return 0;
            }
            let mut progressed = false;
            let mut i = 0;
            let now = clock(m);
            self.counters.passes += 1;
            while i < self.run_order.len() {
                let slot = self.run_order[i];
                self.counters.steps += 1;
                match self.step_slot(m, slot) {
                    Ok(Stepped::Progress) => {
                        let id = self.slots[slot].a.id;
                        self.slots[slot].a.last_progress_at = now;
                        self.record(m, EngineEvent::Progressed(id));
                        progressed = true;
                        i += 1;
                    }
                    Ok(Stepped::Idle) => i += 1,
                    Ok(Stepped::Done(out)) => {
                        self.finish(m, i, Ok(out));
                        progressed = true;
                    }
                    Err(e) => {
                        self.finish(m, i, Err(e));
                        progressed = true;
                    }
                }
            }
            if progressed {
                self.idle_streak = 0;
                continue;
            }
            if self.discard_orphan(m) {
                continue;
            }
            m.advance(1);
            self.counters.advances += 1;
            for i in 0..self.run_order.len() {
                let slot = self.run_order[i];
                self.slots[slot].a.op.tick_n(1);
            }
            self.idle_streak += 1;
            // No global wedge backstop here: the per-op watchdog in
            // `supervise_reference` settles individual no-progress
            // operations with a retryable `DeadlineExceeded` instead of
            // failing the whole engine at once.
            return self.unfinished();
        }
    }

    /// The readiness-driven scheduler. Same observable semantics as
    /// [`Engine::pump_reference`] — identical trace, identical
    /// per-feature bills — reached with far fewer op steps:
    ///
    /// * an op whose step returns `Idle` goes to *sleep* on its wake
    ///   conditions (packet activity at its endpoints, or the earliest
    ///   cycle a timer tick could change its behavior) and is skipped by
    ///   the sweep until one fires;
    /// * deadlines, watchdogs, and park-resume markers ride the timing
    ///   wheel instead of being scanned every quantum;
    /// * when nothing is runnable and the fabric is empty, the clock
    ///   jumps straight to the next wheel event (never overshooting a
    ///   scripted crash-restart), and sleepers are lazily ticked the
    ///   whole distance on wake.
    ///
    /// Sleeping is *conservative*: a spurious wake costs one cost-free
    /// `Idle` step, while the wake conditions are chosen so an op can
    /// never sleep through a step the reference would have made
    /// non-idle. That is what makes the two schedulers
    /// trace-equivalent.
    fn pump_event(&mut self, m: &mut Machine) -> usize {
        // Restart folding first, same slot the reference gives it; ops
        // subscribed at a restarted endpoint wake so their next step
        // observes the `SessionReset`.
        for node in m.observe_restarts() {
            self.touch_node(node);
        }
        let t = self.profiler.as_ref().map(|_| Instant::now());
        self.absorb_wakes(m);
        self.profile(SchedPhase::WheelAdvance, t);
        self.collect_garbage(m);
        loop {
            if self.supervise_event(m) {
                continue;
            }
            self.release_recovered(m);
            self.admit(m);
            // Collect clock-free delivery marks (self-sends during
            // `start`, same-cycle fast paths) so sleepers subscribed at
            // those nodes join the coming pass.
            self.absorb_wakes(m);
            if self.run_order.is_empty() {
                if self.jump_to_parked(m) {
                    continue;
                }
                return 0;
            }
            let mut progressed = false;
            let mut i = 0;
            let now = clock(m);
            let bound = self.watchdog_bound(m);
            self.counters.passes += 1;
            let pass_t = self.profiler.as_ref().map(|_| Instant::now());
            let mut step_ns: u64 = 0;
            while i < self.run_order.len() {
                let slot = self.run_order[i];
                // Visit-time readiness: an op woken by an earlier op's
                // progress in this pass is stepped *in this pass* —
                // exactly when the reference sweep would reach it.
                if !self.slots[slot].ready {
                    i += 1;
                    continue;
                }
                self.counters.steps += 1;
                let st = self.profiler.as_ref().map(|_| Instant::now());
                let clock_before = clock(m);
                let stepped = self.step_slot(m, slot);
                // Blocking NI waits inside a step advance the substrate
                // clock mid-pass, delivering packets along the way.
                // Absorb those wakes immediately so sleepers at the
                // affected nodes are ready exactly when the reference
                // sweep (which re-steps everyone) would next reach them.
                // Note this burns *clock*, not tick epochs: the
                // reference never ticks ops for in-step cycles.
                if clock(m) != clock_before {
                    self.absorb_wakes(m);
                }
                if let Some(st) = st {
                    step_ns += st.elapsed().as_nanos() as u64;
                }
                match stepped {
                    Ok(Stepped::Progress) => {
                        let id = self.slots[slot].a.id;
                        self.slots[slot].a.last_progress_at = now;
                        self.slots[slot].wd_due = now.saturating_add(bound).saturating_add(1);
                        self.record(m, EngineEvent::Progressed(id));
                        // Progress may have consumed or injected at the
                        // endpoints, revealing queued packets there:
                        // wake the subscribers and mark the orphan
                        // sweep.
                        let (ea, eb) = self.slots[slot].a.route.endpoints;
                        self.touch_node(ea);
                        self.touch_node(eb);
                        progressed = true;
                        i += 1;
                    }
                    Ok(Stepped::Idle) => {
                        self.sleep_slot(m, slot);
                        i += 1;
                    }
                    Ok(Stepped::Done(out)) => {
                        self.finish(m, i, Ok(out));
                        progressed = true;
                    }
                    Err(e) => {
                        self.finish(m, i, Err(e));
                        progressed = true;
                    }
                }
            }
            if let Some(pt) = pass_t {
                let total = pt.elapsed().as_nanos() as u64;
                if let Some(p) = self.profiler.as_mut() {
                    p.record(SchedPhase::OpStep, step_ns);
                    p.record(SchedPhase::ReadyPop, total.saturating_sub(step_ns));
                }
            }
            if progressed {
                self.idle_streak = 0;
                continue;
            }
            if self.discard_orphan_event(m) {
                continue;
            }
            // Every running op is now asleep (a ready op either
            // progressed — and we looped — or idled and slept). With
            // traffic in flight a delivery can wake someone next cycle;
            // with the fabric empty nothing observable happens before
            // the next wheel event, so jump the clock straight there.
            let jump = self.idle_jump(m);
            let t = self.profiler.as_ref().map(|_| Instant::now());
            m.advance(jump);
            self.profile(SchedPhase::SubstrateStep, t);
            self.counters.advances += 1;
            // Engine-advance time: these are the cycles the reference
            // scheduler would have spent ticking every op once each.
            self.tick_epoch += jump;
            if jump > 1 {
                self.counters.idle_jumps += 1;
                self.counters.jumped_cycles += jump - 1;
            }
            self.idle_streak += 1;
            let t = self.profiler.as_ref().map(|_| Instant::now());
            self.absorb_wakes(m);
            self.profile(SchedPhase::WheelAdvance, t);
            return self.unfinished();
        }
    }

    /// Step one running op, crediting whatever it costs at its
    /// endpoints to its class.
    fn step_slot(&mut self, m: &mut Machine, slot: u32) -> Result<Stepped, ProtocolError> {
        let (id, endpoints) = (self.slots[slot].a.id, self.slots[slot].a.route.endpoints);
        let cls = self.class_pre(m, id, endpoints);
        let stepped = self.slots[slot].a.op.step(m);
        self.class_post(m, cls, endpoints);
        stepped
    }

    /// What both pumps do when no op is running. With an op parked for
    /// recovery, jump the clock to the earliest resume and return `true`
    /// so the caller loops to re-admit it. Otherwise the engine is
    /// drained: return `false`.
    fn jump_to_parked(&mut self, m: &mut Machine) -> bool {
        if let Some(resume_at) = self.parked.values().map(|&(at, _)| at).min() {
            let now = clock(m);
            if resume_at > now {
                m.advance(resume_at - now);
                self.counters.advances += 1;
            }
            if self.mode == SchedMode::EventDriven {
                // The wheel catches up so deadlines due inside the
                // jumped window fire on the next iteration.
                self.absorb_wakes(m);
            }
            return true;
        }
        // Pending ops blocked on keys held by nothing running.
        assert!(self.pending.is_empty(), "pending operations with no running key holder");
        // A held op always has a live predecessor somewhere in
        // running/pending/parked (release and failure both move it out
        // of `held` when the last one settles), so nothing can be held
        // here; sweep defensively rather than spin if that invariant
        // ever breaks.
        while let Some(&id) = self.held.keys().next() {
            self.held.remove(&id);
            let streak = self.idle_streak;
            self.settle(m, id, Err(ProtocolError::timeout("engine progress", streak)));
        }
        false
    }

    fn profile(&mut self, phase: SchedPhase, started: Option<Instant>) {
        if let (Some(t), Some(p)) = (started, self.profiler.as_mut()) {
            p.record(phase, t.elapsed().as_nanos() as u64);
        }
    }

    /// How far the clock may advance in one quantum with every running
    /// op asleep. One cycle while packets are in flight (a delivery can
    /// wake someone); otherwise straight to the next wheel event,
    /// clamped so a scripted crash-restart is observed on the cycle its
    /// window closes — exactly when the reference would observe it.
    fn idle_jump(&self, m: &Machine) -> u64 {
        let net = m.network().borrow();
        if net.in_flight() > 0 {
            return 1;
        }
        let Some(mut due) = self.wheel.next_due() else { return 1 };
        if let Some(r) = net.next_restart_at() {
            due = due.min(r.cycles());
        }
        due.saturating_sub(net.now().cycles()).max(1)
    }

    /// Advance the timing wheel to the substrate clock, harvest every
    /// ripe entry, and absorb the substrate's delivery wake set. Wheel
    /// wakes are validated against the slot's incarnation and sleep
    /// generation (slots are reused; sleeps are re-entered); deadline
    /// and watchdog expiries are queued for [`Engine::supervise_event`].
    fn absorb_wakes(&mut self, m: &mut Machine) {
        let now = clock(m);
        self.wheel.advance_to(now);
        for (_due, _seq, item) in self.wheel.take_ripe() {
            match item {
                WheelItem::Wake { slot, inc, gen } => {
                    let live = self
                        .slots
                        .get(slot)
                        .is_some_and(|s| s.inc == inc && !s.ready && s.sleep_gen == gen);
                    if live {
                        self.counters.timer_wakes += 1;
                        self.wake_slot(slot);
                    }
                }
                WheelItem::Deadline { id } => self.fired_deadlines.push(id),
                WheelItem::Watchdog { slot, inc } => self.fired_watchdogs.push((slot, inc)),
                WheelItem::ParkResume => {}
            }
        }
        for node in m.take_delivered() {
            self.counters.packet_wakes += 1;
            self.touch_node(node);
        }
    }

    /// Note packet activity at `node`: mark it for the orphan sweep and
    /// wake every op sleeping there. Called on substrate deliveries,
    /// crash-restarts, engine stray discards, and whenever an op
    /// progresses or finishes at its endpoints (consumption can reveal
    /// the next queued packet). Consumes the node's subscriber entries
    /// — woken ops re-subscribe when they next sleep — and skips stale
    /// entries whose slot was reused (incarnation mismatch).
    fn touch_node(&mut self, node: NodeId) {
        self.orphan_dirty.insert(node.index());
        if node.index() >= self.node_subs.len() {
            return;
        }
        let mut subs = std::mem::take(&mut self.node_subs[node.index()]);
        for &(slot, inc, ep) in &subs {
            let Some(s) = self.slots.get_mut(slot) else { continue };
            if s.inc != inc {
                continue;
            }
            s.subbed[ep as usize] = false;
            self.wake_slot(slot);
        }
        // Hand the emptied allocation back for the next sleepers.
        subs.clear();
        self.node_subs[node.index()] = subs;
    }

    /// Wake a sleeping slot, delivering the timer ticks it slept
    /// through in one lazy batch. Ticks are engine-advance epochs, not
    /// raw clock cycles: a same-epoch wake delivers zero ticks —
    /// preserving `stalled` until an idle advance actually passes,
    /// exactly like the reference (which only clears it on a tick).
    fn wake_slot(&mut self, slot: u32) {
        let epoch = self.tick_epoch;
        let Some(s) = self.slots.get_mut(slot) else { return };
        if s.ready {
            return;
        }
        s.ready = true;
        // Invalidate the outstanding wheel wake for this sleep.
        s.sleep_gen += 1;
        let elapsed = epoch.saturating_sub(s.slept_epoch);
        s.a.op.tick_n(elapsed);
    }

    /// Put a slot to sleep after an `Idle` step: record the sleep
    /// anchor, subscribe its endpoints for packet wakes, and schedule
    /// the op's own timer wake — the earliest future cycle at which a
    /// timer tick could make its next step non-idle. Packet activity at
    /// its endpoints wakes it earlier.
    fn sleep_slot(&mut self, m: &Machine, slot: u32) {
        let now = clock(m);
        let wake_in = self.slots[slot].a.op.wake_in(m);
        let endpoints = self.slots[slot].a.route.endpoints;
        let epoch = self.tick_epoch;
        let s = &mut self.slots[slot];
        s.ready = false;
        s.slept_epoch = epoch;
        let inc = s.inc;
        if wake_in != u64::MAX {
            let item = WheelItem::Wake { slot, inc, gen: s.sleep_gen };
            self.wheel.insert(now.saturating_add(wake_in), item);
        }
        // Re-subscribe endpoints whose entry was consumed by a touch
        // since the last sleep; a wake that didn't come through
        // `touch_node` (timer, spurious) leaves the entries queued, so
        // the flags keep this duplicate-free.
        for (ep, node) in [endpoints.0, endpoints.1].into_iter().enumerate() {
            if self.slots[slot].subbed[ep] {
                continue;
            }
            self.slots[slot].subbed[ep] = true;
            let ni = node.index();
            if ni >= self.node_subs.len() {
                self.node_subs.resize_with(ni + 1, Vec::new);
            }
            self.node_subs[ni].push((slot, inc, ep as u8));
        }
    }

    /// Start an op and move it into the run arena — the one launch
    /// sequence for admission and for recovery re-execution: trace
    /// `Started`, run `start` billed to the op's class, allocate the
    /// slot, and arm the no-progress watchdog on the wheel. Endpoint
    /// subscriptions happen lazily on first sleep — the op spawns
    /// ready.
    pub(super) fn launch(&mut self, m: &mut Machine, mut a: ActiveOp) {
        self.record(m, EngineEvent::Started(a.id));
        let cls = self.class_pre(m, a.id, a.route.endpoints);
        a.op.start(m);
        self.class_post(m, cls, a.route.endpoints);
        let now = clock(m);
        a.last_progress_at = now;
        let inc = self.next_inc;
        self.next_inc += 1;
        let wd_due = now.saturating_add(self.watchdog_bound(m)).saturating_add(1);
        let slot = self.slots.insert(RunSlot {
            a,
            inc,
            ready: true,
            slept_epoch: self.tick_epoch,
            sleep_gen: 0,
            subbed: [false; 2],
            wd_due,
        });
        self.run_order.push(slot);
        if self.mode == SchedMode::EventDriven {
            self.wheel.insert(wd_due, WheelItem::Watchdog { slot, inc });
        }
    }

    /// Launch every pending op whose conflict key is free, in
    /// submission order; same-key ops stay queued behind each other.
    fn admit(&mut self, m: &mut Machine) {
        let mut still_pending = VecDeque::new();
        while let Some(op) = self.pending.pop_front() {
            if let Some(k) = op.route.key {
                let blocked = self.busy.contains(&k)
                    // Keep same-key pending ops in submission order.
                    || still_pending.iter().any(|p: &ActiveOp| p.route.key == Some(k));
                if blocked {
                    still_pending.push_back(op);
                    continue;
                }
                self.busy.insert(k);
            }
            self.launch(m, op);
        }
        self.pending = still_pending;
    }

    pub(super) fn finish(
        &mut self,
        m: &Machine,
        idx: usize,
        result: Result<OpOutcome, ProtocolError>,
    ) {
        let slot = self.run_order.remove(idx);
        let s = self.slots.remove(slot);
        let (src, dst) = s.a.route.endpoints;
        // Any subscriber entries the op still holds go stale with its
        // slot: touches validate the incarnation and drop them lazily.
        // The op's remaining packets just became unclaimed, and a queue
        // head it was about to consume may now be someone else's to
        // reveal: mark both endpoints and wake their subscribers.
        self.touch_node(src);
        self.touch_node(dst);
        if self.try_recover(m, s.a.id, s.a.route, Some(&s.a.op), &result) {
            // The parked op keeps its conflict key: queued same-key
            // work must not overtake the re-execution.
            return;
        }
        if let Some(k) = s.a.route.key {
            self.busy.remove(&k);
        }
        self.settle(m, s.a.id, result);
    }

    /// May the engine discard the packet `meta` at `node`'s queue head?
    /// Reserved protocol tags are engine-owned. User-tag packets
    /// carrying a nonzero header are recovery-stamped am4 sends (plain
    /// user traffic always rides header 0) and equally discardable.
    /// Either kind is an orphan once no running op claims it.
    fn is_orphan(&self, node: NodeId, meta: &RxMeta) -> bool {
        let reserved = meta.tag < Tags::USER_BASE || meta.tag == Tags::RPC_REPLY;
        (reserved || meta.header != 0)
            && !self.run_order.iter().any(|&s| self.slots[s].a.op.claims(node, meta))
    }

    /// The lowest node whose queue head is an orphan (full scan).
    fn first_orphan(&self, m: &mut Machine) -> Option<NodeId> {
        (0..m.num_nodes())
            .map(NodeId::new)
            .find(|&node| m.rx_peek_at(node).is_some_and(|meta| self.is_orphan(node, &meta)))
    }

    /// Discard one orphan (a stale duplicate of an already-completed
    /// operation), charged with the same instruction shape the blocking
    /// recovery paths used for stray discards. Returns `true` if
    /// something was discarded.
    pub(super) fn discard_orphan(&mut self, m: &mut Machine) -> bool {
        let Some(node) = self.first_orphan(m) else { return false };
        m.discard_stray(node);
        true
    }

    /// Event-mode orphan discard: same decision as
    /// [`Engine::discard_orphan`], but only nodes with packet activity
    /// since their last clean verdict are examined. Every path that can
    /// surface a discardable head marks the node dirty (deliveries,
    /// restarts, claimant progress/finish, prior discards), so the
    /// dirty set is a superset of the nodes the full scan could act on.
    fn discard_orphan_event(&mut self, m: &mut Machine) -> bool {
        while let Some(&ni) = self.orphan_dirty.iter().next() {
            let node = NodeId::new(ni);
            if !m.rx_peek_at(node).is_some_and(|meta| self.is_orphan(node, &meta)) {
                self.orphan_dirty.remove(&ni);
                continue;
            }
            m.discard_stray(node);
            // The next queued packet (if any) surfaced: leave the node
            // dirty and wake its subscribers.
            self.touch_node(node);
            return true;
        }
        debug_assert!(
            self.first_orphan(m).is_none(),
            "orphan-dirty set missed a discardable packet"
        );
        false
    }
}
