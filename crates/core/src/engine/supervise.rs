//! Supervision: per-operation deadlines, the no-progress watchdog,
//! cancellation and graceful quiesce. Supervision is host-side
//! scheduling and charges no simulated instructions.

use super::pump::WheelItem;
use super::{clock, Engine, EngineEvent, OpId};
use crate::error::ProtocolError;
use crate::machine::Machine;
use crate::sched::SchedMode;

impl Engine {
    /// Arm the deadline a submission asked for
    /// ([`Submit::deadline`](super::Submit::deadline)), `cycles` from
    /// now.
    pub(super) fn arm_deadline(&mut self, m: &Machine, id: OpId, cycles: u64) {
        let at = clock(m).saturating_add(cycles);
        self.deadlines.insert(id, (at, cycles));
        if self.mode == SchedMode::EventDriven {
            self.wheel.insert(at, WheelItem::Deadline { id });
        }
    }

    /// The no-progress watchdog bound in cycles: the override from
    /// [`Engine::set_watchdog`], else 4 × `max_wait_cycles`.
    pub(super) fn watchdog_bound(&self, m: &Machine) -> u64 {
        self.watchdog.unwrap_or(4 * m.config().max_wait_cycles)
    }

    /// Override the per-operation no-progress watchdog bound (cycles an
    /// admitted operation may go without a `Progressed` event before the
    /// engine settles it with [`ProtocolError::DeadlineExceeded`]). The
    /// default, `4 × max_wait_cycles`, is deliberately looser than every
    /// protocol's own internal timeout so op-level errors fire first.
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.watchdog = Some(cycles);
        if self.mode == SchedMode::EventDriven {
            // Re-derive every running op's expiry under the new bound
            // and arm fresh wheel entries: a shrunken bound must not
            // wait out entries armed under the old one.
            for i in 0..self.run_order.len() {
                let slot = self.run_order[i];
                let s = &mut self.slots[slot];
                s.wd_due = s.a.last_progress_at.saturating_add(cycles).saturating_add(1);
                let (wd_due, inc) = (s.wd_due, s.inc);
                self.wheel.insert(wd_due, WheelItem::Watchdog { slot, inc });
            }
        }
    }

    /// Cancel an unfinished operation wherever it is (running, pending,
    /// or held): it settles with [`ProtocolError::Cancelled`], its
    /// conflict key is released, and dependents fail with
    /// [`ProtocolError::DependencyFailed`] whose root is the
    /// cancellation. Returns `false` if the id was already finished (or
    /// never submitted). In-flight packets of a cancelled operation are
    /// left to the orphan-discard sweep.
    pub fn cancel(&mut self, m: &Machine, id: OpId) -> bool {
        self.expire(m, id, ProtocolError::Cancelled)
    }

    /// Settle one unfinished op with `err`, wherever it currently is.
    /// Cancellations record the uniform [`EngineEvent::Cancelled`]
    /// trace event regardless of where the op sat.
    fn expire(&mut self, m: &Machine, id: OpId, err: ProtocolError) -> bool {
        self.deadlines.remove(&id);
        let running = self.run_order.iter().position(|&s| self.slots[s].a.id == id);
        let pending = match running {
            Some(_) => None,
            None => self.pending.iter().position(|op| op.id == id),
        };
        let waiting = self.held.contains_key(&id) || self.parked.contains_key(&id);
        if running.is_none() && pending.is_none() && !waiting {
            return false;
        }
        if matches!(err, ProtocolError::Cancelled) {
            self.record(m, EngineEvent::Cancelled(id));
        }
        if let Some(idx) = running {
            self.finish(m, idx, Err(err));
            return true;
        }
        if let Some(pos) = pending {
            self.pending.remove(pos);
        } else if let Some((_, route)) = self.parked.remove(&id) {
            // A retryable expiry (a deadline firing mid-backoff)
            // consumes recovery budget and re-parks; anything else —
            // cancellation included — releases the conflict key the
            // parked op was holding and settles it.
            if self.try_recover(m, id, route, None, &Err(err.clone())) {
                return true;
            }
            if let Some(k) = route.key {
                self.busy.remove(&k);
            }
        } else {
            self.held.remove(&id);
        }
        self.settle(m, id, Err(err));
        true
    }

    /// Enforce deadlines and the no-progress watchdog by scanning every
    /// armed deadline and every running op. Returns `true` if any
    /// operation was settled (the pump loop restarts its sweep so
    /// released conflict keys are re-admitted in the same quantum).
    pub(super) fn supervise_reference(&mut self, m: &Machine) -> bool {
        let now = clock(m);
        let mut acted = false;
        let due: Vec<(OpId, u64)> = self
            .deadlines
            .iter()
            .filter(|&(_, &(at, _))| now >= at)
            .map(|(&id, &(_, budget))| (id, budget))
            .collect();
        for (id, budget) in due {
            acted |= self.expire(
                m,
                id,
                ProtocolError::DeadlineExceeded { what: "deadline", cycles: budget },
            );
        }
        let bound = self.watchdog_bound(m);
        let starved: Vec<(OpId, u64)> = self
            .run_order
            .iter()
            .map(|&s| &self.slots[s].a)
            .filter(|op| now.saturating_sub(op.last_progress_at) > bound)
            .map(|op| (op.id, now - op.last_progress_at))
            .collect();
        for (id, cycles) in starved {
            acted |= self.expire(
                m,
                id,
                ProtocolError::DeadlineExceeded { what: "watchdog", cycles },
            );
        }
        acted
    }

    /// Event-mode supervision: act only on deadline and watchdog
    /// entries the wheel has already fired, validating each against
    /// current engine state (wheel entries are never cancelled, so a
    /// re-armed deadline or a progressed op simply shows up stale here
    /// and is dropped or re-scheduled). Expiry order matches the
    /// reference scan: deadlines in `OpId` order first, then starved
    /// ops in running order.
    pub(super) fn supervise_event(&mut self, m: &Machine) -> bool {
        if self.fired_deadlines.is_empty() && self.fired_watchdogs.is_empty() {
            return false;
        }
        let now = clock(m);
        let mut acted = false;
        let mut fired = std::mem::take(&mut self.fired_deadlines);
        fired.sort_unstable();
        fired.dedup();
        for id in fired {
            match self.deadlines.get(&id) {
                Some(&(at, budget)) if now >= at => {
                    acted |= self.expire(
                        m,
                        id,
                        ProtocolError::DeadlineExceeded { what: "deadline", cycles: budget },
                    );
                }
                Some(&(at, _)) => {
                    // Re-armed to a later cycle since this entry was
                    // scheduled: chase the live expiry.
                    self.wheel.insert(at, WheelItem::Deadline { id });
                }
                None => {}
            }
        }
        let mut fired = std::mem::take(&mut self.fired_watchdogs);
        // The reference scans in running order; fired order is wheel
        // (due, seq) order, so re-sort by current position.
        fired.sort_by_key(|&(slot, _)| {
            self.run_order.iter().position(|&s| s == slot).unwrap_or(usize::MAX)
        });
        for (slot, inc) in fired {
            let live = self
                .slots
                .get(slot)
                .filter(|s| s.inc == inc)
                .map(|s| (s.a.id, s.wd_due, s.a.last_progress_at));
            let Some((id, wd_due, last_progress_at)) = live else { continue };
            if now >= wd_due {
                let cycles = now - last_progress_at;
                acted |= self.expire(
                    m,
                    id,
                    ProtocolError::DeadlineExceeded { what: "watchdog", cycles },
                );
            } else {
                // Progressed since this entry was armed: chase the
                // pushed-out expiry.
                self.wheel.insert(wd_due, WheelItem::Watchdog { slot, inc });
            }
        }
        acted
    }

    /// Graceful shutdown: cancel everything still waiting (pending,
    /// dependency-held, and parked between recovery executions), drive
    /// the already-running operations to completion, then drain
    /// orphaned in-flight packets until the network is empty. Every
    /// cancellation records the uniform [`EngineEvent::Cancelled`]
    /// trace event before settling with [`ProtocolError::Cancelled`].
    /// Returns the number of stray packets discarded during the drain.
    pub fn quiesce(&mut self, m: &mut Machine) -> usize {
        let waiting: Vec<OpId> = self
            .pending
            .iter()
            .map(|op| op.id)
            .chain(self.held.keys().copied())
            .chain(self.parked.keys().copied())
            .collect();
        for id in waiting {
            self.cancel(m, id);
        }
        while self.unfinished() > 0 {
            self.pump(m);
        }
        let mut drained = 0;
        let mut guard = 0;
        loop {
            while self.discard_orphan(m) {
                drained += 1;
            }
            if m.network().borrow().in_flight() == 0 || guard > m.config().max_wait_cycles {
                break;
            }
            m.advance(1);
            guard += 1;
        }
        drained
    }
}
