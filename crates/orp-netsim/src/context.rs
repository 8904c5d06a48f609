//! Scheduling capability handed to simulation components.
//!
//! Components — in practice the [`crate::sharing::ThroughputSharingModel`]
//! implementations — never see the engine or the raw queue. They get a
//! [`SimContext`] borrowing the clock and the event queue, through which
//! they can read the current time, schedule a future callback to
//! themselves, and cancel one they no longer believe in. The engine
//! routes the callback back into the component via `Event::Model`.

use crate::event::{Event, EventId};
use crate::queue::EventQueue;

/// Borrowed scheduling window into the running simulation.
#[derive(Debug)]
pub struct SimContext<'a> {
    now: f64,
    queue: &'a mut EventQueue<Event>,
}

impl<'a> SimContext<'a> {
    pub(crate) fn new(now: f64, queue: &'a mut EventQueue<Event>) -> Self {
        Self { now, queue }
    }

    /// Current simulation time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules a model callback at absolute time `t` carrying an
    /// opaque `token` (the model's own addressing — e.g. a link id).
    /// The model receives it back through its `on_event` hook.
    pub fn schedule_model_event(&mut self, t: f64, token: u32) -> EventId {
        self.queue.schedule(t, Event::Model(token))
    }

    /// Cancels a previously scheduled event. Idempotent; a cancelled
    /// event is never delivered, even if its time has already passed.
    pub fn cancel(&mut self, id: EventId) {
        self.queue.cancel(id);
    }
}
