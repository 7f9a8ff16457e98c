//! Minimal simulation driver loop.
//!
//! A [`Model`] owns all mutable state and reacts to popped events by
//! scheduling more events. The [`Engine`] just runs the pop/dispatch loop
//! until the queue drains or a horizon is reached.

use crate::event::EventQueue;
use crate::time::SimTime;

/// A discrete-event model: state plus an event handler.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Handles one event at time `now`, scheduling follow-ups on `queue`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Drives a [`Model`] against an [`EventQueue`].
pub struct Engine<M: Model> {
    queue: EventQueue<M::Event>,
    model: M,
}

impl<M: Model> Engine<M> {
    /// Wraps a model with an empty queue.
    pub fn new(model: M) -> Self {
        Engine {
            queue: EventQueue::new(),
            model,
        }
    }

    /// Wraps a model with an empty queue pre-sized for `capacity` pending
    /// events (see [`EventQueue::with_capacity`]).
    pub fn with_capacity(model: M, capacity: usize) -> Self {
        Engine {
            queue: EventQueue::with_capacity(capacity),
            model,
        }
    }

    /// Access to the queue, e.g. to seed initial events.
    pub fn queue_mut(&mut self) -> &mut EventQueue<M::Event> {
        &mut self.queue
    }

    /// Access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Runs until the queue drains. Returns the final simulated time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the queue drains or the next event would fire after
    /// `horizon`. Events at exactly `horizon` still fire.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        while let Some((now, ev)) = self.queue.pop_until(horizon) {
            self.model.handle(now, ev, &mut self.queue);
        }
        self.queue.now()
    }

    /// Consumes the engine, returning the model (for post-run inspection).
    pub fn into_model(self) -> M {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A model that counts down: each tick schedules the next until zero.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    impl Model for Countdown {
        type Event = ();
        fn handle(&mut self, now: SimTime, _ev: (), queue: &mut EventQueue<()>) {
            self.fired_at.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                queue.schedule(now + SimDuration::from_secs(1), ());
            }
        }
    }

    #[test]
    fn runs_to_completion() {
        let mut eng = Engine::new(Countdown {
            remaining: 3,
            fired_at: vec![],
        });
        eng.queue_mut().schedule(SimTime::ZERO, ());
        let end = eng.run();
        assert_eq!(end, SimTime::from_secs(3));
        assert_eq!(
            eng.model().fired_at,
            vec![
                SimTime::ZERO,
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                SimTime::from_secs(3)
            ]
        );
    }

    #[test]
    fn horizon_stops_early_but_keeps_pending_events() {
        let mut eng = Engine::new(Countdown {
            remaining: 10,
            fired_at: vec![],
        });
        eng.queue_mut().schedule(SimTime::ZERO, ());
        eng.run_until(SimTime::from_secs(4));
        // Fired at 0..=4 inclusive (events at the horizon still fire).
        assert_eq!(eng.model().fired_at.len(), 5);
        assert_eq!(eng.queue_mut().len(), 1);
        // Resume to completion.
        eng.run();
        assert_eq!(eng.model().fired_at.len(), 11);
    }

    #[test]
    fn empty_queue_run_is_a_noop() {
        let mut eng = Engine::new(Countdown {
            remaining: 0,
            fired_at: vec![],
        });
        assert_eq!(eng.run(), SimTime::ZERO);
        assert!(eng.model().fired_at.is_empty());
    }
}
