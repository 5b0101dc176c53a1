//! Concurrency substrate for the Aspect Moderator framework.
//!
//! The ICDCS 2001 paper assumes the Java concurrency model: every object is
//! a monitor with `synchronized` blocks, `wait()` and `notify()`. In this
//! port the moderator's coordination cells play that role; this crate
//! holds what they and the rest of the workspace build on: the ticketed
//! FIFO grant discipline and the park/wake engines behind it, the task
//! engine, plus the auxiliary machinery the aspect library and the
//! benchmark harness need (ring buffers, schedulers, rate limiters,
//! virtual clocks).
//!
//! Nothing in this crate knows about aspects; it is the layer *below* the
//! framework, usable on its own.
//!
//! # Quick tour
//!
//! ```
//! use amf_concurrency::{Grant, RingBuffer, TicketQueue};
//!
//! // The ticketed FIFO discipline: a broadcast wake sweeps the queue
//! // in ticket order, so only the front ticket may evaluate first.
//! let mut q = TicketQueue::new(false);
//! let first = q.enqueue();
//! let second = q.enqueue();
//! q.wake_all();
//! assert_eq!(q.grant_for(first), Some(Grant::Sweep));
//! assert_eq!(q.grant_for(second), None);
//!
//! // A plain ring buffer (synchronization supplied externally, e.g. by
//! // synchronization aspects).
//! let mut rb = RingBuffer::with_capacity(4);
//! rb.push_back("ticket").unwrap();
//! assert_eq!(rb.pop_front(), Some("ticket"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod engine;
pub mod executor;
pub mod pool;
pub mod rate;
pub mod ring;
pub mod scheduler;
pub mod task;
pub mod ticket;

pub use clock::{Clock, ManualClock, SystemClock};
pub use engine::{CondvarEngine, CondvarWaiter, GrantSource, Waiter};
pub use executor::WorkerPool;
pub use pool::ResourcePool;
pub use rate::{RateLimiter, RateLimiterConfig};
pub use ring::{RingBuffer, RingFullError};
pub use scheduler::{Scheduler, SchedulerPolicy};
pub use task::TaskEngine;
pub use ticket::{Grant, TicketQueue};
