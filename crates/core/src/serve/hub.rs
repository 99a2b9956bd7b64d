//! The broadcast hub: one recognition core, N cheap subscribers.
//!
//! Every subscriber owns a bounded queue. The driver thread enqueues each
//! wire event to every queue without ever blocking: a subscriber whose
//! queue is full is *evicted* (its sender dropped, its writer thread
//! unwinds on the closed channel) rather than allowed to stall the
//! recognition loop. This is the load-shedding contract of `SERVING.md` —
//! a slow consumer loses its own feed, never anyone else's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};

use maritime_obs::{names, LazyCounter, LazyGauge};

static OBS_SUBSCRIBERS_CONNECTED: LazyGauge = LazyGauge::new(names::SERVE_SUBSCRIBERS_CONNECTED);
static OBS_SUBSCRIBERS: LazyCounter = LazyCounter::new(names::SERVE_SUBSCRIBERS);
static OBS_EVENTS_BROADCAST: LazyCounter = LazyCounter::new(names::SERVE_EVENTS_BROADCAST);
static OBS_SLOW_EVICTIONS: LazyCounter = LazyCounter::new(names::SERVE_SLOW_EVICTIONS);
static OBS_DROPPED_EVENTS: LazyCounter = LazyCounter::new(names::SERVE_DROPPED_EVENTS);

/// One subscriber's end of the hub: the queue of wire event lines.
pub type EventReceiver = Receiver<Arc<str>>;

struct Subscriber {
    id: u64,
    tx: SyncSender<Arc<str>>,
}

/// Fan-out of wire event lines to bounded per-subscriber queues.
#[derive(Debug)]
pub struct BroadcastHub {
    subscribers: Mutex<Vec<Subscriber>>,
    queue_bound: usize,
    next_id: AtomicU64,
    evicted: AtomicU64,
}

impl std::fmt::Debug for Subscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber").field("id", &self.id).finish()
    }
}

impl BroadcastHub {
    /// Creates a hub whose subscribers may lag at most `queue_bound`
    /// events before eviction.
    #[must_use]
    pub fn new(queue_bound: usize) -> Arc<Self> {
        Arc::new(Self {
            subscribers: Mutex::new(Vec::new()),
            queue_bound: queue_bound.max(1),
            next_id: AtomicU64::new(1),
            evicted: AtomicU64::new(0),
        })
    }

    /// Registers a subscriber; returns its id and the event queue.
    /// Registration is atomic with respect to [`Self::broadcast`]: a
    /// subscriber sees either all of an event's fan-out or none of it,
    /// so a mid-stream join receives exactly the events broadcast after
    /// this call returns.
    pub fn subscribe(&self) -> (u64, EventReceiver) {
        let (tx, rx) = std::sync::mpsc::sync_channel(self.queue_bound);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.subscribers.lock().expect("hub subscriber mutex poisoned").push(Subscriber { id, tx });
        OBS_SUBSCRIBERS.inc();
        OBS_SUBSCRIBERS_CONNECTED.add(1);
        (id, rx)
    }

    /// Removes a subscriber that disconnected on its own (socket closed).
    /// Unknown ids are fine — the subscriber may already have been
    /// evicted.
    pub fn unsubscribe(&self, id: u64) {
        let mut subs = self.subscribers.lock().expect("hub subscriber mutex poisoned");
        if let Some(pos) = subs.iter().position(|s| s.id == id) {
            subs.swap_remove(pos);
            OBS_SUBSCRIBERS_CONNECTED.add(-1);
        }
    }

    /// Enqueues one wire event line to every subscriber. Never blocks:
    /// a full queue evicts its subscriber on the spot (counted in
    /// `serve_slow_evictions_total`; the undeliverable event in
    /// `serve_dropped_events_total`).
    pub fn broadcast(&self, line: &str) {
        let event: Arc<str> = Arc::from(line);
        let mut subs = self.subscribers.lock().expect("hub subscriber mutex poisoned");
        let mut i = 0;
        while i < subs.len() {
            match subs[i].tx.try_send(Arc::clone(&event)) {
                Ok(()) => {
                    OBS_EVENTS_BROADCAST.inc();
                    i += 1;
                }
                Err(TrySendError::Full(_)) => {
                    // Dropping the sender closes the channel; the
                    // subscriber's writer thread drains what is queued,
                    // then sees the disconnect and hangs up.
                    subs.swap_remove(i);
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                    OBS_SLOW_EVICTIONS.inc();
                    OBS_DROPPED_EVENTS.inc();
                    OBS_SUBSCRIBERS_CONNECTED.add(-1);
                }
                Err(TrySendError::Disconnected(_)) => {
                    // Writer already hung up; reap silently.
                    subs.swap_remove(i);
                    OBS_SUBSCRIBERS_CONNECTED.add(-1);
                }
            }
        }
    }

    /// Subscribers currently registered.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().expect("hub subscriber mutex poisoned").len()
    }

    /// Subscribers evicted for falling behind, since hub creation.
    #[must_use]
    pub fn evicted_count(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// The configured per-subscriber queue bound.
    #[must_use]
    pub fn queue_bound(&self) -> usize {
        self.queue_bound
    }

    /// Drops every subscriber, closing all queues (server shutdown).
    pub fn close(&self) {
        let mut subs = self.subscribers.lock().expect("hub subscriber mutex poisoned");
        OBS_SUBSCRIBERS_CONNECTED.add(-(subs.len() as i64));
        subs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_consumer_is_evicted_at_the_queue_bound() {
        let hub = BroadcastHub::new(4);
        let (_fast, fast_rx) = hub.subscribe();
        let (_slow, slow_rx) = hub.subscribe();
        assert_eq!(hub.subscriber_count(), 2);

        // The fast consumer drains; the slow one never reads. The slow
        // queue fills after 4 events and the 5th evicts it.
        for i in 0..5 {
            hub.broadcast(&format!("event-{i}"));
            assert_eq!(fast_rx.recv().unwrap().as_ref(), format!("event-{i}"));
        }
        assert_eq!(hub.subscriber_count(), 1, "slow subscriber evicted");
        assert_eq!(hub.evicted_count(), 1);

        // The evicted subscriber still drains what was queued before the
        // channel closed, then sees the hang-up.
        let drained: Vec<String> = slow_rx.iter().map(|e| e.to_string()).collect();
        assert_eq!(drained, ["event-0", "event-1", "event-2", "event-3"]);

        // The surviving subscriber keeps receiving.
        hub.broadcast("after");
        assert_eq!(fast_rx.recv().unwrap().as_ref(), "after");
    }

    #[test]
    fn disconnected_subscriber_is_reaped_silently() {
        let hub = BroadcastHub::new(4);
        let (_id, rx) = hub.subscribe();
        drop(rx);
        hub.broadcast("x");
        assert_eq!(hub.subscriber_count(), 0);
        assert_eq!(hub.evicted_count(), 0, "hang-up is not an eviction");
    }

    #[test]
    fn unsubscribe_is_idempotent() {
        let hub = BroadcastHub::new(2);
        let (id, _rx) = hub.subscribe();
        hub.unsubscribe(id);
        hub.unsubscribe(id);
        assert_eq!(hub.subscriber_count(), 0);
    }
}
