//! Snapshot publication: immutable graph snapshots served to concurrent
//! readers while a writer keeps optimizing a private copy.
//!
//! The serving story of the voting framework is read-heavy: between two
//! optimization rounds, thousands of ranking requests evaluate against a
//! graph that is not changing *for them* — the optimizer mutates its own
//! working copy and only the finished round should ever become visible.
//! This module provides that publication step with three pieces:
//!
//! * [`GraphSnapshot`] — an epoch-stamped, immutable, cheaply clonable
//!   handle (`Arc`) to a full [`KnowledgeGraph`] (CSR arrays + weights).
//!   Cloning is a reference-count bump; the graph behind it never
//!   changes, so readers can never observe a torn weight vector.
//! * [`ArcCell`] — a hand-rolled arc-swap on `std::sync` only (no
//!   external dependencies): readers [`ArcCell::load`] the current value,
//!   writers [`ArcCell::store`] a replacement atomically.
//! * [`SharedGraph`] — an `ArcCell` of the graph plus the publication
//!   protocol: the writer mutates its private [`KnowledgeGraph`] and
//!   calls [`SharedGraph::publish`]; every reader's next
//!   [`SharedGraph::snapshot`] sees the new epoch.
//!
//! # How the read path works
//!
//! `ArcCell` keeps one slot, an `Arc<T>` behind a slot lock, plus a
//! writer lock. A reader takes the slot lock only to clone the `Arc`
//! (one reference-count increment). A writer takes the slot lock only to
//! swap the pointer, and drops the replaced value after releasing it. So
//! a read waits at most for one pointer swap, never for a writer's work,
//! and reads never block writes for longer than a reference-count
//! increment. The cell holds nothing but the current value: a stale
//! snapshot lives exactly as long as some reader still holds its `Arc`,
//! and is freed when the last one drops it.

use crate::graph::KnowledgeGraph;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

/// A hand-rolled arc-swap: readers get the current `Arc<T>`, writers
/// install a new value atomically.
///
/// Built from `std::sync` primitives only. See the module docs for why
/// a read waits at most for one pointer swap.
#[derive(Debug)]
pub struct ArcCell<T> {
    /// The current value. Held for a reference-count increment (load)
    /// or a pointer swap (store), never across a writer's work.
    slot: Mutex<Arc<T>>,
    /// Serializes writers (store / update) against each other, never
    /// against readers.
    writer: Mutex<()>,
}

/// Every update under these locks is one pointer swap, so a lock poisoned
/// by a panicking holder still guards a valid value.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl<T> ArcCell<T> {
    /// Creates a cell holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        ArcCell {
            slot: Mutex::new(value),
            writer: Mutex::new(()),
        }
    }

    /// Returns the current value. Waits at most for one pointer swap;
    /// concurrent readers serialize only for a reference-count increment.
    pub fn load(&self) -> Arc<T> {
        lock(&self.slot).clone()
    }

    /// Atomically replaces the current value. The replaced value is
    /// dropped outside both locks.
    pub fn store(&self, value: Arc<T>) {
        let guard = lock(&self.writer);
        let old = self.swap(value);
        drop(guard);
        drop(old);
    }

    /// Read-modify-write: `f` sees the current value and returns either
    /// `Some(next)` to install it or `None` to leave the cell untouched.
    /// The whole step is atomic with respect to other writers; readers
    /// wait at most for the final pointer swap. Returns whether a new
    /// value was stored.
    pub fn update(&self, f: impl FnOnce(&T) -> Option<Arc<T>>) -> bool {
        let guard = lock(&self.writer);
        let cur = self.load();
        let Some(next) = f(&cur) else {
            return false;
        };
        let old = self.swap(next);
        drop(guard);
        drop(old);
        true
    }

    /// Swaps `value` into the slot and returns the replaced value, so the
    /// caller drops it after the slot lock is released. Caller must hold
    /// the writer lock.
    fn swap(&self, value: Arc<T>) -> Arc<T> {
        std::mem::replace(&mut *lock(&self.slot), value)
    }
}

impl<T> Clone for ArcCell<T> {
    fn clone(&self) -> Self {
        ArcCell::new(self.load())
    }
}

/// An immutable, epoch-stamped view of a [`KnowledgeGraph`].
///
/// The epoch is the graph's [`KnowledgeGraph::version`] at publication
/// time: within one graph lineage, two snapshots with equal epochs carry
/// identical weights (every effective weight change bumps the version).
/// Dereferences to the underlying graph, so every read-only API — the
/// phi kernels, `affected_queries`, rankings — works on a snapshot
/// unchanged.
///
/// ```
/// use kg_graph::{GraphBuilder, NodeKind};
///
/// let mut b = GraphBuilder::new();
/// let q = b.add_node("q", NodeKind::Query);
/// let a = b.add_node("a", NodeKind::Answer);
/// let e = b.add_edge(q, a, 0.4).unwrap();
/// let mut g = b.build();
///
/// let snap = g.publish();
/// g.set_weight(e, 0.9).unwrap();
/// // The snapshot is frozen at publication time.
/// assert_eq!(snap.weight(e), 0.4);
/// assert_eq!(g.weight(e), 0.9);
/// assert!(g.version() > snap.epoch());
/// ```
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    graph: Arc<KnowledgeGraph>,
    epoch: u64,
}

impl GraphSnapshot {
    /// Wraps an already-shared graph. The epoch is the graph's current
    /// version.
    pub fn from_arc(graph: Arc<KnowledgeGraph>) -> Self {
        let epoch = graph.version();
        GraphSnapshot { graph, epoch }
    }

    /// The graph version this snapshot was taken at.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared graph itself (cheap to clone).
    pub fn as_arc(&self) -> &Arc<KnowledgeGraph> {
        &self.graph
    }
}

impl Deref for GraphSnapshot {
    type Target = KnowledgeGraph;

    #[inline]
    fn deref(&self) -> &KnowledgeGraph {
        &self.graph
    }
}

impl KnowledgeGraph {
    /// Freezes the current state into an immutable, cheaply clonable
    /// [`GraphSnapshot`] (one full copy of the CSR arrays and weights;
    /// sharing afterwards is reference counting). The writer keeps
    /// mutating `self`; the snapshot never changes.
    pub fn publish(&self) -> GraphSnapshot {
        GraphSnapshot {
            graph: Arc::new(self.clone()),
            epoch: self.version(),
        }
    }
}

/// The publication point between one writer and many readers: an
/// [`ArcCell`] of the latest published [`GraphSnapshot`].
///
/// The writer keeps a private [`KnowledgeGraph`], mutates it freely
/// (weights only — topology is fixed), and calls [`Self::publish`] at
/// consistency points (end of an optimization batch). Readers call
/// [`Self::snapshot`] and evaluate against the frozen graph; a read
/// waits at most for one pointer swap, and never blocks the writer.
///
/// One `SharedGraph` follows one graph lineage: publish only descendants
/// (clones continue the version lineage) of the graph it was created
/// with, or epoch comparisons become meaningless.
#[derive(Debug, Clone)]
pub struct SharedGraph {
    cell: ArcCell<KnowledgeGraph>,
}

impl SharedGraph {
    /// Publishes `graph` as the initial snapshot.
    pub fn new(graph: KnowledgeGraph) -> Self {
        SharedGraph {
            cell: ArcCell::new(Arc::new(graph)),
        }
    }

    /// The latest published snapshot. Waits at most for one pointer
    /// swap (see [`ArcCell::load`]).
    pub fn snapshot(&self) -> GraphSnapshot {
        GraphSnapshot::from_arc(self.cell.load())
    }

    /// Epoch of the latest published snapshot.
    pub fn epoch(&self) -> u64 {
        self.cell.load().version()
    }

    /// Atomically replaces the published snapshot with a frozen copy of
    /// `graph`, returning it. Readers holding older snapshots keep them
    /// alive until dropped; new [`Self::snapshot`] calls see the new
    /// epoch immediately.
    pub fn publish(&self, graph: &KnowledgeGraph) -> GraphSnapshot {
        let snap = graph.publish();
        self.store(&snap);
        snap
    }

    /// Makes `snap`, frozen earlier by [`KnowledgeGraph::publish`], the
    /// published snapshot. Lets a writer prepare state derived from the
    /// snapshot (a serving cache moved to its epoch) before any reader
    /// can see it.
    pub fn store(&self, snap: &GraphSnapshot) {
        self.cell.store(Arc::clone(snap.as_arc()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::NodeKind;
    use crate::ids::EdgeId;

    fn chain() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let q = b.add_node("q", NodeKind::Query);
        let x = b.add_node("x", NodeKind::Entity);
        let a = b.add_node("a", NodeKind::Answer);
        b.add_edge(q, x, 0.5).unwrap();
        b.add_edge(x, a, 0.5).unwrap();
        b.build()
    }

    #[test]
    fn snapshot_is_frozen_at_publish_time() {
        let mut g = chain();
        let snap = g.publish();
        assert_eq!(snap.epoch(), 0);
        g.set_weight(EdgeId(0), 0.9).unwrap();
        assert_eq!(snap.weight(EdgeId(0)), 0.5);
        assert_eq!(g.weight(EdgeId(0)), 0.9);
        assert_eq!(snap.epoch(), 0);
        assert_eq!(g.version(), 1);
    }

    #[test]
    fn shared_graph_publishes_new_epochs() {
        let mut g = chain();
        let shared = SharedGraph::new(g.clone());
        assert_eq!(shared.epoch(), 0);
        let before = shared.snapshot();

        g.set_weight(EdgeId(1), 0.25).unwrap();
        let published = shared.publish(&g);
        assert_eq!(published.epoch(), 1);
        assert_eq!(shared.epoch(), 1);
        // The pre-publish snapshot is untouched.
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.weight(EdgeId(1)), 0.5);
        assert_eq!(shared.snapshot().weight(EdgeId(1)), 0.25);
    }

    #[test]
    fn snapshot_clone_is_shared_not_copied() {
        let g = chain();
        let snap = g.publish();
        let other = snap.clone();
        assert!(Arc::ptr_eq(snap.as_arc(), other.as_arc()));
    }

    #[test]
    fn arc_cell_store_and_load_roundtrip() {
        let cell = ArcCell::new(Arc::new(1u64));
        assert_eq!(*cell.load(), 1);
        for v in 2..20u64 {
            cell.store(Arc::new(v));
            assert_eq!(*cell.load(), v);
        }
    }

    #[test]
    fn arc_cell_frees_a_replaced_value_once_no_reader_holds_it() {
        let first = Arc::new(1u64);
        let weak = Arc::downgrade(&first);
        let cell = ArcCell::new(first);
        let reader = cell.load();
        cell.store(Arc::new(2));
        assert!(weak.upgrade().is_some(), "a reader still holds it");
        drop(reader);
        assert!(weak.upgrade().is_none(), "the cell kept a stale value");

        let second = cell.load();
        let weak = Arc::downgrade(&second);
        drop(second);
        assert!(cell.update(|v| Some(Arc::new(v + 1))));
        assert!(weak.upgrade().is_none(), "update kept a stale value");
        assert_eq!(*cell.load(), 3);
    }

    #[test]
    fn arc_cell_update_sees_current_and_can_skip() {
        let cell = ArcCell::new(Arc::new(10u64));
        let stored = cell.update(|v| Some(Arc::new(v + 1)));
        assert!(stored);
        assert_eq!(*cell.load(), 11);
        let stored = cell.update(|v| {
            assert_eq!(*v, 11);
            None
        });
        assert!(!stored);
        assert_eq!(*cell.load(), 11);
    }

    #[test]
    fn arc_cell_concurrent_readers_see_monotonic_values() {
        let cell = Arc::new(ArcCell::new(Arc::new(0u64)));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..10_000 {
                        let v = *cell.load();
                        assert!(v >= last, "value went backwards: {v} < {last}");
                        last = v;
                    }
                });
            }
            for v in 1..=1_000u64 {
                cell.store(Arc::new(v));
            }
        });
        assert_eq!(*cell.load(), 1_000);
    }

    #[test]
    fn shared_graph_concurrent_snapshots_are_coherent() {
        let mut g = chain();
        let shared = Arc::new(SharedGraph::new(g.clone()));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..5_000 {
                        let snap = shared.snapshot();
                        // Weights of one snapshot are internally
                        // consistent: both edges always sum to the same
                        // total that the publisher wrote.
                        let sum = snap.weight(EdgeId(0)) + snap.weight(EdgeId(1));
                        assert!((sum - 1.0).abs() < 1e-12, "torn snapshot: {sum}");
                        assert!(snap.epoch() >= last, "epoch regressed");
                        last = snap.epoch();
                    }
                });
            }
            for i in 0..500 {
                let w = (i % 9) as f64 / 10.0 + 0.05;
                g.set_weight(EdgeId(0), w).unwrap();
                g.set_weight(EdgeId(1), 1.0 - w).unwrap();
                shared.publish(&g);
            }
        });
    }
}
