//! Slot arena: device spawn/retire as an index grab.
//!
//! The streaming service churns devices constantly — `ea-serve` lanes
//! join and leave devices as sessions open and close. Allocating fresh
//! per-device rows for every join would make churn an allocation storm;
//! the arena instead hands out *slots*, dense indexes into the owner's
//! parallel arrays. Retiring a
//! device pushes its slot onto a free list; the next spawn pops it and
//! the engine resets just that slot's rows. Capacity is therefore bounded
//! by *peak concurrency*, not by total devices ever seen.
//!
//! The arena itself is pure index bookkeeping: it does not own device
//! state. Owners pair each [`SlotSpawn::Fresh`] with a push onto their
//! arrays and each [`SlotSpawn::Recycled`] with a reset of the reused
//! row.

/// The slot handed out by [`SlotArena::spawn`], tagged with whether the
/// engine must grow its arrays ([`Fresh`](SlotSpawn::Fresh)) or reset an
/// existing row ([`Recycled`](SlotSpawn::Recycled)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotSpawn {
    /// A never-before-seen slot: the engine's arrays must grow by one.
    Fresh(usize),
    /// A retired slot being reused: the engine must reset its row.
    Recycled(usize),
}

impl SlotSpawn {
    /// The slot index, regardless of provenance.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            SlotSpawn::Fresh(index) | SlotSpawn::Recycled(index) => index,
        }
    }
}

/// Free-list allocator of dense device slots.
///
/// # Example
///
/// ```
/// use ea_fleet::{SlotArena, SlotSpawn};
///
/// let mut arena = SlotArena::new();
/// assert_eq!(arena.spawn(), SlotSpawn::Fresh(0));
/// assert_eq!(arena.spawn(), SlotSpawn::Fresh(1));
/// assert!(arena.retire(0));
/// assert_eq!(arena.spawn(), SlotSpawn::Recycled(0));
/// assert_eq!(arena.capacity(), 2);
/// assert_eq!(arena.live(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SlotArena {
    /// Retired slots available for reuse, most recently retired last
    /// (LIFO reuse keeps hot rows hot).
    free: Vec<u32>,
    /// Occupancy per slot ever created; `true` = a live device.
    occupied: Vec<bool>,
}

impl SlotArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        SlotArena::default()
    }

    /// Total slots ever created (the length of the engine's arrays).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.occupied.len()
    }

    /// Number of live (spawned, not yet retired) slots.
    #[must_use]
    pub fn live(&self) -> usize {
        self.capacity() - self.free.len()
    }

    /// Whether `slot` currently holds a live device.
    #[must_use]
    pub fn is_live(&self, slot: usize) -> bool {
        self.occupied.get(slot).copied().unwrap_or(false)
    }

    /// Claims a slot for a new device: the most recently retired slot if
    /// one is free, otherwise a fresh index extending the arrays.
    pub fn spawn(&mut self) -> SlotSpawn {
        match self.free.pop() {
            Some(slot) => {
                self.occupied[slot as usize] = true;
                SlotSpawn::Recycled(slot as usize)
            }
            None => {
                let slot = self.occupied.len();
                self.occupied.push(true);
                SlotSpawn::Fresh(slot)
            }
        }
    }

    /// Returns `slot` to the free list. `false` (and no state change) if
    /// the slot is unknown or already retired, so a double retire cannot
    /// corrupt the free list.
    pub fn retire(&mut self, slot: usize) -> bool {
        if !self.is_live(slot) {
            return false;
        }
        self.occupied[slot] = false;
        self.free.push(slot as u32);
        true
    }

    /// Live slot indexes in ascending order.
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.occupied
            .iter()
            .enumerate()
            .filter(|&(_, &live)| live)
            .map(|(slot, _)| slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_grows_then_recycles_lifo() {
        let mut arena = SlotArena::new();
        assert_eq!(arena.spawn(), SlotSpawn::Fresh(0));
        assert_eq!(arena.spawn(), SlotSpawn::Fresh(1));
        assert_eq!(arena.spawn(), SlotSpawn::Fresh(2));
        assert!(arena.retire(1));
        assert!(arena.retire(2));
        assert_eq!(arena.spawn(), SlotSpawn::Recycled(2), "LIFO reuse");
        assert_eq!(arena.spawn(), SlotSpawn::Recycled(1));
        assert_eq!(arena.spawn(), SlotSpawn::Fresh(3));
        assert_eq!(arena.capacity(), 4);
        assert_eq!(arena.live(), 4);
    }

    #[test]
    fn capacity_is_bounded_by_peak_concurrency() {
        let mut arena = SlotArena::new();
        for _ in 0..1_000 {
            let slot = arena.spawn().index();
            assert!(arena.retire(slot));
        }
        assert_eq!(arena.capacity(), 1, "churn of 1 live device needs 1 slot");
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn double_retire_is_rejected() {
        let mut arena = SlotArena::new();
        let slot = arena.spawn().index();
        assert!(arena.retire(slot));
        assert!(!arena.retire(slot), "second retire is a no-op");
        assert!(!arena.retire(99), "unknown slot is a no-op");
        assert_eq!(arena.spawn(), SlotSpawn::Recycled(slot));
        assert_eq!(
            arena.spawn(),
            SlotSpawn::Fresh(1),
            "free list not corrupted"
        );
    }

    #[test]
    fn live_slots_iterates_in_order() {
        let mut arena = SlotArena::new();
        for _ in 0..4 {
            arena.spawn();
        }
        arena.retire(1);
        assert_eq!(arena.live_slots().collect::<Vec<_>>(), vec![0, 2, 3]);
        assert!(arena.is_live(0) && !arena.is_live(1));
    }
}
