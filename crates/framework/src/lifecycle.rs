//! The lifecycle intent core: reducer, bounded intent log, and the
//! recorder the fleet supervisor shares with a device.
//!
//! The framework used to mutate lifecycle state (activities, services,
//! wakelocks, screen) imperatively: a crashed device could be *salvaged*
//! (checkpoints) but never *reproduced*. This module splits the handling
//! in two, following the reducer/reconcile pattern:
//!
//! * a **reducer** ([`LifecycleReducer`]) owns *desired* state. Every
//!   transition the framework performs is first recorded as a
//!   serializable [`LifecycleIntent`] — carrying an explicit [`Cause`] —
//!   and reduced into the desired-state tables;
//! * the **reconciler** (the framework's 30 s sweep,
//!   [`crate::AndroidSystem::advance`]) converges *observed* runtime
//!   state toward the reducer's desired state. The only standing
//!   divergence a fault can open today is a lost wakelock release; the
//!   reducer tracks those explicitly so the sweep and the reducer agree
//!   on exactly which locks to reclaim, with `Cause::Sweep` on the
//!   reclaiming transition.
//!
//! Intents append to a bounded per-device [`IntentLog`] — constant
//! memory, monotonic sequence numbers across drops — and optionally
//! mirror into a shared [`IntentLogRecorder`] so the fleet supervisor
//! can attach the tail of a crashed attempt to its `DeviceFailure`. The
//! log is a pure function of the device's seeded inputs: replaying the
//! same `(config, corpus, index, attempt)` reproduces it byte for byte,
//! which is what `eandroid replay` verifies.
//!
//! Chaos perturbations (dropped/duplicated broadcasts, lost wakelock
//! releases, deferred death notifications) are recorded as first-class
//! ops with `Cause::Fault`, so the log carries the complete fault stream
//! alongside the transitions it perturbed — fault injection and its
//! reconciliation flow through one audited path.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;

use ea_chaos::FrameworkPerturbation;
use ea_sim::{SimTime, Uid};
use serde::{Deserialize, Serialize};

use crate::{ActivityState, ChangeSource, FrameworkEvent, WakelockId, WakelockKind};

/// Why a lifecycle transition happened — the explicit attribution every
/// intent carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cause {
    /// A direct user action (touch, launcher, unlock).
    User,
    /// An app acting on its own behalf.
    App(Uid),
    /// A scheduled benign background routine.
    Routine,
    /// An energy-attack vector firing.
    Attack,
    /// A chaos-plan fault decision.
    Fault,
    /// The reconciliation sweep converging observed toward desired.
    Sweep,
    /// Framework-internal bookkeeping (timeouts, death cleanup).
    System,
}

impl Cause {
    /// The cause implied by an event's [`ChangeSource`].
    #[must_use]
    pub fn from_source(source: ChangeSource) -> Cause {
        match source {
            ChangeSource::User => Cause::User,
            ChangeSource::App(uid) => Cause::App(uid),
            ChangeSource::System => Cause::System,
        }
    }

    /// The cause an event implies on its own, before any ambient
    /// framing (attack/routine scripts) or reconciliation override.
    #[must_use]
    pub fn intrinsic(event: &FrameworkEvent) -> Cause {
        match event {
            FrameworkEvent::ActivityStarted { source, .. }
            | FrameworkEvent::ServiceStarted { source, .. }
            | FrameworkEvent::ServiceStopped { source, .. }
            | FrameworkEvent::ServiceBound { source, .. }
            | FrameworkEvent::ServiceUnbound { source, .. }
            | FrameworkEvent::BroadcastDelivered { source, .. } => Cause::from_source(*source),
            FrameworkEvent::WakelockAcquired { uid, .. } => Cause::App(*uid),
            FrameworkEvent::WakelockReleased { uid, on_death, .. } => {
                if *on_death {
                    Cause::System
                } else {
                    Cause::App(*uid)
                }
            }
            _ => Cause::System,
        }
    }

    /// A short stable label, for rendering and log greps.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Cause::User => "user",
            Cause::App(_) => "app",
            Cause::Routine => "routine",
            Cause::Attack => "attack",
            Cause::Fault => "fault",
            Cause::Sweep => "sweep",
            Cause::System => "system",
        }
    }
}

/// One lifecycle transition (or fault perturbation), as the intent log
/// records it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LifecycleOp {
    /// An activity was started.
    ActivityStarted {
        /// The app whose activity now runs.
        uid: Uid,
        /// Component name.
        component: String,
    },
    /// An activity crossed a lifecycle edge.
    ActivityTransition {
        /// Owning app.
        uid: Uid,
        /// Component name.
        component: String,
        /// The state reached.
        state: ActivityState,
    },
    /// A service was started.
    ServiceStarted {
        /// The service's app.
        uid: Uid,
        /// Component name.
        component: String,
    },
    /// A service was stopped (or asked to stop).
    ServiceStopped {
        /// The service's app.
        uid: Uid,
        /// Component name.
        component: String,
        /// Whether bindings keep it alive regardless.
        still_running: bool,
    },
    /// A service gained a binding.
    ServiceBound {
        /// The service's app.
        uid: Uid,
        /// Component name.
        component: String,
    },
    /// A service lost a binding.
    ServiceUnbound {
        /// The service's app.
        uid: Uid,
        /// Component name.
        component: String,
        /// Whether the service is still running after the unbind.
        still_running: bool,
    },
    /// A wakelock was acquired.
    WakelockAcquired {
        /// Holder.
        uid: Uid,
        /// Lock id.
        id: WakelockId,
        /// Level.
        kind: WakelockKind,
    },
    /// A wakelock was released (observed state caught up with desired).
    WakelockReleased {
        /// Former holder.
        uid: Uid,
        /// Lock id.
        id: WakelockId,
        /// True when released by Binder link-to-death.
        on_death: bool,
    },
    /// A broadcast intent reached a receiver.
    BroadcastDelivered {
        /// The action string.
        action: String,
        /// The receiving app.
        receiver: Uid,
    },
    /// The panel changed power state.
    ScreenPower {
        /// True when the panel lit up.
        on: bool,
    },
    /// An app's process died.
    ProcessDied {
        /// The app.
        uid: Uid,
    },
    /// Perturbation: a wakelock release was lost in transit. Desired
    /// state is *released*; observed state keeps holding until the
    /// reconciliation sweep catches up.
    ReleaseLost {
        /// Holder whose release was eaten.
        uid: Uid,
        /// Lock id.
        id: WakelockId,
    },
    /// Perturbation: a broadcast delivery was silently dropped.
    BroadcastDropped {
        /// The action string.
        action: String,
        /// The receiver that never woke.
        receiver: Uid,
    },
    /// Perturbation: a broadcast was delivered twice.
    BroadcastDuplicated {
        /// The action string.
        action: String,
        /// The receiver woken twice.
        receiver: Uid,
    },
    /// Perturbation: a binder death notification was deferred, leaving
    /// a dead process's wakelock held until the delayed delivery.
    DeathDeferred {
        /// The dead holder.
        uid: Uid,
        /// The lock the deferred notification will eventually release.
        id: WakelockId,
        /// Deferral length, seconds.
        delay_secs: u64,
    },
}

impl LifecycleOp {
    /// The lifecycle op an emitted framework event implies, when it
    /// implies one (window/brightness chatter does not).
    #[must_use]
    pub fn from_event(event: &FrameworkEvent) -> Option<LifecycleOp> {
        match event {
            FrameworkEvent::ActivityStarted {
                driven, component, ..
            } => Some(LifecycleOp::ActivityStarted {
                uid: *driven,
                component: component.clone(),
            }),
            FrameworkEvent::ActivityLifecycle {
                uid,
                component,
                state,
            } => Some(LifecycleOp::ActivityTransition {
                uid: *uid,
                component: component.clone(),
                state: *state,
            }),
            FrameworkEvent::ServiceStarted {
                driven, component, ..
            } => Some(LifecycleOp::ServiceStarted {
                uid: *driven,
                component: component.clone(),
            }),
            FrameworkEvent::ServiceStopped {
                driven,
                component,
                still_running,
                ..
            } => Some(LifecycleOp::ServiceStopped {
                uid: *driven,
                component: component.clone(),
                still_running: *still_running,
            }),
            FrameworkEvent::ServiceBound {
                driven, component, ..
            } => Some(LifecycleOp::ServiceBound {
                uid: *driven,
                component: component.clone(),
            }),
            FrameworkEvent::ServiceUnbound {
                driven,
                component,
                still_running,
                ..
            } => Some(LifecycleOp::ServiceUnbound {
                uid: *driven,
                component: component.clone(),
                still_running: *still_running,
            }),
            FrameworkEvent::WakelockAcquired { uid, id, kind, .. } => {
                Some(LifecycleOp::WakelockAcquired {
                    uid: *uid,
                    id: *id,
                    kind: *kind,
                })
            }
            FrameworkEvent::WakelockReleased { uid, id, on_death } => {
                Some(LifecycleOp::WakelockReleased {
                    uid: *uid,
                    id: *id,
                    on_death: *on_death,
                })
            }
            FrameworkEvent::BroadcastDelivered {
                action, receiver, ..
            } => Some(LifecycleOp::BroadcastDelivered {
                action: action.clone(),
                receiver: *receiver,
            }),
            FrameworkEvent::ScreenTurnedOn => Some(LifecycleOp::ScreenPower { on: true }),
            FrameworkEvent::ScreenTurnedOff => Some(LifecycleOp::ScreenPower { on: false }),
            FrameworkEvent::ProcessDied { uid } => Some(LifecycleOp::ProcessDied { uid: *uid }),
            _ => None,
        }
    }

    /// The chaos-taxonomy perturbation this op records, if it is one.
    #[must_use]
    pub fn perturbation(&self) -> Option<FrameworkPerturbation> {
        match self {
            LifecycleOp::ReleaseLost { .. } => Some(FrameworkPerturbation::WakelockReleaseLost),
            LifecycleOp::BroadcastDropped { .. } => Some(FrameworkPerturbation::BroadcastDropped),
            LifecycleOp::BroadcastDuplicated { .. } => {
                Some(FrameworkPerturbation::BroadcastDuplicated)
            }
            LifecycleOp::DeathDeferred { .. } => Some(FrameworkPerturbation::DeathDeferred),
            _ => None,
        }
    }

    /// A short stable label naming the op kind.
    #[must_use]
    pub fn kind_label(&self) -> &'static str {
        match self {
            LifecycleOp::ActivityStarted { .. } => "ActivityStarted",
            LifecycleOp::ActivityTransition { .. } => "ActivityTransition",
            LifecycleOp::ServiceStarted { .. } => "ServiceStarted",
            LifecycleOp::ServiceStopped { .. } => "ServiceStopped",
            LifecycleOp::ServiceBound { .. } => "ServiceBound",
            LifecycleOp::ServiceUnbound { .. } => "ServiceUnbound",
            LifecycleOp::WakelockAcquired { .. } => "WakelockAcquired",
            LifecycleOp::WakelockReleased { .. } => "WakelockReleased",
            LifecycleOp::BroadcastDelivered { .. } => "BroadcastDelivered",
            LifecycleOp::ScreenPower { .. } => "ScreenPower",
            LifecycleOp::ProcessDied { .. } => "ProcessDied",
            LifecycleOp::ReleaseLost { .. } => "ReleaseLost",
            LifecycleOp::BroadcastDropped { .. } => "BroadcastDropped",
            LifecycleOp::BroadcastDuplicated { .. } => "BroadcastDuplicated",
            LifecycleOp::DeathDeferred { .. } => "DeathDeferred",
        }
    }
}

/// One entry of the append-only intent log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifecycleIntent {
    /// Monotonic sequence number, never reused even after ring drops.
    pub seq: u64,
    /// When the transition happened (simulated time).
    pub at: SimTime,
    /// Why it happened.
    pub cause: Cause,
    /// What happened.
    pub op: LifecycleOp,
}

/// Default ring capacity of a device's intent log.
pub const INTENT_LOG_CAPACITY: usize = 1024;

/// A bounded append-only log of lifecycle intents: constant memory per
/// device, oldest entries dropped first, sequence numbers monotonic
/// across drops so a dump names exactly which prefix fell off.
#[derive(Debug, Clone)]
pub struct IntentLog {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    intents: VecDeque<LifecycleIntent>,
}

impl IntentLog {
    /// A log retaining the last `capacity` intents (at least one).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        IntentLog {
            capacity: capacity.max(1),
            next_seq: 0,
            dropped: 0,
            intents: VecDeque::new(),
        }
    }

    /// Appends one intent, assigning the next sequence number, and
    /// returns the recorded entry.
    pub fn append(&mut self, at: SimTime, cause: Cause, op: LifecycleOp) -> LifecycleIntent {
        let intent = LifecycleIntent {
            seq: self.next_seq,
            at,
            cause,
            op,
        };
        self.next_seq += 1;
        if self.intents.len() == self.capacity {
            self.intents.pop_front();
            self.dropped += 1;
        }
        self.intents.push_back(intent.clone());
        intent
    }

    /// Retained intents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intents.len()
    }

    /// Whether the log retained nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intents.is_empty()
    }

    /// Clears the ring and resets sequence numbering (between retry
    /// attempts).
    pub fn clear(&mut self) {
        self.intents.clear();
        self.next_seq = 0;
        self.dropped = 0;
    }

    /// Snapshots the ring into a serializable dump.
    #[must_use]
    pub fn dump(&self) -> IntentLogDump {
        IntentLogDump {
            capacity: self.capacity,
            dropped: self.dropped,
            intents: self.intents.iter().cloned().collect(),
        }
    }
}

/// The serialized tail of an intent log — the replay input and the
/// forensics record a `DeviceFailure` carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntentLogDump {
    /// Ring capacity the log ran with.
    pub capacity: usize,
    /// Intents that fell off the front of the ring.
    pub dropped: u64,
    /// The retained tail, oldest first.
    pub intents: Vec<LifecycleIntent>,
}

impl IntentLogDump {
    /// Retained intents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intents.len()
    }

    /// Whether the dump retained nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intents.is_empty()
    }

    /// The sequence number at which this dump and `other` first
    /// disagree, or `None` when they are identical. A length mismatch
    /// diverges at the first sequence only one side has.
    #[must_use]
    pub fn first_divergence(&self, other: &IntentLogDump) -> Option<u64> {
        for (a, b) in self.intents.iter().zip(other.intents.iter()) {
            if a != b {
                return Some(a.seq.min(b.seq));
            }
        }
        match self.intents.len().cmp(&other.intents.len()) {
            std::cmp::Ordering::Equal => {
                if self.dropped != other.dropped {
                    Some(0)
                } else {
                    None
                }
            }
            std::cmp::Ordering::Less => other.intents.get(self.intents.len()).map(|i| i.seq),
            std::cmp::Ordering::Greater => self.intents.get(other.intents.len()).map(|i| i.seq),
        }
    }
}

/// A shareable, panic-surviving intent-log mirror: the fleet supervisor
/// holds one per worker and attaches its dump to a `DeviceFailure` when
/// a device is abandoned — the same pattern as the flight recorder, but
/// always on (intents are rare, so mirroring costs nothing on the
/// settled-device fast path).
#[derive(Debug)]
pub struct IntentLogRecorder {
    state: Mutex<IntentLog>,
}

impl IntentLogRecorder {
    /// A recorder retaining the last `capacity` intents.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        IntentLogRecorder {
            state: Mutex::new(IntentLog::new(capacity)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, IntentLog> {
        // A panicked device attempt may have poisoned the mutex; the log
        // is still structurally intact (appends are single operations).
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Mirrors one already-sequenced intent into the ring.
    pub fn append(&self, intent: LifecycleIntent) {
        let mut log = self.lock();
        if log.intents.len() == log.capacity {
            log.intents.pop_front();
            log.dropped += 1;
        }
        log.intents.push_back(intent);
    }

    /// Clears the ring — the supervisor calls this between retry
    /// attempts so a dump never mixes intents from two attempts.
    pub fn reset(&self) {
        self.lock().clear();
    }

    /// Snapshots the ring into a serializable dump.
    #[must_use]
    pub fn dump(&self) -> IntentLogDump {
        self.lock().dump()
    }
}

/// The reducer's desired-state tables, reduced from the intent stream.
///
/// Observed runtime state (the framework's own maps) converges toward
/// these; [`LifecycleReducer::lost_releases`] is the one divergence a
/// fault can hold open, and it drives the reconciliation sweep.
#[derive(Debug, Clone, Default)]
pub struct LifecycleReducer {
    /// Desired-held wakelocks (holder per id).
    wakelocks: BTreeMap<WakelockId, Uid>,
    /// Locks whose release was eaten: desired-released, observed-held.
    lost: BTreeSet<WakelockId>,
    /// Locks owed a deferred death notification: desired-released, and
    /// (unless their release was also lost) the reconciler leaves them
    /// to the delayed delivery at its scheduled instant.
    deferred: BTreeSet<WakelockId>,
    /// Desired-running services, `(uid, component)`.
    services: BTreeSet<(Uid, String)>,
    /// Last desired activity state per `(uid, component)`.
    activities: BTreeMap<(Uid, String), ActivityState>,
    /// Desired panel power.
    screen_on: bool,
}

impl LifecycleReducer {
    /// A reducer with the boot-time desired state (screen on).
    #[must_use]
    pub fn new() -> Self {
        LifecycleReducer {
            screen_on: true,
            ..LifecycleReducer::default()
        }
    }

    /// Folds one intent into the desired-state tables.
    pub fn apply(&mut self, intent: &LifecycleIntent) {
        match &intent.op {
            LifecycleOp::WakelockAcquired { uid, id, .. } => {
                self.wakelocks.insert(*id, *uid);
                self.lost.remove(id);
                self.deferred.remove(id);
            }
            LifecycleOp::WakelockReleased { id, .. } => {
                self.wakelocks.remove(id);
                self.lost.remove(id);
                self.deferred.remove(id);
            }
            LifecycleOp::ReleaseLost { id, .. } => {
                self.wakelocks.remove(id);
                self.deferred.remove(id);
                self.lost.insert(*id);
            }
            LifecycleOp::DeathDeferred { id, .. } => {
                // Deliberately leaves `lost` untouched: a lock whose
                // release was already eaten stays sweep-eligible even
                // while a deferred death notification is pending — the
                // sweep may win the race.
                self.wakelocks.remove(id);
                self.deferred.insert(*id);
            }
            LifecycleOp::ServiceStarted { uid, component }
            | LifecycleOp::ServiceBound { uid, component } => {
                self.services.insert((*uid, component.clone()));
            }
            LifecycleOp::ServiceStopped {
                uid,
                component,
                still_running,
            }
            | LifecycleOp::ServiceUnbound {
                uid,
                component,
                still_running,
            } => {
                if !still_running {
                    self.services.remove(&(*uid, component.clone()));
                }
            }
            LifecycleOp::ActivityStarted { uid, component } => {
                self.activities
                    .insert((*uid, component.clone()), ActivityState::Resumed);
            }
            LifecycleOp::ActivityTransition {
                uid,
                component,
                state,
            } => {
                if *state == ActivityState::Destroyed {
                    self.activities.remove(&(*uid, component.clone()));
                } else {
                    self.activities.insert((*uid, component.clone()), *state);
                }
            }
            LifecycleOp::ScreenPower { on } => self.screen_on = *on,
            LifecycleOp::ProcessDied { uid } => {
                // A dead process runs nothing: purge its desired entries.
                self.services.retain(|(u, _)| u != uid);
                self.activities.retain(|(u, _), _| u != uid);
            }
            LifecycleOp::BroadcastDelivered { .. }
            | LifecycleOp::BroadcastDropped { .. }
            | LifecycleOp::BroadcastDuplicated { .. } => {}
        }
    }

    /// The locks the reconciler should reclaim: desired-released but
    /// observed-held because the release call was eaten, in ascending id
    /// order.
    #[must_use]
    pub fn lost_releases(&self) -> Vec<WakelockId> {
        self.lost.iter().copied().collect()
    }

    /// Desired-held wakelock ids, ascending.
    #[must_use]
    pub fn desired_wakelocks(&self) -> Vec<WakelockId> {
        self.wakelocks.keys().copied().collect()
    }

    /// Whether the reducer wants `id` held.
    #[must_use]
    pub fn wants_held(&self, id: WakelockId) -> bool {
        self.wakelocks.contains_key(&id)
    }

    /// Desired-running services, `(uid, component)` in order.
    #[must_use]
    pub fn desired_services(&self) -> Vec<(Uid, String)> {
        self.services.iter().cloned().collect()
    }

    /// Desired panel power.
    #[must_use]
    pub fn screen_on(&self) -> bool {
        self.screen_on
    }

    /// Locks currently pending a deferred death notification.
    #[must_use]
    pub fn deferred_releases(&self) -> Vec<WakelockId> {
        self.deferred.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intent(seq: u64, op: LifecycleOp) -> LifecycleIntent {
        LifecycleIntent {
            seq,
            at: SimTime::ZERO,
            cause: Cause::System,
            op,
        }
    }

    #[test]
    fn log_keeps_tail_with_monotonic_seqs() {
        let mut log = IntentLog::new(3);
        for i in 0..5u64 {
            log.append(
                SimTime::ZERO,
                Cause::System,
                LifecycleOp::ScreenPower { on: i % 2 == 0 },
            );
        }
        let dump = log.dump();
        assert_eq!(dump.dropped, 2);
        assert_eq!(
            dump.intents.iter().map(|i| i.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn first_divergence_pinpoints_seq() {
        let mut a = IntentLog::new(8);
        let mut b = IntentLog::new(8);
        for _ in 0..3 {
            a.append(
                SimTime::ZERO,
                Cause::User,
                LifecycleOp::ScreenPower { on: true },
            );
            b.append(
                SimTime::ZERO,
                Cause::User,
                LifecycleOp::ScreenPower { on: true },
            );
        }
        assert_eq!(a.dump().first_divergence(&b.dump()), None);
        b.append(
            SimTime::ZERO,
            Cause::User,
            LifecycleOp::ScreenPower { on: false },
        );
        assert_eq!(a.dump().first_divergence(&b.dump()), Some(3));
        a.append(
            SimTime::ZERO,
            Cause::Sweep,
            LifecycleOp::ScreenPower { on: false },
        );
        assert_eq!(a.dump().first_divergence(&b.dump()), Some(3));
    }

    #[test]
    fn reducer_tracks_lost_and_deferred_releases() {
        let mut reducer = LifecycleReducer::new();
        let id = WakelockId(7);
        let uid = Uid::FIRST_APP;
        reducer.apply(&intent(
            0,
            LifecycleOp::WakelockAcquired {
                uid,
                id,
                kind: WakelockKind::Partial,
            },
        ));
        assert!(reducer.wants_held(id));
        reducer.apply(&intent(1, LifecycleOp::ReleaseLost { uid, id }));
        assert!(!reducer.wants_held(id));
        assert_eq!(reducer.lost_releases(), vec![id]);
        reducer.apply(&intent(
            2,
            LifecycleOp::WakelockReleased {
                uid,
                id,
                on_death: false,
            },
        ));
        assert!(reducer.lost_releases().is_empty());

        let deferred = WakelockId(9);
        reducer.apply(&intent(
            3,
            LifecycleOp::DeathDeferred {
                uid,
                id: deferred,
                delay_secs: 10,
            },
        ));
        assert!(reducer.lost_releases().is_empty(), "sweep must not reclaim");
        assert_eq!(reducer.deferred_releases(), vec![deferred]);
    }

    #[test]
    fn recorder_survives_reset_and_mirrors_seqs() {
        let recorder = IntentLogRecorder::new(2);
        for seq in 0..3 {
            recorder.append(intent(seq, LifecycleOp::ScreenPower { on: true }));
        }
        let dump = recorder.dump();
        assert_eq!(dump.dropped, 1);
        assert_eq!(dump.intents[0].seq, 1);
        recorder.reset();
        assert!(recorder.dump().is_empty());
    }

    #[test]
    fn dump_round_trips_through_json() {
        let mut log = IntentLog::new(4);
        log.append(
            SimTime::from_secs(1),
            Cause::Attack,
            LifecycleOp::ServiceStarted {
                uid: Uid::FIRST_APP,
                component: String::from("Srv"),
            },
        );
        log.append(
            SimTime::from_secs(2),
            Cause::Fault,
            LifecycleOp::ReleaseLost {
                uid: Uid::FIRST_APP,
                id: WakelockId(1),
            },
        );
        let dump = log.dump();
        let text = serde_json::to_string(&dump).unwrap();
        let back: IntentLogDump = serde_json::from_str(&text).unwrap();
        assert_eq!(dump, back);
        assert_eq!(
            back.intents[1].op.perturbation(),
            Some(ea_chaos::FrameworkPerturbation::WakelockReleaseLost)
        );
    }
}
