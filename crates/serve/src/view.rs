//! The incrementally-maintained fleet view: windowed online aggregation
//! over the ingest stream, plus the index-keyed outcome table the final
//! report is folded from.
//!
//! The view answers *live* questions — what attack kinds are prevalent
//! in the current ingest window, how much collateral energy they cost,
//! how the drain distribution looks so far — while carefully staying out
//! of the deterministic report's way: the final [`ea_fleet::FleetReport`]
//! is produced by re-folding the outcome slots in device-index order
//! through the same [`ea_fleet::ReportFold`] the batch engine uses,
//! never from the window counters.

use std::collections::BTreeMap;

use ea_fleet::{DeviceFailure, DeviceReport, SlotArena};
use ea_metrics::QuantileSketch;
use serde::{Deserialize, Serialize};

use crate::protocol::{LaneEvent, WINDOW_SCHEMA};

/// One online device's live row. Rows live in arena slots: a `Leave`
/// retires the slot and the next `Join` recycles it, so the roster's
/// footprint is bounded by *peak concurrency*, not fleet size.
#[derive(Debug, Clone, Default)]
struct LiveDevice {
    /// Device index within the fleet.
    index: usize,
    /// Session checkpoints seen since this device joined.
    checkpoints: u64,
    /// Cumulative battery drain from the latest checkpoint, joules.
    drained_joules: f64,
}

/// One ingest window's aggregates, plus stream-lifetime totals — the
/// reply to a `window` query (schema [`WINDOW_SCHEMA`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Schema tag ([`WINDOW_SCHEMA`]).
    pub schema: String,
    /// Window sequence number, starting at 1. The current (still open)
    /// window keeps its number until it rolls.
    pub window_seq: u64,
    /// Whether this window is still accumulating events.
    pub open: bool,
    /// Lane events ingested in this window.
    pub events: u64,
    /// Session checkpoints ingested in this window.
    pub checkpoints: u64,
    /// Devices that joined in this window.
    pub joined: u64,
    /// Devices that left gracefully in this window.
    pub left: u64,
    /// Devices abandoned mid-day in this window.
    pub crashed: u64,
    /// Crashed devices whose failure carried a lifecycle intent-log
    /// tail — i.e. whose forensics bundle is complete and replayable
    /// with `eandroid replay`. Equals `crashed`: every lane attaches an
    /// intent recorder.
    #[serde(default)]
    pub crashed_replayable: u64,
    /// Devices that completed their day in this window.
    pub completed: u64,
    /// Battery energy drained by devices completing in this window, J.
    pub drained_joules: f64,
    /// Collateral energy attributed to attack kinds in this window, J.
    /// The windowed conservation invariant: never exceeds
    /// `drained_joules`.
    pub attributed_joules: f64,
    /// Devices per attack kind among this window's completions.
    pub prevalence: BTreeMap<String, u64>,
    /// Collateral energy per attack kind in this window, joules.
    pub collateral_by_kind: BTreeMap<String, f64>,
    /// Median drain among this window's completions, joules.
    pub drain_p50_joules: f64,
    /// 90th-percentile drain among this window's completions, joules.
    pub drain_p90_joules: f64,
    /// 99th-percentile drain among this window's completions, joules.
    pub drain_p99_joules: f64,
    /// Lane events ingested over the whole stream so far.
    pub total_events: u64,
    /// Checkpoints ingested over the whole stream so far.
    pub total_checkpoints: u64,
    /// Devices currently online (joined and not yet left).
    pub devices_online: u64,
}

/// Accumulator behind the current window.
#[derive(Debug, Default)]
struct WindowAccum {
    events: u64,
    checkpoints: u64,
    joined: u64,
    left: u64,
    crashed: u64,
    crashed_replayable: u64,
    completed: u64,
    drained_joules: f64,
    attributed_joules: f64,
    prevalence: BTreeMap<String, u64>,
    collateral_by_kind: BTreeMap<String, f64>,
    drains: QuantileSketch,
}

impl WindowAccum {
    fn render(&self, seq: u64, open: bool, view: &FleetView) -> WindowStats {
        WindowStats {
            schema: WINDOW_SCHEMA.to_string(),
            window_seq: seq,
            open,
            events: self.events,
            checkpoints: self.checkpoints,
            joined: self.joined,
            left: self.left,
            crashed: self.crashed,
            crashed_replayable: self.crashed_replayable,
            completed: self.completed,
            drained_joules: self.drained_joules,
            attributed_joules: self.attributed_joules,
            prevalence: self.prevalence.clone(),
            collateral_by_kind: self.collateral_by_kind.clone(),
            drain_p50_joules: self.drains.quantile(0.50),
            drain_p90_joules: self.drains.quantile(0.90),
            drain_p99_joules: self.drains.quantile(0.99),
            total_events: view.total_events,
            total_checkpoints: view.total_checkpoints,
            devices_online: view.devices_online,
        }
    }
}

/// The live fleet view one service run maintains: the open ingest
/// window, the last closed one, stream totals, and the outcome slots.
#[derive(Debug)]
pub struct FleetView {
    /// Events per window before it rolls.
    window_capacity: u64,
    window_seq: u64,
    current: WindowAccum,
    last_closed: Option<WindowStats>,
    total_events: u64,
    total_checkpoints: u64,
    total_replayable_crashes: u64,
    devices_online: u64,
    /// Device outcomes keyed by index — the final report folds these in
    /// index order, which is what keeps the streaming report
    /// byte-identical to the batch one.
    slots: Vec<Option<Result<DeviceReport, DeviceFailure>>>,
    /// Slot allocator for the live roster: join = spawn, leave = retire.
    roster_arena: SlotArena,
    /// Arena-slot-indexed live rows; retired rows keep their storage for
    /// the next joiner.
    roster: Vec<LiveDevice>,
    /// Device index → roster arena slot, for checkpoint/leave routing.
    roster_by_index: BTreeMap<usize, usize>,
}

impl FleetView {
    /// A view for a fleet of `size` devices, rolling windows every
    /// `window_capacity` events (at least 1).
    #[must_use]
    pub fn new(size: usize, window_capacity: u64) -> Self {
        FleetView {
            window_capacity: window_capacity.max(1),
            window_seq: 1,
            current: WindowAccum::default(),
            last_closed: None,
            total_events: 0,
            total_checkpoints: 0,
            total_replayable_crashes: 0,
            devices_online: 0,
            slots: (0..size).map(|_| None).collect(),
            roster_arena: SlotArena::new(),
            roster: Vec::new(),
            roster_by_index: BTreeMap::new(),
        }
    }

    /// Enrolls a joining device in the live roster: an arena index grab,
    /// recycling a leaver's row when one is free.
    fn roster_join(&mut self, index: usize) {
        let slot = self.roster_arena.spawn().index();
        if slot == self.roster.len() {
            self.roster.push(LiveDevice::default());
        }
        self.roster[slot] = LiveDevice {
            index,
            checkpoints: 0,
            drained_joules: 0.0,
        };
        self.roster_by_index.insert(index, slot);
    }

    /// Folds one lane event into the view.
    pub fn ingest(&mut self, event: LaneEvent) {
        self.total_events += 1;
        self.current.events += 1;
        match event {
            LaneEvent::Join { index } => {
                self.current.joined += 1;
                self.devices_online += 1;
                self.roster_join(index);
            }
            LaneEvent::Checkpoint {
                index,
                ref snapshot,
            } => {
                self.total_checkpoints += 1;
                self.current.checkpoints += 1;
                if let Some(&slot) = self.roster_by_index.get(&index) {
                    let row = &mut self.roster[slot];
                    row.checkpoints += 1;
                    row.drained_joules = snapshot.drained_joules;
                }
            }
            LaneEvent::Completed(report) => {
                self.current.completed += 1;
                self.current.drained_joules += report.drained_joules;
                self.current.drains.record(report.drained_joules);
                for kind in report.periods_by_kind.keys() {
                    *self.current.prevalence.entry(kind.clone()).or_default() += 1;
                }
                for (kind, joules) in &report.collateral_by_kind {
                    *self
                        .current
                        .collateral_by_kind
                        .entry(kind.clone())
                        .or_default() += joules;
                    self.current.attributed_joules += joules;
                }
                let index = report.index;
                if let Some(slot) = self.slots.get_mut(index) {
                    *slot = Some(Ok(*report));
                }
            }
            LaneEvent::Crashed(failure) => {
                self.current.crashed += 1;
                if failure.intent_log.is_some() {
                    self.current.crashed_replayable += 1;
                    self.total_replayable_crashes += 1;
                }
                let index = failure.index;
                if let Some(slot) = self.slots.get_mut(index) {
                    *slot = Some(Err(*failure));
                }
            }
            LaneEvent::Leave { index } => {
                self.current.left += 1;
                self.devices_online = self.devices_online.saturating_sub(1);
                if let Some(slot) = self.roster_by_index.remove(&index) {
                    self.roster_arena.retire(slot);
                }
            }
        }
        if self.current.events >= self.window_capacity {
            self.roll();
        }
    }

    /// Closes the current window and opens the next one.
    fn roll(&mut self) {
        let closed = self.current.render(self.window_seq, false, self);
        self.last_closed = Some(closed);
        self.current = WindowAccum::default();
        self.window_seq += 1;
    }

    /// The current (still open) window's live stats.
    #[must_use]
    pub fn window(&self) -> WindowStats {
        self.current.render(self.window_seq, true, self)
    }

    /// The most recently closed window, if any has rolled yet.
    #[must_use]
    pub fn last_closed(&self) -> Option<&WindowStats> {
        self.last_closed.as_ref()
    }

    /// Checkpoints ingested over the stream so far.
    #[must_use]
    pub fn checkpoints_ingested(&self) -> u64 {
        self.total_checkpoints
    }

    /// Crashed devices whose streamed failure carried an intent-log
    /// tail (a complete `eandroid replay` bundle), over the whole
    /// stream so far.
    #[must_use]
    pub fn replayable_crashes(&self) -> u64 {
        self.total_replayable_crashes
    }

    /// Device outcomes recorded so far (completed or crashed).
    #[must_use]
    pub fn outcomes_recorded(&self) -> usize {
        self.slots.iter().filter(|slot| slot.is_some()).count()
    }

    /// Whether every device index has an outcome.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.slots.iter().all(|slot| slot.is_some())
    }

    /// Consumes the view into its outcome table, index-ordered. Missing
    /// slots (devices that never reported — impossible once
    /// [`drained`](Self::drained) holds) are dropped.
    #[must_use]
    pub fn into_outcomes(self) -> Vec<Result<DeviceReport, DeviceFailure>> {
        self.slots.into_iter().flatten().collect()
    }

    /// Takes the outcome table (index-ordered, missing slots dropped)
    /// while leaving windows and stream totals in place — so a held
    /// service keeps answering `window` queries truthfully after the
    /// final report has been folded.
    #[must_use]
    pub fn take_outcomes(&mut self) -> Vec<Result<DeviceReport, DeviceFailure>> {
        self.slots.drain(..).flatten().collect()
    }

    /// The live roster as `(device index, checkpoints, latest cumulative
    /// drain in joules)` rows, in device-index order.
    #[must_use]
    pub fn online_roster(&self) -> Vec<(usize, u64, f64)> {
        self.roster_by_index
            .values()
            .map(|&slot| {
                let row = &self.roster[slot];
                (row.index, row.checkpoints, row.drained_joules)
            })
            .collect()
    }

    /// Peak concurrent devices seen so far — the roster arena's
    /// capacity, which bounds the roster's memory footprint regardless
    /// of how many devices churn through the stream.
    #[must_use]
    pub fn roster_peak(&self) -> usize {
        self.roster_arena.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn join(index: usize) -> LaneEvent {
        LaneEvent::Join { index }
    }

    fn checkpoint_at(index: usize, drained: f64) -> LaneEvent {
        LaneEvent::Checkpoint {
            index,
            snapshot: ea_fleet::DeviceCheckpoint {
                sessions_completed: 1,
                sim_seconds: 60.0,
                drained_joules: drained,
            },
        }
    }

    fn leave(index: usize) -> LaneEvent {
        LaneEvent::Leave { index }
    }

    #[test]
    fn roster_tracks_online_devices_and_recycles_slots() {
        let mut view = FleetView::new(8, 1_000);
        view.ingest(join(3));
        view.ingest(join(5));
        view.ingest(checkpoint_at(3, 12.5));
        view.ingest(checkpoint_at(3, 30.0));
        view.ingest(checkpoint_at(5, 7.0));
        assert_eq!(
            view.online_roster(),
            vec![(3, 2, 30.0), (5, 1, 7.0)],
            "cumulative checkpoints and latest drain per online device"
        );
        view.ingest(leave(3));
        assert_eq!(view.online_roster(), vec![(5, 1, 7.0)]);
        // The leaver's arena slot is recycled by the next joiner: peak
        // concurrency stays 2 no matter how many devices churn through.
        for index in [6, 7, 0, 1] {
            view.ingest(join(index));
            view.ingest(leave(index));
        }
        assert_eq!(view.roster_peak(), 2);
        // A recycled row starts clean for its new tenant.
        view.ingest(join(2));
        assert_eq!(view.online_roster(), vec![(2, 0, 0.0), (5, 1, 7.0)]);
    }

    fn completed(index: usize, drained: f64, collateral: f64) -> LaneEvent {
        let mut report = report_stub(index, drained);
        report.periods_by_kind.insert(String::from("cpu_bomb"), 2);
        report
            .collateral_by_kind
            .insert(String::from("cpu_bomb"), collateral);
        LaneEvent::Completed(Box::new(report))
    }

    fn report_stub(index: usize, drained: f64) -> DeviceReport {
        DeviceReport {
            index,
            seed: index as u64,
            apps_installed: 5,
            infected: true,
            vectors: Vec::new(),
            sim_seconds: 60.0,
            drained_joules: drained,
            battery_percent: 90.0,
            periods_by_kind: BTreeMap::new(),
            collateral_by_kind: BTreeMap::new(),
            drivers: BTreeMap::new(),
            victims: BTreeMap::new(),
            predicted_apps_by_kind: BTreeMap::new(),
            apps_linted: 5,
            lint_diagnostics: 1,
            soundness_violations: 0,
            static_predicted_joules: 0.0,
            fault_log: ea_chaos::FaultLog::default(),
        }
    }

    #[test]
    fn windows_roll_on_capacity_and_keep_totals() {
        let mut view = FleetView::new(4, 3);
        view.ingest(LaneEvent::Join { index: 0 });
        view.ingest(LaneEvent::Checkpoint {
            index: 0,
            snapshot: ea_fleet::DeviceCheckpoint {
                sessions_completed: 1,
                sim_seconds: 30.0,
                drained_joules: 10.0,
            },
        });
        assert_eq!(view.window().window_seq, 1);
        assert!(view.last_closed().is_none());
        view.ingest(completed(0, 25.0, 5.0));
        // Third event rolled the window.
        assert_eq!(view.window().window_seq, 2);
        let closed = view.last_closed().cloned();
        let closed = closed.unwrap_or_else(|| panic!("window rolled"));
        assert!(!closed.open);
        assert_eq!(closed.events, 3);
        assert_eq!(closed.checkpoints, 1);
        assert_eq!(closed.completed, 1);
        assert_eq!(closed.prevalence.get("cpu_bomb"), Some(&1));
        assert!(closed.attributed_joules <= closed.drained_joules);
        view.ingest(LaneEvent::Leave { index: 0 });
        assert_eq!(view.window().devices_online, 0);
        assert_eq!(view.window().total_events, 4);
        assert_eq!(view.checkpoints_ingested(), 1);
    }

    #[test]
    fn outcomes_fill_the_slot_table_in_any_arrival_order() {
        let mut view = FleetView::new(3, 100);
        view.ingest(completed(2, 9.0, 1.0));
        view.ingest(LaneEvent::Crashed(Box::new(DeviceFailure {
            index: 0,
            seed: 7,
            message: String::from("boom"),
            attempts: 3,
            checkpoint: None,
            flight_recorder: None,
            intent_log: Some(ea_framework::IntentLog::new(4).dump()),
        })));
        assert!(!view.drained());
        assert_eq!(view.replayable_crashes(), 1);
        assert_eq!(view.window().crashed_replayable, 1);
        view.ingest(completed(1, 4.0, 0.5));
        assert!(view.drained());
        assert_eq!(view.outcomes_recorded(), 3);
        let outcomes = view.into_outcomes();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_err());
        let indices: Vec<usize> = outcomes
            .iter()
            .map(|outcome| match outcome {
                Ok(report) => report.index,
                Err(failure) => failure.index,
            })
            .collect();
        assert_eq!(indices, vec![0, 1, 2], "slots are index-ordered");
    }
}
