//! Struct-of-arrays power-model state: many devices, one kernel.
//!
//! [`DevicePowerModel`] carries its radio finite-state machines *inside*
//! the sub-model structs, so a fleet of N devices is N scattered
//! heap objects and every step is a chain of per-device calls. This
//! module flattens the only stateful pieces — the WiFi/cellular tail
//! clocks, the cellular RRC state, the radio user lists, and the GPS
//! session start — into parallel arrays indexed by *lane*, and keeps a
//! single parameter block shared by every lane. Stepping a fleet is then
//! a sweep over flat arrays with no per-device virtual dispatch, and
//! adding a device is one `push_lane`.
//!
//! Byte-identity contract: [`PowerLanes::observe_into`] replicates
//! [`DevicePowerModel::draws_into`] operation for operation — same
//! branch structure, same floating-point evaluation order, same user
//! ordering — so a profiler stepping through a lane produces bit-equal
//! ledgers, graphs, and battery bits to one stepping the model structs.
//! The golden and property suites pin that contract.
//!
//! The screen model is stateless but its gamma curve costs a `powf`
//! per evaluation; lanes memoize it per `(on, brightness, luma)` so a
//! steady-state step pays the transcendental only when the panel state
//! actually changes. The cached value is the bit-exact result of the
//! original computation, so memoization is invisible to accounting.

use ea_sim::{SimTime, Uid};

use crate::model::fill_equal_shares;
use crate::usage::RadioUse;
use crate::{
    CameraMode, CellularState, Component, ComponentDraw, DevicePowerModel, DeviceUsage, UsageShare,
};

/// Flat per-lane state for one radio FSM with a tail clock.
#[derive(Debug, Clone, Default)]
struct TailLane {
    last_active_at: Vec<Option<SimTime>>,
    last_users: Vec<Vec<Uid>>,
}

impl TailLane {
    fn push(&mut self) {
        self.last_active_at.push(None);
        self.last_users.push(Vec::new());
    }
}

/// Struct-of-arrays power state for a block of device lanes sharing one
/// hardware calibration.
///
/// # Example
///
/// ```
/// use ea_power::{DevicePowerModel, DeviceUsage, PowerLanes, ScreenUsage};
/// use ea_sim::{SimTime, Uid};
///
/// let mut lanes = PowerLanes::new(DevicePowerModel::nexus4());
/// let lane = lanes.push_lane();
/// let mut usage = DeviceUsage::idle();
/// usage.screen = ScreenUsage::on(128, Some(Uid::FIRST_APP));
/// let mut draws = Vec::new();
/// lanes.observe_into(lane, SimTime::ZERO, &usage, &mut draws);
/// assert!(draws.iter().any(|d| d.component == ea_power::Component::Screen));
/// ```
#[derive(Debug, Clone)]
pub struct PowerLanes {
    /// Shared parameter block. Its embedded FSM state is never advanced;
    /// the per-lane arrays below replace it.
    model: DevicePowerModel,
    wifi: TailLane,
    cellular: TailLane,
    cellular_state: Vec<CellularState>,
    gps_started: Vec<Option<SimTime>>,
    /// Screen memo key: `(on, brightness, luma bits)`; `None` = cold.
    screen_key: Vec<Option<(bool, u8, u64)>>,
    screen_mw: Vec<f64>,
}

impl PowerLanes {
    /// An empty lane block parameterized by `model` (used as the shared
    /// calibration; its internal FSM state is ignored).
    #[must_use]
    pub fn new(model: DevicePowerModel) -> Self {
        PowerLanes {
            model,
            wifi: TailLane::default(),
            cellular: TailLane::default(),
            cellular_state: Vec::new(),
            gps_started: Vec::new(),
            screen_key: Vec::new(),
            screen_mw: Vec::new(),
        }
    }

    /// Appends one fresh lane and returns its index.
    pub fn push_lane(&mut self) -> usize {
        self.wifi.push();
        self.cellular.push();
        self.cellular_state.push(CellularState::Idle);
        self.gps_started.push(None);
        self.screen_key.push(None);
        self.screen_mw.push(0.0);
        self.wifi.last_active_at.len() - 1
    }

    /// Lane-state mirror of [`WifiModel::observe`](crate::WifiModel::observe):
    /// identical branches and arithmetic against `lane`'s flat state.
    fn wifi_observe(&mut self, lane: usize, now: SimTime, traffic: &[RadioUse]) -> (f64, &[Uid]) {
        let params = &self.model.wifi;
        let last_at = &mut self.wifi.last_active_at[lane];
        let users = &mut self.wifi.last_users[lane];
        let total_kbps: f64 = traffic
            .iter()
            .map(|radio| radio.throughput_kbps.max(0.0))
            .sum();
        if total_kbps > 0.0 {
            *last_at = Some(now);
            users.clear();
            users.extend(
                traffic
                    .iter()
                    .filter(|radio| radio.throughput_kbps > 0.0)
                    .map(|radio| radio.uid),
            );
            let power = params.active_mw + params.mw_per_mbps * (total_kbps / 1_000.0);
            return (power, users);
        }
        // WifiPhase::Tail test, inlined: active or in-tail, but not *at*
        // the activity instant (that would be Active, unreachable here
        // because total_kbps == 0).
        let in_tail = last_at
            .is_some_and(|at| now >= at && now.saturating_since(at) <= params.tail && now != at);
        if in_tail {
            (params.tail_mw, users)
        } else {
            (params.idle_mw, &[])
        }
    }

    /// Lane-state mirror of
    /// [`CellularModel::observe`](crate::CellularModel::observe).
    fn cellular_observe(
        &mut self,
        lane: usize,
        now: SimTime,
        traffic: &[RadioUse],
    ) -> (f64, &[Uid], CellularState) {
        let params = &self.model.cellular;
        let last_at = &mut self.cellular.last_active_at[lane];
        let last_state = &mut self.cellular_state[lane];
        let users = &mut self.cellular.last_users[lane];
        let total_kbps: f64 = traffic
            .iter()
            .map(|radio| radio.throughput_kbps.max(0.0))
            .sum();
        if total_kbps > 0.0 {
            let state = if total_kbps >= params.dch_threshold_kbps {
                CellularState::Dch
            } else {
                CellularState::Fach
            };
            *last_at = Some(now);
            *last_state = state;
            users.clear();
            users.extend(
                traffic
                    .iter()
                    .filter(|radio| radio.throughput_kbps > 0.0)
                    .map(|radio| radio.uid),
            );
            return (params.power_of(state), users, state);
        }
        let state = match *last_at {
            None => CellularState::Idle,
            Some(at) => {
                let since = now.saturating_since(at);
                match *last_state {
                    CellularState::Dch if since <= params.dch_tail => CellularState::Dch,
                    _ if since <= params.fach_tail => CellularState::Fach,
                    _ => CellularState::Idle,
                }
            }
        };
        let users: &[Uid] = if state == CellularState::Idle {
            &[]
        } else {
            users
        };
        (params.power_of(state), users, state)
    }

    /// Lane-state mirror of [`GpsModel::observe`](crate::GpsModel::observe).
    fn gps_observe<'a>(
        &mut self,
        lane: usize,
        now: SimTime,
        holders: &'a [Uid],
    ) -> (f64, &'a [Uid]) {
        let params = &self.model.gps;
        let started_slot = &mut self.gps_started[lane];
        if holders.is_empty() {
            *started_slot = None;
            return (0.0, &[]);
        }
        let started = *started_slot.get_or_insert(now);
        let power = if now.saturating_since(started) < params.acquire_time {
            params.acquire_mw
        } else {
            params.track_mw
        };
        (power, holders)
    }

    /// Screen draw with per-lane memoization: bit-equal to
    /// [`ScreenModel::power_with_content`](crate::ScreenModel::power_with_content),
    /// paying the gamma `powf` only when the panel inputs change.
    fn screen_power(&mut self, lane: usize, on: bool, brightness: u8, luma: f64) -> f64 {
        let key = Some((on, brightness, luma.to_bits()));
        if self.screen_key[lane] != key {
            self.screen_key[lane] = key;
            self.screen_mw[lane] = self.model.screen.power_with_content(on, brightness, luma);
        }
        self.screen_mw[lane]
    }

    /// Computes the per-component draws for the interval ending at `now`
    /// under `usage`, against `lane`'s flat state — the batch-kernel
    /// replica of [`DevicePowerModel::draws_into`], byte-identical in
    /// output and allocation-free at steady state.
    pub fn observe_into(
        &mut self,
        lane: usize,
        now: SimTime,
        usage: &DeviceUsage,
        out: &mut Vec<ComponentDraw>,
    ) {
        // Reclaim the users allocations from last tick's draws (at most 7).
        let mut pool: [Vec<UsageShare>; 7] = Default::default();
        for (slot, draw) in pool.iter_mut().zip(out.drain(..)) {
            *slot = draw.users;
            slot.clear();
        }
        let mut pool = pool.into_iter();

        // Radio FSMs must observe every interval, even idle ones, so their
        // tails expire on schedule. Each observe borrows lane state
        // immutably afterwards, so take copies of what the suspend check
        // and share fills need.
        let (wifi_mw, wifi_empty) = {
            let (mw, users) = self.wifi_observe(lane, now, &usage.wifi);
            (mw, users.is_empty())
        };
        let (cell_mw, cell_empty) = {
            let (mw, users, _) = self.cellular_observe(lane, now, &usage.cellular);
            (mw, users.is_empty())
        };
        let (gps_mw, _) = self.gps_observe(lane, now, &usage.gps);

        if !usage.is_active() && wifi_empty && cell_empty {
            out.push(ComponentDraw {
                component: Component::Cpu,
                power_mw: self.model.suspend_mw,
                users: pool.next().unwrap_or_default(),
            });
            return;
        }

        // CPU: static awake draw is unattributed; the dynamic part is split
        // by granted utilization.
        let total_util = usage.total_cpu();
        let cpu_mw = self.model.cpu.power_mw(total_util);
        let dynamic_fraction = if cpu_mw > 0.0 {
            (cpu_mw - self.model.cpu.awake_mw).max(0.0) / cpu_mw
        } else {
            0.0
        };
        let mut cpu_users = pool.next().unwrap_or_default();
        if total_util > 0.0 {
            cpu_users.extend(
                usage
                    .cpu
                    .iter()
                    .filter(|cpu_use| cpu_use.utilization > 0.0)
                    .map(|cpu_use| UsageShare {
                        uid: cpu_use.uid,
                        share: cpu_use.utilization / total_util * dynamic_fraction,
                    }),
            );
        }
        out.push(ComponentDraw {
            component: Component::Cpu,
            power_mw: cpu_mw,
            users: cpu_users,
        });

        // Screen: all draw is "used by" the foreground app as a fact.
        let screen_mw = self.screen_power(
            lane,
            usage.screen.on,
            usage.screen.brightness,
            usage.screen.luma,
        );
        let mut screen_users = pool.next().unwrap_or_default();
        if let (true, Some(uid)) = (usage.screen.on, usage.screen.foreground) {
            screen_users.push(UsageShare { uid, share: 1.0 });
        }
        out.push(ComponentDraw {
            component: Component::Screen,
            power_mw: screen_mw,
            users: screen_users,
        });

        let mut wifi_shares = pool.next().unwrap_or_default();
        fill_equal_shares(&self.wifi.last_users[lane], &mut wifi_shares);
        if wifi_empty {
            wifi_shares.clear();
        }
        out.push(ComponentDraw {
            component: Component::Wifi,
            power_mw: wifi_mw,
            users: wifi_shares,
        });
        let mut cell_shares = pool.next().unwrap_or_default();
        fill_equal_shares(&self.cellular.last_users[lane], &mut cell_shares);
        if cell_empty {
            cell_shares.clear();
        }
        out.push(ComponentDraw {
            component: Component::Cellular,
            power_mw: cell_mw,
            users: cell_shares,
        });
        let mut gps_shares = pool.next().unwrap_or_default();
        fill_equal_shares(&usage.gps, &mut gps_shares);
        out.push(ComponentDraw {
            component: Component::Gps,
            power_mw: gps_mw,
            users: gps_shares,
        });

        let mut camera_users = pool.next().unwrap_or_default();
        let camera_mw = match usage.camera {
            Some(camera_use) => {
                let mode = if camera_use.recording {
                    CameraMode::Recording
                } else {
                    CameraMode::Preview
                };
                camera_users.push(UsageShare {
                    uid: camera_use.uid,
                    share: 1.0,
                });
                self.model.camera.power_mw(mode)
            }
            None => 0.0,
        };
        out.push(ComponentDraw {
            component: Component::Camera,
            power_mw: camera_mw,
            users: camera_users,
        });

        let mut audio_users = pool.next().unwrap_or_default();
        fill_equal_shares(&usage.audio, &mut audio_users);
        out.push(ComponentDraw {
            component: Component::Audio,
            power_mw: self.model.audio.power_mw(!usage.audio.is_empty()),
            users: audio_users,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usage::ScreenUsage;

    fn uid(n: u32) -> Uid {
        Uid::from_raw(10_000 + n)
    }

    fn radio(n: u32, kbps: f64) -> RadioUse {
        RadioUse {
            uid: uid(n),
            throughput_kbps: kbps,
        }
    }

    /// Drives a model and a lane through the same usage script and demands
    /// bit-equal draws at every tick.
    fn assert_mirror(script: &[(u64, DeviceUsage)]) {
        let mut model = DevicePowerModel::nexus4();
        let mut lanes = PowerLanes::new(DevicePowerModel::nexus4());
        let lane = lanes.push_lane();
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for (ms, usage) in script {
            let now = SimTime::from_millis(*ms);
            model.draws_into(now, usage, &mut expected);
            lanes.observe_into(lane, now, usage, &mut got);
            assert_eq!(expected.len(), got.len(), "draw count at t={ms}ms");
            for (a, b) in expected.iter().zip(&got) {
                assert_eq!(a.component, b.component);
                assert_eq!(
                    a.power_mw.to_bits(),
                    b.power_mw.to_bits(),
                    "{:?} power at t={ms}ms",
                    a.component
                );
                assert_eq!(a.users, b.users, "{:?} users at t={ms}ms", a.component);
            }
        }
    }

    #[test]
    fn lane_mirrors_model_through_radio_tails_and_suspend() {
        let mut active = DeviceUsage::idle();
        active.screen = ScreenUsage::on(180, Some(uid(1)));
        active.wifi = vec![radio(1, 900.0), radio(2, 300.0)];
        active.cellular = vec![radio(3, 40.0)];
        active.gps = vec![uid(2)];

        let mut tail_only = DeviceUsage::idle();
        tail_only.screen = ScreenUsage::on(180, Some(uid(1)));

        let idle = DeviceUsage::idle();

        let mut heavy_cell = DeviceUsage::idle();
        heavy_cell.screen = ScreenUsage::on(64, Some(uid(3)));
        heavy_cell.cellular = vec![radio(3, 900.0)];

        assert_mirror(&[
            (0, active.clone()),
            (250, tail_only.clone()),
            (500, tail_only.clone()),
            (1_500, idle.clone()),
            (7_000, heavy_cell.clone()),
            (9_000, tail_only.clone()),
            (13_000, tail_only.clone()),
            (30_000, idle.clone()),
            (30_250, active),
            (31_000, idle),
        ]);
    }

    #[test]
    fn screen_memo_is_bit_exact_across_changes() {
        let mut lanes = PowerLanes::new(DevicePowerModel::nexus4());
        let lane = lanes.push_lane();
        let screen = crate::ScreenModel::nexus4();
        for (on, brightness, luma) in [
            (true, 200u8, 0.5f64),
            (true, 200, 0.5),
            (true, 90, 0.5),
            (true, 90, 0.9),
            (false, 90, 0.9),
            (true, 200, 0.5),
        ] {
            let memo = lanes.screen_power(lane, on, brightness, luma);
            let fresh = screen.power_with_content(on, brightness, luma);
            assert_eq!(memo.to_bits(), fresh.to_bits());
        }
    }
}
