//! The resource-state lattice.
//!
//! An abstract state maps each [`Resource`] to an *occupancy bound*: the
//! fraction of an ARENA-style day the resource may be held, joined with
//! `max`, plus the provenance of that bound: a set of [`Reason`]s joined
//! with set union. Occupancies only ever take values the transfer
//! functions write (a finite constant set: `0`, a behaviour-profile
//! utilization, or `1`), and provenance sets grow monotonically inside
//! the fixed universe of [`Reason::ALL`] (twelve reasons, one bit each
//! per resource), so the lattice has finite height and the worklist
//! solver terminates. A state is two fixed arrays and `Copy`: raising,
//! joining, comparing and killing never allocate.

/// One abstract device resource an app can occupy.
///
/// These are the lattice dimensions, not the physical power rails: the
/// pricer ([`crate::absint::Pricer`]) maps each to a worst-case draw from
/// [`ea_power::PowerCoefficients`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// A core pinned by a foreground session.
    CpuForeground,
    /// Background CPU demand kept schedulable.
    CpuBackground,
    /// A core pinned by a running/bound service.
    CpuService,
    /// Screen lit by a foreground session.
    ScreenOn,
    /// Screen forced lit (wakelock leak / brightness escalation).
    ScreenBright,
    /// Network radio held active.
    Radio,
    /// GPS receiver held.
    Gps,
    /// Camera pipeline held.
    Camera,
    /// Audio pipeline held.
    Audio,
}

impl Resource {
    /// Number of lattice dimensions.
    pub const COUNT: usize = 9;

    /// Every resource, in declaration order.
    pub const ALL: [Resource; Resource::COUNT] = [
        Resource::CpuForeground,
        Resource::CpuBackground,
        Resource::CpuService,
        Resource::ScreenOn,
        Resource::ScreenBright,
        Resource::Radio,
        Resource::Gps,
        Resource::Camera,
        Resource::Audio,
    ];

    /// Dense index for array-backed states.
    pub fn index(self) -> usize {
        match self {
            Resource::CpuForeground => 0,
            Resource::CpuBackground => 1,
            Resource::CpuService => 2,
            Resource::ScreenOn => 3,
            Resource::ScreenBright => 4,
            Resource::Radio => 5,
            Resource::Gps => 6,
            Resource::Camera => 7,
            Resource::Audio => 8,
        }
    }

    /// Human-readable label, stable for renderers.
    pub fn label(self) -> &'static str {
        match self {
            Resource::CpuForeground => "cpu-foreground",
            Resource::CpuBackground => "cpu-background",
            Resource::CpuService => "cpu-service",
            Resource::ScreenOn => "screen-on",
            Resource::ScreenBright => "screen-bright",
            Resource::Radio => "radio",
            Resource::Gps => "gps",
            Resource::Camera => "camera",
            Resource::Audio => "audio",
        }
    }
}

/// Why a resource may be occupied: the closed set of provenance
/// reasons the transfer functions ([`super::transfer`]) raise.
///
/// Declared in [`Reason::label`] order, so a provenance bitmask read from
/// the low bit up lists labels sorted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Reason {
    /// GPS holds need no permission.
    GpsUngated,
    /// `WAKE_LOCK` held while backgrounded: the lock leaks whatever the
    /// release policy.
    WakelockWhileInvisible,
    /// `WRITE_SETTINGS` allows brightness escalation.
    WriteSettings,
    /// Audio playback needs no permission.
    AudioUngated,
    /// A behaviour profile is absent, so background demand is a full core.
    BackgroundDemandUnknown,
    /// The behaviour profile declares background demand (the occupancy
    /// bound is that demand, in cores).
    BackgroundDemandDeclared,
    /// A foreground session lights the screen.
    ForegroundScreen,
    /// A foreground session may pin a core.
    ForegroundCore,
    /// The app holds `CAMERA`.
    CameraPermission,
    /// Network use needs no permission.
    NetworkUngated,
    /// A running service pins a core.
    ServiceCore,
    /// A screen wakelock held by a service outlives the UI.
    ServiceWakelock,
}

impl Reason {
    /// Number of reasons.
    pub const COUNT: usize = 12;

    /// Every reason, in declaration (= label) order.
    pub const ALL: [Reason; Reason::COUNT] = [
        Reason::GpsUngated,
        Reason::WakelockWhileInvisible,
        Reason::WriteSettings,
        Reason::AudioUngated,
        Reason::BackgroundDemandUnknown,
        Reason::BackgroundDemandDeclared,
        Reason::ForegroundScreen,
        Reason::ForegroundCore,
        Reason::CameraPermission,
        Reason::NetworkUngated,
        Reason::ServiceCore,
        Reason::ServiceWakelock,
    ];

    /// Human-readable label, stable for renderers.
    pub fn label(self) -> &'static str {
        match self {
            Reason::WakelockWhileInvisible => {
                "WAKE_LOCK acquired while invisible leaks regardless of policy"
            }
            Reason::WriteSettings => "WRITE_SETTINGS allows brightness escalation",
            Reason::BackgroundDemandUnknown => "background demand unknown: assume a full core",
            Reason::BackgroundDemandDeclared => "declared background demand (cores = occupancy)",
            Reason::AudioUngated => "audio playback is not permission-gated",
            Reason::ForegroundCore => "foreground session may pin a core",
            Reason::ForegroundScreen => "foreground session lights the screen",
            Reason::GpsUngated => "GPS holds are not permission-gated",
            Reason::CameraPermission => "holds CAMERA",
            Reason::NetworkUngated => "network use is not permission-gated",
            Reason::ServiceCore => "running service pins a core",
            Reason::ServiceWakelock => "service-held screen wakelock outlives the UI",
        }
    }

    fn bit(self) -> u32 {
        1 << self as u32
    }
}

/// An element of the resource-state lattice: per-resource occupancy
/// bounds (fraction of a day, join = pointwise `max`) with provenance
/// (a [`Reason`] bitmask, join = bitwise or). `Default` is ⊥ — nothing
/// occupied, nothing to blame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceState {
    occ: [f64; Resource::COUNT],
    reasons: [u32; Resource::COUNT],
}

impl ResourceState {
    /// The bottom element: every occupancy 0, every provenance set empty.
    pub fn bottom() -> ResourceState {
        ResourceState::default()
    }

    /// The occupancy bound for `resource`, in `[0, 1]`.
    pub fn occupancy(&self, resource: Resource) -> f64 {
        self.occ[resource.index()]
    }

    /// Why `resource` may be occupied, in label order.
    pub fn reasons(&self, resource: Resource) -> impl Iterator<Item = Reason> {
        let mask = self.reasons[resource.index()];
        Reason::ALL
            .into_iter()
            .filter(move |reason| mask & reason.bit() != 0)
    }

    /// Why `resource` may be occupied, as labels in sorted order.
    pub fn causes(&self, resource: Resource) -> impl Iterator<Item = &'static str> {
        self.reasons(resource).map(Reason::label)
    }

    /// Whether no resource is occupied.
    pub fn is_bottom(&self) -> bool {
        self.occ.iter().all(|&o| o == 0.0)
    }

    /// Raises `resource` to at least `occupancy` and records `reason`.
    /// Monotone by construction: occupancies never decrease, provenance
    /// sets never shrink.
    pub fn raise(&mut self, resource: Resource, occupancy: f64, reason: Reason) {
        let slot = resource.index();
        let clamped = occupancy.clamp(0.0, 1.0);
        if clamped > self.occ[slot] {
            self.occ[slot] = clamped;
        }
        if clamped > 0.0 {
            self.reasons[slot] |= reason.bit();
        }
    }

    /// Drops `resource` to ⊥: occupancy 0, no provenance. Not a lattice
    /// operation — the transfer functions' edge filter
    /// ([`super::transfer::kill`]) uses it for what cannot survive an edge.
    pub(crate) fn clear(&mut self, resource: Resource) {
        self.occ[resource.index()] = 0.0;
        self.reasons[resource.index()] = 0;
    }

    /// Joins `other` into `self`; returns whether anything changed (the
    /// worklist's re-enqueue signal).
    pub fn join_from(&mut self, other: &ResourceState) -> bool {
        let mut changed = false;
        for slot in 0..Resource::COUNT {
            if other.occ[slot] > self.occ[slot] {
                self.occ[slot] = other.occ[slot];
                changed = true;
            }
            let joined = self.reasons[slot] | other.reasons[slot];
            if joined != self.reasons[slot] {
                self.reasons[slot] = joined;
                changed = true;
            }
        }
        changed
    }

    /// The partial order: `self ⊑ other`.
    pub fn le(&self, other: &ResourceState) -> bool {
        (0..Resource::COUNT).all(|slot| {
            self.occ[slot] <= other.occ[slot] && self.reasons[slot] & !other.reasons[slot] == 0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_indices_are_dense_and_unique() {
        let mut seen = [false; Resource::COUNT];
        for resource in Resource::ALL {
            assert!(!seen[resource.index()], "{resource:?} index collides");
            seen[resource.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reasons_are_declared_in_strict_label_order() {
        for pair in Reason::ALL.windows(2) {
            assert!(
                pair[0].label() < pair[1].label(),
                "{:?} must sort before {:?}",
                pair[0],
                pair[1]
            );
        }
        for (position, reason) in Reason::ALL.into_iter().enumerate() {
            assert_eq!(reason as usize, position, "ALL is in declaration order");
        }
    }

    #[test]
    fn raise_is_monotone_and_clamped() {
        let mut state = ResourceState::bottom();
        state.raise(Resource::Radio, 0.5, Reason::NetworkUngated);
        state.raise(Resource::Radio, 0.2, Reason::ServiceCore);
        assert_eq!(state.occupancy(Resource::Radio), 0.5, "never decreases");
        state.raise(Resource::Radio, 7.0, Reason::AudioUngated);
        assert_eq!(state.occupancy(Resource::Radio), 1.0, "clamped to a day");
        let causes: Vec<&str> = state.causes(Resource::Radio).collect();
        assert_eq!(
            causes,
            vec![
                "audio playback is not permission-gated",
                "network use is not permission-gated",
                "running service pins a core",
            ]
        );
    }

    #[test]
    fn join_is_lub_and_reports_change() {
        let mut a = ResourceState::bottom();
        a.raise(Resource::ScreenOn, 1.0, Reason::ForegroundScreen);
        let mut b = ResourceState::bottom();
        b.raise(Resource::ScreenOn, 0.5, Reason::ServiceWakelock);
        b.raise(Resource::Gps, 1.0, Reason::GpsUngated);

        let mut joined = a;
        assert!(joined.join_from(&b));
        assert!(a.le(&joined));
        assert!(b.le(&joined));
        assert_eq!(joined.occupancy(Resource::ScreenOn), 1.0);
        // Idempotent: joining again changes nothing.
        assert!(!joined.join_from(&b));
        assert!(!joined.join_from(&a));
    }

    #[test]
    fn join_reports_a_provenance_only_change() {
        let mut a = ResourceState::bottom();
        a.raise(Resource::ScreenBright, 1.0, Reason::WriteSettings);
        let mut b = ResourceState::bottom();
        b.raise(Resource::ScreenBright, 1.0, Reason::WakelockWhileInvisible);
        assert!(!b.le(&a), "same occupancy, foreign reason");
        assert!(a.join_from(&b), "a new reason alone is a change");
        assert!(b.le(&a));
    }

    #[test]
    fn bottom_is_identity_of_join() {
        let mut state = ResourceState::bottom();
        state.raise(Resource::Camera, 1.0, Reason::CameraPermission);
        let snapshot = state;
        assert!(!state.join_from(&ResourceState::bottom()));
        assert_eq!(state, snapshot);
        assert!(ResourceState::bottom().le(&state));
    }
}
