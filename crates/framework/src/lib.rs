//! # ea-framework — a simulated Android framework
//!
//! This crate reproduces, in-process and deterministically, the slice of the
//! Android 5.0.1 framework that the E-Android paper instruments:
//!
//! * the **component model** — activities with the
//!   `onPause`/`onStop`/`onDestroy` lifecycle, started and bound services
//!   with reference-counted liveness, and explicit/implicit **intents**
//!   including the resolver chooser ([`Intent`], [`ActivityState`],
//!   [`AndroidSystem::start_activity`]),
//! * **task stacks** with reordering and back navigation ([`TaskStack`]),
//! * the **power manager** with Android's four wakelock levels and
//!   Binder link-to-death auto-release ([`WakelockKind`],
//!   [`AndroidSystem::acquire_wakelock`]),
//! * the **settings provider** with manual/automatic brightness and the
//!   "saved but not applied until manual mode" quirk attack #5 exploits
//!   ([`SettingsProvider`]),
//! * the **window manager**: foreground tracking, transparent overlay
//!   activities, screen timeout, and the SurfaceFlinger shared-memory
//!   side channel used by the paper's malware #4 ([`SurfaceFlinger`]),
//! * per-app **permissions** (`WAKE_LOCK`, `WRITE_SETTINGS`, …) and
//!   exported-component checks ([`Permission`]),
//! * a typed **framework event stream** ([`FrameworkEvent`]) — exactly the
//!   hook points E-Android's monitor consumes.
//!
//! The orchestrator is [`AndroidSystem`]: install apps, drive user and app
//! actions, advance simulated time, and read [`ea_power::DeviceUsage`]
//! snapshots plus the event stream.
//!
//! ## Example
//!
//! ```
//! use ea_framework::{AndroidSystem, AppManifest, Intent};
//! use ea_sim::SimDuration;
//!
//! let mut android = AndroidSystem::new();
//! let message = android.install(
//!     AppManifest::builder("com.example.message")
//!         .activity("Compose", true)
//!         .build(),
//! );
//! let camera = android.install(
//!     AppManifest::builder("com.example.camera")
//!         .activity("Record", true)
//!         .build(),
//! );
//!
//! android.user_launch("com.example.message").unwrap();
//! // The Message app starts the Camera via an explicit intent (Figure 1).
//! android
//!     .start_activity(message, Intent::explicit("com.example.camera", "Record"))
//!     .unwrap();
//! assert_eq!(android.foreground_uid(), Some(camera));
//!
//! // With no user input and no screen wakelock, the 30 s timeout darkens
//! // the panel.
//! android.advance(SimDuration::from_secs(31));
//! assert!(!android.screen_is_on());
//!
//! let events = android.drain_events();
//! assert!(!events.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Fallible paths must return errors, not panic: unwrap/expect are
// banned outside tests (DESIGN.md §11). Carve-outs need an explicit
// `#[allow]` with a proof of infallibility.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod activity;
mod behavior;
mod error;
mod events;
mod intent;
mod lifecycle;
mod manifest;
mod routine;
mod service;
mod settings;
mod surfaceflinger;
mod system;
mod task;
mod wakelock;

pub use activity::{ActivityId, ActivityRecord, ActivityState};
pub use behavior::AppBehavior;
pub use error::FrameworkError;
pub use events::{ChangeSource, ForegroundCause, FrameworkEvent, TimedEvent};
pub use intent::Intent;
pub use lifecycle::{
    Cause, IntentLogDump, IntentLogRecorder, LifecycleIntent, LifecycleOp, LifecycleReducer,
    INTENT_LOG_CAPACITY,
};
pub use manifest::{AppManifest, AppManifestBuilder, ComponentDecl, ComponentKind, Permission};
pub use routine::Routine;
pub use service::{ConnectionId, ServiceRecord};
pub use settings::{BrightnessMode, SettingsProvider};
pub use surfaceflinger::SurfaceFlinger;
pub use system::{AndroidSystem, InstalledApp, StartResult, TapOutcome, SYSTEM_PACKAGES};
pub use task::TaskStack;
pub use wakelock::{Wakelock, WakelockId, WakelockKind, WakelockPolicy};
