//! The cross-app analysis context and implicit-intent flow pass.
//!
//! Rules receive a [`LintContext`] holding every app's [`AppFacts`] plus a
//! precomputed intent-flow graph: for each implicit action declared
//! anywhere in the set, which exported components would the resolver offer
//! as handlers. From that graph the pass derives *attack chains* — paths
//! `U → T1 → T2` where each hop is an implicit intent another app answers
//! — which is the static shadow of the paper's chain-attack propagation
//! (Algorithm 1 merges collateral maps along exactly these edges).
//!
//! The context also composes the cross-app evidence once per app set:
//! every exported activity and service as `pkg/Name`, and every draining
//! app with its background demand, each rendered once, sorted and tagged
//! with its owner ([`OwnedItems`]). A rule checking one app reads these
//! lists and skips that app's own entries, so a pass over `n` apps
//! renders `O(n)` strings rather than `O(n²)`.

use std::collections::BTreeMap;

use ea_framework::ComponentKind;
use ea_power::DevicePowerModel;

use crate::absint::{AbsintSolution, Pricer};
use crate::facts::AppFacts;

/// One exported implicit-intent handler somewhere in the app set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handler {
    /// Index of the owning app in [`LintContext::apps`].
    pub app: usize,
    /// Component class name.
    pub component: String,
    /// Activity, service, or receiver.
    pub kind: ComponentKind,
}

/// A two-hop implicit-intent chain starting at one app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Action of the first hop.
    pub first_action: String,
    /// Handler of the first hop (the app the origin would exploit).
    pub first: Handler,
    /// Action of the second hop.
    pub second_action: String,
    /// Handler of the second hop (the app the exploited app could in turn
    /// reach).
    pub second: Handler,
}

/// Evidence items rendered once per app set, each tagged with the app
/// that owns it, in sorted item order.
#[derive(Debug)]
pub(crate) struct OwnedItems {
    /// `(item, owning app index)`, sorted.
    items: Vec<(String, usize)>,
    /// Items owned by each app, indexed like [`LintContext::apps`].
    owned: Vec<usize>,
}

impl OwnedItems {
    fn new(apps: usize, mut items: Vec<(String, usize)>) -> OwnedItems {
        items.sort_unstable();
        let mut owned = vec![0; apps];
        for &(_, owner) in &items {
            owned[owner] += 1;
        }
        OwnedItems { items, owned }
    }

    /// How many items apps other than `origin` own.
    pub(crate) fn count_others(&self, origin: usize) -> usize {
        self.items.len() - self.owned.get(origin).copied().unwrap_or(0)
    }

    /// Items of apps other than `origin`, in sorted order.
    pub(crate) fn others(&self, origin: usize) -> impl Iterator<Item = &str> {
        self.items
            .iter()
            .filter(move |(_, owner)| *owner != origin)
            .map(|(item, _)| item.as_str())
    }
}

/// The cross-app state shared by every rule invocation.
#[derive(Debug)]
pub struct LintContext {
    apps: Vec<AppFacts>,
    /// action → exported handlers, ordered by (app, component).
    handlers: BTreeMap<String, Vec<Handler>>,
    /// Exported activities as `pkg/Name` (EA0001's victims).
    exported_activities: OwnedItems,
    /// Exported services as `pkg/Name` (EA0003's victims).
    exported_services: OwnedItems,
    /// Apps with known non-zero background demand, as
    /// `pkg (background demand X cores)` (EA0002's draining victims).
    draining: OwnedItems,
    /// The abstract-interpretation fixpoint over this app set.
    absint: AbsintSolution,
}

impl LintContext {
    /// Builds the context, runs the intent-flow pass, composes the
    /// cross-app evidence lists, and solves the abstract-interpretation
    /// fixpoint (priced through the Nexus-4 calibration, the device the
    /// simulator drains with).
    pub fn new(apps: Vec<AppFacts>) -> LintContext {
        let mut handlers: BTreeMap<String, Vec<Handler>> = BTreeMap::new();
        let mut activities = Vec::new();
        let mut services = Vec::new();
        let mut draining = Vec::new();
        for (index, facts) in apps.iter().enumerate() {
            for decl in facts.manifest.components.iter().filter(|d| d.exported) {
                for action in &decl.intent_actions {
                    handlers.entry(action.clone()).or_default().push(Handler {
                        app: index,
                        component: decl.name.clone(),
                        kind: decl.kind,
                    });
                }
                let victims = match decl.kind {
                    ComponentKind::Activity => &mut activities,
                    ComponentKind::Service => &mut services,
                    ComponentKind::Receiver => continue,
                };
                victims.push((format!("{}/{}", facts.package, decl.name), index));
            }
            let demand = facts.background_util.unwrap_or(0.0);
            if demand > 0.0 {
                draining.push((
                    format!("{} (background demand {demand:.2} cores)", facts.package),
                    index,
                ));
            }
        }
        let pricer = Pricer::new(DevicePowerModel::nexus4().coefficients());
        let absint = AbsintSolution::solve(&apps, &handlers, &pricer, usize::MAX);
        LintContext {
            exported_activities: OwnedItems::new(apps.len(), activities),
            exported_services: OwnedItems::new(apps.len(), services),
            draining: OwnedItems::new(apps.len(), draining),
            apps,
            handlers,
            absint,
        }
    }

    /// Every app under analysis.
    pub fn apps(&self) -> &[AppFacts] {
        &self.apps
    }

    /// The solved abstract-interpretation fixpoint.
    pub fn absint(&self) -> &AbsintSolution {
        &self.absint
    }

    /// The full action → exported-handlers index.
    pub fn handler_index(&self) -> &BTreeMap<String, Vec<Handler>> {
        &self.handlers
    }

    /// Every app's exported activities, as `pkg/Name`.
    pub(crate) fn exported_activities(&self) -> &OwnedItems {
        &self.exported_activities
    }

    /// Every app's exported services, as `pkg/Name`.
    pub(crate) fn exported_services(&self) -> &OwnedItems {
        &self.exported_services
    }

    /// Every app with known non-zero background demand, as
    /// `pkg (background demand X cores)`.
    pub(crate) fn draining(&self) -> &OwnedItems {
        &self.draining
    }

    /// Exported handlers for an implicit `action`, across all apps.
    pub fn handlers_of(&self, action: &str) -> &[Handler] {
        self.handlers.get(action).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Implicit-intent chains of length two starting at app `index`:
    /// `index → T1 → T2` with `T1 ≠ index`, `T2 ∉ {index, T1}`. Returns at
    /// most `limit` chains, in deterministic action order.
    pub fn chains_from(&self, index: usize, limit: usize) -> Vec<Chain> {
        let mut chains = Vec::new();
        for (first_action, first_handlers) in &self.handlers {
            for first in first_handlers.iter().filter(|h| h.app != index) {
                for (second_action, second_handlers) in &self.handlers {
                    for second in second_handlers
                        .iter()
                        .filter(|h| h.app != index && h.app != first.app)
                    {
                        chains.push(Chain {
                            first_action: first_action.clone(),
                            first: first.clone(),
                            second_action: second_action.clone(),
                            second: second.clone(),
                        });
                        if chains.len() >= limit {
                            return chains;
                        }
                    }
                }
            }
        }
        chains
    }

    /// Renders a chain as evidence text, e.g.
    /// `com.a -[SEND]-> com.b/Share -[VIEW]-> com.c/Open`.
    pub fn describe_chain(&self, origin: usize, chain: &Chain) -> String {
        format!(
            "{} -[{}]-> {}/{} -[{}]-> {}/{}",
            self.apps[origin].package,
            chain.first_action,
            self.apps[chain.first.app].package,
            chain.first.component,
            chain.second_action,
            self.apps[chain.second.app].package,
            chain.second.component,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_framework::AppManifest;

    fn ctx() -> LintContext {
        let manifests = [
            AppManifest::builder("com.a").activity("Main", true).build(),
            AppManifest::builder("com.b")
                .activity_with_actions("Share", true, &["SEND"])
                .build(),
            AppManifest::builder("com.c")
                .activity_with_actions("Open", true, &["VIEW"])
                .activity_with_actions("Hidden", false, &["VIEW"])
                .build(),
        ];
        LintContext::new(manifests.iter().map(AppFacts::from_manifest).collect())
    }

    #[test]
    fn flow_pass_indexes_exported_handlers_only() {
        let ctx = ctx();
        assert_eq!(ctx.handlers_of("SEND").len(), 1);
        assert_eq!(ctx.handlers_of("VIEW").len(), 1, "non-exported excluded");
        assert!(ctx.handlers_of("EDIT").is_empty());
    }

    #[test]
    fn chains_skip_origin_and_repeat_apps() {
        let ctx = ctx();
        let chains = ctx.chains_from(0, 10);
        assert!(!chains.is_empty());
        for chain in &chains {
            assert_ne!(chain.first.app, 0);
            assert_ne!(chain.second.app, 0);
            assert_ne!(chain.second.app, chain.first.app);
        }
        // com.b's only reachable next hop is com.c and vice versa.
        let described = ctx.describe_chain(0, &chains[0]);
        assert_eq!(
            described,
            "com.a -[SEND]-> com.b/Share -[VIEW]-> com.c/Open"
        );
    }

    #[test]
    fn no_chain_with_fewer_than_three_apps() {
        let manifests = [
            AppManifest::builder("com.a").activity("Main", true).build(),
            AppManifest::builder("com.b")
                .activity_with_actions("Share", true, &["SEND"])
                .build(),
        ];
        let ctx = LintContext::new(manifests.iter().map(AppFacts::from_manifest).collect());
        assert!(ctx.chains_from(0, 10).is_empty());
    }
}
