//! The names and bounds every scheduling backend shares.
//!
//! The paper's iterative scheduler is a heuristic: it walks candidate IIs
//! upward from the MII and keeps the first II at which its budgeted search
//! succeeds, so "achieved II = MII" is the only case in which its result
//! is *known* to be optimal. Measuring the heuristic's optimality gap —
//! the centerpiece of the exact-scheduling literature that followed Rau
//! (SMT- and SAT-based modulo schedulers) — needs a second scheduler that
//! proves lower bounds. Three backends exist, and [`BackendKind`] names
//! them:
//!
//! * `ims` — the paper's algorithm ([`modulo_schedule`](crate::modulo_schedule)),
//!   in this crate. Its bounds are one-sided: the MII below, the achieved
//!   II above;
//! * `exact` and `sat` — the exact provers' shared II walk (`ims-exact`)
//!   around a per-II decider (branch-and-bound in `ims-exact`, CDCL in
//!   `ims-sat`). Each either proves its schedule's II minimal or reports
//!   explicit [`IiBounds`] when its work budget runs out.
//!
//! Every backend consumes the same [`Problem`](crate::Problem) and produces
//! the same [`Schedule`](crate::Schedule), so the validator, code
//! generation, and the VLIW simulator work unchanged whichever backend
//! produced the schedule. `ims_sat::schedule_leaf`, in the lowest crate
//! that sees all three, is the one dispatch from a kind to its scheduler.

#[cfg(doc)]
use crate::{observe::SchedObserver, spec::BackendSpec};

/// Which *leaf* scheduling backend produced an event stream or outcome.
///
/// This is the stable-name enum of the wire format and the trace files:
/// every concrete scheduler has exactly one `BackendKind`, carried by the
/// `attempt_start` trace events (via [`SchedObserver::backend`]) so
/// traces from different backends are distinguishable after the fact.
/// Composite selections — `portfolio(a,b,...)` — are described by
/// [`BackendSpec`], which is what CLI flags and the service wire format
/// parse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The paper's iterative modulo scheduler.
    #[default]
    Ims,
    /// The exact branch-and-bound scheduler (`ims-exact`).
    Exact,
    /// The CDCL SAT-solver backend (`ims-sat`).
    Sat,
}

impl BackendKind {
    /// Every leaf backend, in display order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Ims, BackendKind::Exact, BackendKind::Sat];

    /// The stable lowercase name used on the wire and in CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Ims => "ims",
            BackendKind::Exact => "exact",
            BackendKind::Sat => "sat",
        }
    }

    /// Resolves a stable leaf name produced by [`BackendKind::name`].
    /// Leaf names only; full backend selections (including
    /// `portfolio(...)`) parse via [`BackendSpec`]'s `FromStr`.
    pub fn from_name(s: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a backend knows about the loop's true minimum II.
///
/// `proved_lb ≤ II* ≤ best_ub`, where `II*` is the smallest II at which
/// any legal modulo schedule exists. A backend that proves optimality
/// reports `proved_lb == best_ub`; a heuristic (or an exact search that
/// hit its deadline) reports a gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IiBounds {
    /// Largest II proven to be a lower bound on `II*` (every smaller II
    /// is known infeasible).
    pub proved_lb: i64,
    /// Smallest II at which a legal schedule is in hand.
    pub best_ub: i64,
}

impl IiBounds {
    /// Bounds for a schedule proven optimal at `ii`.
    pub fn exact(ii: i64) -> IiBounds {
        IiBounds {
            proved_lb: ii,
            best_ub: ii,
        }
    }

    /// Whether the bounds pin the true minimum II exactly.
    pub fn is_exact(&self) -> bool {
        self.proved_lb == self.best_ub
    }

    /// `best_ub − proved_lb`: how much slack remains between the schedule
    /// in hand and the proven lower bound (0 when optimality is proven).
    pub fn gap(&self) -> i64 {
        self.best_ub - self.proved_lb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_names_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(BackendKind::from_name("simulated-annealing"), None);
    }

    #[test]
    fn ii_bounds_accessors() {
        let exact = IiBounds::exact(4);
        assert!(exact.is_exact());
        assert_eq!(exact.gap(), 0);
        let loose = IiBounds {
            proved_lb: 3,
            best_ub: 5,
        };
        assert!(!loose.is_exact());
        assert_eq!(loose.gap(), 2);
    }
}
