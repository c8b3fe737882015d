//! The open half of the backend seam: a registry that resolves
//! [`BackendSpec`]s to boxed [`SchedulerBackend`]s, and the portfolio
//! backend that races several members with a deterministic winner rule.
//!
//! `ims-core` cannot depend on the crates that implement the non-trivial
//! backends (`ims-exact`, `ims-sat` depend on core, not the other way
//! around), so the registry is *open*: [`BackendRegistry::new`]
//! pre-registers only the in-crate iterative scheduler, and each backend
//! crate exports a `register(&mut BackendRegistry)` hook
//! (`ims_sat::default_registry()` assembles all three). Resolution is a
//! separate, later step from parsing: a spec can parse fine (`sat` is
//! always a valid name) and still fail to resolve against a registry
//! that never registered the SAT crate — that failure is a structured
//! [`ResolveError`], not a panic, which is what lets the `scheduled`
//! daemon turn an unavailable backend into a per-request error line.
//!
//! # Portfolio determinism
//!
//! [`PortfolioBackend`] runs *every* member to completion — racing with
//! cancellation would make the loser's partial work (and its counters)
//! depend on timing. Members run on scoped threads when `threads > 1`,
//! but the winner rule never looks at wall-clock: lowest achieved II
//! wins, ties broken by member order in the spec. Outcomes, steps, and
//! the winner are therefore byte-identical across thread counts.

use std::fmt;

use crate::backend::{BackendKind, BackendOutcome, IterativeBackend, SchedulerBackend};
use crate::observe::SchedObserver;
use crate::problem::Problem;
use crate::sched::{SchedConfig, ScheduleError};
use crate::spec::BackendSpec;

/// Everything a backend factory may want when instantiating a backend.
///
/// One params struct serves every backend; each factory picks the fields
/// it understands (the iterative scheduler reads `sched`, branch-and-
/// bound adds `node_limit`; the SAT backend keeps its default conflict
/// budget).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackendParams {
    /// Heuristic scheduler configuration (BudgetRatio, max II, priority);
    /// the exact backends also use it for their internal heuristic run.
    pub sched: SchedConfig,
    /// Branch-and-bound node budget; `None` keeps the backend's default.
    pub node_limit: Option<u64>,
}

impl BackendParams {
    /// Default parameters: default `SchedConfig`, backend-default limits.
    pub fn new() -> Self {
        BackendParams::default()
    }

    /// Sets the heuristic scheduler configuration.
    pub fn sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Sets the branch-and-bound node budget.
    pub fn node_limit(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

}

/// A backend instantiated by a registry: boxed, and `Send + Sync` so the
/// portfolio can race members on scoped threads.
pub type BoxedBackend = Box<dyn SchedulerBackend + Send + Sync>;

type Factory = Box<dyn Fn(&BackendParams) -> BoxedBackend + Send + Sync>;

/// Resolves [`BackendSpec`]s to runnable backends.
pub struct BackendRegistry {
    entries: Vec<(BackendKind, Factory)>,
}

impl fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("registered", &self.registered())
            .finish()
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        BackendRegistry::new()
    }
}

impl BackendRegistry {
    /// A registry with the in-crate [`IterativeBackend`] pre-registered.
    /// Backend crates add themselves via their `register` hooks;
    /// `ims_sat::default_registry()` returns all three leaves.
    pub fn new() -> Self {
        let mut reg = BackendRegistry::empty();
        reg.register(BackendKind::Ims, |params: &BackendParams| {
            Box::new(IterativeBackend::new(params.sched.clone())) as BoxedBackend
        });
        reg
    }

    /// A registry with nothing registered (for tests of resolution
    /// failure; production code starts from [`BackendRegistry::new`]).
    pub fn empty() -> Self {
        BackendRegistry {
            entries: Vec::new(),
        }
    }

    /// Registers (or replaces) the factory for `kind`.
    pub fn register<F>(&mut self, kind: BackendKind, factory: F)
    where
        F: Fn(&BackendParams) -> BoxedBackend + Send + Sync + 'static,
    {
        match self.entries.iter_mut().find(|(k, _)| *k == kind) {
            Some(entry) => entry.1 = Box::new(factory),
            None => self.entries.push((kind, Box::new(factory))),
        }
    }

    /// Whether a factory for `kind` is registered.
    pub fn contains(&self, kind: BackendKind) -> bool {
        self.entries.iter().any(|(k, _)| *k == kind)
    }

    /// The registered leaf kinds, in registration order.
    pub fn registered(&self) -> Vec<BackendKind> {
        self.entries.iter().map(|(k, _)| *k).collect()
    }

    /// Instantiates the leaf backend `kind`.
    ///
    /// # Errors
    ///
    /// [`ResolveError`] when no factory for `kind` is registered.
    pub fn make(&self, kind: BackendKind, params: &BackendParams) -> Result<BoxedBackend, ResolveError> {
        self.entries
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, f)| f(params))
            .ok_or_else(|| ResolveError {
                missing: kind,
                registered: self.registered(),
            })
    }

    /// Resolves a full spec: a leaf instantiates directly, a portfolio
    /// instantiates every member and wraps them in a
    /// [`PortfolioBackend`].
    ///
    /// # Errors
    ///
    /// [`ResolveError`] naming the first unregistered member.
    pub fn resolve(
        &self,
        spec: &BackendSpec,
        params: &BackendParams,
    ) -> Result<BoxedBackend, ResolveError> {
        match spec {
            BackendSpec::Leaf(kind) => self.make(*kind, params),
            BackendSpec::Portfolio(kinds) => {
                let members = kinds
                    .iter()
                    .map(|&k| Ok((k, self.make(k, params)?)))
                    .collect::<Result<Vec<_>, ResolveError>>()?;
                Ok(Box::new(PortfolioBackend::new(members)))
            }
        }
    }
}

/// A spec named a backend the registry has no factory for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveError {
    /// The leaf backend that is not registered.
    pub missing: BackendKind,
    /// What *is* registered, in registration order.
    pub registered: Vec<BackendKind>,
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.registered.iter().map(|k| k.name()).collect();
        write!(
            f,
            "backend {:?} is not registered (registered: {})",
            self.missing.name(),
            if names.is_empty() {
                "none".to_string()
            } else {
                names.join(", ")
            }
        )
    }
}

impl std::error::Error for ResolveError {}

/// How a portfolio run went, member by member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioReport {
    /// The winning member's kind.
    pub winner: BackendKind,
    /// The winning member's index in the spec's member order.
    pub winner_index: usize,
    /// Per member, in spec order: the achieved II (`None` when the
    /// member errored).
    pub member_iis: Vec<(BackendKind, Option<i64>)>,
}

/// Runs every member backend and keeps the best outcome.
///
/// Winner rule (deterministic, thread-count-invariant): the member with
/// the lowest `bounds.best_ub` (achieved II) wins; ties go to the
/// earliest member in spec order. Merged bounds combine the members'
/// knowledge: `proved_lb` is the strongest lower bound any member
/// proved (capped at the winner's II), and `steps` is the summed work.
/// Members always run to completion — no cancellation — so every field
/// of the outcome is invariant under `threads`.
pub struct PortfolioBackend {
    members: Vec<(BackendKind, BoxedBackend)>,
    threads: usize,
}

impl fmt::Debug for PortfolioBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PortfolioBackend")
            .field("members", &self.member_kinds())
            .field("threads", &self.threads)
            .finish()
    }
}

impl PortfolioBackend {
    /// A portfolio over `members`, racing one thread per member.
    ///
    /// # Panics
    ///
    /// When `members` is empty (specs guarantee at least one member).
    pub fn new(members: Vec<(BackendKind, BoxedBackend)>) -> Self {
        assert!(!members.is_empty(), "a portfolio needs at least one member");
        let threads = members.len();
        PortfolioBackend { members, threads }
    }

    /// Caps the racing threads; `1` runs members sequentially (the
    /// outcome is identical either way — only wall-clock changes).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The member kinds, in spec order.
    pub fn member_kinds(&self) -> Vec<BackendKind> {
        self.members.iter().map(|(k, _)| *k).collect()
    }

    /// Runs every member and returns the winning outcome plus the
    /// per-member report. When `observer` is given, the winner is re-run
    /// with it after the race — members are deterministic, so the replay
    /// reproduces the raced outcome exactly and the observer sees a
    /// single clean event stream attributed (via
    /// [`SchedObserver::backend`]) to the winning member.
    ///
    /// # Errors
    ///
    /// The first member's error, if *every* member failed; any single
    /// success wins over errors.
    pub fn schedule_full(
        &self,
        problem: &Problem<'_>,
        observer: Option<&mut dyn SchedObserver>,
    ) -> Result<(BackendOutcome, PortfolioReport), ScheduleError> {
        let results = self.race(problem);

        let winner_index = results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().ok().map(|o| (i, o.bounds.best_ub)))
            .min_by_key(|&(i, ii)| (ii, i))
            .map(|(i, _)| i);
        let Some(winner_index) = winner_index else {
            let first_err = results
                .into_iter()
                .find_map(Result::err)
                .expect("no winner implies at least one error");
            return Err(first_err);
        };

        let report = PortfolioReport {
            winner: self.members[winner_index].0,
            winner_index,
            member_iis: self
                .members
                .iter()
                .zip(&results)
                .map(|((k, _), r)| (*k, r.as_ref().ok().map(|o| o.bounds.best_ub)))
                .collect(),
        };

        let steps: u64 = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|o| o.steps)
            .sum();
        let proved_lb = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|o| o.bounds.proved_lb)
            .max()
            .expect("winner exists");

        let mut outcome = match observer {
            // Deterministic members: the observed replay of the winner
            // reproduces the raced outcome bit for bit.
            Some(observer) => {
                self.members[winner_index].1.schedule_observed_dyn(problem, observer)?
            }
            None => {
                let mut it = results.into_iter();
                it.nth(winner_index).expect("winner index in range")?
            }
        };
        outcome.bounds.proved_lb = proved_lb.min(outcome.bounds.best_ub);
        outcome.steps = steps;
        Ok((outcome, report))
    }

    /// Runs all members to completion, sequentially or on scoped
    /// threads; the result vector is in member order either way.
    fn race(&self, problem: &Problem<'_>) -> Vec<Result<BackendOutcome, ScheduleError>> {
        if self.threads <= 1 || self.members.len() == 1 {
            return self
                .members
                .iter()
                .map(|(_, b)| b.schedule(problem))
                .collect();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .members
                .iter()
                .map(|(_, b)| scope.spawn(move || b.schedule(problem)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("portfolio member panicked"))
                .collect()
        })
    }
}

impl SchedulerBackend for PortfolioBackend {
    fn kind(&self) -> BackendKind {
        self.members[0].0
    }

    fn spec(&self) -> BackendSpec {
        BackendSpec::Portfolio(self.member_kinds())
    }

    fn schedule(&self, problem: &Problem<'_>) -> Result<BackendOutcome, ScheduleError> {
        self.schedule_full(problem, None).map(|(o, _)| o)
    }

    fn schedule_observed_dyn(
        &self,
        problem: &Problem<'_>,
        observer: &mut dyn SchedObserver,
    ) -> Result<BackendOutcome, ScheduleError> {
        self.schedule_full(problem, Some(observer)).map(|(o, _)| o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemBuilder;
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::minimal;

    fn two_op_problem(machine: &ims_machine::MachineModel) -> Problem<'_> {
        let mut pb = ProblemBuilder::new(machine);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Mul, OpId(1));
        pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
        pb.finish()
    }

    #[test]
    fn default_registry_resolves_only_ims() {
        let reg = BackendRegistry::new();
        assert_eq!(reg.registered(), vec![BackendKind::Ims]);
        assert!(reg.contains(BackendKind::Ims));
        assert!(!reg.contains(BackendKind::Exact));

        let params = BackendParams::new();
        let backend = reg.make(BackendKind::Ims, &params).unwrap();
        assert_eq!(backend.kind(), BackendKind::Ims);
        assert_eq!(backend.spec(), BackendSpec::Leaf(BackendKind::Ims));

        let err = reg.make(BackendKind::Sat, &params).map(|_| ()).unwrap_err();
        assert_eq!(err.missing, BackendKind::Sat);
        assert_eq!(err.registered, vec![BackendKind::Ims]);
        let msg = err.to_string();
        assert!(msg.contains("\"sat\""), "{msg}");
        assert!(msg.contains("registered: ims"), "{msg}");

        // A portfolio with an unregistered member fails the same way.
        let spec: BackendSpec = "portfolio(ims,exact)".parse().unwrap();
        let err = reg.resolve(&spec, &params).map(|_| ()).unwrap_err();
        assert_eq!(err.missing, BackendKind::Exact);
    }

    #[test]
    fn empty_registry_reports_nothing_registered() {
        let reg = BackendRegistry::empty();
        let err = reg
            .make(BackendKind::Ims, &BackendParams::new())
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("registered: none"), "{err}");
    }

    #[test]
    fn registered_factories_receive_params() {
        let mut reg = BackendRegistry::new();
        // Re-registering Ims replaces the factory.
        reg.register(BackendKind::Ims, |p: &BackendParams| {
            Box::new(IterativeBackend::new(p.sched.clone().max_ii(1))) as BoxedBackend
        });
        assert_eq!(reg.registered(), vec![BackendKind::Ims]);

        let m = minimal();
        let p = two_op_problem(&m);
        let backend = reg
            .make(BackendKind::Ims, &BackendParams::new())
            .unwrap();
        // The II-1 cap injected by the replaced factory binds (this
        // loop's MII is 2), proving params flow through the factory.
        let err = backend.schedule(&p).unwrap_err();
        assert_eq!(err, ScheduleError::IiCapExceeded { mii: 2, max_ii: 1 });
    }

    #[test]
    fn portfolio_of_ims_matches_plain_ims_and_is_thread_invariant() {
        let m = minimal();
        let p = two_op_problem(&m);
        let reg = BackendRegistry::new();
        let params = BackendParams::new();

        let solo = reg
            .make(BackendKind::Ims, &params)
            .unwrap()
            .schedule(&p)
            .unwrap();

        let spec: BackendSpec = "portfolio(ims,ims)".parse().unwrap();
        let backend = reg.resolve(&spec, &params).unwrap();
        assert_eq!(backend.kind(), BackendKind::Ims);
        assert_eq!(backend.spec().to_string(), "portfolio(ims,ims)");

        let raced = backend.schedule(&p).unwrap();
        assert_eq!(raced.schedule, solo.schedule);
        assert_eq!(raced.bounds, solo.bounds);
        assert_eq!(raced.steps, solo.steps * 2, "steps sum over members");

        // Sequential (threads=1) must be byte-identical to the race.
        let members = vec![
            (BackendKind::Ims, reg.make(BackendKind::Ims, &params).unwrap()),
            (BackendKind::Ims, reg.make(BackendKind::Ims, &params).unwrap()),
        ];
        let sequential = PortfolioBackend::new(members).threads(1);
        let (seq_out, report) = sequential.schedule_full(&p, None).unwrap();
        assert_eq!(seq_out, raced);
        assert_eq!(report.winner_index, 0, "ties go to the earliest member");
        assert_eq!(
            report.member_iis,
            vec![
                (BackendKind::Ims, Some(solo.schedule.ii)),
                (BackendKind::Ims, Some(solo.schedule.ii)),
            ]
        );
    }
}
