//! The one way into the §3 II walk.
//!
//! [`Scheduler`] is the paper's `ModuloSchedule` (Figure 2) as a builder:
//! construct it from a [`Problem`], chain configuration and an optional
//! [`SchedObserver`], and call [`run`](Scheduler::run). Every backend that
//! needs the iterative schedule (`ims_sat::schedule_leaf`, the
//! `ims_exact::prove` walk) reaches it through this builder.
//!
//! ```
//! use ims_core::{ProblemBuilder, SchedConfig, Scheduler};
//! use ims_graph::DepKind;
//! use ims_ir::{OpId, Opcode};
//! use ims_machine::minimal;
//!
//! let machine = minimal();
//! let mut pb = ProblemBuilder::new(&machine);
//! let a = pb.add_op(Opcode::Add, OpId(0));
//! let b = pb.add_op(Opcode::Mul, OpId(1));
//! pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
//! let problem = pb.finish();
//!
//! let out = Scheduler::new(&problem)
//!     .config(SchedConfig::new().budget_ratio(6.0))
//!     .run()?;
//! assert!(out.schedule.ii >= out.mii.mii);
//! # Ok::<(), ims_core::ScheduleError>(())
//! ```

use crate::observe::{NullObserver, SchedObserver};
use crate::problem::Problem;
use crate::sched::{modulo_schedule_observed, SchedConfig, SchedOutcome, ScheduleError};

/// Builder for one modulo-scheduling run: problem + configuration +
/// observer.
///
/// The observer type is a generic parameter, so the scheduler is
/// monomorphized per observer: with the default [`NullObserver`] every
/// hook is an empty inline body and the run is bit-identical (schedules,
/// [`Counters`](crate::Counters), corpus output) to an unobserved one.
#[derive(Debug)]
pub struct Scheduler<'p, 'm, O: SchedObserver = NullObserver> {
    problem: &'p Problem<'m>,
    config: SchedConfig,
    observer: O,
}

impl<'p, 'm> Scheduler<'p, 'm, NullObserver> {
    /// Starts a builder over `problem` with the default configuration and
    /// no observer.
    pub fn new(problem: &'p Problem<'m>) -> Self {
        Scheduler {
            problem,
            config: SchedConfig::default(),
            observer: NullObserver,
        }
    }
}

impl<'p, 'm, O: SchedObserver> Scheduler<'p, 'm, O> {
    /// Replaces the whole configuration.
    pub fn config(mut self, config: SchedConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches an observer — typically a `&mut` borrow, so the caller
    /// keeps the observer for inspection after [`run`](Scheduler::run):
    ///
    /// ```ignore
    /// let mut rec = Recorder::new();
    /// let out = Scheduler::new(&problem).observer(&mut rec).run()?;
    /// ```
    pub fn observer<P: SchedObserver>(self, observer: P) -> Scheduler<'p, 'm, P> {
        Scheduler {
            problem: self.problem,
            config: self.config,
            observer,
        }
    }

    /// Runs `ModuloSchedule` (Figure 2): MII computation, then iterative
    /// scheduling at successively larger candidate IIs.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::IiCapExceeded`] when the configured `max_ii` is
    /// below the MII (no candidate II is admissible at all), and
    /// [`ScheduleError::BudgetExhausted`] when every candidate II up to
    /// the cap ran out of scheduling budget or was rejected by the
    /// observer. When the configuration sets a `pressure_limit`, that
    /// second case is [`ScheduleError::PressureInfeasible`] instead.
    pub fn run(mut self) -> Result<SchedOutcome, ScheduleError> {
        modulo_schedule_observed(self.problem, &self.config, &mut self.observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemBuilder;
    use ims_graph::{DepKind, NodeId};
    use ims_ir::{OpId, Opcode};
    use ims_machine::{figure1_machine, minimal};

    fn recurrence<'m>(m: &'m ims_machine::MachineModel) -> Problem<'m> {
        let mut pb = ProblemBuilder::new(m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(a, b, 4, 0, DepKind::Flow, false);
        pb.add_dep(b, a, 1, 1, DepKind::Flow, false);
        pb.finish()
    }

    #[test]
    fn chained_setters_reach_the_scheduler() {
        let m = minimal();
        let p = recurrence(&m);
        let err = Scheduler::new(&p)
            .config(SchedConfig::new().max_ii(2).budget_ratio(100.0))
            .run();
        assert_eq!(
            err.unwrap_err(),
            ScheduleError::IiCapExceeded { mii: 5, max_ii: 2 }
        );
    }

    #[test]
    fn borrowed_observer_sees_the_run() {
        struct Tally {
            scheduled: u32,
            attempts: u32,
        }
        impl SchedObserver for Tally {
            fn op_scheduled(&mut self, _: NodeId, _: i64, _: usize, _: bool) {
                self.scheduled += 1;
            }
            fn attempt_start(&mut self, _: i64, _: i64) {
                self.attempts += 1;
            }
        }
        let m = figure1_machine();
        let mut pb = ProblemBuilder::new(&m);
        for i in 0..4 {
            let _ = pb.add_op(if i % 2 == 0 { Opcode::Add } else { Opcode::Mul }, OpId(i));
        }
        let p = pb.finish();
        let mut tally = Tally {
            scheduled: 0,
            attempts: 0,
        };
        let out = Scheduler::new(&p)
            .config(SchedConfig::new().budget_ratio(8.0))
            .observer(&mut tally)
            .run()
            .unwrap();
        assert_eq!(tally.attempts as usize, out.stats.attempts.len());
        // Every node (including START/STOP) is placed at least once.
        assert!(tally.scheduled as usize >= p.graph().num_nodes());
    }
}
