//! Independent validation of modulo schedules.
//!
//! The validator re-derives, from first principles, the two legality
//! conditions of a modulo schedule (§1): *"no intra- or inter-iteration
//! dependence is violated, and no resource usage conflict arises between
//! operations of either the same or distinct iterations"*. It shares no
//! code with the scheduler's bookkeeping (it rebuilds the modulo
//! reservation table from scratch), so a scheduler bug cannot hide from it.

use std::fmt;

use ims_graph::NodeId;

use crate::problem::Problem;
use crate::sched::Schedule;

/// A violation found by [`validate_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleViolation {
    /// The schedule's vectors do not match the problem's node count.
    ShapeMismatch,
    /// A node was scheduled before time zero.
    NegativeTime {
        /// The offending node.
        node: NodeId,
    },
    /// The START pseudo-operation is not at time 0.
    StartNotAtZero,
    /// `time(to) < time(from) + delay − II·distance` for some edge.
    DependenceViolated {
        /// Predecessor.
        from: NodeId,
        /// Successor.
        to: NodeId,
        /// The slack by which the constraint fails (positive).
        shortfall: i64,
    },
    /// Two operations reserve the same resource on the same cycle mod II.
    ResourceCollision {
        /// First reserver.
        a: NodeId,
        /// Second reserver.
        b: NodeId,
        /// The resource index.
        resource: usize,
        /// The cycle (mod II) of the collision.
        slot: i64,
    },
    /// A node's chosen alternative index is out of range.
    BadAlternative {
        /// The offending node.
        node: NodeId,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::ShapeMismatch => write!(f, "schedule shape mismatch"),
            ScheduleViolation::NegativeTime { node } => {
                write!(f, "{node} scheduled before time zero")
            }
            ScheduleViolation::StartNotAtZero => write!(f, "START not at time zero"),
            ScheduleViolation::DependenceViolated {
                from,
                to,
                shortfall,
            } => write!(
                f,
                "dependence {from} -> {to} violated by {shortfall} cycles"
            ),
            ScheduleViolation::ResourceCollision {
                a,
                b,
                resource,
                slot,
            } => write!(
                f,
                "{a} and {b} both reserve resource {resource} at slot {slot}"
            ),
            ScheduleViolation::BadAlternative { node } => {
                write!(f, "{node} selects an out-of-range alternative")
            }
        }
    }
}

impl std::error::Error for ScheduleViolation {}

/// Checks `schedule` against every dependence edge and rebuilds the modulo
/// reservation table to check every resource reservation.
///
/// # Errors
///
/// Returns the first [`ScheduleViolation`] found.
pub fn validate_schedule(
    problem: &Problem<'_>,
    schedule: &Schedule,
) -> Result<(), ScheduleViolation> {
    let graph = problem.graph();
    let n = graph.num_nodes();
    if schedule.time.len() != n || schedule.alternative.len() != n {
        return Err(ScheduleViolation::ShapeMismatch);
    }
    if schedule.time[problem.start().index()] != 0 {
        return Err(ScheduleViolation::StartNotAtZero);
    }
    for v in graph.nodes() {
        if schedule.time[v.index()] < 0 {
            return Err(ScheduleViolation::NegativeTime { node: v });
        }
    }

    // Dependences: time(to) ≥ time(from) + delay − II·distance.
    let ii = schedule.ii;
    for e in graph.edges() {
        let lhs = schedule.time[e.to.index()];
        let rhs = schedule.time[e.from.index()] + e.delay - ii * e.distance as i64;
        if lhs < rhs {
            return Err(ScheduleViolation::DependenceViolated {
                from: e.from,
                to: e.to,
                shortfall: rhs - lhs,
            });
        }
    }

    // Resources: rebuild the MRT slot map from scratch.
    let nres = problem.machine().num_resources();
    let mut slots: Vec<Option<NodeId>> = vec![None; ii as usize * nres];
    for v in problem.op_nodes() {
        let info = problem.info(v).expect("op_nodes yields real operations");
        let ai = schedule.alternative[v.index()];
        let Some(alt) = info.alternatives.get(ai) else {
            return Err(ScheduleViolation::BadAlternative { node: v });
        };
        let t = schedule.time[v.index()];
        for &(r, off) in alt.table.uses() {
            let slot = (t + off as i64).rem_euclid(ii);
            let cell = &mut slots[slot as usize * nres + r.index()];
            if let Some(prev) = *cell {
                return Err(ScheduleViolation::ResourceCollision {
                    a: prev,
                    b: v,
                    resource: r.index(),
                    slot,
                });
            }
            *cell = Some(v);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemBuilder;
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::minimal;

    fn two_op_problem(m: &ims_machine::MachineModel) -> (Problem<'_>, NodeId, NodeId) {
        let mut pb = ProblemBuilder::new(m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
        (pb.finish(), a, b)
    }

    fn hand_schedule(ii: i64, times: Vec<i64>) -> Schedule {
        let n = times.len();
        Schedule {
            ii,
            length: *times.last().unwrap(),
            time: times,
            alternative: vec![0; n],
        }
    }

    #[test]
    fn valid_hand_schedule_passes() {
        let m = minimal();
        let (p, _, _) = two_op_problem(&m);
        // START=0, a=0, b=1, STOP=2. II=2: slots 0 and 1 distinct.
        let s = hand_schedule(2, vec![0, 0, 1, 2]);
        assert_eq!(validate_schedule(&p, &s), Ok(()));
    }

    #[test]
    fn dependence_violation_detected() {
        let m = minimal();
        let (p, a, b) = two_op_problem(&m);
        // b at the same time as a violates the delay-1 edge.
        let s = hand_schedule(2, vec![0, 0, 0, 2]);
        match validate_schedule(&p, &s) {
            Err(ScheduleViolation::DependenceViolated {
                from,
                to,
                shortfall,
            }) => {
                assert_eq!((from, to, shortfall), (a, b, 1));
            }
            other => panic!("expected dependence violation, got {other:?}"),
        }
    }

    #[test]
    fn modulo_resource_collision_detected() {
        let m = minimal();
        let (p, a, b) = two_op_problem(&m);
        // a at 0 and b at 2 collide at II=2 on the single unit.
        let s = hand_schedule(2, vec![0, 0, 2, 3]);
        match validate_schedule(&p, &s) {
            Err(ScheduleViolation::ResourceCollision { a: x, b: y, .. }) => {
                assert_eq!((x, y), (a, b));
            }
            other => panic!("expected resource collision, got {other:?}"),
        }
    }

    #[test]
    fn inter_iteration_dependences_checked() {
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        pb.add_dep(a, a, 3, 1, DepKind::Flow, false);
        let p = pb.finish();
        // II=2 < required 3: the self-edge is violated by 1.
        let s = hand_schedule(2, vec![0, 0, 1]);
        assert!(matches!(
            validate_schedule(&p, &s),
            Err(ScheduleViolation::DependenceViolated { shortfall: 1, .. })
        ));
        let ok = hand_schedule(3, vec![0, 0, 1]);
        assert_eq!(validate_schedule(&p, &ok), Ok(()));
    }

    #[test]
    fn shape_and_start_checks() {
        let m = minimal();
        let (p, _, _) = two_op_problem(&m);
        let s = hand_schedule(2, vec![0, 0]);
        assert_eq!(
            validate_schedule(&p, &s),
            Err(ScheduleViolation::ShapeMismatch)
        );
        let s = hand_schedule(2, vec![1, 1, 2, 3]);
        assert_eq!(
            validate_schedule(&p, &s),
            Err(ScheduleViolation::StartNotAtZero)
        );
        let mut s = hand_schedule(2, vec![0, 0, 1, 2]);
        s.time[1] = -1;
        assert!(matches!(
            validate_schedule(&p, &s),
            Err(ScheduleViolation::NegativeTime { .. })
        ));
    }

    #[test]
    fn bad_alternative_detected() {
        let m = minimal();
        let (p, _, _) = two_op_problem(&m);
        let mut s = hand_schedule(2, vec![0, 0, 1, 2]);
        s.alternative[1] = 9;
        assert!(matches!(
            validate_schedule(&p, &s),
            Err(ScheduleViolation::BadAlternative { .. })
        ));
    }

    #[test]
    fn violations_display() {
        let v = ScheduleViolation::StartNotAtZero;
        assert!(!v.to_string().is_empty());
    }
}
