//! Temporal-logic trace checking for the PREPARE control loop.
//!
//! PR 5's robustness work made the control loop's event log the only
//! artifact that states what the closed loop actually did: staleness
//! budgets, abstaining votes, bounded retry/backoff, migration rollback
//! and episode abandonment all interleave there. Pinned-trace tests can
//! say "this exact run is unchanged" but not *why* a run is correct.
//! This crate ports the anvil-style idea of temporal liveness/safety
//! specs for cluster controllers (see PAPERS.md) into a runtime trace
//! checker:
//!
//! * [`Trace`] wraps a finished [`ControllerEvent`] log;
//! * combinators ([`always`], [`never`](fn@never), [`leads_to`], [`since`],
//!   [`forbidden_between`], [`eventually_within`]) express per-VM
//!   temporal obligations over it;
//! * [`properties::standard_properties`] is the registered catalogue of
//!   control-loop properties — every event variant must be covered by at
//!   least one registered property (`cargo xtask lint` enforces this);
//! * [`explore`] exhaustively enumerates chaos-fault interleavings on a
//!   tiny cluster and checks every resulting trace;
//! * the `prepare-tlc` binary wires all of it over the traces the repo
//!   produces (golden scenario, chaos suite, worker-invariance runs) and
//!   writes a violation report for CI.
//!
//! Simulated time is discrete seconds, so "ticks" in property windows
//! are [`Duration`] seconds.

pub mod explore;
pub mod properties;
pub mod suite;

use prepare_core::ControllerEvent;
use prepare_metrics::{Duration, Timestamp, VmId};
use std::fmt;

/// One failed temporal obligation, anchored at the event that (or the
/// moment when) the property became false.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the violated property.
    pub property: &'static str,
    /// When the violation was detected.
    pub at: Timestamp,
    /// What exactly went wrong, with the offending event(s).
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.property, self.message)
    }
}

/// A named temporal property checked over a complete event trace.
pub struct Property {
    /// Stable kebab-case name, used in reports and violation output.
    pub name: &'static str,
    /// One-line statement of the obligation.
    pub description: &'static str,
    check: fn(&Trace<'_>) -> Vec<Violation>,
}

impl Property {
    /// Wraps a checker function with its name and description.
    pub const fn new(
        name: &'static str,
        description: &'static str,
        check: fn(&Trace<'_>) -> Vec<Violation>,
    ) -> Self {
        Property {
            name,
            description,
            check,
        }
    }

    /// Runs the property over one trace.
    pub fn check(&self, trace: &Trace<'_>) -> Vec<Violation> {
        (self.check)(trace)
    }
}

impl fmt::Debug for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Property")
            .field("name", &self.name)
            .field("description", &self.description)
            .finish()
    }
}

/// A finished controller event log under checking.
///
/// The log is already time-ordered by construction (one controller
/// appending during a monotone simulation); same-timestamp events keep
/// their emission order, which the combinators treat as causal order.
#[derive(Debug, Clone, Copy)]
pub struct Trace<'a> {
    events: &'a [ControllerEvent],
}

impl<'a> Trace<'a> {
    /// Wraps an event log.
    pub fn new(events: &'a [ControllerEvent]) -> Self {
        Trace { events }
    }

    /// The wrapped events.
    pub fn events(&self) -> &'a [ControllerEvent] {
        self.events
    }

    /// Timestamp of the last event ([`Timestamp::ZERO`] when empty) —
    /// the horizon up to which obligations are falsifiable.
    pub fn end(&self) -> Timestamp {
        self.events
            .last()
            .map(ControllerEvent::time)
            .unwrap_or(Timestamp::ZERO)
    }
}

/// `always`: every event satisfies a state invariant. The closure
/// returns `Err(why)` for an event that breaks it.
pub fn always(
    trace: &Trace<'_>,
    property: &'static str,
    invariant: impl Fn(&ControllerEvent) -> Result<(), String>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for e in trace.events() {
        if let Err(message) = invariant(e) {
            out.push(Violation {
                property,
                at: e.time(),
                message,
            });
        }
    }
    out
}

/// `never`: no event matches the bad-state predicate. The closure
/// returns `Some(why)` for a forbidden event.
pub fn never(
    trace: &Trace<'_>,
    property: &'static str,
    bad: impl Fn(&ControllerEvent) -> Option<String>,
) -> Vec<Violation> {
    always(trace, property, |e| match bad(e) {
        Some(message) => Err(message),
        None => Ok(()),
    })
}

/// `eventually_within`: does any event strictly after log position
/// `from` and no later than `deadline` satisfy `pred`? Used by
/// [`leads_to`]; exposed for ad-hoc obligations.
pub fn eventually_within(
    trace: &Trace<'_>,
    from: usize,
    deadline: Timestamp,
    pred: impl Fn(&ControllerEvent) -> bool,
) -> bool {
    trace
        .events()
        .iter()
        .skip(from.saturating_add(1))
        .take_while(|e| e.time() <= deadline)
        .any(pred)
}

/// `leads_to`: every trigger event is answered by a response event for
/// the same VM within `within` seconds (same-timestamp responses later
/// in the log count — the controller often answers in the same round).
///
/// Truncation rule: a trigger whose deadline extends past the end of the
/// trace and that has no response yet is *not* a violation — the trace
/// ended before the obligation became falsifiable.
pub fn leads_to(
    trace: &Trace<'_>,
    property: &'static str,
    within: Duration,
    trigger: impl Fn(&ControllerEvent) -> Option<VmId>,
    response: impl Fn(&ControllerEvent) -> Option<VmId>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, e) in trace.events().iter().enumerate() {
        let Some(vm) = trigger(e) else {
            continue;
        };
        let deadline = e.time() + within;
        if eventually_within(trace, i, deadline, |r| response(r) == Some(vm)) {
            continue;
        }
        if trace.end() < deadline {
            continue; // truncated: not yet falsifiable
        }
        out.push(Violation {
            property,
            at: e.time(),
            message: format!(
                "{e:?} was never answered for {vm} within {}s",
                within.as_secs()
            ),
        });
    }
    out
}

/// `since`: every response event must be preceded (earlier in the log)
/// by an enabling event for the same VM, with no disabling event for
/// that VM in between. Pass a `disable` closure that never matches to
/// get the plain "requires a prior enabler" form.
pub fn since(
    trace: &Trace<'_>,
    property: &'static str,
    response: impl Fn(&ControllerEvent) -> Option<VmId>,
    enable: impl Fn(&ControllerEvent) -> Option<VmId>,
    disable: impl Fn(&ControllerEvent) -> Option<VmId>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, e) in trace.events().iter().enumerate() {
        let Some(vm) = response(e) else {
            continue;
        };
        // Walk backwards to the nearest enable/disable for this VM.
        let enabled = trace
            .events()
            .iter()
            .take(i)
            .rev()
            .find_map(|p| {
                if enable(p) == Some(vm) {
                    Some(true)
                } else if disable(p) == Some(vm) {
                    Some(false)
                } else {
                    None
                }
            })
            .unwrap_or(false);
        if !enabled {
            out.push(Violation {
                property,
                at: e.time(),
                message: format!("{e:?} happened for {vm} with no enabling event before it"),
            });
        }
    }
    out
}

/// `forbidden_between`: between a start marker and the matching end
/// marker for the same VM, no bad event for that VM may appear. The
/// interval is open at the start event itself (same-round events emitted
/// *before* the start marker are fine — the log order already encodes
/// that) and closes at the end marker.
pub fn forbidden_between(
    trace: &Trace<'_>,
    property: &'static str,
    start: impl Fn(&ControllerEvent) -> Option<VmId>,
    end: impl Fn(&ControllerEvent) -> Option<VmId>,
    bad: impl Fn(&ControllerEvent) -> Option<VmId>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut open: Vec<VmId> = Vec::new();
    for e in trace.events() {
        if let Some(vm) = end(e) {
            open.retain(|&v| v != vm);
        }
        if let Some(vm) = bad(e) {
            if open.contains(&vm) {
                out.push(Violation {
                    property,
                    at: e.time(),
                    message: format!("{e:?} fired for {vm} inside a forbidden window"),
                });
            }
        }
        if let Some(vm) = start(e) {
            if !open.contains(&vm) {
                open.push(vm);
            }
        }
    }
    out
}

/// Checks every property in `properties` over one event log and returns
/// all violations, in property order.
pub fn check_all(properties: &[Property], events: &[ControllerEvent]) -> Vec<Violation> {
    let trace = Trace::new(events);
    let mut out = Vec::new();
    for p in properties {
        out.extend(p.check(&trace));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    fn issued(at: u64, vm: usize) -> ControllerEvent {
        ControllerEvent::ActionIssued {
            at: t(at),
            vm: VmId(vm),
            action: "scale".into(),
            attribute: None,
        }
    }

    fn confirmed(at: u64, vm: usize) -> ControllerEvent {
        ControllerEvent::AlertConfirmed {
            at: t(at),
            vm: VmId(vm),
            ranked_attributes: vec![],
        }
    }

    fn as_confirmed(e: &ControllerEvent) -> Option<VmId> {
        match e {
            ControllerEvent::AlertConfirmed { vm, .. } => Some(*vm),
            _ => None,
        }
    }

    fn as_issued(e: &ControllerEvent) -> Option<VmId> {
        match e {
            ControllerEvent::ActionIssued { vm, .. } => Some(*vm),
            _ => None,
        }
    }

    #[test]
    fn leads_to_accepts_same_round_response() {
        let log = vec![confirmed(10, 0), issued(10, 0)];
        let tr = Trace::new(&log);
        assert!(leads_to(&tr, "p", Duration::from_secs(5), as_confirmed, as_issued).is_empty());
    }

    #[test]
    fn leads_to_flags_unanswered_trigger() {
        let log = vec![confirmed(10, 0), issued(11, 1), confirmed(200, 1)];
        let tr = Trace::new(&log);
        let v = leads_to(&tr, "p", Duration::from_secs(5), as_confirmed, as_issued);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].at, t(10));
    }

    #[test]
    fn leads_to_skips_truncated_trigger() {
        // The deadline (t=205) extends past the end of the trace (t=200):
        // not falsifiable, so not a violation.
        let log = vec![issued(10, 0), confirmed(200, 1)];
        let tr = Trace::new(&log);
        assert!(leads_to(&tr, "p", Duration::from_secs(5), as_confirmed, as_issued).is_empty());
    }

    #[test]
    fn since_requires_prior_enabler() {
        let log = vec![issued(10, 0), confirmed(20, 0)];
        let tr = Trace::new(&log);
        // issued-since-confirmed: the t=10 action has no prior confirm.
        let v = since(&tr, "p", as_issued, as_confirmed, |_| None);
        assert_eq!(v.len(), 1);
        let ok = vec![confirmed(5, 0), issued(10, 0)];
        assert!(since(&Trace::new(&ok), "p", as_issued, as_confirmed, |_| None).is_empty());
    }

    #[test]
    fn since_respects_disabling_events() {
        // confirm enables, a second issued consumes (disables): the
        // second action in a row has no fresh enabler.
        let log = vec![confirmed(5, 0), issued(10, 0), issued(20, 0)];
        let tr = Trace::new(&log);
        let v = since(&tr, "p", as_issued, as_confirmed, as_issued);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].at, t(20));
    }

    #[test]
    fn forbidden_between_tracks_per_vm_windows() {
        let log = vec![
            ControllerEvent::MonitoringDegraded {
                at: t(5),
                vm: VmId(0),
            },
            issued(6, 1), // other VM: allowed
            issued(7, 0), // inside the window: violation
            ControllerEvent::MonitoringRecovered {
                at: t(9),
                vm: VmId(0),
            },
            issued(10, 0), // window closed: allowed
        ];
        let tr = Trace::new(&log);
        let v = forbidden_between(
            &tr,
            "p",
            |e| match e {
                ControllerEvent::MonitoringDegraded { vm, .. } => Some(*vm),
                _ => None,
            },
            |e| match e {
                ControllerEvent::MonitoringRecovered { vm, .. } => Some(*vm),
                _ => None,
            },
            as_issued,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].at, t(7));
    }

    #[test]
    fn always_and_never_report_offenders() {
        let log = vec![confirmed(10, 0)];
        let tr = Trace::new(&log);
        assert_eq!(always(&tr, "p", |_| Err("no".into())).len(), 1);
        assert!(always(&tr, "p", |_| Ok(())).is_empty());
        assert_eq!(never(&tr, "p", |_| Some("bad".into())).len(), 1);
        assert!(never(&tr, "p", |_| None).is_empty());
    }
}
