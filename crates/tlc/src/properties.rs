//! The registered control-loop property catalogue.
//!
//! Every property here states a *global* obligation of the controller's
//! event log — the things pinned-trace tests cannot say. The catalogue
//! is the single registration point the `event-coverage` lint checks:
//! every [`ControllerEvent`] variant must be referenced by this crate,
//! and [`payload_sanity`]'s exhaustive match guarantees that adding a
//! variant without revisiting the checker is a compile error, not a
//! blind spot.
//!
//! | property | obligation |
//! |---|---|
//! | `events-time-ordered` | timestamps never go backwards |
//! | `payloads-well-formed` | per-variant payload sanity (finite scores, future deadlines, sorted VM lists, migration/attribute consistency) |
//! | `confirmed-alert-answered` | every confirmed alert is answered by an action, retry, failure, or abandonment within the decision window |
//! | `reactive-trigger-answered` | every reactive trigger is answered the same way |
//! | `retry-attempts-bounded` | `ActionRetried` chains count 1, 2, … up to the retry limit — never past it, never out of order |
//! | `retry-chain-terminates` | a scheduled retry is always followed by an issue, failure, abandonment, resolution, or monitoring degradation — no livelock |
//! | `backoff-monotone-capped` | each retry's backoff equals `base << (attempt-1)` capped, so the schedule is monotone and bounded |
//! | `silent-while-degraded` | no alert, trigger, actuation, or validation verdict for a VM between `MonitoringDegraded` and `MonitoringRecovered` |
//! | `degraded-recovered-alternate` | degradation markers strictly alternate per VM |
//! | `rollback-implies-migration` | every rollback consumes a preceding migration start for the same VM |
//! | `confirmed-implies-raised` | a confirmed alert needs at least one prior raw alert for the VM |
//! | `trained-before-acting` | alerts, triggers, and actions only touch VMs that appeared in a prior `ModelsTrained` |
//! | `abandon-silences-vm` | after `ActionAbandoned`, the VM stays quiet until its suppression deadline |
//! | `validation-needs-episode` | validation verdicts only happen inside an open episode |
//! | `migration-no-flapping` | two migration starts of one VM within the cooldown require an intervening rollback |
//! | `no-duplicate-actuation` | no action is issued twice with an identical payload — a crash replay must never re-apply an actuation |
//! | `recovery-follows-crash` | crash and recovery markers strictly alternate, and no crash goes unrecovered |
//! | `checkpoint-liveness` | on checkpointed runs, consecutive checkpoints (and the trace tail) stay within the liveness window |

use crate::{always, forbidden_between, leads_to, since, Property, Trace, Violation};
use prepare_core::{
    ControllerEvent, MIGRATE_RETRY_BASE_SECS, MIGRATION_COOLDOWN_SECS, RETRY_BACKOFF_CAP_SECS,
    SCALE_RETRY_BASE_SECS, TRANSIENT_RETRY_LIMIT,
};
use prepare_metrics::{Duration, Timestamp, VmId};

/// How long a confirmed alert or reactive trigger may go unanswered
/// (seconds). The controller acts in the same round it opens an episode,
/// so this is generous; it exists to keep the obligation meaningful if
/// acting ever becomes deferred.
pub const DECISION_WINDOW_SECS: u64 = 60;

/// How long a scheduled retry may dangle before something terminal (or a
/// monitoring degradation that parks it) shows up: the backoff cap plus
/// two sampling rounds of slack.
pub const RETRY_ANSWER_SECS: u64 = RETRY_BACKOFF_CAP_SECS + 10;

/// Maximum seconds between checkpoints on a run that checkpoints at all
/// (seen via `CheckpointTaken`), and from the last checkpoint to the end
/// of the trace. Runs without a recovery manager emit no checkpoint
/// events and are exempt — the obligation is "if you promise durability,
/// keep promising it", not "every run must checkpoint".
pub const CHECKPOINT_LIVENESS_SECS: u64 = 300;

// ---- per-variant views -------------------------------------------------

fn confirmed_vm(e: &ControllerEvent) -> Option<VmId> {
    if let ControllerEvent::AlertConfirmed { vm, .. } = e {
        Some(*vm)
    } else {
        None
    }
}

fn raised_vm(e: &ControllerEvent) -> Option<VmId> {
    if let ControllerEvent::AlertRaised { vm, .. } = e {
        Some(*vm)
    } else {
        None
    }
}

fn reactive_vm(e: &ControllerEvent) -> Option<VmId> {
    if let ControllerEvent::ReactiveTriggered { vm, .. } = e {
        Some(*vm)
    } else {
        None
    }
}

fn issued_vm(e: &ControllerEvent) -> Option<VmId> {
    if let ControllerEvent::ActionIssued { vm, .. } = e {
        Some(*vm)
    } else {
        None
    }
}

fn retried_vm(e: &ControllerEvent) -> Option<VmId> {
    if let ControllerEvent::ActionRetried { vm, .. } = e {
        Some(*vm)
    } else {
        None
    }
}

fn failed_vm(e: &ControllerEvent) -> Option<VmId> {
    if let ControllerEvent::ActionFailed { vm, .. } = e {
        Some(*vm)
    } else {
        None
    }
}

fn abandoned_vm(e: &ControllerEvent) -> Option<VmId> {
    if let ControllerEvent::ActionAbandoned { vm, .. } = e {
        Some(*vm)
    } else {
        None
    }
}

fn rolled_back_vm(e: &ControllerEvent) -> Option<VmId> {
    if let ControllerEvent::ActionRolledBack { vm, .. } = e {
        Some(*vm)
    } else {
        None
    }
}

fn degraded_vm(e: &ControllerEvent) -> Option<VmId> {
    if let ControllerEvent::MonitoringDegraded { vm, .. } = e {
        Some(*vm)
    } else {
        None
    }
}

fn recovered_vm(e: &ControllerEvent) -> Option<VmId> {
    if let ControllerEvent::MonitoringRecovered { vm, .. } = e {
        Some(*vm)
    } else {
        None
    }
}

fn validation_ok_vm(e: &ControllerEvent) -> Option<VmId> {
    if let ControllerEvent::ValidationSucceeded { vm, .. } = e {
        Some(*vm)
    } else {
        None
    }
}

fn validation_bad_vm(e: &ControllerEvent) -> Option<VmId> {
    if let ControllerEvent::ValidationIneffective { vm, .. } = e {
        Some(*vm)
    } else {
        None
    }
}

fn validation_vm(e: &ControllerEvent) -> Option<VmId> {
    validation_ok_vm(e).or_else(|| validation_bad_vm(e))
}

/// Any event that answers a confirmed alert or reactive trigger: the
/// controller did something, deferred it, failed honestly, or gave up
/// on record.
fn decision_vm(e: &ControllerEvent) -> Option<VmId> {
    issued_vm(e)
        .or_else(|| retried_vm(e))
        .or_else(|| failed_vm(e))
        .or_else(|| abandoned_vm(e))
}

/// A migration start: `ActionIssued` carries no blamed attribute only
/// for live migration.
fn migration_start_vm(e: &ControllerEvent) -> Option<VmId> {
    if let ControllerEvent::ActionIssued { vm, attribute, .. } = e {
        if attribute.is_none() {
            return Some(*vm);
        }
    }
    None
}

// ---- properties --------------------------------------------------------

fn events_time_ordered(trace: &Trace<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut last = Timestamp::ZERO;
    for e in trace.events() {
        if e.time() < last {
            out.push(Violation {
                property: "events-time-ordered",
                at: e.time(),
                message: format!("{e:?} is stamped before the preceding event ({last})"),
            });
        }
        last = e.time();
    }
    out
}

/// Exhaustive per-variant payload checks. This match intentionally has
/// no wildcard arm (the `event-wildcard` lint forbids one here): a new
/// event variant must state its payload obligations before the checker
/// compiles again.
fn payload_sanity(trace: &Trace<'_>) -> Vec<Violation> {
    always(trace, "payloads-well-formed", |e| match e {
        ControllerEvent::ModelsTrained { at: _, vms } => {
            if vms.is_empty() {
                return Err("training event with no trained VMs".into());
            }
            if !vms.windows(2).all(|w| w.first() < w.last()) {
                return Err(format!("trained VM list not strictly sorted: {vms:?}"));
            }
            Ok(())
        }
        ControllerEvent::AlertRaised {
            at: _,
            vm: _,
            score,
        } => {
            if score.is_finite() {
                Ok(())
            } else {
                Err(format!("non-finite alert score {score}"))
            }
        }
        ControllerEvent::AlertConfirmed { .. } => Ok(()),
        ControllerEvent::WorkloadChangeInferred { at: _ } => Ok(()),
        ControllerEvent::ReactiveTriggered { .. } => Ok(()),
        ControllerEvent::ActionIssued {
            at: _,
            vm: _,
            action,
            attribute,
        } => {
            let is_migration = action.starts_with("migrate ");
            if is_migration && attribute.is_some() {
                return Err(format!("migration `{action}` blames an attribute"));
            }
            if !is_migration && attribute.is_none() {
                return Err(format!("scaling action `{action}` blames no attribute"));
            }
            Ok(())
        }
        ControllerEvent::ActionFailed {
            at: _,
            vm: _,
            reason,
            kind,
        } => {
            if reason.is_empty() {
                return Err(format!("{kind:?} failure with an empty reason"));
            }
            Ok(())
        }
        ControllerEvent::ActionRetried {
            at,
            vm: _,
            action: _,
            attempt,
            retry_at,
        } => {
            if retry_at <= at {
                return Err(format!("retry scheduled at {retry_at}, not after {at}"));
            }
            if *attempt == 0 {
                return Err("retry attempt numbering must start at 1".into());
            }
            Ok(())
        }
        ControllerEvent::ActionAbandoned {
            at,
            vm: _,
            suppressed_until,
        } => {
            if suppressed_until <= at {
                return Err(format!(
                    "abandonment suppression ends at {suppressed_until}, not after {at}"
                ));
            }
            Ok(())
        }
        ControllerEvent::ActionRolledBack {
            at: _,
            vm: _,
            target,
        } => {
            if target.is_empty() {
                return Err("rollback with no migration target recorded".into());
            }
            Ok(())
        }
        ControllerEvent::MonitoringDegraded { .. } => Ok(()),
        ControllerEvent::MonitoringRecovered { .. } => Ok(()),
        ControllerEvent::ValidationSucceeded { .. } => Ok(()),
        ControllerEvent::ValidationIneffective { .. } => Ok(()),
        ControllerEvent::ControllerCrashed { .. } => Ok(()),
        ControllerEvent::CheckpointTaken { at: _, bytes } => {
            if *bytes == 0 {
                return Err("checkpoint claims zero serialized bytes".into());
            }
            Ok(())
        }
        ControllerEvent::JournalTruncated { at: _, records } => {
            // The journal is only truncated right after a checkpoint, and
            // a checkpoint only lands after at least one journaled round.
            if *records == 0 {
                return Err("journal truncated with zero records covered".into());
            }
            Ok(())
        }
        // `replayed` may legitimately be zero: a crash in the same round
        // a checkpoint sealed leaves an empty journal suffix.
        ControllerEvent::RecoveryCompleted { .. } => Ok(()),
    })
}

fn confirmed_alert_answered(trace: &Trace<'_>) -> Vec<Violation> {
    leads_to(
        trace,
        "confirmed-alert-answered",
        Duration::from_secs(DECISION_WINDOW_SECS),
        confirmed_vm,
        decision_vm,
    )
}

fn reactive_trigger_answered(trace: &Trace<'_>) -> Vec<Violation> {
    leads_to(
        trace,
        "reactive-trigger-answered",
        Duration::from_secs(DECISION_WINDOW_SECS),
        reactive_vm,
        decision_vm,
    )
}

/// Retry chains count 1, 2, 3, … and never exceed the retry limit. A
/// chain is broken (reset) by any non-retry action event for the VM, and
/// by the validation verdict that closes its episode: an episode may
/// resolve with a retry still pending, and the next one starts at 1.
fn retry_attempts_bounded(trace: &Trace<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut chains: Vec<(VmId, usize)> = Vec::new();
    for e in trace.events() {
        if let ControllerEvent::ActionRetried {
            at, vm, attempt, ..
        } = e
        {
            let prev = chains
                .iter()
                .find(|(v, _)| v == vm)
                .map(|&(_, a)| a)
                .unwrap_or(0);
            if *attempt != prev + 1 {
                out.push(Violation {
                    property: "retry-attempts-bounded",
                    at: *at,
                    message: format!("retry attempt {attempt} for {vm} follows attempt {prev}"),
                });
            }
            if *attempt > TRANSIENT_RETRY_LIMIT {
                out.push(Violation {
                    property: "retry-attempts-bounded",
                    at: *at,
                    message: format!(
                        "retry attempt {attempt} for {vm} exceeds the limit of \
                         {TRANSIENT_RETRY_LIMIT}"
                    ),
                });
            }
            chains.retain(|(v, _)| v != vm);
            chains.push((*vm, *attempt));
        } else if let Some(vm) = issued_vm(e)
            .or_else(|| failed_vm(e))
            .or_else(|| abandoned_vm(e))
            .or_else(|| validation_ok_vm(e))
        {
            chains.retain(|(v, _)| *v != vm);
        }
    }
    out
}

/// No livelock: a scheduled retry is always followed by something
/// terminal for the VM — the action finally issues, fails permanently,
/// the episode is abandoned or validated as resolved — or by a
/// monitoring degradation, which parks the retry until evidence returns.
fn retry_chain_terminates(trace: &Trace<'_>) -> Vec<Violation> {
    leads_to(
        trace,
        "retry-chain-terminates",
        Duration::from_secs(RETRY_ANSWER_SECS),
        retried_vm,
        |e| {
            decision_vm(e)
                .or_else(|| validation_ok_vm(e))
                .or_else(|| rolled_back_vm(e))
                .or_else(|| degraded_vm(e))
        },
    )
}

/// Backoff is exactly `base << (attempt-1)`, capped — hence monotone
/// per chain and never above the cap. The base is 5 s for scaling and
/// 10 s for migration (identified by the action text).
fn backoff_monotone_capped(trace: &Trace<'_>) -> Vec<Violation> {
    always(trace, "backoff-monotone-capped", |e| {
        if let ControllerEvent::ActionRetried {
            at,
            vm: _,
            action,
            attempt,
            retry_at,
        } = e
        {
            let base = if action.starts_with("migrate ") {
                MIGRATE_RETRY_BASE_SECS
            } else {
                SCALE_RETRY_BASE_SECS
            };
            let shift = u32::try_from(attempt.saturating_sub(1)).unwrap_or(u32::MAX);
            let expected = base
                .checked_shl(shift)
                .unwrap_or(u64::MAX)
                .min(RETRY_BACKOFF_CAP_SECS);
            let gap = retry_at.since(*at).as_secs();
            if gap != expected {
                return Err(format!(
                    "attempt {attempt} of `{action}` backs off {gap}s, expected {expected}s"
                ));
            }
        }
        Ok(())
    })
}

/// While the controller is blind on a VM it must stay silent about it:
/// no raw or confirmed alerts, no reactive blame, no actuation, no
/// validation verdicts. (Observing a hypervisor-initiated rollback is
/// allowed — that is evidence arriving, not a decision being made.)
fn silent_while_degraded(trace: &Trace<'_>) -> Vec<Violation> {
    forbidden_between(
        trace,
        "silent-while-degraded",
        degraded_vm,
        recovered_vm,
        |e| {
            raised_vm(e)
                .or_else(|| confirmed_vm(e))
                .or_else(|| reactive_vm(e))
                .or_else(|| decision_vm(e))
                .or_else(|| validation_vm(e))
        },
    )
}

/// Degradation markers strictly alternate per VM: no double degrade, no
/// recovery without a preceding degradation.
fn degraded_recovered_alternate(trace: &Trace<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut down: Vec<VmId> = Vec::new();
    for e in trace.events() {
        if let Some(vm) = degraded_vm(e) {
            if down.contains(&vm) {
                out.push(Violation {
                    property: "degraded-recovered-alternate",
                    at: e.time(),
                    message: format!("{vm} degraded twice with no recovery in between"),
                });
            } else {
                down.push(vm);
            }
        } else if let Some(vm) = recovered_vm(e) {
            if down.contains(&vm) {
                down.retain(|&v| v != vm);
            } else {
                out.push(Violation {
                    property: "degraded-recovered-alternate",
                    at: e.time(),
                    message: format!("{vm} recovered without being degraded"),
                });
            }
        }
    }
    out
}

/// Every rollback consumes exactly one preceding migration start for the
/// same VM: an earlier `ActionIssued` migration enables it, an earlier
/// rollback consumes that enabler.
fn rollback_implies_migration(trace: &Trace<'_>) -> Vec<Violation> {
    since(
        trace,
        "rollback-implies-migration",
        rolled_back_vm,
        migration_start_vm,
        rolled_back_vm,
    )
}

/// k-of-W filtering cannot confirm out of thin air: a confirmed alert
/// needs at least one prior raw alert from the same VM.
fn confirmed_implies_raised(trace: &Trace<'_>) -> Vec<Violation> {
    since(
        trace,
        "confirmed-implies-raised",
        confirmed_vm,
        raised_vm,
        |_| None,
    )
}

/// Nothing predictive, diagnostic, or actuating happens to a VM whose
/// model never trained: the VM must appear in an earlier
/// `ModelsTrained` list first.
fn trained_before_acting(trace: &Trace<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut trained: Vec<VmId> = Vec::new();
    for e in trace.events() {
        if let ControllerEvent::ModelsTrained { at: _, vms } = e {
            for &vm in vms {
                if !trained.contains(&vm) {
                    trained.push(vm);
                }
            }
        } else if let Some(vm) = raised_vm(e)
            .or_else(|| confirmed_vm(e))
            .or_else(|| reactive_vm(e))
            .or_else(|| issued_vm(e))
        {
            if !trained.contains(&vm) {
                out.push(Violation {
                    property: "trained-before-acting",
                    at: e.time(),
                    message: format!("{e:?} touches {vm} before any model trained for it"),
                });
            }
        }
    }
    out
}

/// Abandonment is honored: after `ActionAbandoned` the VM emits no
/// confirmations, triggers, actions, or verdicts until its suppression
/// deadline (raw alerts may still be raised — suppression mutes the
/// response, not the predictor).
fn abandon_silences_vm(trace: &Trace<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, e) in trace.events().iter().enumerate() {
        let ControllerEvent::ActionAbandoned {
            at: _,
            vm,
            suppressed_until,
        } = e
        else {
            continue;
        };
        for later in trace.events().iter().skip(i.saturating_add(1)) {
            if later.time() >= *suppressed_until {
                break;
            }
            let touched = confirmed_vm(later)
                .or_else(|| reactive_vm(later))
                .or_else(|| decision_vm(later))
                .or_else(|| validation_vm(later));
            if touched == Some(*vm) {
                out.push(Violation {
                    property: "abandon-silences-vm",
                    at: later.time(),
                    message: format!(
                        "{later:?} touches {vm} during suppression (until {suppressed_until})"
                    ),
                });
            }
        }
    }
    out
}

/// Validation verdicts only make sense inside an open episode: the
/// nearest preceding episode boundary for the VM must be an opener
/// (`AlertConfirmed` / `ReactiveTriggered`), not a closer
/// (`ValidationSucceeded` / `ActionAbandoned`).
fn validation_needs_episode(trace: &Trace<'_>) -> Vec<Violation> {
    since(
        trace,
        "validation-needs-episode",
        validation_vm,
        |e| confirmed_vm(e).or_else(|| reactive_vm(e)),
        |e| validation_ok_vm(e).or_else(|| abandoned_vm(e)),
    )
}

/// No migration ping-pong: two migration starts of the same VM inside
/// the cooldown window are only legitimate when the first one was rolled
/// back by the hypervisor in between.
fn migration_no_flapping(trace: &Trace<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut last_start: Vec<(VmId, Timestamp)> = Vec::new();
    for e in trace.events() {
        if let Some(vm) = rolled_back_vm(e) {
            last_start.retain(|&(v, _)| v != vm);
        } else if let Some(vm) = migration_start_vm(e) {
            if let Some(&(_, prev)) = last_start.iter().find(|(v, _)| *v == vm) {
                let gap = e.time().since(prev).as_secs();
                if gap < MIGRATION_COOLDOWN_SECS {
                    out.push(Violation {
                        property: "migration-no-flapping",
                        at: e.time(),
                        message: format!(
                            "{vm} migrated again {gap}s after the previous start \
                             (cooldown {MIGRATION_COOLDOWN_SECS}s, no rollback in between)"
                        ),
                    });
                }
            }
            last_start.retain(|&(v, _)| v != vm);
            last_start.push((vm, e.time()));
        }
    }
    out
}

/// An actuation must never be applied twice: two `ActionIssued` events
/// with identical payloads (same round, VM, and action text) mean a
/// crash replay re-executed an action the cluster had already absorbed.
/// The controller issues at most one action per VM per round, so an
/// exact duplicate is always a double-application, never a legitimate
/// repeat.
fn no_duplicate_actuation(trace: &Trace<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut seen: Vec<(Timestamp, VmId, &str)> = Vec::new();
    for e in trace.events() {
        let ControllerEvent::ActionIssued { at, vm, action, .. } = e else {
            continue;
        };
        let key = (*at, *vm, action.as_str());
        if seen.contains(&key) {
            out.push(Violation {
                property: "no-duplicate-actuation",
                at: *at,
                message: format!(
                    "`{action}` issued twice for {vm} at {at} — an actuation crossed \
                     a crash boundary twice"
                ),
            });
        } else {
            seen.push(key);
        }
    }
    out
}

/// Crash/recovery causality: every `RecoveryCompleted` answers exactly
/// one preceding `ControllerCrashed`, a second crash cannot strike while
/// one is still unrecovered (the process is already down), and a trace
/// must not end with a crash left unrecovered.
fn recovery_follows_crash(trace: &Trace<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut pending: Option<Timestamp> = None;
    for e in trace.events() {
        if let ControllerEvent::ControllerCrashed { at } = e {
            if let Some(prev) = pending {
                out.push(Violation {
                    property: "recovery-follows-crash",
                    at: *at,
                    message: format!(
                        "controller crashed again before the crash at {prev} was recovered"
                    ),
                });
            }
            pending = Some(*at);
        } else if let ControllerEvent::RecoveryCompleted { at, .. } = e {
            if pending.take().is_none() {
                out.push(Violation {
                    property: "recovery-follows-crash",
                    at: *at,
                    message: "recovery completed with no preceding crash".to_string(),
                });
            }
        }
    }
    if let Some(at) = pending {
        out.push(Violation {
            property: "recovery-follows-crash",
            at,
            message: "trace ends with the crash still unrecovered".to_string(),
        });
    }
    out
}

/// Checkpoint liveness: a run that checkpoints at all must keep doing so
/// — consecutive `CheckpointTaken` events no more than
/// [`CHECKPOINT_LIVENESS_SECS`] apart, and the trace must not run past
/// the last checkpoint by more than that window.
fn checkpoint_liveness(trace: &Trace<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut last: Option<Timestamp> = None;
    for e in trace.events() {
        let ControllerEvent::CheckpointTaken { at, .. } = e else {
            continue;
        };
        if let Some(prev) = last {
            let gap = at.since(prev).as_secs();
            if gap > CHECKPOINT_LIVENESS_SECS {
                out.push(Violation {
                    property: "checkpoint-liveness",
                    at: *at,
                    message: format!(
                        "{gap}s since the previous checkpoint at {prev} \
                         (liveness window {CHECKPOINT_LIVENESS_SECS}s)"
                    ),
                });
            }
        }
        last = Some(*at);
    }
    if let Some(prev) = last {
        let tail = trace.end().since(prev).as_secs();
        if tail > CHECKPOINT_LIVENESS_SECS {
            out.push(Violation {
                property: "checkpoint-liveness",
                at: trace.end(),
                message: format!(
                    "trace runs {tail}s past the last checkpoint at {prev} \
                     (liveness window {CHECKPOINT_LIVENESS_SECS}s)"
                ),
            });
        }
    }
    out
}

/// The registered property catalogue, in report order.
pub fn standard_properties() -> Vec<Property> {
    vec![
        Property::new(
            "events-time-ordered",
            "event timestamps never go backwards",
            events_time_ordered,
        ),
        Property::new(
            "payloads-well-formed",
            "every event's payload is internally consistent",
            payload_sanity,
        ),
        Property::new(
            "confirmed-alert-answered",
            "every confirmed alert leads to an action, retry, failure, or abandonment",
            confirmed_alert_answered,
        ),
        Property::new(
            "reactive-trigger-answered",
            "every reactive trigger leads to an action, retry, failure, or abandonment",
            reactive_trigger_answered,
        ),
        Property::new(
            "retry-attempts-bounded",
            "retry chains count upward from 1 and never exceed the retry limit",
            retry_attempts_bounded,
        ),
        Property::new(
            "retry-chain-terminates",
            "every scheduled retry reaches a terminal event or is parked by degradation",
            retry_chain_terminates,
        ),
        Property::new(
            "backoff-monotone-capped",
            "retry backoff doubles from its base and is capped",
            backoff_monotone_capped,
        ),
        Property::new(
            "silent-while-degraded",
            "no alerts, actuation, or verdicts for a VM while its monitoring is degraded",
            silent_while_degraded,
        ),
        Property::new(
            "degraded-recovered-alternate",
            "monitoring degradation markers strictly alternate per VM",
            degraded_recovered_alternate,
        ),
        Property::new(
            "rollback-implies-migration",
            "every rollback consumes a preceding migration start",
            rollback_implies_migration,
        ),
        Property::new(
            "confirmed-implies-raised",
            "confirmed alerts require a prior raw alert",
            confirmed_implies_raised,
        ),
        Property::new(
            "trained-before-acting",
            "alerts and actions only touch VMs with trained models",
            trained_before_acting,
        ),
        Property::new(
            "abandon-silences-vm",
            "an abandoned VM stays quiet until its suppression deadline",
            abandon_silences_vm,
        ),
        Property::new(
            "validation-needs-episode",
            "validation verdicts only happen inside an open episode",
            validation_needs_episode,
        ),
        Property::new(
            "migration-no-flapping",
            "re-migrating a VM inside the cooldown requires an intervening rollback",
            migration_no_flapping,
        ),
        Property::new(
            "no-duplicate-actuation",
            "no action is ever issued twice with an identical payload",
            no_duplicate_actuation,
        ),
        Property::new(
            "recovery-follows-crash",
            "crash and recovery markers strictly alternate and every crash is recovered",
            recovery_follows_crash,
        ),
        Property::new(
            "checkpoint-liveness",
            "checkpointed runs seal a checkpoint within every liveness window",
            checkpoint_liveness,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_all;
    use prepare_metrics::AttributeKind;

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    #[test]
    fn catalogue_meets_the_size_floor() {
        let props = standard_properties();
        assert!(props.len() >= 10, "need at least 10 registered properties");
        let mut names: Vec<&str> = props.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), props.len(), "property names must be unique");
    }

    #[test]
    fn clean_synthetic_trace_passes() {
        let log = vec![
            ControllerEvent::ModelsTrained {
                at: t(100),
                vms: vec![VmId(0), VmId(1)],
            },
            ControllerEvent::AlertRaised {
                at: t(200),
                vm: VmId(0),
                score: 2.0,
            },
            ControllerEvent::AlertConfirmed {
                at: t(210),
                vm: VmId(0),
                ranked_attributes: vec![AttributeKind::FreeMem],
            },
            ControllerEvent::ActionIssued {
                at: t(210),
                vm: VmId(0),
                action: "scale vm0 mem to 666MB".into(),
                attribute: Some(AttributeKind::FreeMem),
            },
            ControllerEvent::ValidationSucceeded {
                at: t(240),
                vm: VmId(0),
            },
        ];
        assert_eq!(check_all(&standard_properties(), &log), vec![]);
    }

    #[test]
    fn out_of_order_retry_attempts_are_flagged() {
        let retried = |at: u64, attempt: usize, backoff: u64| ControllerEvent::ActionRetried {
            at: t(at),
            vm: VmId(0),
            action: "scale vm0 mem to 666MB".into(),
            attempt,
            retry_at: t(at + backoff),
        };
        // 1 → 3 skips an attempt.
        let log = vec![retried(100, 1, 5), retried(105, 3, 20)];
        let v = retry_attempts_bounded(&Trace::new(&log));
        assert_eq!(v.len(), 1);
        // Past the limit.
        let log = vec![
            retried(100, 1, 5),
            retried(105, 2, 10),
            retried(115, 3, 20),
            retried(135, 4, 40),
            retried(175, 5, 60),
        ];
        let v = retry_attempts_bounded(&Trace::new(&log));
        assert_eq!(v.len(), 1, "attempt 5 exceeds the limit: {v:?}");
    }

    /// An episode that resolves with a retry still pending closes the
    /// chain: the next episode's first retry is attempt 1 again.
    #[test]
    fn resolved_episode_closes_the_retry_chain() {
        let retried = |at: u64, attempt: usize, backoff: u64| ControllerEvent::ActionRetried {
            at: t(at),
            vm: VmId(0),
            action: "scale vm0 mem to 666MB".into(),
            attempt,
            retry_at: t(at + backoff),
        };
        let log = vec![
            retried(100, 1, 5),
            retried(105, 2, 10),
            ControllerEvent::ValidationSucceeded {
                at: t(110),
                vm: VmId(0),
            },
            retried(300, 1, 5),
        ];
        assert_eq!(retry_attempts_bounded(&Trace::new(&log)), vec![]);
    }

    #[test]
    fn backoff_shape_is_enforced() {
        let log = vec![ControllerEvent::ActionRetried {
            at: t(100),
            vm: VmId(0),
            action: "scale vm0 cpu to 130".into(),
            attempt: 2,
            retry_at: t(115), // should be 100 + (5 << 1) = 110
        }];
        assert_eq!(backoff_monotone_capped(&Trace::new(&log)).len(), 1);
        let ok = vec![
            ControllerEvent::ActionRetried {
                at: t(100),
                vm: VmId(0),
                action: "migrate vm0 to host1".into(),
                attempt: 4,
                retry_at: t(160), // 10 << 3 = 80, capped to 60
            },
            ControllerEvent::ActionRetried {
                at: t(200),
                vm: VmId(1),
                action: "scale vm1 cpu to 130".into(),
                attempt: 1,
                retry_at: t(205),
            },
        ];
        assert_eq!(backoff_monotone_capped(&Trace::new(&ok)), vec![]);
    }

    #[test]
    fn rollback_without_migration_is_flagged() {
        let log = vec![ControllerEvent::ActionRolledBack {
            at: t(100),
            vm: VmId(0),
            target: "host1".into(),
        }];
        assert_eq!(rollback_implies_migration(&Trace::new(&log)).len(), 1);
        // A migration start enables exactly one rollback.
        let log = vec![
            ControllerEvent::ActionIssued {
                at: t(90),
                vm: VmId(0),
                action: "migrate vm0 to host1".into(),
                attribute: None,
            },
            ControllerEvent::ActionRolledBack {
                at: t(100),
                vm: VmId(0),
                target: "host1".into(),
            },
            ControllerEvent::ActionRolledBack {
                at: t(110),
                vm: VmId(0),
                target: "host1".into(),
            },
        ];
        assert_eq!(rollback_implies_migration(&Trace::new(&log)).len(), 1);
    }

    #[test]
    fn actuation_while_degraded_is_flagged() {
        let log = vec![
            ControllerEvent::ModelsTrained {
                at: t(50),
                vms: vec![VmId(0)],
            },
            ControllerEvent::MonitoringDegraded {
                at: t(100),
                vm: VmId(0),
            },
            ControllerEvent::ActionIssued {
                at: t(110),
                vm: VmId(0),
                action: "scale vm0 cpu to 130".into(),
                attribute: Some(AttributeKind::CpuTotal),
            },
            ControllerEvent::MonitoringRecovered {
                at: t(120),
                vm: VmId(0),
            },
        ];
        let v = silent_while_degraded(&Trace::new(&log));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].at, t(110));
    }

    #[test]
    fn suppression_window_is_enforced() {
        let log = vec![
            ControllerEvent::ActionAbandoned {
                at: t(100),
                vm: VmId(0),
                suppressed_until: t(160),
            },
            ControllerEvent::ReactiveTriggered {
                at: t(130),
                vm: VmId(0),
            },
        ];
        assert_eq!(abandon_silences_vm(&Trace::new(&log)).len(), 1);
        // At or after the deadline is fine.
        let log = vec![
            ControllerEvent::ActionAbandoned {
                at: t(100),
                vm: VmId(0),
                suppressed_until: t(160),
            },
            ControllerEvent::ReactiveTriggered {
                at: t(160),
                vm: VmId(0),
            },
        ];
        assert_eq!(abandon_silences_vm(&Trace::new(&log)), vec![]);
    }

    #[test]
    fn duplicate_actuation_is_flagged() {
        let issue = |at: u64| ControllerEvent::ActionIssued {
            at: t(at),
            vm: VmId(0),
            action: "scale vm0 mem to 666MB".into(),
            attribute: Some(AttributeKind::FreeMem),
        };
        // The same payload twice: a replayed actuation.
        let log = vec![issue(100), issue(100)];
        let v = no_duplicate_actuation(&Trace::new(&log));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].at, t(100));
        // Same action at a later round is a legitimate re-issue.
        let log = vec![issue(100), issue(200)];
        assert_eq!(no_duplicate_actuation(&Trace::new(&log)), vec![]);
    }

    #[test]
    fn crash_recovery_alternation_is_enforced() {
        let crash = |at: u64| ControllerEvent::ControllerCrashed { at: t(at) };
        let recovered = |at: u64, replayed: usize| ControllerEvent::RecoveryCompleted {
            at: t(at),
            replayed,
        };
        // Clean alternation, including a crash with an empty journal.
        let log = vec![crash(100), recovered(100, 7), crash(200), recovered(200, 0)];
        assert_eq!(recovery_follows_crash(&Trace::new(&log)), vec![]);
        // Recovery out of thin air.
        let log = vec![recovered(100, 1)];
        assert_eq!(recovery_follows_crash(&Trace::new(&log)).len(), 1);
        // Double crash with no recovery in between.
        let log = vec![crash(100), crash(150), recovered(150, 2)];
        assert_eq!(recovery_follows_crash(&Trace::new(&log)).len(), 1);
        // A crash the trace never recovers from.
        let log = vec![crash(100)];
        let v = recovery_follows_crash(&Trace::new(&log));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].at, t(100));
    }

    #[test]
    fn checkpoint_liveness_bounds_gaps_and_tail() {
        let ckpt = |at: u64| ControllerEvent::CheckpointTaken {
            at: t(at),
            bytes: 4096,
        };
        // No checkpoints at all: vacuously fine (unmanaged run).
        let log = vec![ControllerEvent::MonitoringDegraded {
            at: t(1000),
            vm: VmId(0),
        }];
        assert_eq!(checkpoint_liveness(&Trace::new(&log)), vec![]);
        // Gaps inside the window and a short tail: fine.
        let log = vec![
            ckpt(100),
            ckpt(100 + CHECKPOINT_LIVENESS_SECS),
            ControllerEvent::MonitoringDegraded {
                at: t(150 + CHECKPOINT_LIVENESS_SECS),
                vm: VmId(0),
            },
        ];
        assert_eq!(checkpoint_liveness(&Trace::new(&log)), vec![]);
        // A gap past the window.
        let log = vec![ckpt(100), ckpt(101 + CHECKPOINT_LIVENESS_SECS)];
        assert_eq!(checkpoint_liveness(&Trace::new(&log)).len(), 1);
        // The run outlives its last checkpoint by more than the window.
        let log = vec![
            ckpt(100),
            ControllerEvent::MonitoringDegraded {
                at: t(101 + CHECKPOINT_LIVENESS_SECS),
                vm: VmId(0),
            },
        ];
        let v = checkpoint_liveness(&Trace::new(&log));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].at, t(101 + CHECKPOINT_LIVENESS_SECS));
    }

    #[test]
    fn migration_flapping_is_flagged() {
        let migrate = |at: u64| ControllerEvent::ActionIssued {
            at: t(at),
            vm: VmId(0),
            action: "migrate vm0 to host1".into(),
            attribute: None,
        };
        let rollback = |at: u64| ControllerEvent::ActionRolledBack {
            at: t(at),
            vm: VmId(0),
            target: "host1".into(),
        };
        // Two starts 30 s apart with no rollback: flapping.
        let log = vec![migrate(100), migrate(130)];
        assert_eq!(migration_no_flapping(&Trace::new(&log)).len(), 1);
        // A rollback in between legitimizes the quick re-attempt.
        let log = vec![migrate(100), rollback(110), migrate(130)];
        assert_eq!(migration_no_flapping(&Trace::new(&log)), vec![]);
        // Outside the cooldown no rollback is needed.
        let log = vec![migrate(100), migrate(100 + MIGRATION_COOLDOWN_SECS)];
        assert_eq!(migration_no_flapping(&Trace::new(&log)), vec![]);
    }
}
