//! Offline timeline analysis of a telemetry event log.
//!
//! Replays a JSONL event stream (one [`Stamped`] event per line, as
//! written by [`rsp_obs::RingSink::to_jsonl`]) into:
//!
//! * a **fault-episode reconstruction** — each upset's
//!   inject → detect → recover arc, with latency distributions;
//! * a **per-configuration selection-share table** — what fraction of
//!   steering decisions chose each candidate;
//! * **stall-episode counts** per attributed cause;
//! * a machine-readable [`TimelineReport`] (serialised to JSON for CI
//!   diffing) and a human-readable rendering (`rsp-timeline` binary).
//!
//! The analyzer is deliberately decoupled from the simulator: it sees
//! only the event log, so it also works on logs captured from earlier
//! runs or other tools, and it doubles as an end-to-end check that the
//! event stream alone carries enough information to reconstruct what
//! the machine did (the telemetry integration tests diff its episode
//! count against [`rsp_sim::FaultStats::upsets_detected`]).

use rsp_obs::{Event, FleetEntry, FleetEvent, StallCause, Stamped, MAX_CANDIDATES};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reconstructed upset episode: inject → detect (scrub) → recover
/// (reload placed on the same span head).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FaultEpisode {
    /// Span head slot the upset struck.
    pub head: u32,
    /// Cycle the upset was injected.
    pub injected_at: u64,
    /// Cycle scrub detected (and cleared) the corruption, if it did
    /// before the log ended.
    pub detected_at: Option<u64>,
    /// Cycle a replacement load was placed on the span, if any.
    pub recovered_at: Option<u64>,
}

impl FaultEpisode {
    /// Inject-to-detect latency in cycles, when detected (0 when the log
    /// runs backwards, as a concatenation of runs does).
    pub fn detect_latency(&self) -> Option<u64> {
        self.detected_at.map(|d| d.saturating_sub(self.injected_at))
    }

    /// Inject-to-recover latency in cycles, when recovered (0 when the
    /// log runs backwards).
    pub fn recover_latency(&self) -> Option<u64> {
        self.recovered_at
            .map(|r| r.saturating_sub(self.injected_at))
    }
}

/// Min/mean/max summary of a latency sample set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
}

impl LatencySummary {
    fn of(samples: impl Iterator<Item = u64>) -> LatencySummary {
        let mut s = LatencySummary {
            min: u64::MAX,
            ..LatencySummary::default()
        };
        // `u128`: samples read from a file may be near `u64::MAX`.
        let mut sum = 0u128;
        for v in samples {
            s.count += 1;
            s.min = s.min.min(v);
            s.max = s.max.max(v);
            sum += u128::from(v);
        }
        if s.count == 0 {
            s.min = 0;
        } else {
            s.mean = sum as f64 / s.count as f64;
        }
        s
    }
}

/// Selection share of one steering candidate.
#[derive(Debug, Clone, Serialize)]
pub struct SelectionShare {
    /// Candidate label (`current` or `configN`).
    pub candidate: String,
    /// Decisions that chose this candidate.
    pub decisions: u64,
    /// Share of all decisions, in percent.
    pub share_pct: f64,
}

/// Stall-episode count for one attributed cause.
#[derive(Debug, Clone, Serialize)]
pub struct StallShare {
    /// The attributed cause.
    pub cause: String,
    /// Episodes (cause *changes*, not cycles) attributed to it.
    pub episodes: u64,
}

/// The analyzer's output: everything the `rsp-timeline` binary prints,
/// in machine-readable form.
#[derive(Debug, Clone, Serialize)]
pub struct TimelineReport {
    /// Events analysed.
    pub events: u64,
    /// First event's cycle (0 for an empty log).
    pub first_cycle: u64,
    /// Last event's cycle (0 for an empty log).
    pub last_cycle: u64,
    /// Steering decisions seen.
    pub decisions: u64,
    /// Decisions that changed the selection.
    pub selection_changes: u64,
    /// Per-candidate selection shares (percentages sum to 100 whenever
    /// any decision was logged).
    pub selection_shares: Vec<SelectionShare>,
    /// Reconfiguration traffic: loads started / placed / failed /
    /// retried / deferred by backoff, and dead-slot skips.
    pub loads_started: u64,
    /// Loads that completed and passed readback.
    pub loads_placed: u64,
    /// Loads that consumed their latency but failed readback.
    pub loads_failed: u64,
    /// Load retries after a failure.
    pub load_retries: u64,
    /// Load attempts deferred by failure backoff.
    pub backoff_deferrals: u64,
    /// Load attempts skipped because the span is permanently dead.
    pub dead_slot_skips: u64,
    /// Units re-placed into an alternative healthy span around dead slots.
    pub load_replacements: u64,
    /// Fault-aware capacity re-rank transitions (nominal ↔ effective view).
    pub capacity_reranks: u64,
    /// Largest capacity loss (units below nominal) any re-rank reported.
    pub max_capacity_lost: u64,
    /// Cycles spent in the degraded (effective-capacity) view, summed
    /// over degraded→recovered re-rank arcs that closed within the log.
    pub degraded_cycles: u64,
    /// Scrub passes seen.
    pub scrub_passes: u64,
    /// Reconstructed upset episodes, in injection order.
    pub episodes: Vec<FaultEpisode>,
    /// Episodes whose corruption was detected by scrub.
    pub episodes_detected: u64,
    /// Episodes recovered (replacement load placed) within the log.
    pub episodes_recovered: u64,
    /// Inject-to-detect latency distribution.
    pub detect_latency: LatencySummary,
    /// Inject-to-recover latency distribution.
    pub recover_latency: LatencySummary,
    /// Stall episodes per attributed cause.
    pub stalls: Vec<StallShare>,
}

/// A malformed event log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// The underlying JSON error, rendered.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a JSONL event log (blank lines are skipped).
pub fn parse_jsonl(text: &str) -> Result<Vec<Stamped>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ev: Stamped = serde_json::from_str(line).map_err(|e| ParseError {
            line: i + 1,
            message: e.to_string(),
        })?;
        events.push(ev);
    }
    Ok(events)
}

/// Replay `events` (cycle order expected, as logged) into a report.
pub fn analyze(events: &[Stamped]) -> TimelineReport {
    let mut decisions = 0u64;
    let mut selection_changes = 0u64;
    let mut chosen_counts = [0u64; MAX_CANDIDATES];
    let mut loads_started = 0u64;
    let mut loads_placed = 0u64;
    let mut loads_failed = 0u64;
    let mut load_retries = 0u64;
    let mut backoff_deferrals = 0u64;
    let mut dead_slot_skips = 0u64;
    let mut load_replacements = 0u64;
    let mut capacity_reranks = 0u64;
    let mut max_capacity_lost = 0u64;
    let mut degraded_cycles = 0u64;
    let mut degraded_since: Option<u64> = None;
    let mut scrub_passes = 0u64;
    let mut stall_counts = [0u64; StallCause::ALL.len()];
    let mut episodes: Vec<FaultEpisode> = Vec::new();

    for ev in events {
        match ev.event {
            Event::SteeringDecision {
                chosen, changed, ..
            } => {
                decisions += 1;
                selection_changes += changed as u64;
                if let Some(c) = chosen_counts.get_mut(chosen as usize) {
                    *c += 1;
                }
            }
            Event::LoadStarted { .. } => loads_started += 1,
            Event::LoadRetry { .. } => load_retries += 1,
            Event::LoadBackoffDeferred { .. } => backoff_deferrals += 1,
            Event::DeadSlotSkip { .. } => dead_slot_skips += 1,
            Event::LoadFailed { .. } => loads_failed += 1,
            Event::LoadPlaced { head, .. } => {
                loads_placed += 1;
                // A placed load on a detected-but-unrecovered episode's
                // span closes its recovery arc.
                if let Some(e) = episodes
                    .iter_mut()
                    .find(|e| e.head == head && e.detected_at.is_some() && e.recovered_at.is_none())
                {
                    e.recovered_at = Some(ev.cycle);
                }
            }
            Event::UpsetInjected { head, .. } => episodes.push(FaultEpisode {
                head,
                injected_at: ev.cycle,
                detected_at: None,
                recovered_at: None,
            }),
            Event::UpsetDetected { head, .. } => {
                // Oldest-first: the fabric never double-corrupts a span,
                // so at most one episode per head is open at a time.
                if let Some(e) = episodes
                    .iter_mut()
                    .find(|e| e.head == head && e.detected_at.is_none())
                {
                    e.detected_at = Some(ev.cycle);
                }
            }
            Event::LoadReplaced { .. } => load_replacements += 1,
            Event::CapacityRerank { degraded, lost } => {
                capacity_reranks += 1;
                max_capacity_lost = max_capacity_lost.max(lost as u64);
                if degraded {
                    degraded_since.get_or_insert(ev.cycle);
                } else if let Some(since) = degraded_since.take() {
                    // Saturating: a backwards span (a later run restarting
                    // at cycle 0) counts as 0, and counts read from a file
                    // may be near `u64::MAX`.
                    degraded_cycles =
                        degraded_cycles.saturating_add(ev.cycle.saturating_sub(since));
                }
            }
            Event::ScrubPass { .. } => scrub_passes += 1,
            Event::Stall { cause } => stall_counts[cause as usize] += 1,
        }
    }

    let selection_shares = chosen_counts
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| SelectionShare {
            candidate: if i == 0 {
                "current".to_string()
            } else {
                format!("config{i}")
            },
            decisions: n,
            share_pct: 100.0 * n as f64 / decisions.max(1) as f64,
        })
        .collect();
    let stalls = StallCause::ALL
        .iter()
        .zip(stall_counts)
        .filter(|&(_, n)| n > 0)
        .map(|(c, n)| StallShare {
            cause: c.name().to_string(),
            episodes: n,
        })
        .collect();
    TimelineReport {
        events: events.len() as u64,
        first_cycle: events.first().map_or(0, |e| e.cycle),
        last_cycle: events.last().map_or(0, |e| e.cycle),
        decisions,
        selection_changes,
        selection_shares,
        loads_started,
        loads_placed,
        loads_failed,
        load_retries,
        backoff_deferrals,
        dead_slot_skips,
        load_replacements,
        capacity_reranks,
        max_capacity_lost,
        degraded_cycles,
        scrub_passes,
        episodes_detected: episodes.iter().filter(|e| e.detected_at.is_some()).count() as u64,
        episodes_recovered: episodes.iter().filter(|e| e.recovered_at.is_some()).count() as u64,
        detect_latency: LatencySummary::of(episodes.iter().filter_map(|e| e.detect_latency())),
        recover_latency: LatencySummary::of(episodes.iter().filter_map(|e| e.recover_latency())),
        episodes,
        stalls,
    }
}

impl TimelineReport {
    /// Serialise for CI diffing.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }

    /// Human-readable rendering: summary, selection-share table, stall
    /// table, and the fault-episode timeline.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} events over cycles {}..{}",
            self.events, self.first_cycle, self.last_cycle
        );
        let _ = writeln!(
            s,
            "steering: {} decisions, {} selection changes",
            self.decisions, self.selection_changes
        );
        if !self.selection_shares.is_empty() {
            let _ = writeln!(s, "\nselection shares:");
            let _ = writeln!(
                s,
                "  {:<10} {:>10} {:>8}",
                "candidate", "decisions", "share"
            );
            for sh in &self.selection_shares {
                let _ = writeln!(
                    s,
                    "  {:<10} {:>10} {:>7.2}%",
                    sh.candidate, sh.decisions, sh.share_pct
                );
            }
        }
        let _ = writeln!(
            s,
            "\nreconfiguration: {} started, {} placed, {} failed, {} retries, \
             {} backoff deferrals, {} dead-slot skips",
            self.loads_started,
            self.loads_placed,
            self.loads_failed,
            self.load_retries,
            self.backoff_deferrals,
            self.dead_slot_skips
        );
        if self.load_replacements > 0 || self.capacity_reranks > 0 {
            let _ = writeln!(
                s,
                "capacity: {} dead-span re-placements, {} re-rank transitions \
                 (max {} units lost, {} degraded cycles)",
                self.load_replacements,
                self.capacity_reranks,
                self.max_capacity_lost,
                self.degraded_cycles
            );
        }
        if !self.stalls.is_empty() {
            let _ = writeln!(s, "\nstall episodes:");
            for st in &self.stalls {
                let _ = writeln!(s, "  {:<20} {:>8}", st.cause, st.episodes);
            }
        }
        let _ = writeln!(
            s,
            "\nfault episodes: {} injected, {} detected, {} recovered ({} scrub passes)",
            self.episodes.len(),
            self.episodes_detected,
            self.episodes_recovered,
            self.scrub_passes
        );
        if self.detect_latency.count > 0 {
            let _ = writeln!(
                s,
                "  inject→detect  latency: min {} mean {:.1} max {} cycles",
                self.detect_latency.min, self.detect_latency.mean, self.detect_latency.max
            );
        }
        if self.recover_latency.count > 0 {
            let _ = writeln!(
                s,
                "  inject→recover latency: min {} mean {:.1} max {} cycles",
                self.recover_latency.min, self.recover_latency.mean, self.recover_latency.max
            );
        }
        const MAX_LISTED: usize = 100;
        for e in self.episodes.iter().take(MAX_LISTED) {
            let detect = match (e.detected_at, e.detect_latency()) {
                (Some(d), Some(l)) => format!("detected @{d} (+{l})"),
                _ => "undetected".to_string(),
            };
            let recover = match (e.recovered_at, e.recover_latency()) {
                (Some(r), Some(l)) => format!("recovered @{r} (+{l})"),
                _ => "unrecovered".to_string(),
            };
            let _ = writeln!(
                s,
                "  upset @{:<8} head {:<2} {detect:<24} {recover}",
                e.injected_at, e.head
            );
        }
        if self.episodes.len() > MAX_LISTED {
            let _ = writeln!(
                s,
                "  … {} more (full list in the JSON report)",
                self.episodes.len() - MAX_LISTED
            );
        }
        s
    }
}

/// One tenant's reconstructed lifecycle arc from a flight-recorder
/// dump: admitted → activated → quanta → completed (or failed). Fields
/// are `Option` because a bounded ring may have evicted the arc's
/// early entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct FleetTenantArc {
    /// Server-assigned tenant id.
    pub tenant: u64,
    /// Tick the tenant was admitted, when still in the ring.
    pub admitted_at: Option<u64>,
    /// Tick the tenant activated, when still in the ring.
    pub activated_at: Option<u64>,
    /// Ticks spent queued, as stamped by the activation entry.
    pub queued_ticks: Option<u64>,
    /// Quanta recorded for this tenant.
    pub quanta: u64,
    /// Cycles stepped across those quanta.
    pub cycles: u64,
    /// Tick the tenant completed, when it did within the ring.
    pub completed_at: Option<u64>,
    /// Whether the tenant halted (vs. exhausting its budget).
    pub halted: Option<bool>,
    /// True iff activation failed server-side.
    pub failed: bool,
}

/// Count per shed reason or trigger kind in a flight dump.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FleetShare {
    /// The reason/kind label (`queue_full`, `shed_storm`, …).
    pub label: String,
    /// Entries with this label.
    pub count: u64,
}

/// The fleet analyzer's output: what a flight-recorder dump says
/// happened around the anomaly that triggered it.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Entries analysed.
    pub entries: u64,
    /// First entry's engine tick (0 for an empty dump).
    pub first_tick: u64,
    /// Last entry's engine tick (0 for an empty dump).
    pub last_tick: u64,
    /// Admissions in the ring.
    pub admitted: u64,
    /// Activations in the ring.
    pub activated: u64,
    /// Completions in the ring.
    pub completed: u64,
    /// Server-side activation failures.
    pub failed: u64,
    /// Sheds by reason (only reasons that occurred).
    pub sheds: Vec<FleetShare>,
    /// Anomaly triggers by kind, in ring order.
    pub triggers: Vec<FleetShare>,
    /// Queue-residency distribution over activation entries.
    pub queued_ticks: LatencySummary,
    /// Cycles-per-quantum distribution over quantum entries.
    pub quantum_cycles: LatencySummary,
    /// Per-tenant lifecycle arcs, in id order.
    pub tenants: Vec<FleetTenantArc>,
}

/// Replay a flight-recorder dump (tick order expected, as recorded)
/// into a [`FleetReport`].
pub fn analyze_fleet(entries: &[FleetEntry]) -> FleetReport {
    let mut admitted = 0u64;
    let mut activated = 0u64;
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut sheds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut triggers: Vec<FleetShare> = Vec::new();
    let mut queued = Vec::new();
    let mut quanta = Vec::new();
    let mut tenants: BTreeMap<u64, FleetTenantArc> = BTreeMap::new();
    fn arc(tenants: &mut BTreeMap<u64, FleetTenantArc>, id: u64) -> &mut FleetTenantArc {
        tenants.entry(id).or_insert(FleetTenantArc {
            tenant: id,
            ..FleetTenantArc::default()
        })
    }

    for e in entries {
        match e.event {
            FleetEvent::Admitted => {
                admitted += 1;
                if let Some(id) = e.tenant {
                    arc(&mut tenants, id).admitted_at = Some(e.tick);
                }
            }
            FleetEvent::Shed { reason } => {
                *sheds.entry(reason.name()).or_insert(0) += 1;
            }
            FleetEvent::Activated { queued_ticks } => {
                activated += 1;
                queued.push(queued_ticks);
                if let Some(id) = e.tenant {
                    let t = arc(&mut tenants, id);
                    t.activated_at = Some(e.tick);
                    t.queued_ticks = Some(queued_ticks);
                }
            }
            FleetEvent::ActivationFailed => {
                failed += 1;
                if let Some(id) = e.tenant {
                    arc(&mut tenants, id).failed = true;
                }
            }
            FleetEvent::Quantum { cycles } => {
                quanta.push(cycles);
                if let Some(id) = e.tenant {
                    let t = arc(&mut tenants, id);
                    t.quanta += 1;
                    t.cycles = t.cycles.saturating_add(cycles);
                }
            }
            FleetEvent::Completed { cycles, halted } => {
                completed += 1;
                if let Some(id) = e.tenant {
                    let t = arc(&mut tenants, id);
                    t.completed_at = Some(e.tick);
                    t.halted = Some(halted);
                    t.cycles = t.cycles.max(cycles);
                }
            }
            FleetEvent::Trigger { kind } => {
                if let Some(t) = triggers.iter_mut().find(|t| t.label == kind.name()) {
                    t.count += 1;
                } else {
                    triggers.push(FleetShare {
                        label: kind.name().to_string(),
                        count: 1,
                    });
                }
            }
        }
    }

    FleetReport {
        entries: entries.len() as u64,
        first_tick: entries.first().map_or(0, |e| e.tick),
        last_tick: entries.last().map_or(0, |e| e.tick),
        admitted,
        activated,
        completed,
        failed,
        sheds: sheds
            .into_iter()
            .map(|(label, count)| FleetShare {
                label: label.to_string(),
                count,
            })
            .collect(),
        triggers,
        queued_ticks: LatencySummary::of(queued.into_iter()),
        quantum_cycles: LatencySummary::of(quanta.into_iter()),
        tenants: tenants.into_values().collect(),
    }
}

impl FleetReport {
    /// Serialise for CI diffing.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }

    /// Human-readable rendering: summary, shed/trigger tables, and the
    /// per-tenant lifecycle arcs.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} flight entries over ticks {}..{}",
            self.entries, self.first_tick, self.last_tick
        );
        let _ = writeln!(
            s,
            "fleet: {} admitted, {} activated, {} completed, {} failed",
            self.admitted, self.activated, self.completed, self.failed
        );
        if !self.sheds.is_empty() {
            let _ = writeln!(s, "\nsheds:");
            for sh in &self.sheds {
                let _ = writeln!(s, "  {:<12} {:>8}", sh.label, sh.count);
            }
        }
        if !self.triggers.is_empty() {
            let _ = writeln!(s, "\nanomaly triggers:");
            for t in &self.triggers {
                let _ = writeln!(s, "  {:<16} {:>8}", t.label, t.count);
            }
        }
        if self.queued_ticks.count > 0 {
            let _ = writeln!(
                s,
                "\nqueue residency: min {} mean {:.1} max {} ticks over {} activations",
                self.queued_ticks.min,
                self.queued_ticks.mean,
                self.queued_ticks.max,
                self.queued_ticks.count
            );
        }
        if self.quantum_cycles.count > 0 {
            let _ = writeln!(
                s,
                "quanta: min {} mean {:.1} max {} cycles over {} quanta",
                self.quantum_cycles.min,
                self.quantum_cycles.mean,
                self.quantum_cycles.max,
                self.quantum_cycles.count
            );
        }
        const MAX_LISTED: usize = 100;
        if !self.tenants.is_empty() {
            let _ = writeln!(s, "\ntenant arcs:");
        }
        for t in self.tenants.iter().take(MAX_LISTED) {
            let admitted = t
                .admitted_at
                .map_or("admit ?".to_string(), |a| format!("admit @{a}"));
            let activated = match (t.activated_at, t.queued_ticks) {
                (Some(a), Some(q)) => format!("active @{a} (queued {q})"),
                (Some(a), None) => format!("active @{a}"),
                _ => "never active".to_string(),
            };
            let end = if t.failed {
                "FAILED".to_string()
            } else {
                match (t.completed_at, t.halted) {
                    (Some(c), Some(true)) => format!("done @{c} (halted)"),
                    (Some(c), _) => format!("done @{c} (budget)"),
                    _ => "unfinished".to_string(),
                }
            };
            let _ = writeln!(
                s,
                "  t{:<5} {admitted:<12} {activated:<26} {:>6} quanta {:>10} cycles  {end}",
                t.tenant, t.quanta, t.cycles
            );
        }
        if self.tenants.len() > MAX_LISTED {
            let _ = writeln!(
                s,
                "  … {} more (full list in the JSON report)",
                self.tenants.len() - MAX_LISTED
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_isa::units::UnitType;

    fn ev(cycle: u64, event: Event) -> Stamped {
        Stamped { cycle, event }
    }

    #[test]
    fn empty_log_analyzes_to_zeroes() {
        let r = analyze(&[]);
        assert_eq!(r.events, 0);
        assert!(r.episodes.is_empty());
        assert!(r.selection_shares.is_empty());
        assert_eq!(r.detect_latency.count, 0);
        assert!(r.render().contains("0 events"));
    }

    #[test]
    fn reconstructs_episode_arc() {
        let u = UnitType::IntAlu;
        let log = [
            ev(10, Event::UpsetInjected { head: 3, unit: u }),
            ev(64, Event::ScrubPass { detected: 1 }),
            ev(64, Event::UpsetDetected { head: 3, unit: u }),
            ev(70, Event::LoadStarted { head: 3, unit: u }),
            ev(102, Event::LoadPlaced { head: 3, unit: u }),
        ];
        let r = analyze(&log);
        assert_eq!(r.episodes.len(), 1);
        assert_eq!(r.episodes_detected, 1);
        assert_eq!(r.episodes_recovered, 1);
        let e = r.episodes[0];
        assert_eq!(e.detect_latency(), Some(54));
        assert_eq!(e.recover_latency(), Some(92));
        assert_eq!(r.detect_latency.mean, 54.0);
        assert_eq!(r.scrub_passes, 1);
        assert!(r.render().contains("detected @64 (+54)"));
    }

    #[test]
    fn placed_load_without_detection_is_not_recovery() {
        let u = UnitType::Lsu;
        let log = [
            ev(5, Event::UpsetInjected { head: 0, unit: u }),
            // A load placed on the same head before scrub detected the
            // corruption belongs to ordinary steering, not recovery.
            ev(9, Event::LoadPlaced { head: 0, unit: u }),
        ];
        let r = analyze(&log);
        assert_eq!(r.episodes_detected, 0);
        assert_eq!(r.episodes_recovered, 0);
        assert_eq!(r.loads_placed, 1);
    }

    #[test]
    fn selection_shares_sum_to_100() {
        let mut log = Vec::new();
        for i in 0..10u64 {
            log.push(ev(
                i,
                Event::SteeringDecision {
                    scores: [0; MAX_CANDIDATES],
                    candidates: 4,
                    chosen: (i % 3) as u8,
                    changed: i % 3 != 0,
                },
            ));
        }
        let r = analyze(&log);
        assert_eq!(r.decisions, 10);
        let total: f64 = r.selection_shares.iter().map(|s| s.share_pct).sum();
        assert!((total - 100.0).abs() < 1e-9, "shares sum to {total}");
        assert_eq!(r.selection_shares.len(), 3);
    }

    #[test]
    fn jsonl_round_trip_through_parser() {
        let u = UnitType::FpMdu;
        let log = [
            ev(
                1,
                Event::Stall {
                    cause: StallCause::QueueEmpty,
                },
            ),
            ev(2, Event::UpsetInjected { head: 7, unit: u }),
        ];
        let text: String = log
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, log);
        assert!(parse_jsonl("{not json}\n").is_err());
        assert!(parse_jsonl("\n\n").unwrap().is_empty());
    }

    #[test]
    fn capacity_events_feed_the_report() {
        let u = UnitType::Lsu;
        let log = [
            ev(
                8,
                Event::CapacityRerank {
                    degraded: true,
                    lost: 3,
                },
            ),
            ev(
                10,
                Event::LoadReplaced {
                    from_head: 0,
                    to_head: 6,
                    unit: u,
                },
            ),
            ev(10, Event::LoadStarted { head: 6, unit: u }),
            ev(
                40,
                Event::CapacityRerank {
                    degraded: false,
                    lost: 0,
                },
            ),
        ];
        let r = analyze(&log);
        assert_eq!(r.load_replacements, 1);
        assert_eq!(r.capacity_reranks, 2);
        assert_eq!(r.max_capacity_lost, 3);
        assert_eq!(r.degraded_cycles, 32);
        let text = r.render();
        assert!(text.contains("1 dead-span re-placements"), "{text}");
        assert!(text.contains("max 3 units lost"), "{text}");
    }

    #[test]
    fn report_serialises() {
        let r = analyze(&[ev(
            3,
            Event::LoadStarted {
                head: 1,
                unit: UnitType::IntMdu,
            },
        )]);
        let json = r.to_json();
        assert!(json.contains("loads_started"));
        assert!(json.contains("\"events\": 1"));
    }

    fn fe(tick: u64, tenant: Option<u64>, event: FleetEvent) -> FleetEntry {
        FleetEntry {
            tick,
            tenant,
            event,
        }
    }

    #[test]
    fn fleet_analyzer_reconstructs_tenant_arcs() {
        use rsp_obs::{ShedKind, TriggerKind};
        let log = [
            fe(1, Some(0), FleetEvent::Admitted),
            fe(1, Some(1), FleetEvent::Admitted),
            fe(
                2,
                None,
                FleetEvent::Shed {
                    reason: ShedKind::QueueFull,
                },
            ),
            fe(
                2,
                None,
                FleetEvent::Shed {
                    reason: ShedKind::QueueFull,
                },
            ),
            fe(
                2,
                None,
                FleetEvent::Shed {
                    reason: ShedKind::StepLag,
                },
            ),
            fe(3, Some(0), FleetEvent::Activated { queued_ticks: 2 }),
            fe(3, Some(1), FleetEvent::Activated { queued_ticks: 2 }),
            fe(3, Some(0), FleetEvent::Quantum { cycles: 256 }),
            fe(3, Some(1), FleetEvent::Quantum { cycles: 256 }),
            fe(4, Some(0), FleetEvent::Quantum { cycles: 100 }),
            fe(
                4,
                Some(0),
                FleetEvent::Completed {
                    cycles: 356,
                    halted: true,
                },
            ),
            fe(
                4,
                None,
                FleetEvent::Trigger {
                    kind: TriggerKind::ShedStorm,
                },
            ),
        ];
        let r = analyze_fleet(&log);
        assert_eq!(r.entries, 12);
        assert_eq!((r.first_tick, r.last_tick), (1, 4));
        assert_eq!(r.admitted, 2);
        assert_eq!(r.activated, 2);
        assert_eq!(r.completed, 1);
        assert_eq!(r.failed, 0);
        assert_eq!(r.sheds.len(), 2);
        let qf = r.sheds.iter().find(|s| s.label == "queue_full").unwrap();
        assert_eq!(qf.count, 2);
        assert_eq!(r.triggers.len(), 1);
        assert_eq!(r.triggers[0].label, "shed_storm");
        assert_eq!(r.queued_ticks.count, 2);
        assert_eq!(r.queued_ticks.mean, 2.0);
        assert_eq!(r.quantum_cycles.count, 3);

        assert_eq!(r.tenants.len(), 2);
        let t0 = &r.tenants[0];
        assert_eq!(t0.tenant, 0);
        assert_eq!(t0.admitted_at, Some(1));
        assert_eq!(t0.queued_ticks, Some(2));
        assert_eq!((t0.quanta, t0.cycles), (2, 356));
        assert_eq!(t0.completed_at, Some(4));
        assert_eq!(t0.halted, Some(true));
        let t1 = &r.tenants[1];
        assert_eq!(t1.completed_at, None, "tenant 1 still running");

        let text = r.render();
        assert!(text.contains("2 admitted"), "{text}");
        assert!(text.contains("queue_full"), "{text}");
        assert!(text.contains("shed_storm"), "{text}");
        assert!(text.contains("done @4 (halted)"), "{text}");
        assert!(text.contains("unfinished"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"queued_ticks\""));
    }

    #[test]
    fn concatenated_logs_and_huge_counts_saturate() {
        // Two runs' logs back to back (`cat run1.jsonl run2.jsonl`): the
        // second restarts at cycle 0, so its detection, recovery and
        // rerank-close all land *before* the first run's open arcs.
        let u = UnitType::IntAlu;
        let log = [
            ev(900, Event::UpsetInjected { head: 3, unit: u }),
            ev(
                1000,
                Event::CapacityRerank {
                    degraded: true,
                    lost: 2,
                },
            ),
            ev(20, Event::UpsetDetected { head: 3, unit: u }),
            ev(30, Event::LoadPlaced { head: 3, unit: u }),
            ev(
                50,
                Event::CapacityRerank {
                    degraded: false,
                    lost: 0,
                },
            ),
        ];
        let r = analyze(&log);
        assert_eq!(r.degraded_cycles, 0, "backwards spans count as 0");
        let e = r.episodes[0];
        assert_eq!(
            (e.detect_latency(), e.recover_latency()),
            (Some(0), Some(0))
        );
        assert_eq!((r.detect_latency.max, r.recover_latency.max), (0, 0));
        assert!(r.render().contains("detected @20 (+0)"));

        // Spans and counts near `u64::MAX`, as a corrupt dump may carry.
        let rerank = |cycle, degraded| ev(cycle, Event::CapacityRerank { degraded, lost: 0 });
        let spans = [
            rerank(0, true),
            rerank(u64::MAX, false),
            rerank(1, true),
            rerank(5, false),
        ];
        assert_eq!(analyze(&spans).degraded_cycles, u64::MAX);
        let huge = FleetEvent::Quantum { cycles: u64::MAX };
        let fleet = analyze_fleet(&[fe(1, Some(0), huge), fe(2, Some(0), huge)]);
        assert_eq!(fleet.tenants[0].cycles, u64::MAX);
        assert_eq!(fleet.quantum_cycles.count, 2);
        assert_eq!(fleet.quantum_cycles.mean, u64::MAX as f64);
    }

    #[test]
    fn empty_flight_dump_analyzes_to_zeroes() {
        let r = analyze_fleet(&[]);
        assert_eq!(r.entries, 0);
        assert!(r.tenants.is_empty());
        assert!(r.sheds.is_empty());
        assert!(r.render().contains("0 flight entries"));
    }
}
