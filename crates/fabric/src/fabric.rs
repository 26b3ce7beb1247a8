//! The live fabric: slot state, busy tracking, and the partial
//! reconfiguration engine.
//!
//! A [`Fabric`] owns the resource allocation vector of the RFU slots, the
//! fixed functional units, per-unit busy state, and the set of
//! reconfigurations in flight. The configuration loader (in `rsp-core`)
//! decides *what* to load; the fabric decides *whether it may be loaded
//! now* (span idle, a reconfiguration port free) and models the latency.
//!
//! Modelling choices (DESIGN.md §5):
//! * Loading a unit of `k` slots takes `k × per_slot_load_latency`
//!   cycles — the module-based partial-reconfiguration flow streams each
//!   slot's frames through the configuration port.
//! * At most `reconfig_ports` loads are in flight at once (default 1, a
//!   single-ICAP analogue).
//! * While a load is in flight its slots are *empty*: they provide no
//!   unit, match no availability query, and cannot host issue.

use crate::alloc::{AllocationVector, PlacedUnit};
use crate::availability::{available, AvailabilityInputs};
use crate::config::Configuration;
use crate::fault::{self, FaultEvent, FaultParams, FaultState, FaultStats};
use rsp_isa::units::{TypeCounts, UnitType};
use serde::{Deserialize, Serialize};

/// Static fabric parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricParams {
    /// Number of RFU slots (paper: 8).
    pub rfu_slots: usize,
    /// Fixed functional units (paper: one of each type).
    pub ffus: Vec<UnitType>,
    /// Cycles to reconfigure one slot of one unit.
    pub per_slot_load_latency: u64,
    /// Maximum concurrent reconfigurations.
    pub reconfig_ports: usize,
    /// Configuration-memory fault model (inert by default).
    pub faults: FaultParams,
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams {
            rfu_slots: 8,
            ffus: UnitType::ALL.to_vec(),
            per_slot_load_latency: 32,
            reconfig_ports: 1,
            faults: FaultParams::default(),
        }
    }
}

/// Identity of one functional unit instance in the processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnitId {
    /// Fixed unit, by index into [`FabricParams::ffus`].
    Ffu(usize),
    /// Reconfigurable unit, by its head slot.
    Rfu {
        /// Head (encoding-bearing) slot index.
        head: usize,
    },
}

/// A snapshot view of one unit, for availability scans and displays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitView {
    /// The unit's identity.
    pub id: UnitId,
    /// Its type.
    pub unit: UnitType,
    /// Whether it is currently executing an instruction.
    pub busy: bool,
}

/// Why a reconfiguration could not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadError {
    /// The span would extend past the last slot.
    OutOfRange,
    /// A slot in the span belongs to a busy unit (paper: an RFU executing
    /// a multicycle instruction cannot be reconfigured until it retires).
    SpanBusy,
    /// A slot in the span is already being reconfigured.
    SpanLoading,
    /// All reconfiguration ports are in use this cycle.
    NoPortFree,
    /// The span already implements exactly this unit (the loader must
    /// skip, not reload — paper §3.2).
    AlreadyConfigured,
    /// A slot in the span is stuck-at-dead (fault model): it can never
    /// be configured.
    SpanDead,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LoadError::OutOfRange => "unit span out of range",
            LoadError::SpanBusy => "span overlaps a busy unit",
            LoadError::SpanLoading => "span overlaps an in-flight load",
            LoadError::NoPortFree => "no reconfiguration port free",
            LoadError::AlreadyConfigured => "span already implements this unit",
            LoadError::SpanDead => "span contains a stuck-at-dead slot",
        };
        f.write_str(s)
    }
}

impl std::error::Error for LoadError {}

/// Running fabric statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricStats {
    /// Reconfigurations started.
    pub loads_started: u64,
    /// Total slots written by completed or in-flight loads.
    pub slots_reloaded: u64,
    /// Cycles during which at least one load was in flight.
    pub load_busy_cycles: u64,
    /// Loads completed.
    pub loads_completed: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct LoadInFlight {
    head: usize,
    unit: UnitType,
    remaining: u64,
    /// Fault model: this load will consume its full latency, then fail
    /// readback and leave the span unconfigured.
    will_fail: bool,
}

/// The live reconfigurable fabric plus fixed units.
///
/// ```
/// use rsp_fabric::fabric::{Fabric, FabricParams};
/// use rsp_isa::UnitType;
///
/// let mut fabric = Fabric::new(FabricParams {
///     per_slot_load_latency: 2,
///     ..FabricParams::default()
/// });
/// // The FFUs make every type available even on an empty fabric.
/// assert!(fabric.available(UnitType::FpMdu));
/// assert_eq!(fabric.rfu_counts().total(), 0);
///
/// // Partially reconfigure slot 0 into an LSU: 1 slot × 2 cycles.
/// fabric.begin_load(0, UnitType::Lsu).unwrap();
/// fabric.tick();
/// assert_eq!(fabric.tick().len(), 1, "load completes");
/// assert_eq!(fabric.rfu_counts().get(UnitType::Lsu), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fabric {
    params: FabricParams,
    alloc: AllocationVector,
    slot_busy: Vec<bool>,
    ffu_busy: Vec<bool>,
    loads: Vec<LoadInFlight>,
    stats: FabricStats,
    /// Incremental count of configured units per type (FFUs + RFU units,
    /// excluding in-flight loads) — updated on every grant, drain, and
    /// reconfiguration event so per-cycle queries need no unit scan.
    configured: TypeCounts,
    /// Incremental count of configured **idle** units per type.
    /// Corrupted units are excluded: they are configured but ungrantable.
    idle: TypeCounts,
    /// Incremental count of **effective** units per type: configured and
    /// not corrupted by an undetected upset. Busy units still count
    /// (they will come back); zombies do not — this is the capacity the
    /// fault-aware steering path scores against instead of `configured`.
    effective: TypeCounts,
    /// Configuration-memory fault model state (inert by default).
    fault: FaultState,
    /// Allocation epoch: advanced whenever the allocation vector or the
    /// corruption state may have changed (a load starts, lands or fails;
    /// an upset strikes; scrub clears a span). On one fabric, an
    /// unchanged epoch means the same units in the same spans with the
    /// same corruption — what lets the configuration loader skip
    /// re-checking a configuration it already found fully in place.
    epoch: u64,
}

/// Decrement one type's count in an incremental unit-count cache.
#[inline]
fn dec(counts: &mut TypeCounts, t: UnitType) {
    let v = counts.get(t);
    debug_assert!(v > 0, "incremental unit counter underflow for {t:?}");
    counts.set(t, v.saturating_sub(1));
}

impl Fabric {
    /// An empty fabric (no RFU units configured).
    pub fn new(params: FabricParams) -> Fabric {
        let n = params.rfu_slots;
        let f = params.ffus.len();
        let fault = FaultState::new(params.faults.clone(), n);
        let mut fab = Fabric {
            params,
            alloc: AllocationVector::empty(n),
            slot_busy: vec![false; n],
            ffu_busy: vec![false; f],
            loads: Vec::new(),
            stats: FabricStats::default(),
            configured: TypeCounts::ZERO,
            idle: TypeCounts::ZERO,
            effective: TypeCounts::ZERO,
            fault,
            epoch: 0,
        };
        fab.rebuild_counts();
        fab
    }

    /// Recompute the incremental unit counts from scratch (construction
    /// and wholesale reloads; every per-event update is checked against
    /// these scans by debug assertions and the differential tests).
    fn rebuild_counts(&mut self) {
        self.configured = self.configured_counts_scan();
        self.idle = self.idle_counts_scan();
        self.effective = self.effective_counts_scan();
    }

    /// A fabric pre-loaded with `config` (no latency — initial state).
    pub fn with_configuration(params: FabricParams, config: &Configuration) -> Fabric {
        let mut fab = Fabric::new(params);
        fab.load_instantly(config);
        fab
    }

    /// Replace the whole RFU contents instantly. Panics if any unit is
    /// busy or any load is in flight — this is an initialisation/baseline
    /// facility, not a modelled reconfiguration. Units whose span covers
    /// a stuck-at-dead slot are skipped (degraded boot).
    pub fn load_instantly(&mut self, config: &Configuration) {
        assert!(
            self.loads.is_empty() && !self.slot_busy.iter().any(|&b| b),
            "load_instantly on an active fabric"
        );
        assert_eq!(config.placement.len(), self.params.rfu_slots);
        self.alloc = config.placement.clone();
        self.fault.corrupted.fill(false);
        for pu in config.placement.units() {
            if pu.span().any(|s| self.fault.dead[s]) {
                self.alloc.clear_unit_at(pu.head);
            }
        }
        self.rebuild_counts();
        self.epoch += 1;
    }

    /// Static parameters.
    #[inline]
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// The current resource allocation vector.
    #[inline]
    pub fn alloc(&self) -> &AllocationVector {
        &self.alloc
    }

    /// The allocation epoch: it changes whenever the allocation vector
    /// or the corruption state may have changed, and only then. Busy
    /// toggles leave it alone.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Statistics so far.
    #[inline]
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Fault-model counters so far (all zero when the model is inert).
    #[inline]
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.stats
    }

    /// Fault events generated by the most recent [`Fabric::tick`] (the
    /// configuration loader reads these once per cycle; they are
    /// replaced on the next tick).
    #[inline]
    pub fn fault_events(&self) -> &[FaultEvent] {
        &self.fault.events
    }

    /// True iff `slot` belongs to a span corrupted by an undetected
    /// upset.
    #[inline]
    pub fn slot_corrupted(&self, slot: usize) -> bool {
        self.fault.corrupted[slot]
    }

    /// True iff `slot` is stuck-at-dead.
    #[inline]
    pub fn slot_dead(&self, slot: usize) -> bool {
        self.fault.dead[slot]
    }

    /// Number of currently corrupted (zombie) units: configured in the
    /// allocation vector but ungrantable until scrub clears them.
    pub fn corrupted_units(&self) -> usize {
        self.alloc
            .units()
            .filter(|pu| self.fault.corrupted[pu.head])
            .count()
    }

    /// Number of stuck-at-dead slots (constant over a run).
    pub fn dead_slot_count(&self) -> usize {
        self.fault.dead.iter().filter(|&&d| d).count()
    }

    /// Units of each type currently configured in the RFU fabric
    /// (excluding in-flight loads, whose slots are empty).
    pub fn rfu_counts(&self) -> TypeCounts {
        self.alloc.counts()
    }

    /// Units of each type currently configured in the whole processor —
    /// the "number of each type of functional units currently configured"
    /// signal the configuration loader feeds the selection unit (Fig. 2).
    /// O(1): maintained incrementally across reconfiguration events.
    pub fn configured_counts(&self) -> TypeCounts {
        debug_assert_eq!(self.configured, self.configured_counts_scan());
        self.configured
    }

    /// [`Fabric::configured_counts`] recomputed from scratch — the
    /// specification the incremental count is checked against.
    pub fn configured_counts_scan(&self) -> TypeCounts {
        let mut c = self.rfu_counts();
        for &t in &self.params.ffus {
            c.add(t, 1);
        }
        c
    }

    /// Effective units of each type: configured units minus zombies
    /// (spans corrupted by an undetected upset). This is what the
    /// fabric can actually deliver, and what a fault-aware selection
    /// unit should score against. O(1): maintained incrementally across
    /// load completions, overlap destruction, and upset injection.
    pub fn effective_counts(&self) -> TypeCounts {
        debug_assert_eq!(self.effective, self.effective_counts_scan());
        self.effective
    }

    /// [`Fabric::effective_counts`] recomputed by scanning every unit —
    /// the specification the incremental count is checked against.
    pub fn effective_counts_scan(&self) -> TypeCounts {
        let mut c = TypeCounts::ZERO;
        for &t in &self.params.ffus {
            c.add(t, 1);
        }
        for PlacedUnit { head, unit } in self.alloc.units() {
            if !self.fault.corrupted[head] {
                c.add(unit, 1);
            }
        }
        c
    }

    /// Idle configured units of each type (FFUs + RFU units). O(1):
    /// maintained incrementally on every grant, drain, and
    /// reconfiguration event.
    pub fn idle_counts(&self) -> TypeCounts {
        debug_assert_eq!(self.idle, self.idle_counts_scan());
        self.idle
    }

    /// [`Fabric::idle_counts`] recomputed by scanning every unit — the
    /// specification the incremental count is checked against. Corrupted
    /// units are configured but ungrantable, so they do not count.
    pub fn idle_counts_scan(&self) -> TypeCounts {
        let mut c = TypeCounts::ZERO;
        for (i, &t) in self.params.ffus.iter().enumerate() {
            if !self.ffu_busy[i] {
                c.add(t, 1);
            }
        }
        for PlacedUnit { head, unit } in self.alloc.units() {
            if !self.slot_busy[head] && !self.fault.corrupted[head] {
                c.add(unit, 1);
            }
        }
        c
    }

    /// Per-slot availability signals for the Eq. 1 circuit: a slot asserts
    /// availability iff it is the head of a configured unit that is idle
    /// (and not corrupted by an upset).
    pub fn slot_available_signals(&self) -> Vec<bool> {
        (0..self.alloc.len())
            .map(|s| {
                self.alloc.encoding(s).unit_type().is_some()
                    && !self.slot_busy[s]
                    && !self.fault.corrupted[s]
            })
            .collect()
    }

    /// FFU `(type, available)` pairs for the Eq. 1 circuit.
    pub fn ffu_signals(&self) -> Vec<(UnitType, bool)> {
        self.params
            .ffus
            .iter()
            .zip(&self.ffu_busy)
            .map(|(&t, &b)| (t, !b))
            .collect()
    }

    /// Eq. 1: is an idle unit of type `t` configured anywhere? O(1) via
    /// the incremental idle counts; the gate-level circuit is retained as
    /// [`Fabric::available_scan`] and checked in debug builds.
    pub fn available(&self, t: UnitType) -> bool {
        let fast = self.idle.get(t) > 0;
        debug_assert_eq!(fast, self.available_scan(t));
        fast
    }

    /// Eq. 1 evaluated through the availability circuit model — the
    /// specification [`Fabric::available`] is checked against.
    pub fn available_scan(&self, t: UnitType) -> bool {
        let slots = self.slot_available_signals();
        let ffus = self.ffu_signals();
        available(
            t,
            &AvailabilityInputs {
                alloc: &self.alloc,
                slot_available: &slots,
                ffus: &ffus,
            },
        )
    }

    /// All configured units (FFUs first, then RFU heads in slot order).
    pub fn units(&self) -> Vec<UnitView> {
        let mut out: Vec<UnitView> = self
            .params
            .ffus
            .iter()
            .enumerate()
            .map(|(i, &t)| UnitView {
                id: UnitId::Ffu(i),
                unit: t,
                busy: self.ffu_busy[i],
            })
            .collect();
        out.extend(
            self.alloc
                .units()
                .map(|PlacedUnit { head, unit }| UnitView {
                    id: UnitId::Rfu { head },
                    unit,
                    busy: self.slot_busy[head],
                }),
        );
        out
    }

    /// An idle unit of type `t`, preferring FFUs (keeping RFUs idle keeps
    /// them reconfigurable). Returns `None` if none is available.
    /// Allocation-free: walks the FFU list then the allocation vector
    /// directly, in the same order as [`Fabric::units`].
    pub fn idle_unit(&self, t: UnitType) -> Option<UnitId> {
        for (i, &ft) in self.params.ffus.iter().enumerate() {
            if ft == t && !self.ffu_busy[i] {
                return Some(UnitId::Ffu(i));
            }
        }
        for PlacedUnit { head, unit } in self.alloc.units() {
            if unit == t && !self.slot_busy[head] && !self.fault.corrupted[head] {
                return Some(UnitId::Rfu { head });
            }
        }
        None
    }

    /// Mark a unit busy (instruction issued to it).
    ///
    /// # Panics
    /// Panics if the unit does not exist or is already busy — the
    /// scheduler must only issue to idle, configured units.
    pub fn set_busy(&mut self, id: UnitId) {
        match id {
            UnitId::Ffu(i) => {
                assert!(!self.ffu_busy[i], "FFU {i} already busy");
                self.ffu_busy[i] = true;
                dec(&mut self.idle, self.params.ffus[i]);
            }
            UnitId::Rfu { head } => {
                let pu = self
                    .alloc
                    .unit_at(head)
                    .unwrap_or_else(|| panic!("no unit at slot {head}"));
                assert_eq!(pu.head, head, "set_busy must target the head slot");
                assert!(!self.slot_busy[head], "RFU at {head} already busy");
                assert!(
                    !self.fault.corrupted[head],
                    "issue to corrupted RFU at {head}"
                );
                for s in pu.span() {
                    self.slot_busy[s] = true;
                }
                dec(&mut self.idle, pu.unit);
            }
        }
    }

    /// Mark a unit idle again (its instruction completed).
    pub fn clear_busy(&mut self, id: UnitId) {
        match id {
            UnitId::Ffu(i) => {
                if self.ffu_busy[i] {
                    self.idle.add(self.params.ffus[i], 1);
                }
                self.ffu_busy[i] = false;
            }
            UnitId::Rfu { head } => {
                if let Some(pu) = self.alloc.unit_at(head) {
                    if self.slot_busy[head] {
                        self.idle.add(pu.unit, 1);
                    }
                    for s in pu.span() {
                        self.slot_busy[s] = false;
                    }
                } else {
                    // The unit was already destroyed — impossible in a
                    // correct pipeline (busy units cannot be reloaded).
                    panic!("clear_busy on a vanished unit at slot {head}");
                }
            }
        }
    }

    /// Per-slot busy bits packed into a word (bit `s` set iff slot `s`
    /// belongs to a unit executing a multicycle instruction). This is
    /// the per-cycle busy *input* the bit-sliced lane kernel replays
    /// when differentially checking against a scalar machine.
    ///
    /// # Panics
    /// Panics if the fabric has more than 64 slots (the lane kernel's
    /// replay format is one bit per slot per word).
    pub fn busy_mask(&self) -> u64 {
        assert!(self.alloc.len() <= 64, "busy_mask packs at most 64 slots");
        self.slot_busy
            .iter()
            .enumerate()
            .fold(0u64, |m, (s, &b)| m | ((b as u64) << s))
    }

    /// True iff `slot` is part of an in-flight load.
    pub fn slot_loading(&self, slot: usize) -> bool {
        self.loads
            .iter()
            .any(|l| (l.head..l.head + l.unit.slot_cost()).contains(&slot))
    }

    /// Number of loads in flight.
    #[inline]
    pub fn loads_in_flight(&self) -> usize {
        self.loads.len()
    }

    /// True iff a reconfiguration port is free this cycle.
    #[inline]
    pub(crate) fn port_free(&self) -> bool {
        self.loads.len() < self.params.reconfig_ports
    }

    /// Begin loading a unit of type `t` with its head at `slot`.
    ///
    /// Checks, in order: span in range, port free, span does not overlap a
    /// busy unit or an in-flight load, and the span does not already
    /// implement exactly this unit. On success the overlapped old units
    /// are destroyed immediately (their *entire* spans are cleared, even
    /// slots outside the new span — a partially overwritten unit is no
    /// longer a unit) and the load starts, completing after
    /// `slot_cost × per_slot_load_latency` ticks.
    pub fn begin_load(&mut self, slot: usize, t: UnitType) -> Result<(), LoadError> {
        self.begin_load_inner(slot, t, false)
    }

    /// Like [`Fabric::begin_load`] but reloads the span even when it
    /// already implements exactly this unit — the *full-reload* ablation
    /// (experiment E2) that quantifies what the paper's skip rule saves.
    pub fn begin_load_forced(&mut self, slot: usize, t: UnitType) -> Result<(), LoadError> {
        self.begin_load_inner(slot, t, true)
    }

    fn begin_load_inner(&mut self, slot: usize, t: UnitType, force: bool) -> Result<(), LoadError> {
        let cost = t.slot_cost();
        if slot + cost > self.alloc.len() {
            return Err(LoadError::OutOfRange);
        }
        let span = slot..slot + cost;
        if span.clone().any(|s| self.fault.dead[s]) {
            return Err(LoadError::SpanDead);
        }
        if !force {
            if let Some(pu) = self.alloc.unit_at(slot) {
                if pu.head == slot && pu.unit == t {
                    return Err(LoadError::AlreadyConfigured);
                }
            }
        }
        if !self.port_free() {
            return Err(LoadError::NoPortFree);
        }
        if span.clone().any(|s| self.slot_busy[s]) {
            return Err(LoadError::SpanBusy);
        }
        if span.clone().any(|s| self.slot_loading(s)) {
            return Err(LoadError::SpanLoading);
        }
        for s in span {
            // Destroying an overlapped unit drops it from the unit counts.
            // It is provably idle: a busy unit's whole span is marked busy,
            // so any overlap would have tripped the SpanBusy check above.
            if let Some(pu) = self.alloc.unit_at(s) {
                debug_assert!(!self.slot_busy[pu.head]);
                dec(&mut self.configured, pu.unit);
                if self.fault.corrupted[pu.head] {
                    // A corrupted unit left the idle and effective counts
                    // when it was struck; rewriting its configuration
                    // memory clears the corruption along with the unit.
                    for cs in pu.span() {
                        self.fault.corrupted[cs] = false;
                    }
                } else {
                    dec(&mut self.idle, pu.unit);
                    dec(&mut self.effective, pu.unit);
                }
            }
            self.alloc.clear_unit_at(s);
            debug_assert!(!self.fault.corrupted[s]);
        }
        debug_assert_eq!(self.alloc.check(), Ok(()));
        // The fault model decides now whether this load's readback will
        // fail after the frames stream. The verdict is a pure function of
        // (seed, cycle, head): an open-loop schedule that does not shift
        // when a policy starts more or fewer loads elsewhere.
        let will_fail = self.fault.enabled() && {
            let f = &self.fault;
            fault::keyed_chance_ppm(
                f.params.seed,
                fault::stream::LOAD_FAILURE,
                f.tick,
                slot as u64,
                f.params.load_failure_ppm,
            )
        };
        self.loads.push(LoadInFlight {
            head: slot,
            unit: t,
            remaining: (cost as u64) * self.params.per_slot_load_latency,
            will_fail,
        });
        self.stats.loads_started += 1;
        self.stats.slots_reloaded += cost as u64;
        self.epoch += 1;
        Ok(())
    }

    /// Advance reconfiguration by one cycle; returns the units whose load
    /// completed this cycle (now configured and idle).
    pub fn tick(&mut self) -> Vec<PlacedUnit> {
        let mut done = Vec::new();
        self.tick_into(&mut done);
        done
    }

    /// [`Fabric::tick`] into a caller-provided buffer (cleared first) so
    /// the per-cycle hot loop can reuse one buffer across cycles.
    /// Fault-model events (load failures, upsets, scrub detections)
    /// happen here too; the events of one tick stay readable via
    /// [`Fabric::fault_events`] until the next tick.
    pub fn tick_into(&mut self, done: &mut Vec<PlacedUnit>) {
        done.clear();
        self.fault.events.clear();
        // Nothing in flight and no fault model: the tick changes nothing.
        if self.loads.is_empty() && !self.fault.enabled() {
            return;
        }
        if !self.loads.is_empty() {
            self.stats.load_busy_cycles += 1;
        }
        let in_flight = self.loads.len();
        let events = &mut self.fault.events;
        let fault_stats = &mut self.fault.stats;
        self.loads.retain_mut(|l| {
            l.remaining = l.remaining.saturating_sub(1);
            if l.remaining == 0 {
                if l.will_fail {
                    // The frames streamed (latency and port were paid)
                    // but readback failed: the span stays unconfigured.
                    fault_stats.load_failures += 1;
                    events.push(FaultEvent::LoadFailed {
                        head: l.head,
                        unit: l.unit,
                    });
                } else {
                    done.push(PlacedUnit {
                        head: l.head,
                        unit: l.unit,
                    });
                }
                false
            } else {
                true
            }
        });
        if self.loads.len() != in_flight {
            // A load landed or failed readback.
            self.epoch += 1;
        }
        for pu in done.iter() {
            self.alloc.place(pu.head, pu.unit);
            // The freshly loaded unit arrives configured, idle, and
            // uncorrupted.
            self.configured.add(pu.unit, 1);
            self.idle.add(pu.unit, 1);
            self.effective.add(pu.unit, 1);
            self.stats.loads_completed += 1;
            if self.fault.enabled() {
                self.fault.events.push(FaultEvent::LoadPlaced {
                    head: pu.head,
                    unit: pu.unit,
                });
            }
            debug_assert_eq!(self.alloc.check(), Ok(()));
        }
        if self.fault.enabled() {
            self.fault_tick();
        }
    }

    /// Per-cycle fault activity: upset injection and configuration
    /// scrubbing. Only called when the fault model is enabled, so inert
    /// configurations stay bit-identical to a fault-free build.
    fn fault_tick(&mut self) {
        self.fault.tick += 1;
        // An SEU may strike one configuration-memory location per cycle.
        // Both the strike and its target slot are keyed draws on the
        // cycle number — the schedule of (cycle, slot) strikes is fixed
        // by the seed, whatever the steering policy does. A strike on a
        // slot inside an idle, not-yet-corrupted unit's span corrupts
        // the whole unit; anywhere else (empty, busy, already-corrupted,
        // or mid-load) it dissipates without effect.
        let f = &self.fault;
        if fault::keyed_chance_ppm(
            f.params.seed,
            fault::stream::UPSET_STRIKE,
            f.tick,
            0,
            f.params.upset_ppm,
        ) {
            let target = (fault::keyed_draw(f.params.seed, fault::stream::UPSET_TARGET, f.tick, 0)
                % self.alloc.len() as u64) as usize;
            let victim = self.alloc.units().find(|pu| pu.span().any(|s| s == target));
            match victim {
                Some(pu) if !self.slot_busy[pu.head] && !self.fault.corrupted[pu.head] => {
                    for s in pu.span() {
                        self.fault.corrupted[s] = true;
                    }
                    // Corrupted units stay in the allocation vector (the
                    // nominal steering view is fooled) but leave the idle
                    // and effective counts: they are ungrantable and serve
                    // no demand from this cycle on.
                    dec(&mut self.idle, pu.unit);
                    dec(&mut self.effective, pu.unit);
                    self.epoch += 1;
                    self.fault.stats.upsets_injected += 1;
                    self.fault.events.push(FaultEvent::UpsetInjected {
                        head: pu.head,
                        unit: pu.unit,
                    });
                }
                _ => self.fault.stats.upsets_dissipated += 1,
            }
        }
        // Scrub/readback: every `scrub_interval` cycles, detect and
        // clear corrupted spans so the loader can reload them.
        if self.fault.params.scrub_interval > 0 {
            self.fault.scrub_countdown = self.fault.scrub_countdown.saturating_sub(1);
            if self.fault.scrub_countdown == 0 {
                self.fault.scrub_countdown = self.fault.params.scrub_interval;
                self.fault.stats.scrubs += 1;
                let mut detected: u32 = 0;
                let mut head = 0;
                while head < self.alloc.len() {
                    let Some(pu) = self.alloc.unit_at(head) else {
                        head += 1;
                        continue;
                    };
                    if pu.head == head && self.fault.corrupted[head] {
                        for s in pu.span() {
                            self.fault.corrupted[s] = false;
                        }
                        self.alloc.clear_unit_at(head);
                        // `effective` was debited at upset time; only the
                        // nominal configured count changes on detection.
                        dec(&mut self.configured, pu.unit);
                        self.epoch += 1;
                        self.fault.stats.upsets_detected += 1;
                        detected += 1;
                        self.fault.events.push(FaultEvent::UpsetDetected {
                            head,
                            unit: pu.unit,
                        });
                    }
                    head = pu.head + pu.unit.slot_cost();
                }
                self.fault.events.push(FaultEvent::ScrubPass { detected });
                debug_assert_eq!(self.alloc.check(), Ok(()));
            }
        }
    }

    /// Human-readable one-line slot map, e.g.
    /// `[Int-ALU .. | LSU | load(FP-ALU,37) .. .. | - | -]`.
    pub fn slot_map(&self) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(self.alloc.len());
        let mut s = 0;
        while s < self.alloc.len() {
            if let Some(l) = self.loads.iter().find(|l| l.head == s) {
                parts.push(format!("load({},{})", l.unit, l.remaining));
                for _ in 1..l.unit.slot_cost() {
                    parts.push("..".into());
                }
                s += l.unit.slot_cost();
            } else if let Some(t) = self.alloc.encoding(s).unit_type() {
                let mark = if self.fault.corrupted[s] {
                    "!"
                } else if self.slot_busy[s] {
                    "*"
                } else {
                    ""
                };
                parts.push(format!("{t}{mark}"));
                for _ in 1..t.slot_cost() {
                    parts.push("..".into());
                }
                s += t.slot_cost();
            } else if self.fault.dead[s] {
                parts.push("X".into());
                s += 1;
            } else {
                parts.push("-".into());
                s += 1;
            }
        }
        format!("[{}]", parts.join(" | "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SteeringSet;

    fn params(latency: u64, ports: usize) -> FabricParams {
        FabricParams {
            per_slot_load_latency: latency,
            reconfig_ports: ports,
            ..FabricParams::default()
        }
    }

    #[test]
    fn empty_fabric_has_only_ffus() {
        let f = Fabric::new(FabricParams::default());
        assert_eq!(f.rfu_counts().total(), 0);
        assert_eq!(f.configured_counts().total(), 5);
        for &t in &UnitType::ALL {
            assert!(f.available(t), "FFU of {t} must be available");
            assert!(matches!(f.idle_unit(t), Some(UnitId::Ffu(_))));
        }
    }

    #[test]
    fn instant_load_and_counts() {
        let set = SteeringSet::paper_default();
        let f = Fabric::with_configuration(FabricParams::default(), &set.predefined[0]);
        assert_eq!(f.rfu_counts(), set.predefined[0].counts);
        assert_eq!(
            f.configured_counts(),
            set.predefined[0].counts.saturating_add(&set.ffu)
        );
    }

    #[test]
    fn busy_units_block_availability_and_issue() {
        let mut f = Fabric::new(FabricParams::default());
        let ffu = f.idle_unit(UnitType::IntAlu).unwrap();
        f.set_busy(ffu);
        assert!(!f.available(UnitType::IntAlu));
        assert_eq!(f.idle_unit(UnitType::IntAlu), None);
        f.clear_busy(ffu);
        assert!(f.available(UnitType::IntAlu));
    }

    #[test]
    fn load_takes_cost_times_latency_cycles() {
        let mut f = Fabric::new(params(4, 1));
        f.begin_load(0, UnitType::FpAlu).unwrap(); // 3 slots * 4 = 12 cycles
        assert_eq!(f.loads_in_flight(), 1);
        assert!(f.slot_loading(2) && !f.slot_loading(3));
        for _ in 0..11 {
            assert!(f.tick().is_empty());
        }
        let done = f.tick();
        assert_eq!(
            done,
            vec![PlacedUnit {
                head: 0,
                unit: UnitType::FpAlu
            }]
        );
        assert_eq!(f.rfu_counts().get(UnitType::FpAlu), 1);
        assert_eq!(f.stats().loads_completed, 1);
        assert_eq!(f.stats().slots_reloaded, 3);
        assert_eq!(f.stats().load_busy_cycles, 12);
    }

    #[test]
    fn port_limit_enforced() {
        let mut f = Fabric::new(params(4, 1));
        f.begin_load(0, UnitType::Lsu).unwrap();
        assert_eq!(f.begin_load(1, UnitType::Lsu), Err(LoadError::NoPortFree));
        let mut f = Fabric::new(params(4, 2));
        f.begin_load(0, UnitType::Lsu).unwrap();
        f.begin_load(1, UnitType::Lsu).unwrap();
        assert_eq!(f.begin_load(2, UnitType::Lsu), Err(LoadError::NoPortFree));
    }

    #[test]
    fn busy_span_cannot_be_reloaded() {
        let set = SteeringSet::paper_default();
        // Config 1: Int-ALU at slots 0-1.
        let mut f = Fabric::with_configuration(params(1, 1), &set.predefined[0]);
        f.set_busy(UnitId::Rfu { head: 0 });
        assert_eq!(f.begin_load(0, UnitType::Lsu), Err(LoadError::SpanBusy));
        assert_eq!(f.begin_load(1, UnitType::Lsu), Err(LoadError::SpanBusy));
        f.clear_busy(UnitId::Rfu { head: 0 });
        assert_eq!(f.begin_load(1, UnitType::Lsu), Ok(()));
        // Old Int-ALU destroyed: slot 0 is now empty.
        assert!(f.alloc().encoding(0).is_empty());
    }

    #[test]
    fn loading_span_cannot_be_touched() {
        let mut f = Fabric::new(params(10, 2));
        f.begin_load(0, UnitType::IntMdu).unwrap(); // slots 0-1
        assert_eq!(f.begin_load(1, UnitType::Lsu), Err(LoadError::SpanLoading));
        assert_eq!(f.begin_load(2, UnitType::Lsu), Ok(()));
    }

    #[test]
    fn already_configured_is_skipped() {
        let set = SteeringSet::paper_default();
        let mut f = Fabric::with_configuration(params(1, 1), &set.predefined[0]);
        assert_eq!(
            f.begin_load(0, UnitType::IntAlu),
            Err(LoadError::AlreadyConfigured)
        );
        // Same type but different head is a real reload.
        assert_eq!(f.begin_load(1, UnitType::Lsu), Ok(()));
    }

    #[test]
    fn out_of_range_span() {
        let mut f = Fabric::new(params(1, 1));
        assert_eq!(f.begin_load(6, UnitType::FpMdu), Err(LoadError::OutOfRange));
        assert_eq!(f.begin_load(7, UnitType::Lsu), Ok(()));
    }

    #[test]
    fn overlapped_units_destroyed_entirely() {
        let set = SteeringSet::paper_default();
        // Config 3: LSU@0, LSU@1, FP-ALU@2-4, FP-MDU@5-7.
        let mut f = Fabric::with_configuration(params(1, 1), &set.predefined[2]);
        // Load an Int-MDU over slots 4-5: destroys both FP units.
        f.begin_load(4, UnitType::IntMdu).unwrap();
        assert_eq!(f.rfu_counts().get(UnitType::FpAlu), 0);
        assert_eq!(f.rfu_counts().get(UnitType::FpMdu), 0);
        assert_eq!(f.rfu_counts().get(UnitType::Lsu), 2);
        for s in 2..8 {
            assert!(f.alloc().encoding(s).is_empty(), "slot {s}");
        }
    }

    #[test]
    fn rfu_preferred_after_ffu_goes_busy() {
        let set = SteeringSet::paper_default();
        let mut f = Fabric::with_configuration(FabricParams::default(), &set.predefined[0]);
        let first = f.idle_unit(UnitType::IntAlu).unwrap();
        assert!(matches!(first, UnitId::Ffu(_)), "FFUs are preferred");
        f.set_busy(first);
        let second = f.idle_unit(UnitType::IntAlu).unwrap();
        assert_eq!(second, UnitId::Rfu { head: 0 });
        f.set_busy(second);
        let third = f.idle_unit(UnitType::IntAlu).unwrap();
        assert_eq!(third, UnitId::Rfu { head: 2 });
    }

    #[test]
    fn slot_map_readable() {
        let mut f = Fabric::new(params(5, 1));
        f.begin_load(0, UnitType::Lsu).unwrap();
        let m = f.slot_map();
        assert!(m.contains("load(LSU,5)"), "{m}");
        f.tick();
        f.tick();
        f.tick();
        f.tick();
        f.tick();
        let m = f.slot_map();
        assert!(m.starts_with("[LSU |"), "{m}");
    }

    #[test]
    fn forced_reload_reloads_identical_unit() {
        let set = SteeringSet::paper_default();
        let mut f = Fabric::with_configuration(params(2, 1), &set.predefined[0]);
        assert_eq!(
            f.begin_load(0, UnitType::IntAlu),
            Err(LoadError::AlreadyConfigured)
        );
        f.begin_load_forced(0, UnitType::IntAlu).unwrap();
        // During the forced reload the unit is gone.
        assert_eq!(f.rfu_counts().get(UnitType::IntAlu), 1); // the one at slots 2-3
        for _ in 0..4 {
            f.tick();
        }
        assert_eq!(f.rfu_counts().get(UnitType::IntAlu), 2);
        // Forced loads still respect busy spans.
        f.set_busy(UnitId::Rfu { head: 0 });
        assert_eq!(
            f.begin_load_forced(0, UnitType::IntAlu),
            Err(LoadError::SpanBusy)
        );
    }

    /// The incremental configured/idle counts must track the
    /// from-scratch scans through every event class: issue, completion,
    /// load start (with unit destruction), load completion, and
    /// wholesale reload.
    #[test]
    fn incremental_counts_track_scans() {
        let set = SteeringSet::paper_default();
        let check = |f: &Fabric| {
            assert_eq!(f.configured_counts(), f.configured_counts_scan());
            assert_eq!(f.idle_counts(), f.idle_counts_scan());
            assert_eq!(f.effective_counts(), f.effective_counts_scan());
            for &t in &UnitType::ALL {
                assert_eq!(f.available(t), f.available_scan(t));
            }
        };
        let mut f = Fabric::new(params(2, 1));
        check(&f);
        f.load_instantly(&set.predefined[0]);
        check(&f);
        // Issue to an FFU, then to an RFU.
        let ffu = f.idle_unit(UnitType::IntAlu).unwrap();
        f.set_busy(ffu);
        check(&f);
        let rfu = f.idle_unit(UnitType::IntAlu).unwrap();
        assert!(matches!(rfu, UnitId::Rfu { .. }));
        f.set_busy(rfu);
        check(&f);
        f.clear_busy(ffu);
        f.clear_busy(rfu);
        check(&f);
        // A load that destroys overlapped units, then completes.
        let before = f.configured_counts().total();
        let lsu_before = f.rfu_counts().get(UnitType::Lsu);
        f.begin_load(0, UnitType::Lsu).unwrap();
        check(&f);
        assert!(f.configured_counts().total() < before, "old unit destroyed");
        f.tick();
        check(&f);
        f.tick(); // 1 slot × 2 cycles: completes now
        check(&f);
        assert_eq!(f.rfu_counts().get(UnitType::Lsu), lsu_before + 1);
        // Forced reload of an identical unit.
        f.begin_load_forced(0, UnitType::Lsu).unwrap();
        check(&f);
        f.tick();
        f.tick();
        check(&f);
    }

    #[test]
    fn tick_into_reuses_buffer() {
        let mut f = Fabric::new(params(1, 1));
        let mut done = vec![PlacedUnit {
            head: 7,
            unit: UnitType::Lsu,
        }];
        f.begin_load(0, UnitType::Lsu).unwrap();
        f.tick_into(&mut done);
        assert_eq!(
            done,
            vec![PlacedUnit {
                head: 0,
                unit: UnitType::Lsu
            }],
            "buffer cleared then filled"
        );
        f.tick_into(&mut done);
        assert!(done.is_empty());
    }

    fn fault_params(
        load_failure_ppm: u32,
        upset_ppm: u32,
        scrub_interval: u64,
        dead_slots: Vec<usize>,
    ) -> FabricParams {
        FabricParams {
            per_slot_load_latency: 1,
            reconfig_ports: 8,
            faults: FaultParams {
                seed: 0xFA017,
                load_failure_ppm,
                upset_ppm,
                scrub_interval,
                dead_slots,
            },
            ..FabricParams::default()
        }
    }

    #[test]
    fn failed_load_consumes_latency_then_leaves_span_empty() {
        // Every load fails readback.
        let mut f = Fabric::new(fault_params(crate::fault::PPM, 0, 0, vec![]));
        f.begin_load(0, UnitType::FpAlu).unwrap(); // 3 slots × 1 cycle
        for _ in 0..2 {
            assert!(f.tick().is_empty());
            assert!(f.fault_events().is_empty());
        }
        assert!(f.tick().is_empty(), "failed load must not place a unit");
        assert_eq!(
            f.fault_events(),
            &[FaultEvent::LoadFailed {
                head: 0,
                unit: UnitType::FpAlu
            }]
        );
        assert_eq!(f.fault_stats().load_failures, 1);
        assert_eq!(f.stats().loads_started, 1);
        assert_eq!(f.stats().loads_completed, 0);
        assert_eq!(f.stats().load_busy_cycles, 3, "latency was consumed");
        assert!(f.alloc().encoding(0).is_empty());
        assert_eq!(f.rfu_counts().total(), 0);
        // The span is reloadable immediately (the loader's retry path).
        assert_eq!(f.begin_load(0, UnitType::FpAlu), Ok(()));
        // Events live exactly one tick.
        f.tick();
        assert!(f.fault_events().is_empty());
    }

    #[test]
    fn upset_corrupts_idle_unit_making_it_ungrantable() {
        let set = SteeringSet::paper_default();
        // Upset every cycle, never scrub.
        let mut f = Fabric::with_configuration(
            fault_params(0, crate::fault::PPM, 0, vec![]),
            &set.predefined[0],
        );
        let configured_before = f.configured_counts();
        let units_before = f.rfu_counts().total() as usize;
        f.tick();
        assert_eq!(f.corrupted_units(), 1);
        assert_eq!(f.fault_stats().upsets_injected, 1);
        // The corrupted unit is still in the allocation vector (the
        // steering mechanism is fooled) but out of the idle counts.
        assert_eq!(f.configured_counts(), configured_before);
        assert_eq!(
            f.idle_counts(),
            f.idle_counts_scan(),
            "incremental idle counts must track corruption"
        );
        // The effective view sees through the zombie immediately.
        assert_eq!(f.effective_counts(), f.effective_counts_scan());
        assert_eq!(
            f.effective_counts().total(),
            configured_before.total() - 1,
            "one zombie must leave the effective capacity"
        );
        // With one upset per cycle and no scrub, every RFU eventually
        // becomes a zombie; only the FFUs remain grantable.
        for _ in 0..100 {
            f.tick();
        }
        assert_eq!(f.corrupted_units(), units_before);
        for &t in &UnitType::ALL {
            assert!(matches!(f.idle_unit(t), Some(UnitId::Ffu(_)) | None));
        }
        // Further upsets find no candidate and dissipate.
        assert!(f.fault_stats().upsets_dissipated > 0);
        let m = f.slot_map();
        assert!(m.contains('!'), "corrupted units marked in {m}");
    }

    #[test]
    fn scrub_detects_and_clears_corrupted_spans() {
        let set = SteeringSet::paper_default();
        // One guaranteed upset per cycle, scrub every 10 cycles.
        let mut f = Fabric::with_configuration(
            fault_params(0, crate::fault::PPM, 10, vec![]),
            &set.predefined[0],
        );
        for _ in 0..10 {
            f.tick();
        }
        let st = f.fault_stats();
        assert_eq!(st.scrubs, 1);
        assert!(st.upsets_detected > 0);
        assert!(
            f.fault_events()
                .iter()
                .any(|e| matches!(e, FaultEvent::UpsetDetected { .. })),
            "scrub must report detections: {:?}",
            f.fault_events()
        );
        // Detected spans are cleared: configured counts drop and the
        // spans are reloadable again.
        assert_eq!(f.configured_counts(), f.configured_counts_scan());
        assert_eq!(f.idle_counts(), f.idle_counts_scan());
        assert_eq!(f.effective_counts(), f.effective_counts_scan());
        let cleared_head = f
            .fault_events()
            .iter()
            .find_map(|e| match e {
                FaultEvent::UpsetDetected { head, .. } => Some(*head),
                _ => None,
            })
            .unwrap();
        assert!(f.alloc().encoding(cleared_head).is_empty());
        assert!(!f.slot_corrupted(cleared_head));
    }

    #[test]
    fn dead_slots_block_loads_and_skip_boot_placement() {
        let set = SteeringSet::paper_default();
        // Config 1 places an Int-ALU at slots 0-1; kill slot 1.
        let f = Fabric::with_configuration(fault_params(0, 0, 0, vec![1]), &set.predefined[0]);
        assert!(
            f.alloc().encoding(0).is_empty(),
            "unit spanning a dead slot is skipped at boot: {}",
            f.slot_map()
        );
        assert!(f.slot_dead(1));
        let mut f = f;
        assert_eq!(f.begin_load(0, UnitType::IntAlu), Err(LoadError::SpanDead));
        assert_eq!(f.begin_load(1, UnitType::Lsu), Err(LoadError::SpanDead));
        // Slots outside the dead span still work.
        assert_eq!(f.begin_load(2, UnitType::Lsu), Ok(()));
        assert!(f.slot_map().contains('X'), "{}", f.slot_map());
    }

    #[test]
    fn reload_over_corrupted_span_clears_corruption() {
        let set = SteeringSet::paper_default();
        let mut f = Fabric::with_configuration(
            fault_params(0, crate::fault::PPM, 0, vec![]),
            &set.predefined[0],
        );
        f.tick();
        let head = (0..f.alloc().len())
            .find(|&s| f.slot_corrupted(s))
            .expect("one unit corrupted");
        let pu = f.alloc().unit_at(head).unwrap();
        // Force-reload the corrupted span: rewriting the configuration
        // memory clears the corruption.
        f.begin_load_forced(pu.head, pu.unit).unwrap();
        assert!(pu.span().all(|s| !f.slot_corrupted(s)));
        assert_eq!(f.configured_counts(), f.configured_counts_scan());
        assert_eq!(f.idle_counts(), f.idle_counts_scan());
        assert_eq!(f.effective_counts(), f.effective_counts_scan());
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let run = || {
            let set = SteeringSet::paper_default();
            let mut f = Fabric::with_configuration(
                fault_params(300_000, 400_000, 16, vec![7]),
                &set.predefined[0],
            );
            for cycle in 0..200 {
                if cycle % 7 == 0 {
                    let _ = f.begin_load(4, UnitType::Lsu);
                }
                f.tick();
            }
            (f.fault_stats(), f.stats(), f.alloc().clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn inert_fault_model_changes_nothing() {
        // A fabric whose fault params are default-but-present must behave
        // identically to one never touched by the fault code path.
        let set = SteeringSet::paper_default();
        let mut f = Fabric::with_configuration(params(2, 1), &set.predefined[0]);
        f.begin_load(1, UnitType::Lsu).unwrap();
        for _ in 0..4 {
            f.tick();
        }
        assert_eq!(f.fault_stats(), FaultStats::default());
        assert!(f.fault_events().is_empty());
        assert_eq!(f.corrupted_units(), 0);
    }

    #[test]
    #[should_panic]
    fn double_issue_panics() {
        let mut f = Fabric::new(FabricParams::default());
        f.set_busy(UnitId::Ffu(0));
        f.set_busy(UnitId::Ffu(0));
    }

    #[test]
    #[should_panic]
    fn set_busy_on_continuation_panics() {
        let set = SteeringSet::paper_default();
        let mut f = Fabric::with_configuration(FabricParams::default(), &set.predefined[0]);
        f.set_busy(UnitId::Rfu { head: 1 }); // continuation of Int-ALU@0
    }
}
