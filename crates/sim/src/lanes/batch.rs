//! The bit-sliced lane batch: N machines' steering loops in lockstep.
//!
//! [`LaneBatch`] holds the *steering-visible* state of N independent
//! machines (N a multiple of 64) as transposed bit planes: every
//! boolean column of machine state — one bit of a slot encoding, one
//! bit of a load countdown — is packed across lanes into `N / 64`
//! `u64` words. [`LaneBatch::step`] then evaluates one full cycle of
//! the paper's four-stage selection unit *and* the configuration
//! loader and fault tick for 64 lanes per word, entirely in registers:
//!
//! 1. **Unit decode** — each queue entry's valid bit + 3-bit type code
//!    becomes five per-type demand bit-planes.
//! 2. **Requirement counters** — carry-save ripple adders accumulate
//!    the 3-bit saturating per-type requirement words (the demand is
//!    bounded by the ≤ 7-entry queue, so the counters cannot wrap).
//! 3. **Barrel-shift CEM** — candidate availability shifts become
//!    plane reindexing: constant shifts for the predefined candidates,
//!    a 3-way mux on the current configuration's live counts.
//! 4. **Minimal-error selection** — a borrow-chain comparator tree
//!    emits the two-bit [`ConfigChoice`] code for all 64 lanes of a
//!    word at once, honouring the tie rule (current config favoured).
//!
//! The loader (partial-reconfiguration skip rule, span-busy and port
//! checks, overlap destruction, load countdowns) and the fault tick
//! (keyed upset strikes, scrub passes) run in the same pass, so a
//! lane's `ConfigChoice`/CEM/steering trace is bit-identical to the
//! scalar [`crate::processor::Machine`] driven by the same per-cycle
//! demand and busy stimulus — `tests/lanes_differential.rs` proves this
//! per cycle, per lane, against recorded scalar runs.
//!
//! What stays scalar: the per-lane fault *schedule* (one keyed hash
//! draw per lane per cycle, only when `upset_ppm > 0`) and the rare
//! scrub pass. Everything per-cycle on the steering path is planes.
//!
//! [`ConfigChoice`]: rsp_core::select::ConfigChoice

use super::plane;
use super::stimulus::LaneStimulus;
use crate::config::{PolicyKind, SimConfig};
use rsp_core::cem::CemKind;
use rsp_core::select::TieBreak;
use rsp_fabric::fault::{keyed_chance_ppm, keyed_draw, stream};
use rsp_isa::units::{TypeCounts, UnitType};

/// Hard cap on RFU slots the lane kernel supports (fixed-size local
/// plane arrays in the hot loop; the paper's fabric has 8).
pub const MAX_LANE_SLOTS: usize = 12;

/// Hard cap on distinct load sites across all candidates (4-bit site
/// ids; the paper's three candidates have 5 + 4 + 4 = 13).
pub const MAX_LANE_SITES: usize = 16;

/// Predefined candidates the two-bit choice encoding can address.
pub const MAX_LANE_CANDIDATES: usize = 3;

/// Number of unit types (canonical [`UnitType::ALL`] order throughout).
const NTYPES: usize = 5;

/// Slot-encoding constants mirrored from `rsp_isa::units::SlotEncoding`.
const ENC_EMPTY: u8 = 0b000;
const ENC_CONT: u8 = 0b111;

// Plane-group widths. Counts are 4-bit (≤ MAX_LANE_SLOTS + FFUs ≤ 15),
// raw CEM errors 6-bit (≤ 5 types × 7), placement costs 5-bit
// (≤ MAX_LANE_SLOTS differing slots), load countdowns 8-bit
// (validated ≤ 255 at construction), the degraded-streak counter 8-bit
// (only `== 0` and `≥ 32` are ever observed, so saturating at 255 is
// equivalent to the scalar u32), and EWMA accumulators 12-bit
// (8 fraction bits + 3 value bits + headroom; the filter provably
// stays in [0, 7 << 8]).
const CNT_BITS: usize = 4;
const ERR_BITS: usize = 6;
const COST_BITS: usize = 5;
const REM_BITS: usize = 8;
const SITE_BITS: usize = 4;
const STREAK_BITS: usize = 8;
const ACC_BITS: usize = 12;
/// Fraction bits of the EWMA demand filter (`DemandFilter::FRAC_BITS`).
const FRAC_BITS: usize = 8;
/// Capacity-hysteresis threshold of the fault-aware view, shared with
/// the scalar policy: streaks are compared against 32, which in planes
/// is "any of bits 5..=7 set".
const HYSTERESIS: u32 = rsp_core::policy::DEFAULT_CAPACITY_HYSTERESIS;
// The streak comparator below hard-wires bits 5..=7; keep it honest.
const _: () = assert!(HYSTERESIS == 32);

/// Steering-policy parameters the kernel branches on (resolved once
/// from [`PolicyKind`]; every branch is lane-uniform).
#[derive(Debug, Clone, Copy)]
struct PolicyParams {
    /// False for `PolicyKind::Static`: skip selection + loader.
    has_selection: bool,
    tie: TieBreak,
    partial: bool,
    fault_aware: bool,
    /// EWMA shift (0 = unfiltered), clamped to 7 like `DemandFilter`.
    smooth_shift: u32,
}

/// One loadable unit span of a predefined configuration.
#[derive(Debug, Clone)]
struct LaneSite {
    head: usize,
    cost: usize,
    /// Head slot encoding of the unit type.
    enc: u8,
    /// Load countdown pushed when the load begins (`cost × latency`).
    rem_init: u8,
    /// Every distinct `(head, encoding, cost)` unit — across the
    /// initial configuration and all candidates — whose span overlaps
    /// this site and must be destroyed when the load begins.
    overlaps: Vec<(usize, u8, usize)>,
}

/// One predefined steering candidate, pre-lowered for the kernel.
#[derive(Debug, Clone)]
struct LaneCandidate {
    /// Site ids in placement (slot-ascending) order — the loader's
    /// `placement.units()` iteration order.
    sites: Vec<usize>,
    /// CEM availability shift per type, from `total_counts` (RFU +
    /// steering-set FFUs, 3-bit clamped): 0, 1, or 2.
    shifts: [u8; NTYPES],
    /// Full slot-encoding vector of the placement (for `diff_count`).
    slot_enc: Vec<u8>,
}

/// Validated, pre-lowered steering parameters shared by all lanes.
///
/// [`LaneParams::from_config`] is the single gate deciding whether a
/// [`SimConfig`] is lane-steppable; everything the per-word kernel
/// consults is precomputed here.
#[derive(Debug, Clone)]
pub struct LaneParams {
    n_slots: usize,
    queue_len: usize,
    policy: PolicyParams,
    candidates: Vec<LaneCandidate>,
    sites: Vec<LaneSite>,
    /// Per-type *fabric* FFU counts (`FabricParams::ffus`) — added to
    /// the live RFU counts to form the current configuration's
    /// availability, exactly like `Fabric::configured_counts`.
    ffu: [u8; NTYPES],
    /// Initial slot encodings (`initial_config` placement or empty).
    init_enc: Vec<u8>,
    upset_ppm: u32,
    scrub_interval: u64,
    default_seed: u64,
}

impl LaneParams {
    /// Lower a [`SimConfig`] into lane-kernel parameters, or explain
    /// why the configuration is outside the bit-sliced subset.
    ///
    /// Rejected (with the scalar [`crate::processor::Machine`] as the
    /// fallback): `DemandDriven` (floating-point greedy search, not a
    /// circuit), the `ExactDivider` CEM ablation (a real divider), fabrics
    /// with more than one reconfiguration port, queue sizes beyond the
    /// 3-bit encoder width, and fault models with load failures or
    /// dead slots (boot-static re-placement is a per-machine search).
    pub fn from_config(cfg: &SimConfig) -> Result<LaneParams, String> {
        cfg.validate()?;
        let policy = match cfg.policy {
            PolicyKind::Paper {
                tie,
                cem,
                partial,
                fault_aware,
            } => {
                if cem != CemKind::BarrelShifter {
                    return Err("lane kernel: CEM must be BarrelShifter (ExactDivider \
                                is a real divider, not a shift circuit)"
                        .into());
                }
                PolicyParams {
                    has_selection: true,
                    tie,
                    partial,
                    fault_aware,
                    smooth_shift: 0,
                }
            }
            PolicyKind::PaperSmoothed { shift } => PolicyParams {
                has_selection: true,
                tie: TieBreak::FavorCurrent,
                partial: true,
                fault_aware: false,
                smooth_shift: shift.min(7),
            },
            PolicyKind::Static => PolicyParams {
                has_selection: false,
                tie: TieBreak::FavorCurrent,
                partial: true,
                fault_aware: false,
                smooth_shift: 0,
            },
            PolicyKind::DemandDriven => {
                return Err("lane kernel: DemandDriven steering is a greedy \
                            floating-point search, not a selection circuit"
                    .into())
            }
        };
        let n_slots = cfg.fabric.rfu_slots;
        if n_slots > MAX_LANE_SLOTS {
            return Err(format!(
                "lane kernel: {n_slots} RFU slots exceeds the {MAX_LANE_SLOTS}-slot cap"
            ));
        }
        if cfg.queue_size > 7 {
            return Err("lane kernel: queue size beyond 7 overflows the 3-bit \
                        requirement counters"
                .into());
        }
        if cfg.fabric.reconfig_ports != 1 {
            return Err("lane kernel: exactly one reconfiguration port is supported".into());
        }
        let faults = &cfg.fabric.faults;
        if faults.load_failure_ppm != 0 {
            return Err("lane kernel: load-failure faults are not supported".into());
        }
        if !faults.dead_slots.is_empty() {
            return Err("lane kernel: dead slots require the boot-static \
                        re-placement search; use the scalar machine"
                .into());
        }
        let set = &cfg.steering_set;
        if set.predefined.len() > MAX_LANE_CANDIDATES {
            return Err(format!(
                "lane kernel: at most {MAX_LANE_CANDIDATES} predefined candidates \
                 fit the two-bit choice encoding"
            ));
        }

        let mut ffu = [0u8; NTYPES];
        for &t in &cfg.fabric.ffus {
            ffu[t.index()] += 1;
        }
        for &f in &ffu {
            // Live counts (≤ n_slots units) + FFUs must fit the 4-bit
            // count planes.
            if f as usize + n_slots > (1 << CNT_BITS) - 1 {
                return Err("lane kernel: per-type availability overflows the \
                            4-bit count planes"
                    .into());
            }
        }

        let placement_enc = |config: &rsp_fabric::config::Configuration| -> Vec<u8> {
            (0..n_slots)
                .map(|s| match config.placement.unit_at(s) {
                    Some(pu) if pu.head == s => pu.unit.encoding(),
                    Some(_) => ENC_CONT,
                    None => ENC_EMPTY,
                })
                .collect()
        };

        // Every unit that can ever exist at runtime comes from the
        // initial configuration or a candidate placement; collect the
        // distinct (head, encoding, cost) set for overlap destruction.
        let mut known_units: Vec<(usize, u8, usize)> = Vec::new();
        let initial = cfg.initial_config.map(|i| &set.predefined[i]);
        for config in initial.into_iter().chain(set.predefined.iter()) {
            for pu in config.placement.units() {
                let rec = (pu.head, pu.unit.encoding(), pu.unit.slot_cost());
                if !known_units.contains(&rec) {
                    known_units.push(rec);
                }
            }
        }

        let lat = cfg.fabric.per_slot_load_latency;
        let mut sites: Vec<LaneSite> = Vec::new();
        let mut candidates = Vec::new();
        for i in 0..set.predefined.len() {
            let config = &set.predefined[i];
            let mut site_ids = Vec::new();
            for pu in config.placement.units() {
                let cost = pu.unit.slot_cost();
                let rem = cost as u64 * lat;
                if rem > u8::MAX as u64 {
                    return Err("lane kernel: per-slot load latency overflows the \
                                8-bit countdown planes"
                        .into());
                }
                let enc = pu.unit.encoding();
                let id = sites
                    .iter()
                    .position(|s| s.head == pu.head && s.enc == enc)
                    .unwrap_or_else(|| {
                        let overlaps = known_units
                            .iter()
                            .filter(|&&(g, _, c)| g < pu.head + cost && g + c > pu.head)
                            .copied()
                            .collect();
                        sites.push(LaneSite {
                            head: pu.head,
                            cost,
                            enc,
                            rem_init: rem as u8,
                            overlaps,
                        });
                        sites.len() - 1
                    });
                site_ids.push(id);
            }
            let mut shifts = [0u8; NTYPES];
            let totals = set.total_counts(i);
            for (t, s) in shifts.iter_mut().enumerate() {
                let avail = totals.get(UnitType::ALL[t]).min(7);
                *s = if avail & 0b100 != 0 {
                    2
                } else if avail & 0b010 != 0 {
                    1
                } else {
                    0
                };
            }
            candidates.push(LaneCandidate {
                sites: site_ids,
                shifts,
                slot_enc: placement_enc(config),
            });
        }
        if sites.len() > MAX_LANE_SITES {
            return Err(format!(
                "lane kernel: {} load sites exceed the {MAX_LANE_SITES}-site cap",
                sites.len()
            ));
        }

        let init_enc = match initial {
            Some(config) => placement_enc(config),
            None => vec![ENC_EMPTY; n_slots],
        };

        Ok(LaneParams {
            n_slots,
            queue_len: cfg.queue_size,
            policy,
            candidates,
            sites,
            ffu,
            init_enc,
            upset_ppm: faults.upset_ppm,
            scrub_interval: faults.scrub_interval,
            default_seed: faults.seed,
        })
    }

    /// Reconfigurable slots per lane fabric.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Instruction-queue entries each lane's decoders observe.
    pub fn queue_len(&self) -> usize {
        self.queue_len
    }
}

/// Aggregate counters over all lanes (plain integers, not planes —
/// updated from output-plane popcounts once per step).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Steps taken (cycles per lane).
    pub steps: u64,
    /// Selections by two-bit choice code, summed over lanes.
    pub selections: [u64; 4],
    /// Lane-cycles where the choice differed from the lane's previous
    /// one (the loader's `selection_changes`).
    pub selection_changes: u64,
    /// Reconfiguration loads begun, summed over lanes.
    pub loads_started: u64,
    /// Reconfiguration loads completed, summed over lanes.
    pub loads_completed: u64,
    /// Upset strikes that corrupted a span.
    pub upsets_injected: u64,
    /// Upset strikes that dissipated harmlessly (busy or dirty head).
    pub upsets_dissipated: u64,
    /// Corrupted units detected (and cleared) by scrub passes.
    pub upsets_detected: u64,
    /// Scrub passes (global — the countdown is lane-uniform).
    pub scrub_passes: u64,
}

/// Mutable per-lane machine state, as bit planes.
///
/// Layout: all vectors are plane-major — plane `p` of a group occupies
/// `words` consecutive `u64`s starting at `p * words` — so the
/// per-word kernel strides by `words` and every load hits a distinct
/// cache line only once per plane.
#[derive(Debug, Clone)]
struct LaneState {
    words: usize,
    /// Slot encodings: 3 planes per slot, `(s * 3 + b) * words + w`.
    enc: Vec<u64>,
    /// Corruption bits, one plane per slot.
    corrupted: Vec<u64>,
    /// Load in flight (1 port ⇒ 1 bit/lane).
    loading: Vec<u64>,
    /// Site id of the in-flight load (valid under `loading`).
    site: Vec<u64>,
    /// Remaining load cycles (valid under `loading`).
    rem: Vec<u64>,
    /// Degraded-capacity streak (fault-aware hysteresis).
    streak: Vec<u64>,
    /// Effective-capacity view engaged.
    view: Vec<u64>,
    /// Last two-bit choice + validity (the loader's `last_choice`).
    last: Vec<u64>,
    have_last: Vec<u64>,
    /// EWMA accumulators: `(t * ACC_BITS + b) * words + w`
    /// (empty unless the policy smooths).
    acc: Vec<u64>,
}

/// Per-cycle outputs, refreshed by every [`LaneBatch::step`].
#[derive(Debug, Clone)]
struct LaneOut {
    /// Two-bit choice planes (all-zero under the static policy).
    choice: Vec<u64>,
    /// Choice differed from the lane's previous selection.
    changed: Vec<u64>,
    /// A load began this cycle.
    started: Vec<u64>,
    /// Raw (unscaled) CEM error planes, `(1 + k) × ERR_BITS`:
    /// multiply by [`rsp_core::cem::ERROR_SCALE`] for the scalar
    /// telemetry's score values.
    err: Vec<u64>,
}

/// A struct-of-arrays batch of N lane machines stepped in lockstep.
#[derive(Debug, Clone)]
pub struct LaneBatch {
    params: LaneParams,
    lanes: usize,
    words: usize,
    cycle: u64,
    state: LaneState,
    out: LaneOut,
    /// Per-lane fault seeds (default: the config's fault seed).
    seeds: Vec<u64>,
    fault_tick: u64,
    scrub_countdown: u64,
    stats: LaneStats,
}

#[inline]
fn group_load<const N: usize>(v: &[u64], base_plane: usize, words: usize, w: usize) -> [u64; N] {
    core::array::from_fn(|b| v[(base_plane + b) * words + w])
}

#[inline]
fn group_store<const N: usize>(
    v: &mut [u64],
    base_plane: usize,
    words: usize,
    w: usize,
    g: &[u64; N],
) {
    for (b, p) in g.iter().enumerate() {
        v[(base_plane + b) * words + w] = *p;
    }
}

impl LaneBatch {
    /// Build a batch of `lanes` machines (a positive multiple of 64)
    /// from a lane-steppable configuration. Every lane starts in the
    /// reset state of the scalar [`crate::processor::Machine`]:
    /// `initial_config` loaded instantly, no load in flight, no faults
    /// accumulated.
    // `is_multiple_of` needs Rust 1.87; the workspace MSRV is 1.82.
    #[allow(unknown_lints, clippy::manual_is_multiple_of)]
    pub fn new(cfg: &SimConfig, lanes: usize) -> Result<LaneBatch, String> {
        if lanes == 0 || lanes % 64 != 0 {
            return Err(format!(
                "lanes must be a positive multiple of 64, got {lanes}"
            ));
        }
        let params = LaneParams::from_config(cfg)?;
        let words = lanes / 64;
        let k = params.candidates.len();
        let smoothing = params.policy.smooth_shift > 0;
        let mut state = LaneState {
            words,
            enc: vec![0; params.n_slots * 3 * words],
            corrupted: vec![0; params.n_slots * words],
            loading: vec![0; words],
            site: vec![0; SITE_BITS * words],
            rem: vec![0; REM_BITS * words],
            streak: vec![0; STREAK_BITS * words],
            view: vec![0; words],
            last: vec![0; 2 * words],
            have_last: vec![0; words],
            acc: if smoothing {
                vec![0; NTYPES * ACC_BITS * words]
            } else {
                Vec::new()
            },
        };
        for (s, &e) in params.init_enc.iter().enumerate() {
            for b in 0..3 {
                if (e >> b) & 1 != 0 {
                    for w in 0..words {
                        state.enc[(s * 3 + b) * words + w] = plane::ALL;
                    }
                }
            }
        }
        let out = LaneOut {
            choice: vec![0; 2 * words],
            changed: vec![0; words],
            started: vec![0; words],
            err: vec![0; (1 + k) * ERR_BITS * words],
        };
        Ok(LaneBatch {
            seeds: vec![params.default_seed; lanes],
            scrub_countdown: params.scrub_interval,
            params,
            lanes,
            words,
            cycle: 0,
            state,
            out,
            fault_tick: 0,
            stats: LaneStats::default(),
        })
    }

    /// Number of lanes stepped in lockstep.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cycles stepped so far.
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The lowered per-lane machine parameters.
    pub fn params(&self) -> &LaneParams {
        &self.params
    }

    /// Aggregate counters over all lanes.
    pub fn stats(&self) -> &LaneStats {
        &self.stats
    }

    /// Override one lane's fault seed (before the first step, to match
    /// a scalar machine whose `FaultParams::seed` differs).
    pub fn set_fault_seed(&mut self, lane: usize, seed: u64) {
        self.seeds[lane] = seed;
    }

    /// Advance every lane by one cycle, reading the stimulus row at
    /// `cycle_in_stim`. Allocation-free: all work happens in
    /// fixed-size locals and preallocated planes.
    pub fn step(&mut self, stim: &LaneStimulus, cycle_in_stim: usize) {
        assert_eq!(stim.lanes(), self.lanes, "stimulus lane count mismatch");
        assert_eq!(
            stim.queue_len(),
            self.params.queue_len,
            "stimulus queue mismatch"
        );
        assert_eq!(
            stim.n_slots(),
            self.params.n_slots,
            "stimulus slot mismatch"
        );
        assert!(cycle_in_stim < stim.cycles(), "stimulus cycle out of range");

        for w in 0..self.words {
            step_word(
                &self.params,
                &mut self.state,
                &mut self.out,
                &mut self.stats,
                stim,
                cycle_in_stim,
                w,
            );
        }
        if self.params.upset_ppm > 0 {
            self.fault_pass(stim, cycle_in_stim);
        }
        if self.params.policy.has_selection {
            for w in 0..self.words {
                let b0 = self.out.choice[w];
                let b1 = self.out.choice[self.words + w];
                self.stats.selections[0] += (!b0 & !b1).count_ones() as u64;
                self.stats.selections[1] += (b0 & !b1).count_ones() as u64;
                self.stats.selections[2] += (!b0 & b1).count_ones() as u64;
                self.stats.selections[3] += (b0 & b1).count_ones() as u64;
                self.stats.selection_changes += self.out.changed[w].count_ones() as u64;
                self.stats.loads_started += self.out.started[w].count_ones() as u64;
            }
        }
        self.cycle += 1;
        self.stats.steps += 1;
    }

    /// The scalar fault tick, one lane at a time: a keyed upset draw
    /// per lane (each lane's schedule is its own seed, the shared tick
    /// counter, and the shared streams — identical to a scalar fabric
    /// with that seed), then the lane-uniform scrub countdown.
    fn fault_pass(&mut self, stim: &LaneStimulus, cycle: usize) {
        self.fault_tick += 1;
        let words = self.words;
        let ns = self.params.n_slots;
        for lane in 0..self.lanes {
            let seed = self.seeds[lane];
            if !keyed_chance_ppm(
                seed,
                stream::UPSET_STRIKE,
                self.fault_tick,
                0,
                self.params.upset_ppm,
            ) {
                continue;
            }
            let target =
                (keyed_draw(seed, stream::UPSET_TARGET, self.fault_tick, 0) % ns as u64) as usize;
            let (w, bit) = (lane / 64, (lane % 64) as u32);
            let enc_at = |state: &LaneState, s: usize| -> u8 {
                let g: [u64; 3] = group_load(&state.enc, s * 3, words, w);
                plane::extract(&g, bit)
            };
            // Walk continuations back to the unit head (the scalar
            // `alloc.units()` victim search).
            let mut s = target;
            let head = loop {
                let e = enc_at(&self.state, s);
                if e == ENC_EMPTY {
                    break None;
                }
                if e == ENC_CONT {
                    debug_assert!(s > 0, "continuation at slot 0");
                    s -= 1;
                    continue;
                }
                break Some((s, UnitType::from_encoding(e).expect("valid encoding")));
            };
            let Some((head, unit)) = head else {
                self.stats.upsets_dissipated += 1;
                continue;
            };
            let busy = (stim.busy_plane(cycle, head, w) >> bit) & 1 != 0;
            let corrupt = (self.state.corrupted[head * words + w] >> bit) & 1 != 0;
            if busy || corrupt {
                self.stats.upsets_dissipated += 1;
                continue;
            }
            for x in head..head + unit.slot_cost() {
                self.state.corrupted[x * words + w] |= 1u64 << bit;
            }
            self.stats.upsets_injected += 1;
        }

        if self.params.scrub_interval > 0 {
            self.scrub_countdown = self.scrub_countdown.saturating_sub(1);
            if self.scrub_countdown == 0 {
                self.scrub_countdown = self.params.scrub_interval;
                self.stats.scrub_passes += 1;
                self.scrub();
            }
        }
    }

    /// One scrub pass over all lanes at once: for every (slot, type)
    /// pair, lanes with a corrupted unit head there get the span's
    /// corruption *and* encodings cleared (the scalar walk removes the
    /// unit from the allocation vector). Plane-safe because unit spans
    /// are disjoint and `ENC_CONT` matches no unit-type encoding.
    fn scrub(&mut self) {
        let words = self.words;
        for w in 0..words {
            for h in 0..self.params.n_slots {
                let corr_h = self.state.corrupted[h * words + w];
                if corr_h == 0 {
                    continue;
                }
                let g: [u64; 3] = group_load(&self.state.enc, h * 3, words, w);
                for &t in &UnitType::ALL {
                    let m = plane::eq_const(&g, t.encoding()) & corr_h;
                    if m == 0 {
                        continue;
                    }
                    self.stats.upsets_detected += m.count_ones() as u64;
                    for x in h..h + t.slot_cost() {
                        self.state.corrupted[x * words + w] &= !m;
                        for b in 0..3 {
                            self.state.enc[(x * 3 + b) * words + w] &= !m;
                        }
                    }
                }
            }
        }
    }

    // ---- per-lane extraction (tests, telemetry; not the hot path) ----

    #[inline]
    fn loc(&self, lane: usize) -> (usize, u32) {
        assert!(lane < self.lanes);
        (lane / 64, (lane % 64) as u32)
    }

    /// One lane's slot encodings (3-bit values, `n_slots` long).
    pub fn lane_alloc(&self, lane: usize) -> Vec<u8> {
        let (w, bit) = self.loc(lane);
        (0..self.params.n_slots)
            .map(|s| {
                let g: [u64; 3] = group_load(&self.state.enc, s * 3, self.words, w);
                plane::extract(&g, bit)
            })
            .collect()
    }

    /// One lane's corrupted-slot mask.
    pub fn lane_corrupted(&self, lane: usize) -> u64 {
        let (w, bit) = self.loc(lane);
        let mut mask = 0;
        for s in 0..self.params.n_slots {
            if (self.state.corrupted[s * self.words + w] >> bit) & 1 != 0 {
                mask |= 1 << s;
            }
        }
        mask
    }

    /// One lane's configured counts (live RFU units + fabric FFUs) —
    /// `Fabric::configured_counts`.
    pub fn lane_configured_counts(&self, lane: usize) -> TypeCounts {
        self.lane_counts(lane, false)
    }

    /// One lane's effective counts (zombies excluded) —
    /// `Fabric::effective_counts`.
    pub fn lane_effective_counts(&self, lane: usize) -> TypeCounts {
        self.lane_counts(lane, true)
    }

    fn lane_counts(&self, lane: usize, effective: bool) -> TypeCounts {
        let alloc = self.lane_alloc(lane);
        let corrupted = self.lane_corrupted(lane);
        let mut c = TypeCounts::ZERO;
        for (t, &f) in self.params.ffu.iter().enumerate() {
            c.add(UnitType::ALL[t], f);
        }
        for (s, &e) in alloc.iter().enumerate() {
            if e == ENC_EMPTY || e == ENC_CONT {
                continue;
            }
            if effective && (corrupted >> s) & 1 != 0 {
                continue;
            }
            c.add(UnitType::from_encoding(e).expect("valid encoding"), 1);
        }
        c
    }

    /// One lane's in-flight load: `Some((head, remaining))`.
    pub fn lane_load_in_flight(&self, lane: usize) -> Option<(usize, u8)> {
        let (w, bit) = self.loc(lane);
        if (self.state.loading[w] >> bit) & 1 == 0 {
            return None;
        }
        let site: [u64; SITE_BITS] = group_load(&self.state.site, 0, self.words, w);
        let rem: [u64; REM_BITS] = group_load(&self.state.rem, 0, self.words, w);
        let id = plane::extract(&site, bit) as usize;
        Some((self.params.sites[id].head, plane::extract(&rem, bit)))
    }

    /// One lane's choice this cycle (two-bit code; `None` under the
    /// static policy).
    pub fn lane_choice(&self, lane: usize) -> Option<u8> {
        if !self.params.policy.has_selection {
            return None;
        }
        let (w, bit) = self.loc(lane);
        let g = [self.out.choice[w], self.out.choice[self.words + w]];
        Some(plane::extract(&g, bit))
    }

    /// Whether this cycle's choice differed from the lane's previous
    /// selection (the telemetry `changed` flag).
    pub fn lane_changed(&self, lane: usize) -> bool {
        let (w, bit) = self.loc(lane);
        (self.out.changed[w] >> bit) & 1 != 0
    }

    /// Whether a reconfiguration load began this cycle.
    pub fn lane_started(&self, lane: usize) -> bool {
        let (w, bit) = self.loc(lane);
        (self.out.started[w] >> bit) & 1 != 0
    }

    /// One lane's raw CEM errors `[current, cand 1, …]` this cycle —
    /// multiply by [`rsp_core::cem::ERROR_SCALE`] to get the scalar
    /// telemetry's `SteeringDecision` scores.
    pub fn lane_raw_errors(&self, lane: usize) -> Vec<u8> {
        let (w, bit) = self.loc(lane);
        (0..=self.params.candidates.len())
            .map(|j| {
                let g: [u64; ERR_BITS] = group_load(&self.out.err, j * ERR_BITS, self.words, w);
                plane::extract(&g, bit)
            })
            .collect()
    }
}

/// One cycle of the steering loop for word `w` (64 lanes): decode,
/// requirement counters, optional EWMA filter, live counts, the
/// fault-aware view, CEM, selection, loader, and the load countdown —
/// all in local plane registers, stored back once.
fn step_word(
    params: &LaneParams,
    state: &mut LaneState,
    out: &mut LaneOut,
    stats: &mut LaneStats,
    stim: &LaneStimulus,
    cycle: usize,
    w: usize,
) {
    let words = state.words;
    let ns = params.n_slots;
    let pol = params.policy;
    let k = params.candidates.len();

    // ---- load state planes into registers ----
    let mut enc = [[0u64; 3]; MAX_LANE_SLOTS];
    let mut corr = [0u64; MAX_LANE_SLOTS];
    let mut busy = [0u64; MAX_LANE_SLOTS];
    for s in 0..ns {
        enc[s] = group_load(&state.enc, s * 3, words, w);
        corr[s] = state.corrupted[s * words + w];
        busy[s] = stim.busy_plane(cycle, s, w);
    }
    let mut loading = state.loading[w];
    let mut site_pl: [u64; SITE_BITS] = group_load(&state.site, 0, words, w);
    let mut rem_pl: [u64; REM_BITS] = group_load(&state.rem, 0, words, w);

    if pol.has_selection {
        // ---- stage 1 + 2: unit decode into demand planes, summed by
        // carry-save requirement counters ----
        let mut req = [[0u64; 3]; NTYPES];
        for e in 0..params.queue_len {
            let valid = stim.entry_plane(cycle, e, 0, w);
            let code = [
                stim.entry_plane(cycle, e, 1, w),
                stim.entry_plane(cycle, e, 2, w),
                stim.entry_plane(cycle, e, 3, w),
            ];
            for (t, r) in req.iter_mut().enumerate() {
                let m = valid & plane::eq_const(&code, t as u8);
                let carry = plane::inc_masked(r, m);
                debug_assert_eq!(carry, 0, "≤7-entry queue cannot overflow 3-bit counters");
            }
        }

        // ---- optional EWMA demand filter (PaperSmoothed) ----
        if pol.smooth_shift > 0 {
            let sh = pol.smooth_shift as usize;
            for (t, r) in req.iter_mut().enumerate() {
                let acc: [u64; ACC_BITS] = group_load(&state.acc, t * ACC_BITS, words, w);
                let mut target = [0u64; ACC_BITS];
                target[FRAC_BITS..FRAC_BITS + 3].copy_from_slice(r);
                // delta = (target - acc) >> shift, arithmetic in
                // 12-bit two's complement (plane reindex + sign fill).
                let (diff, _) = plane::sub(&target, &acc);
                let delta: [u64; ACC_BITS] =
                    core::array::from_fn(|i| diff[(i + sh).min(ACC_BITS - 1)]);
                let (acc2, _) = plane::add(&acc, &delta);
                // out = (acc + 128) >> 8; the accumulator never
                // exceeds 7 << 8, so bits 8..=10 are the whole value.
                let (rounded, _) = plane::add(&acc2, &plane::splat(0x80));
                *r = [
                    rounded[FRAC_BITS],
                    rounded[FRAC_BITS + 1],
                    rounded[FRAC_BITS + 2],
                ];
                group_store(&mut state.acc, t * ACC_BITS, words, w, &acc2);
            }
        }

        // ---- live counts from the encoding planes (recomputed every
        // cycle, so load/destroy/upset/scrub bookkeeping is free) ----
        let mut cur = [[0u64; CNT_BITS]; NTYPES];
        if pol.fault_aware {
            let mut eff = [[0u64; CNT_BITS]; NTYPES];
            for s in 0..ns {
                for (t, ty) in UnitType::ALL.iter().enumerate() {
                    let m = plane::eq_const(&enc[s], ty.encoding());
                    plane::inc_masked(&mut cur[t], m);
                    plane::inc_masked(&mut eff[t], m & !corr[s]);
                }
            }
            // Degraded = effective ≠ nominal (dead slots are rejected
            // at construction, so `dead_degraded` is always false and
            // the FFU contribution cancels out of the comparison).
            let mut deg = 0u64;
            for t in 0..NTYPES {
                for b in 0..CNT_BITS {
                    deg |= cur[t][b] ^ eff[t][b];
                }
            }
            let mut streak: [u64; STREAK_BITS] = group_load(&state.streak, 0, words, w);
            let carry = plane::inc_masked(&mut streak, deg);
            for p in streak.iter_mut() {
                // Saturate wrapped lanes, zero non-degraded lanes.
                *p = (*p | carry) & deg;
            }
            let over = streak[5] | streak[6] | streak[7];
            let view = deg & (state.view[w] | over);
            state.view[w] = view;
            group_store(&mut state.streak, 0, words, w, &streak);
            for t in 0..NTYPES {
                cur[t] = plane::mux(view, &eff[t], &cur[t]);
            }
        } else {
            for e in enc.iter().take(ns) {
                for (t, ty) in UnitType::ALL.iter().enumerate() {
                    let m = plane::eq_const(e, ty.encoding());
                    plane::inc_masked(&mut cur[t], m);
                }
            }
        }
        for (t, c) in cur.iter_mut().enumerate() {
            plane::add_const(c, params.ffu[t]);
        }

        // ---- stage 3: barrel-shift CEM ----
        // Candidate 0 (current config): per-lane availability shift,
        // computed as a mux over the saturated 3-bit quantity.
        let mut errs = [[0u64; ERR_BITS]; 1 + MAX_LANE_CANDIDATES];
        for (t, r) in req.iter().enumerate() {
            let ge8 = cur[t][3];
            let a2 = cur[t][2] | ge8;
            let a1 = cur[t][1] | ge8;
            let s2 = a2;
            let s1 = !a2 & a1;
            let n = !a2 & !a1;
            let term = [
                (s2 & r[2]) | (s1 & r[1]) | (n & r[0]),
                (s1 & r[2]) | (n & r[1]),
                n & r[2],
            ];
            let (sum, _) = plane::add(&errs[0], &plane::widen::<3, ERR_BITS>(&term));
            errs[0] = sum;
        }
        // Candidates 1..=k: constant shifts → plane reindexing.
        for (i, cand) in params.candidates.iter().enumerate() {
            for (t, r) in req.iter().enumerate() {
                let term = match cand.shifts[t] {
                    0 => *r,
                    1 => [r[1], r[2], 0],
                    _ => [r[2], 0, 0],
                };
                let (sum, _) = plane::add(&errs[i + 1], &plane::widen::<3, ERR_BITS>(&term));
                errs[i + 1] = sum;
            }
        }

        // ---- placement costs (diff_count against the live alloc) ----
        let mut costs = [[0u64; COST_BITS]; MAX_LANE_CANDIDATES];
        for (i, cand) in params.candidates.iter().enumerate() {
            for (s, e) in enc.iter().enumerate().take(ns) {
                let differs = !plane::eq_const(e, cand.slot_enc[s]);
                plane::inc_masked(&mut costs[i], differs);
            }
        }

        // ---- stage 4: minimal-error selection with tie rules ----
        let mut best = [0u64; 2];
        let mut best_err = errs[0];
        let mut best_cost = [0u64; COST_BITS];
        for i in 0..k {
            let err_i = &errs[i + 1];
            let cost_i = &costs[i];
            let lt_err = plane::lt(err_i, &best_err);
            let eq_err = plane::eq(err_i, &best_err);
            let lt_cost = plane::lt(cost_i, &best_cost);
            let best_is_current = !(best[0] | best[1]);
            let tie_ok = match pol.tie {
                // Displace the incumbent only if it is not the current
                // config and the challenger is strictly cheaper.
                TieBreak::FavorCurrent => !best_is_current & lt_cost,
                // Displace the current config on any tie; otherwise
                // cheaper wins.
                TieBreak::PreferPredefined => best_is_current | lt_cost,
            };
            let better = lt_err | (eq_err & tie_ok);
            best = plane::mux_const(better, (i + 1) as u8, &best);
            best_err = plane::mux(better, err_i, &best_err);
            best_cost = plane::mux(better, cost_i, &best_cost);
        }

        // ---- outputs + last-choice bookkeeping ----
        out.choice[w] = best[0];
        out.choice[words + w] = best[1];
        for (j, e) in errs.iter().enumerate().take(1 + k) {
            group_store(&mut out.err, j * ERR_BITS, words, w, e);
        }
        let last: [u64; 2] = group_load(&state.last, 0, words, w);
        out.changed[w] = state.have_last[w] & !plane::eq(&best, &last);
        group_store(&mut state.last, 0, words, w, &best);
        state.have_last[w] = plane::ALL;

        // ---- configuration loader ----
        let mut started = 0u64;
        for (i, cand) in params.candidates.iter().enumerate() {
            let chose = plane::eq_const(&best, (i + 1) as u8);
            if chose == 0 {
                continue;
            }
            for &sid in &cand.sites {
                let site = &params.sites[sid];
                let already = plane::eq_const(&enc[site.head], site.enc);
                let attempt = if pol.partial {
                    // Skip spans that already hold the unit — unless
                    // fault-aware and the span is a zombie (forced
                    // reload rewrites the corrupted configuration).
                    let zombie = if pol.fault_aware {
                        already & corr[site.head]
                    } else {
                        0
                    };
                    chose & (!already | zombie)
                } else {
                    chose
                };
                if attempt == 0 {
                    continue;
                }
                let mut span_busy = 0u64;
                for b in &busy[site.head..site.head + site.cost] {
                    span_busy |= b;
                }
                // One port: `loading` doubles as the port-free check.
                let success = attempt & !loading & !span_busy;
                if success == 0 {
                    continue;
                }
                for &(g, u_enc, u_cost) in &site.overlaps {
                    let ov = success & plane::eq_const(&enc[g], u_enc);
                    if ov == 0 {
                        continue;
                    }
                    for x in g..g + u_cost {
                        for p in enc[x].iter_mut() {
                            *p &= !ov;
                        }
                        corr[x] &= !ov;
                    }
                }
                loading |= success;
                site_pl = plane::mux_const(success, sid as u8, &site_pl);
                rem_pl = plane::mux_const(success, site.rem_init, &rem_pl);
                started |= success;
            }
        }
        out.started[w] = started;
    }

    // ---- fabric load countdown (the scalar `tick_into` retain loop;
    // runs under every policy — vacuous when nothing is loading) ----
    let ticking = loading & !plane::is_zero(&rem_pl);
    plane::dec_masked(&mut rem_pl, ticking);
    let done = loading & plane::is_zero(&rem_pl);
    loading &= !done;
    if done != 0 {
        stats.loads_completed += done.count_ones() as u64;
        for (sid, site) in params.sites.iter().enumerate() {
            let dm = done & plane::eq_const(&site_pl, sid as u8);
            if dm == 0 {
                continue;
            }
            enc[site.head] = plane::mux_const(dm, site.enc, &enc[site.head]);
            for e in enc
                .iter_mut()
                .take(site.head + site.cost)
                .skip(site.head + 1)
            {
                *e = plane::mux_const(dm, ENC_CONT, e);
            }
        }
    }

    // ---- store state planes back ----
    for s in 0..ns {
        group_store(&mut state.enc, s * 3, words, w, &enc[s]);
        state.corrupted[s * words + w] = corr[s];
    }
    state.loading[w] = loading;
    group_store(&mut state.site, 0, words, w, &site_pl);
    group_store(&mut state.rem, 0, words, w, &rem_pl);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use rsp_fabric::config::SteeringSet;

    #[test]
    fn rejects_unsupported_configs() {
        let lanes = 64;
        let cfg = SimConfig {
            policy: PolicyKind::DemandDriven,
            ..SimConfig::default()
        };
        assert!(LaneBatch::new(&cfg, lanes).is_err());
        let cfg = SimConfig {
            policy: PolicyKind::Paper {
                tie: TieBreak::FavorCurrent,
                cem: CemKind::ExactDivider,
                partial: true,
                fault_aware: false,
            },
            ..SimConfig::default()
        };
        assert!(LaneBatch::new(&cfg, lanes).is_err());
        let mut cfg = SimConfig::default();
        cfg.fabric.reconfig_ports = 2;
        assert!(LaneBatch::new(&cfg, lanes).is_err());
        let cfg = SimConfig {
            queue_size: 9,
            ..SimConfig::default()
        };
        assert!(LaneBatch::new(&cfg, lanes).is_err());
        let mut cfg = SimConfig::default();
        cfg.fabric.faults.load_failure_ppm = 10;
        assert!(LaneBatch::new(&cfg, lanes).is_err());
        let mut cfg = SimConfig::default();
        cfg.fabric.faults.dead_slots = vec![7];
        assert!(LaneBatch::new(&cfg, lanes).is_err());
        assert!(LaneBatch::new(&SimConfig::default(), 63).is_err());
        assert!(LaneBatch::new(&SimConfig::default(), 0).is_err());
        assert!(LaneBatch::new(&SimConfig::default(), 128).is_ok());
    }

    #[test]
    fn paper_default_lowering() {
        let p = LaneParams::from_config(&SimConfig::default()).unwrap();
        assert_eq!(p.candidates.len(), 3);
        // 5 + 4 + 4 units, but Config 1 and Config 2 share the
        // Int-ALU site at slot 0 and Config 2/3 placements overlap at
        // distinct heads — just bound it.
        assert!(p.sites.len() <= MAX_LANE_SITES);
        // Config 1 + FFUs = [3,2,3,1,1] → shifts [1,1,1,0,0].
        assert_eq!(p.candidates[0].shifts, [1, 1, 1, 0, 0]);
        // Config 3 + FFUs = [1,1,3,2,2] → shifts [0,0,1,1,1].
        assert_eq!(p.candidates[2].shifts, [0, 0, 1, 1, 1]);
        // Initial config (Config 1) encodings: ALU ALU MDU LSU LSU…
        let set = SteeringSet::paper_default();
        let want: Vec<u8> = (0..8)
            .map(|s| match set.predefined[0].placement.unit_at(s) {
                Some(pu) if pu.head == s => pu.unit.encoding(),
                Some(_) => ENC_CONT,
                None => ENC_EMPTY,
            })
            .collect();
        assert_eq!(p.init_enc, want);
    }

    #[test]
    fn idle_lanes_keep_current_config() {
        // Zero demand → every candidate scores 0 → FavorCurrent keeps
        // the current configuration and never reconfigures.
        let cfg = SimConfig::default();
        let mut batch = LaneBatch::new(&cfg, 128).unwrap();
        let stim = LaneStimulus::new(128, 4, cfg.queue_size, 8);
        let init = batch.lane_alloc(77);
        for c in 0..16 {
            batch.step(&stim, c % 4);
        }
        assert_eq!(batch.lane_choice(77), Some(0));
        assert_eq!(batch.lane_alloc(77), init);
        assert_eq!(batch.stats().loads_started, 0);
        assert_eq!(batch.stats().selections[0], 16 * 128);
        assert_eq!(batch.lane_raw_errors(77), vec![0, 0, 0, 0]);
        assert!(batch.lane_load_in_flight(77).is_none());
    }

    #[test]
    fn demand_steers_and_loads_complete() {
        // All-FP demand must steer to Config 3 ([0,0,2,1,1]) and,
        // after cost × latency cycles per span, deliver FP units.
        let cfg = SimConfig::default();
        let mut batch = LaneBatch::new(&cfg, 64).unwrap();
        let mut stim = LaneStimulus::new(64, 1, cfg.queue_size, 8);
        for lane in 0..64 {
            stim.set_demand_counts(lane, 0, &TypeCounts::new([0, 0, 0, 3, 3]))
                .unwrap();
        }
        for _ in 0..2000 {
            batch.step(&stim, 0);
        }
        // Once Config 3 is fully loaded its error ties the current
        // configuration's and FavorCurrent settles on Current.
        assert_eq!(batch.lane_choice(13), Some(0));
        let counts = batch.lane_configured_counts(13);
        assert_eq!(counts.get(UnitType::FpAlu), 2); // 1 RFU + 1 FFU
        assert_eq!(counts.get(UnitType::FpMdu), 2);
        assert_eq!(counts, batch.lane_effective_counts(13));
        assert!(batch.stats().loads_completed >= 64);
    }

    #[test]
    fn static_policy_never_selects() {
        let cfg = SimConfig::static_on(1);
        let mut batch = LaneBatch::new(&cfg, 64).unwrap();
        let mut stim = LaneStimulus::new(64, 1, cfg.queue_size, 8);
        for lane in 0..64 {
            stim.set_demand_counts(lane, 0, &TypeCounts::new([0, 0, 0, 3, 3]))
                .unwrap();
        }
        let init = batch.lane_alloc(0);
        for _ in 0..100 {
            batch.step(&stim, 0);
        }
        assert_eq!(batch.lane_choice(0), None);
        assert_eq!(batch.lane_alloc(0), init);
        assert_eq!(batch.stats().selections, [0, 0, 0, 0]);
    }
}
