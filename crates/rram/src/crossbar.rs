//! The resistive crossbar array model.
//!
//! PLiM treats the whole crossbar as one flat address space, so the model is
//! a growable vector of bipolar resistive switches (BRS). Each cell records
//! its stored state and the number of times it has been written. An optional
//! endurance limit turns over-writing into a hard failure, which the
//! test-suite uses for failure injection. The stored state is a 64-lane
//! word (lane `k` serves input vector `k`); bit accesses see lane 0 and
//! store their bit broadcast to every lane.

use std::fmt;

use crate::fault::{CellProfile, FaultModel, StuckAtError, WriteFault};

/// Index of a cell in a [`Crossbar`].
///
/// Newtype so cell addresses cannot be confused with MIG node ids or
/// instruction indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(u32);

impl CellId {
    /// Creates a cell id from a raw index.
    #[inline]
    pub fn new(index: u32) -> Self {
        CellId(index)
    }

    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A write was attempted on a cell whose endurance is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnduranceError {
    /// The worn-out cell.
    pub cell: CellId,
    /// The endurance limit that was exceeded.
    pub limit: u64,
}

impl fmt::Display for EnduranceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} exceeded its endurance limit of {} writes",
            self.cell, self.limit
        )
    }
}

impl std::error::Error for EnduranceError {}

/// One bipolar resistive switch: its state in every lane, plus wear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    value: u64,
    writes: u64,
    switches: u64,
}

/// `bit` in every lane.
#[inline]
fn broadcast(bit: bool) -> u64 {
    u64::from(bit).wrapping_neg()
}

/// A growable crossbar of RRAM cells with per-cell wear tracking.
///
/// # Examples
///
/// ```
/// use rlim_rram::Crossbar;
///
/// let mut array = Crossbar::with_endurance(2);
/// let c = array.alloc(false);
/// array.write(c, true).unwrap();
/// array.write(c, true).unwrap(); // same value still wears the cell
/// assert!(array.write(c, false).is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Crossbar {
    cells: Vec<Cell>,
    endurance: Option<u64>,
    faults: Option<Faults>,
}

/// Per-cell fault state, grown in lockstep with `cells` so profile
/// sampling happens once per cell at allocation time, off the hot write
/// path.
#[derive(Debug, Clone)]
struct Faults {
    model: FaultModel,
    profiles: Vec<CellProfile>,
}

impl Crossbar {
    /// Lanes carried by one cell word.
    pub const LANES: usize = 64;

    /// An empty array without an endurance limit.
    pub fn new() -> Self {
        Crossbar::default()
    }

    /// An empty array whose cells fail after `limit` writes.
    pub fn with_endurance(limit: u64) -> Self {
        Crossbar {
            cells: Vec::new(),
            endurance: Some(limit),
            faults: None,
        }
    }

    /// An empty array under fault injection: each cell's endurance limit
    /// and latent stuck-at fault are sampled from `model` at allocation
    /// time (deterministic per `(seed, cell index)`), overriding any
    /// uniform limit.
    pub fn with_faults(model: FaultModel) -> Self {
        Crossbar {
            cells: Vec::new(),
            endurance: None,
            faults: Some(Faults {
                model,
                profiles: Vec::new(),
            }),
        }
    }

    /// The configured endurance limit, if any.
    pub fn endurance(&self) -> Option<u64> {
        self.endurance
    }

    /// The fault-injection model, when this array runs under one.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.faults.as_ref().map(|f| &f.model)
    }

    /// The value cell `cell` is currently frozen at, if its latent
    /// stuck-at fault has manifested (its wear reached the fault onset).
    pub fn stuck_at(&self, cell: CellId) -> Option<bool> {
        let stuck = self.faults.as_ref()?.profiles[cell.index()].stuck?;
        (self.cells[cell.index()].writes >= stuck.onset).then_some(stuck.value)
    }

    /// Number of cells in the array.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the array has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Appends a cell preloaded with `value`. Preloading does not count as a
    /// write (the paper's accounting excludes input loading).
    pub fn alloc(&mut self, value: bool) -> CellId {
        let id = CellId(u32::try_from(self.cells.len()).expect("crossbar too large"));
        if let Some(f) = &mut self.faults {
            f.profiles.push(f.model.profile(id.index()));
        }
        self.cells.push(Cell {
            value: broadcast(value),
            writes: 0,
            switches: 0,
        });
        id
    }

    /// Grows the array to `len` cells, preloading new cells with `false`.
    pub fn grow_to(&mut self, len: usize) {
        while self.cells.len() < len {
            self.alloc(false);
        }
    }

    /// Reads a cell's stored bit (lane 0).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[inline]
    pub fn read(&self, cell: CellId) -> bool {
        self.cells[cell.index()].value & 1 == 1
    }

    /// Reads a cell's stored word, one bit per lane. Panics as
    /// [`read`](Self::read).
    #[inline]
    pub fn read_word(&self, cell: CellId) -> u64 {
        self.cells[cell.index()].value
    }

    /// Writes `value` into `cell` (broadcast to every lane), incrementing
    /// its wear counter. RRAM programming pulses stress the device
    /// regardless of whether the value changes, so identical-value writes
    /// also count. The one-lane case of [`write_word`](Self::write_word).
    ///
    /// # Errors
    ///
    /// Returns [`EnduranceError`] when the cell has already reached the
    /// configured endurance limit.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[inline]
    pub fn write(&mut self, cell: CellId, value: bool) -> Result<(), EnduranceError> {
        self.write_word(cell, broadcast(value), 1)
    }

    /// Writes `word` into `cell`, charging one logical write per active
    /// lane; bits above `lanes` are stored but carry no wear. Only
    /// one-lane writes count switches (lane-serial flips are unobservable).
    ///
    /// # Errors
    ///
    /// Returns [`EnduranceError`], performing no lane, when
    /// `writes + lanes` would exceed the cell's endurance limit.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range or `lanes` is not in `1..=64`.
    #[inline]
    pub fn write_word(
        &mut self,
        cell: CellId,
        word: u64,
        lanes: usize,
    ) -> Result<(), EnduranceError> {
        assert!(
            (1..=Self::LANES).contains(&lanes),
            "active lane count must be in 1..=64"
        );
        let profile = self.faults.as_ref().map(|f| f.profiles[cell.index()]);
        let limit = profile.map(|p| p.limit).or(self.endurance);
        let c = &mut self.cells[cell.index()];
        if let Some(limit) = limit {
            if c.writes + lanes as u64 > limit {
                return Err(EnduranceError { cell, limit });
            }
        }
        // The pulse is applied (and wears the cell) even when a stuck-at
        // fault keeps the stored state frozen — absorption, not rejection.
        c.writes += lanes as u64;
        let stored = match profile.and_then(|p| p.stuck) {
            Some(s) if c.writes >= s.onset => broadcast(s.value),
            _ => word,
        };
        if lanes == 1 {
            c.switches += (c.value ^ stored) & 1;
        }
        c.value = stored;
        Ok(())
    }

    /// Writes `value` into `cell`, then reads it back — the write-verify
    /// cycle that detects stuck-at faults. Wear accounting matches
    /// [`write`](Self::write): a worn-out cell rejects the pulse without
    /// wearing, a stuck cell absorbs it (and wears) but fails
    /// verification. A stuck cell written with its frozen value verifies
    /// clean (the fault is latent until the other state is needed).
    ///
    /// # Errors
    ///
    /// [`WriteFault::Worn`] when endurance is exhausted,
    /// [`WriteFault::Stuck`] when the readback disagrees with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[inline]
    pub fn write_verified(&mut self, cell: CellId, value: bool) -> Result<(), WriteFault> {
        self.write(cell, value)?;
        Ok(self.verify(cell, value)?)
    }

    /// Sets a cell's value (broadcast to every lane) **without** counting
    /// a write. Models the input load phase, which the paper's accounting
    /// excludes (the array acts as a plain RAM whose contents are given
    /// before computation starts).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[inline]
    pub fn preload(&mut self, cell: CellId, value: bool) {
        self.preload_word(cell, broadcast(value));
    }

    /// Sets a cell's word **without** counting writes — the per-lane
    /// input load. A manifest stuck-at fault freezes every lane. Panics
    /// as [`preload`](Self::preload).
    #[inline]
    pub fn preload_word(&mut self, cell: CellId, word: u64) {
        let stored = self.stuck_at(cell).map_or(word, broadcast);
        self.cells[cell.index()].value = stored;
    }

    /// Preloads `cell` and reads it back, like
    /// [`write_verified`](Self::write_verified) but wear-free — the
    /// input-load phase's
    /// detection primitive. A manifest stuck-at fault on an input cell
    /// surfaces here instead of silently corrupting the computation.
    ///
    /// # Errors
    ///
    /// [`StuckAtError`] when the readback disagrees with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn preload_verified(&mut self, cell: CellId, value: bool) -> Result<(), StuckAtError> {
        self.preload(cell, value);
        self.verify(cell, value)
    }

    /// The readback half of a verified access.
    fn verify(&self, cell: CellId, value: bool) -> Result<(), StuckAtError> {
        let stuck = self.read(cell);
        if stuck == value {
            Ok(())
        } else {
            Err(StuckAtError { cell, stuck })
        }
    }

    /// Broadcasts every cell's bit at `lane` to all lanes, wear-free.
    /// Panics if `lane` is not below [`Crossbar::LANES`].
    pub fn broadcast_lane(&mut self, lane: usize) {
        assert!(lane < Self::LANES, "lane must be in 0..64");
        for c in &mut self.cells {
            c.value = broadcast((c.value >> lane) & 1 == 1);
        }
    }

    /// Write count of one cell.
    #[inline]
    pub fn writes(&self, cell: CellId) -> u64 {
        self.cells[cell.index()].writes
    }

    /// Write counts of every cell, indexed by cell.
    pub fn write_counts(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.writes).collect()
    }

    /// Switching count of one cell: programming pulses that actually
    /// flipped the stored state. Real RRAM wear is dominated by these;
    /// the compiler's write counts are a conservative upper bound.
    #[inline]
    pub fn switches(&self, cell: CellId) -> u64 {
        self.cells[cell.index()].switches
    }

    /// Switching counts of every cell, indexed by cell.
    pub fn switch_counts(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.switches).collect()
    }

    /// Stored values (lane 0) of every cell, indexed by cell.
    pub fn values(&self) -> Vec<bool> {
        self.cells.iter().map(|c| c.value & 1 == 1).collect()
    }

    /// Resets every cell's write and switch counters, keeping the cell
    /// count and the stored values.
    /// Under fault injection this models a factory-fresh device: latent
    /// stuck-at faults un-manifest because their wear-count onsets are no
    /// longer reached.
    pub fn reset_wear(&mut self) {
        for c in &mut self.cells {
            c.writes = 0;
            c.switches = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_preload_is_not_a_write() {
        let mut array = Crossbar::new();
        let c = array.alloc(true);
        assert!(array.read(c));
        assert_eq!(array.writes(c), 0);
    }

    #[test]
    fn writes_update_value_and_wear() {
        let mut array = Crossbar::new();
        let c = array.alloc(false);
        array.write(c, true).unwrap();
        assert!(array.read(c));
        array.write(c, true).unwrap();
        assert!(array.read(c));
        array.write(c, false).unwrap();
        assert!(!array.read(c));
        assert_eq!(array.writes(c), 3);
    }

    #[test]
    fn endurance_limit_enforced() {
        let mut array = Crossbar::with_endurance(2);
        let c = array.alloc(false);
        array.write(c, true).unwrap();
        array.write(c, false).unwrap();
        let err = array.write(c, true).unwrap_err();
        assert_eq!(err.cell, c);
        assert_eq!(err.limit, 2);
        // The failed write must not change the stored value or wear.
        assert!(!array.read(c));
        assert_eq!(array.writes(c), 2);
    }

    #[test]
    fn grow_to_extends_with_zeroes() {
        let mut array = Crossbar::new();
        array.alloc(true);
        array.grow_to(4);
        assert_eq!(array.len(), 4);
        assert!(array.read(CellId::new(0)));
        assert!(!array.read(CellId::new(3)));
        array.grow_to(2); // never shrinks
        assert_eq!(array.len(), 4);
    }

    #[test]
    fn reset_wear_keeps_values() {
        let mut array = Crossbar::new();
        let c = array.alloc(false);
        array.write(c, true).unwrap();
        array.reset_wear();
        assert!(array.read(c));
        assert_eq!(array.writes(c), 0);
    }

    #[test]
    fn switches_only_count_state_changes() {
        let mut array = Crossbar::new();
        let c = array.alloc(false);
        array.write(c, true).unwrap(); // switch
        array.write(c, true).unwrap(); // redundant pulse
        array.write(c, false).unwrap(); // switch
        assert_eq!(array.writes(c), 3);
        assert_eq!(array.switches(c), 2);
        assert_eq!(array.switch_counts(), vec![2]);
        array.reset_wear();
        assert_eq!(array.switches(c), 0);
    }

    #[test]
    fn preload_does_not_switch() {
        let mut array = Crossbar::new();
        let c = array.alloc(false);
        array.preload(c, true);
        assert_eq!(array.switches(c), 0);
    }

    #[test]
    fn error_display() {
        let err = EnduranceError {
            cell: CellId::new(3),
            limit: 10,
        };
        assert_eq!(
            err.to_string(),
            "cell r3 exceeded its endurance limit of 10 writes"
        );
    }

    #[test]
    fn cell_id_ordering_and_display() {
        assert!(CellId::new(1) < CellId::new(2));
        assert_eq!(CellId::new(7).to_string(), "r7");
        assert_eq!(CellId::new(7).index(), 7);
    }

    // ---- Lane words -------------------------------------------------

    #[test]
    fn wear_is_per_logical_write() {
        let mut array = Crossbar::new();
        array.grow_to(2);
        let c = CellId::new(1);
        array.write_word(c, u64::MAX, 64).unwrap();
        array.write_word(c, 0, 5).unwrap();
        assert_eq!(array.writes(c), 69);
        assert_eq!(array.write_counts(), vec![0, 69]);
    }

    #[test]
    fn bit_accesses_broadcast_to_every_lane() {
        let mut array = Crossbar::new();
        let a = array.alloc(true);
        let b = array.alloc(false);
        array.write(b, true).unwrap();
        assert_eq!(array.read_word(a), u64::MAX);
        assert_eq!(array.read_word(b), u64::MAX);
        assert_eq!(array.writes(a), 0);
        assert_eq!(array.writes(b), 1);
    }

    #[test]
    fn broadcast_lane_keeps_that_lanes_values_and_all_wear() {
        let mut array = Crossbar::new();
        let a = array.alloc(false);
        let b = array.alloc(true);
        // Lane 0 writes a=1; lane 1 writes a=0. Cell b is never written.
        array.write_word(a, 0b01, 2).unwrap();
        let mut other = array.clone();
        array.broadcast_lane(1);
        assert!(!array.read(a), "lane 1 stored 0");
        assert_eq!(array.writes(a), 2, "two logical writes");
        assert!(array.read(b), "unwritten cell keeps its value");
        assert_eq!(array.writes(b), 0);
        other.broadcast_lane(0);
        assert!(other.read(a), "lane 0 stored 1");
    }

    #[test]
    fn conservative_endurance_check_is_atomic() {
        let mut array = Crossbar::with_endurance(10);
        array.grow_to(1);
        let c = CellId::new(0);
        array.write_word(c, 1, 8).unwrap();
        // 8 + 3 > 10: the word write fails without performing any lane.
        let err = array.write_word(c, 0, 3).unwrap_err();
        assert_eq!(err.cell, c);
        assert_eq!(err.limit, 10);
        assert_eq!(array.writes(c), 8);
        assert_eq!(array.read_word(c), 1);
        // 8 + 2 = 10 still fits exactly.
        array.write_word(c, 0, 2).unwrap();
        assert_eq!(array.writes(c), 10);
    }

    #[test]
    fn word_writes_share_the_bit_writes_endurance() {
        let mut array = Crossbar::with_endurance(3);
        let c = array.alloc(false);
        array.write(c, true).unwrap();
        assert_eq!(array.endurance(), Some(3));
        assert!(array.write_word(c, 0, 3).is_err(), "1 + 3 > 3");
        array.write_word(c, 0, 2).unwrap();
    }

    #[test]
    fn grow_to_keeps_words() {
        let mut array = Crossbar::new();
        array.grow_to(3);
        array.write_word(CellId::new(2), 7, 1).unwrap();
        array.grow_to(1);
        assert_eq!(array.len(), 3);
        assert_eq!(array.read_word(CellId::new(2)), 7);
        assert!(!array.is_empty());
    }

    #[test]
    fn only_one_lane_writes_count_switches() {
        let mut array = Crossbar::new();
        let c = array.alloc(false);
        array.write_word(c, 0b101, 3).unwrap();
        assert_eq!(array.switches(c), 0);
        array.write_word(c, 0, 1).unwrap(); // lane 0 flips back
        assert_eq!(array.switches(c), 1);
    }

    #[test]
    #[should_panic(expected = "active lane count")]
    fn zero_lane_write_rejected() {
        let mut array = Crossbar::new();
        array.grow_to(1);
        let _ = array.write_word(CellId::new(0), 0, 0);
    }

    // ---- Fault injection ---------------------------------------------

    use crate::fault::FaultModel;
    use crate::variability::EnduranceModel;

    /// A model whose every cell is stuck (p = 1) with a tiny sampled
    /// endurance spread, so faults manifest within a few writes.
    fn chaotic(seed: u64) -> FaultModel {
        FaultModel::new(EnduranceModel::new(8.0, 0.3), 1.0, seed)
    }

    #[test]
    fn per_cell_limits_override_the_uniform_limit() {
        let model = FaultModel::new(EnduranceModel::new(4.0, 0.0), 0.0, 1);
        let mut array = Crossbar::with_faults(model);
        let c = array.alloc(false);
        for i in 0..4 {
            array.write(c, i % 2 == 0).unwrap();
        }
        let err = array.write(c, true).unwrap_err();
        assert_eq!(err.cell, c);
        assert_eq!(err.limit, 4);
        assert_eq!(array.writes(c), 4, "rejected pulses do not wear");
    }

    #[test]
    fn stuck_cell_absorbs_pulses_and_fails_verification() {
        let mut array = Crossbar::with_faults(chaotic(7));
        let c = array.alloc(false);
        let stuck = array.fault_model().unwrap().profile(0).stuck.unwrap();
        assert_eq!(array.stuck_at(c), None, "fresh cells are never stuck");
        // Drive the cell toward its onset always intending the opposite
        // of the frozen value: the onset write is the first to disagree
        // with its readback.
        let mut fault = None;
        for _ in 0..stuck.onset {
            if let Err(f) = array.write_verified(c, !stuck.value) {
                fault = Some(f);
                break;
            }
        }
        match fault.expect("the onset write must trip the fault") {
            WriteFault::Stuck(e) => {
                assert_eq!(e.cell, c);
                assert_eq!(e.stuck, stuck.value);
            }
            WriteFault::Worn(_) => panic!("onset ≤ limit, so the stuck fault fires first"),
        }
        assert_eq!(array.writes(c), stuck.onset, "fault fired at onset");
        assert_eq!(array.stuck_at(c), Some(stuck.value));
        assert_eq!(array.read(c), stuck.value);
        // The pulse was absorbed: wear advanced on the failing write.
        let before = array.writes(c);
        let _ = array.write_verified(c, !stuck.value);
        assert_eq!(array.writes(c), before + 1);
    }

    #[test]
    fn latent_stuck_write_verifies_clean() {
        let mut array = Crossbar::with_faults(chaotic(11));
        let c = array.alloc(false);
        let stuck = array.fault_model().unwrap().profile(0).stuck.unwrap();
        for _ in 0..stuck.onset {
            array.write(c, stuck.value).unwrap();
        }
        // Manifest, but writing the frozen value verifies clean.
        assert_eq!(array.stuck_at(c), Some(stuck.value));
        array.write_verified(c, stuck.value).unwrap();
        assert!(array.write_verified(c, !stuck.value).is_err());
    }

    #[test]
    fn preload_respects_manifest_faults() {
        let mut array = Crossbar::with_faults(chaotic(13));
        let c = array.alloc(false);
        let stuck = array.fault_model().unwrap().profile(0).stuck.unwrap();
        // Fresh cell: preload works and verifies for either value.
        array.preload_verified(c, !stuck.value).unwrap();
        for _ in 0..stuck.onset {
            array.write(c, stuck.value).unwrap();
        }
        let wear = array.writes(c);
        array.preload(c, !stuck.value);
        assert_eq!(array.read(c), stuck.value, "preload cannot unfreeze");
        let err = array.preload_verified(c, !stuck.value).unwrap_err();
        assert_eq!(
            err,
            StuckAtError {
                cell: c,
                stuck: stuck.value
            }
        );
        array.preload_verified(c, stuck.value).unwrap();
        assert_eq!(array.writes(c), wear, "preload stays wear-free");
    }

    #[test]
    fn fault_profiles_are_stable_under_growth_order() {
        let model = chaotic(5);
        let mut one = Crossbar::with_faults(model);
        one.grow_to(8);
        let mut two = Crossbar::with_faults(model);
        for _ in 0..3 {
            two.alloc(true);
        }
        two.grow_to(8);
        for i in 0..8 {
            let c = CellId::new(i);
            one.write(c, true).unwrap();
            two.write(c, true).unwrap();
            assert_eq!(one.stuck_at(c), two.stuck_at(c));
        }
    }
}
