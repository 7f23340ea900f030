//! Failing pixels and the shot-refinement cost function.
//!
//! A pixel *fails* (paper Eq. 4) when it is in `Pon` with `Itot < ρ` or in
//! `Poff` with `Itot ≥ ρ`. Shot refinement minimizes the continuous cost
//! (paper Eq. 5)
//!
//! ```text
//! cost_ref = Σ_{p ∈ Pfail} |Itot(p) − ρ|
//! ```
//!
//! which is a more sensitive progress signal than the raw failing-pixel
//! count.

use crate::classify::{Classification, PixelClass};
use crate::map::IntensityMap;
use maskfrac_geom::{Bitmap, Rect};

/// Aggregate violation state of a fracturing solution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FailureSummary {
    /// Failing pixels in `Pon` (under-exposed target interior).
    pub on_fails: usize,
    /// Failing pixels in `Poff` (over-exposed surround).
    pub off_fails: usize,
    /// The continuous refinement cost `Σ |Itot − ρ|` over failing pixels.
    pub cost: f64,
}

impl FailureSummary {
    /// Total failing pixel count `|Pfail|`.
    #[inline]
    pub fn fail_count(&self) -> usize {
        self.on_fails + self.off_fails
    }

    /// Whether the solution satisfies every constrained pixel.
    #[inline]
    pub fn is_feasible(&self) -> bool {
        self.fail_count() == 0
    }
}

/// Cost contribution of one pixel: `|I − ρ|` if the pixel fails, else 0.
#[inline]
pub fn pixel_cost(class: PixelClass, intensity: f64, rho: f64) -> f64 {
    match class {
        PixelClass::On if intensity < rho => rho - intensity,
        PixelClass::Off if intensity >= rho => intensity - rho,
        _ => 0.0,
    }
}

/// Whether a pixel of the given class fails at the given intensity.
#[inline]
pub fn pixel_fails(class: PixelClass, intensity: f64, rho: f64) -> bool {
    match class {
        PixelClass::On => intensity < rho,
        PixelClass::Off => intensity >= rho,
        PixelClass::Band => false,
    }
}

/// Evaluates the failure summary of the current intensity map by a full
/// scan over the frame.
///
/// # Panics
///
/// Panics if the classification and map frames differ.
pub fn evaluate(cls: &Classification, map: &IntensityMap) -> FailureSummary {
    assert_eq!(cls.frame(), map.frame(), "frames must match");
    maskfrac_obs::counter!("ebeam.intensity.evaluations").incr();
    let rho = map.model().rho();
    let mut summary = FailureSummary::default();
    for iy in 0..cls.frame().height() {
        for ix in 0..cls.frame().width() {
            let class = cls.class(ix, iy);
            if class == PixelClass::Band {
                continue;
            }
            let i = map.value(ix, iy);
            if pixel_fails(class, i, rho) {
                match class {
                    PixelClass::On => summary.on_fails += 1,
                    PixelClass::Off => summary.off_fails += 1,
                    PixelClass::Band => unreachable!(),
                }
                summary.cost += (i - rho).abs();
            }
        }
    }
    summary
}

/// Width, in pixels, of the widest strip the refinement engine scores: its
/// edge moves are ±1 and ±2 nm on the 1 nm lattice. The live mask's reach
/// is derived for strips this thin.
const MASKED_STRIP_WIDTH: i64 = 2;

/// A running [`FailureSummary`] kept in lockstep with an
/// [`IntensityMap`], plus the mask of *live* pixels that strip scoring
/// and move application visit.
///
/// Iterative refinement (paper §4) historically re-evaluated the whole
/// frame every iteration to learn how many pixels fail; with bounded 3σ
/// kernel support that is almost all wasted work, because one accepted
/// edge move only changes intensities inside the moved strip's support
/// window. Every mutation routed through [`apply`](Self::apply) updates
/// the failing `Pon`/`Poff` counts from the exact per-pixel transitions
/// the map performs, so the counts equal what [`evaluate`] would return on
/// the final map (bit-for-bit for the counts; the continuous cost
/// accumulates in a different order and may drift by a few ULPs).
///
/// # The live mask
///
/// Most of a strip's support window cannot change `cost_ref`: a pixel
/// that is not failing and sits farther from `ρ` than any strip can move
/// it contributes an exact zero before and after the move. The tracker
/// keeps a per-row bitset of the other pixels — `Pon`/`Poff` pixels with
/// `cost_sign·(I − ρ) > −R`, where `R` is the largest `|ΔI|` a
/// 2-pixel-thin strip can cause ([`IntensityMap`]'s own edge factors at
/// the lattice's pixel centres), widened by a few ULPs so rounding in
/// `I + ΔI − ρ` cannot cross zero. [`cost_delta_for_strip`](Self::cost_delta_for_strip)
/// and [`apply`](Self::apply) visit only live pixels; every term they
/// skip is an exact zero, so both stay bit-identical to a full-window
/// scan.
///
/// # Example
///
/// ```
/// use maskfrac_ebeam::violations::{cost_delta_for_strip, evaluate, ViolationTracker};
/// use maskfrac_ebeam::{Classification, ExposureModel, IntensityMap};
/// use maskfrac_geom::{Polygon, Rect};
///
/// let target = Polygon::from_rect(Rect::new(0, 0, 40, 40).unwrap());
/// let model = ExposureModel::paper_default();
/// let cls = Classification::build(&target, 2.0, model.support_radius_px() + 2);
/// let mut map = IntensityMap::new(model, cls.frame());
/// let mut tracker = ViolationTracker::new(&cls, &map);
/// tracker.apply(&cls, &mut map, &Rect::new(0, 0, 40, 39).unwrap(), 1.0);
/// assert_eq!(tracker.summary().fail_count(), evaluate(&cls, &map).fail_count());
/// let strip = Rect::new(0, 39, 40, 40).unwrap();
/// assert_eq!(
///     tracker.cost_delta_for_strip(&cls, &map, &strip, 1.0).to_bits(),
///     cost_delta_for_strip(&cls, &map, &strip, 1.0).to_bits(),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ViolationTracker {
    summary: FailureSummary,
    /// Live pixels: bit `ix % 64` of word `iy · words_per_row + ix / 64`.
    live: Vec<u64>,
    words_per_row: usize,
    /// Largest strip reach (`max|fx| · max|fy|`) the mask scores exactly.
    reach: f64,
    /// Live threshold: `reach` plus the rounding guard.
    threshold: f64,
}

impl ViolationTracker {
    /// Starts tracking from a full evaluation of the current map.
    ///
    /// # Panics
    ///
    /// Panics if the classification and map frames differ.
    pub fn new(cls: &Classification, map: &IntensityMap) -> Self {
        ViolationTracker::with_live_buffer(cls, map, Vec::new())
    }

    /// [`new`](Self::new), recycling `live` as the live mask's backing
    /// store (see [`into_live_buffer`](Self::into_live_buffer)).
    ///
    /// # Panics
    ///
    /// Panics if the classification and map frames differ.
    pub fn with_live_buffer(cls: &Classification, map: &IntensityMap, live: Vec<u64>) -> Self {
        let reach = map.strip_reach(MASKED_STRIP_WIDTH);
        // `I + ΔI − ρ` is rounded twice; the guard bounds both roundings
        // for any |ΔI| ≤ reach, so a pixel outside the mask keeps
        // `cost_sign·(I + ΔI − ρ) < 0` exactly.
        let rho = map.model().rho();
        let threshold = reach + 2.0 * f64::EPSILON * (reach + rho.abs());
        let mut tracker = ViolationTracker {
            summary: FailureSummary::default(),
            live,
            words_per_row: cls.frame().width().div_ceil(64),
            reach,
            threshold,
        };
        tracker.resync(cls, map);
        tracker
    }

    /// Consumes the tracker, returning the live mask's buffer for reuse.
    pub fn into_live_buffer(self) -> Vec<u64> {
        self.live
    }

    /// The current running summary.
    #[inline]
    pub fn summary(&self) -> FailureSummary {
        self.summary
    }

    /// Applies `sign ×` the rect's intensity to the map while folding the
    /// per-pixel failure transitions into the running summary and keeping
    /// the live mask current.
    ///
    /// The map updates each window row in full; the summary then visits
    /// only the row's pixels that are live before or after the update. A
    /// pixel live in neither state is not failing in either and costs 0
    /// in both, so skipping it drops exactly the zero terms a full-window
    /// scan would add, in the same row-major order.
    ///
    /// Every map mutation must go through here (or be followed by
    /// [`resync`](Self::resync)) for the summary and mask to stay valid.
    pub fn apply(&mut self, cls: &Classification, map: &mut IntensityMap, rect: &Rect, sign: f64) {
        debug_assert_eq!(cls.frame(), map.frame(), "frames must match");
        let rho = map.model().rho();
        let (threshold, wpr) = (self.threshold, self.words_per_row);
        let ViolationTracker { summary, live, .. } = self;
        map.apply_shot_rows(rect, sign, |iy, xs, old, new| {
            let classes = cls.class_row(iy, xs.clone());
            let row = &mut live[iy * wpr..(iy + 1) * wpr];
            for (w, cols, span) in word_spans(xs.clone()) {
                let ks = cols.start - xs.start..cols.end - xs.start;
                let after =
                    live_bits(&classes[ks.clone()], &new[ks], rho, threshold) << (cols.start % 64);
                let mut bits = (row[w] | after) & span;
                row[w] = (row[w] & !span) | after;
                while bits != 0 {
                    let k = w * 64 + bits.trailing_zeros() as usize - xs.start;
                    bits &= bits - 1;
                    fold_transition(summary, classes[k], old[k], new[k], rho);
                }
            }
        });
    }

    /// Re-derives the summary and the live mask from a full scan (used
    /// after mutations that bypassed [`apply`](Self::apply), and by
    /// consistency checks).
    pub fn resync(&mut self, cls: &Classification, map: &IntensityMap) {
        self.summary = evaluate(cls, map);
        let rho = map.model().rho();
        let frame = cls.frame();
        let wpr = self.words_per_row;
        self.live.clear();
        self.live.resize(wpr * frame.height(), 0);
        for iy in 0..frame.height() {
            let xs = 0..frame.width();
            let (classes, values) = (cls.class_row(iy, xs.clone()), map.row(iy, xs.clone()));
            let row = &mut self.live[iy * wpr..(iy + 1) * wpr];
            for (w, cols, _) in word_spans(xs) {
                row[w] = live_bits(&classes[cols.clone()], &values[cols], rho, self.threshold);
            }
        }
    }

    /// The free function [`cost_delta_for_strip`] over the live pixels
    /// only — bit-identical to its full-window scan.
    ///
    /// A strip whose own reach (`max|fx| · max|fy·sign|`) exceeds the
    /// mask's could push a non-live pixel across `ρ`, so it is scored on
    /// the full window instead (counted by `ebeam.strip.full_window`).
    pub fn cost_delta_for_strip(
        &self,
        cls: &Classification,
        map: &IntensityMap,
        strip: &Rect,
        sign: f64,
    ) -> f64 {
        strip_delta(cls, map, strip, sign, Profiles::Exact, Some(self))
    }

    /// The live-pixel counterpart of [`cost_delta_for_strip_relaxed`]
    /// (same contract as [`cost_delta_for_strip`](Self::cost_delta_for_strip)).
    pub fn cost_delta_for_strip_relaxed(
        &self,
        cls: &Classification,
        map: &IntensityMap,
        strip: &Rect,
        sign: f64,
    ) -> f64 {
        strip_delta(cls, map, strip, sign, Profiles::Lattice, Some(self))
    }

    /// The live-mask words of row `iy`.
    #[inline]
    fn live_row(&self, iy: usize) -> &[u64] {
        &self.live[iy * self.words_per_row..(iy + 1) * self.words_per_row]
    }
}

/// Folds one pixel's `old → new` transition into the summary.
#[inline]
fn fold_transition(summary: &mut FailureSummary, class: PixelClass, old: f64, new: f64, rho: f64) {
    if old.to_bits() == new.to_bits() || class == PixelClass::Band {
        return; // unchanged pixel, or one no constraint reads
    }
    let count = match class {
        PixelClass::On => &mut summary.on_fails,
        _ => &mut summary.off_fails,
    };
    match (pixel_fails(class, old, rho), pixel_fails(class, new, rho)) {
        (false, true) => *count += 1,
        (true, false) => *count -= 1,
        _ => {}
    }
    summary.cost += pixel_cost(class, new, rho) - pixel_cost(class, old, rho);
}

/// Live bits of up to 64 consecutive pixels, bit `i` for pixel `i`.
#[inline]
fn live_bits(classes: &[PixelClass], values: &[f64], rho: f64, threshold: f64) -> u64 {
    debug_assert!(classes.len() <= 64 && classes.len() == values.len());
    classes
        .iter()
        .zip(values)
        .enumerate()
        .fold(0u64, |bits, (i, (&class, &v))| {
            let live = class != PixelClass::Band && class.cost_sign() * (v - rho) > -threshold;
            bits | (u64::from(live) << i)
        })
}

/// Splits a column range at 64-column word boundaries, yielding each
/// piece as `(word, columns, bits)` with `bits` its mask within `word`.
fn word_spans(
    xs: std::ops::Range<usize>,
) -> impl Iterator<Item = (usize, std::ops::Range<usize>, u64)> {
    let mut lo = xs.start;
    std::iter::from_fn(move || {
        if lo >= xs.end {
            return None;
        }
        let w = lo / 64;
        let hi = xs.end.min((w + 1) * 64);
        let bits = (u64::MAX >> (64 - (hi - lo))) << (lo % 64);
        let span = (w, lo..hi, bits);
        lo = hi;
        Some(span)
    })
}

/// Bitmaps of failing `Pon` and failing `Poff` pixels (in frame pixel
/// coordinates), for the add-shot / remove-shot moves.
pub fn fail_bitmaps(cls: &Classification, map: &IntensityMap) -> (Bitmap, Bitmap) {
    assert_eq!(cls.frame(), map.frame(), "frames must match");
    let rho = map.model().rho();
    let w = cls.frame().width();
    let h = cls.frame().height();
    let mut on_fail = Bitmap::new(w, h);
    let mut off_fail = Bitmap::new(w, h);
    for iy in 0..h {
        for ix in 0..w {
            match cls.class(ix, iy) {
                PixelClass::On if map.value(ix, iy) < rho => on_fail.set(ix, iy, true),
                PixelClass::Off if map.value(ix, iy) >= rho => off_fail.set(ix, iy, true),
                _ => {}
            }
        }
    }
    (on_fail, off_fail)
}

/// Change in `cost_ref` if the intensity of the 1-pixel-wide `strip`
/// rectangle were added (`sign = +1`) or subtracted (`sign = -1`) from the
/// map — the inner loop of greedy shot-edge adjustment.
///
/// Only pixels within the model's support radius of the strip can change,
/// so the scan window is local. The map itself is not modified. The
/// refinement engine scores through
/// [`ViolationTracker::cost_delta_for_strip`], which visits only the
/// window's live pixels and returns the same bits.
pub fn cost_delta_for_strip(
    cls: &Classification,
    map: &IntensityMap,
    strip: &Rect,
    sign: f64,
) -> f64 {
    strip_delta(cls, map, strip, sign, Profiles::Exact, None)
}

/// Relaxed-exactness variant of [`cost_delta_for_strip`]: the identical
/// lane-accumulated window scan (`lane_scored_delta`) — but edge
/// factors come from the integer-lattice
/// [`crate::intensity::LatticeLut`], one table hit per row/column with no
/// interpolation.
///
/// # Exactness contract
///
/// The returned delta agrees with [`cost_delta_for_strip`] to within the
/// erf-approximation error times the window mass (observed `< 1e-5` per
/// strip on paper-default σ) but is **not** bit-identical: profile values
/// differ by ULPs (the accumulation order is now shared). It must only
/// be selected on tiers where the parity harness does not pin byte
/// equality — the coarse phase of coarse-to-fine refinement
/// (`FractureConfig::relaxed_scoring`). Greedy acceptance stays
/// deterministic for a fixed tier choice: the same inputs produce the
/// same f64 on every run and at every thread count.
pub fn cost_delta_for_strip_relaxed(
    cls: &Classification,
    map: &IntensityMap,
    strip: &Rect,
    sign: f64,
) -> f64 {
    strip_delta(cls, map, strip, sign, Profiles::Lattice, None)
}

/// Which edge-profile tier a strip scorer reads (see [`crate::intensity`]).
#[derive(Clone, Copy)]
enum Profiles {
    /// Interpolated-LUT profiles, the bit-exact default tier.
    Exact,
    /// Integer-lattice profiles, the relaxed tier.
    Lattice,
}

/// The shared body of the strip scorers: fills the strip's separable edge
/// factors on the requested tier, then scans its window — over the live
/// pixels of `tracker` when one is given and the strip's reach fits the
/// mask, else over every pixel.
fn strip_delta(
    cls: &Classification,
    map: &IntensityMap,
    strip: &Rect,
    sign: f64,
    profiles: Profiles,
    tracker: Option<&ViolationTracker>,
) -> f64 {
    let model = map.model();
    let rho = model.rho();
    let frame = cls.frame();
    let (xs, ys) = map.affected_window(strip);
    if xs.is_empty() || ys.is_empty() {
        return 0.0;
    }
    // Separable edge factors: one per column/row of the window. The
    // buffers are thread-local and grow-only — scoring may run on the
    // refinement engine's spare-core helper thread, and a per-call Vec pair
    // here was the last steady-state allocation on the scoring path.
    STRIP_FACTORS.with(|cell| {
        let (fx, fy) = &mut *cell.borrow_mut();
        fx.clear();
        fy.clear();
        match profiles {
            Profiles::Exact => {
                fx.extend(xs.clone().map(|ix| {
                    let (cx, _) = frame.pixel_center(ix, 0);
                    model.edge_factor(strip.x0() as f64, strip.x1() as f64, cx)
                }));
                fy.extend(ys.clone().map(|iy| {
                    let (_, cy) = frame.pixel_center(0, iy);
                    model.edge_factor(strip.y0() as f64, strip.y1() as f64, cy)
                }));
            }
            Profiles::Lattice => {
                let lut = model.lattice_lut();
                let origin = frame.origin();
                fx.extend(
                    xs.clone()
                        .map(|ix| lut.edge_factor(strip.x0(), strip.x1(), origin.x + ix as i64)),
                );
                fy.extend(
                    ys.clone()
                        .map(|iy| lut.edge_factor(strip.y0(), strip.y1(), origin.y + iy as i64)),
                );
            }
        }
        let live = tracker.filter(|t| {
            let peak = |f: &[f64]| f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let fits = peak(fx) * (peak(fy) * sign.abs()) <= t.reach;
            if !fits {
                maskfrac_obs::counter!("ebeam.strip.full_window").incr();
            }
            fits
        });
        lane_scored_delta(cls, map, fx, fy, sign, rho, &xs, &ys, live)
    })
}

/// The window scan of the strip scorers: accumulates each pixel's cost
/// term into four fixed accumulator lanes, reduced through a fixed tree.
///
/// This loop is the refinement engine's hottest path (tens of thousands
/// of strip scorings per clip), so it is written branch-free: row slices
/// instead of per-pixel `(ix, iy)` indexing, and `pixel_cost` folded into
/// its `max(sign * (x - rho), 0)` form ([`PixelClass::cost_sign`]) —
/// bit-exact transformations (IEEE-754 guarantees `-(x - rho) == rho -
/// x`, and pixels the branchy form skipped contribute an exact `+0.0`).
///
/// Each row chunk's terms are computed elementwise into a stack array (no
/// serial dependency, so the backend emits straight SIMD), then folded
/// into `acc[i & 3]` — four independent FMA-friendly chains instead of
/// one serial dependency the autovectorizer could never break without
/// `-ffast-math`. Because `CHUNK` is a multiple of 4, the lane a pixel
/// lands in is `(column offset in the window) & 3` regardless of chunk
/// boundaries, and the final reduction `(acc[0] + acc[1]) + (acc[2] +
/// acc[3])` is a fixed tree: the result is a pure function of the window
/// contents — deterministic, thread-count-invariant, and stable under any
/// future re-tiling of the chunk loop.
///
/// With a live mask the scan visits only the mask's set bits, adding each
/// pixel to the same lane `(ix − xs.start) & 3` in the same row-major
/// order. Every pixel it skips contributes an exact zero (see
/// [`ViolationTracker`]) and a lane sum is never `-0.0`, so each lane —
/// and the result — is bit-identical to the full scan.
#[allow(clippy::too_many_arguments)]
fn lane_scored_delta(
    cls: &Classification,
    map: &IntensityMap,
    fx: &[f64],
    fy: &[f64],
    sign: f64,
    rho: f64,
    xs: &std::ops::Range<usize>,
    ys: &std::ops::Range<usize>,
    live: Option<&ViolationTracker>,
) -> f64 {
    // Fixed chunk width for the scoring inner loop. 16 f64 lanes span two
    // AVX-512 / four AVX2 registers — wide enough to keep the vector
    // units busy, small enough to live on the stack.
    const CHUNK: usize = 16;
    let mut acc = [0.0f64; 4];
    let mut terms = [0.0f64; CHUNK];
    for (j, iy) in ys.clone().enumerate() {
        let fyv = fy[j] * sign;
        if fyv == 0.0 {
            continue;
        }
        let values = map.row(iy, xs.clone());
        let classes = cls.class_row(iy, xs.clone());
        if let Some(tracker) = live {
            let row = tracker.live_row(iy);
            for (w, _, span) in word_spans(xs.clone()) {
                let mut bits = row[w] & span;
                while bits != 0 {
                    let k = w * 64 + bits.trailing_zeros() as usize - xs.start;
                    bits &= bits - 1;
                    let s = classes[k].cost_sign();
                    let old = values[k];
                    let new = old + fx[k] * fyv;
                    acc[k & 3] += (s * (new - rho)).max(0.0) - (s * (old - rho)).max(0.0);
                }
            }
            continue;
        }
        for ((fxc, clc), vc) in fx
            .chunks(CHUNK)
            .zip(classes.chunks(CHUNK))
            .zip(values.chunks(CHUNK))
        {
            let n = fxc.len();
            for k in 0..n {
                let s = clc[k].cost_sign();
                let old = vc[k];
                let new = old + fxc[k] * fyv;
                terms[k] = (s * (new - rho)).max(0.0) - (s * (old - rho)).max(0.0);
            }
            for (k, &t) in terms[..n].iter().enumerate() {
                acc[k & 3] += t;
            }
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

thread_local! {
    /// Per-thread edge-factor scratch for the strip scorers (`fx`, `fy`).
    /// Grow-only; cleared and refilled on every call.
    static STRIP_FACTORS: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intensity::ExposureModel;
    use maskfrac_geom::{Polygon, Rect};

    fn setup(shots: &[Rect]) -> (Classification, IntensityMap) {
        let target = Polygon::from_rect(Rect::new(0, 0, 40, 40).unwrap());
        let model = ExposureModel::paper_default();
        let cls = Classification::build(&target, 2.0, model.support_radius_px() + 2);
        let mut map = IntensityMap::new(model, cls.frame());
        for s in shots {
            map.add_shot(s);
        }
        (cls, map)
    }

    #[test]
    fn empty_solution_fails_everywhere_inside() {
        let (cls, map) = setup(&[]);
        let s = evaluate(&cls, &map);
        assert_eq!(s.on_fails, cls.on_count());
        assert_eq!(s.off_fails, 0);
        assert!((s.cost - 0.5 * cls.on_count() as f64).abs() < 1e-9);
        assert!(!s.is_feasible());
    }

    #[test]
    fn exact_shot_is_feasible() {
        // A shot exactly matching the square target prints it: edges sit at
        // the boundary where I = 0.5 and the gamma band absorbs rounding.
        let (cls, map) = setup(&[Rect::new(0, 0, 40, 40).unwrap()]);
        let s = evaluate(&cls, &map);
        assert!(s.is_feasible(), "summary: {s:?}");
    }

    #[test]
    fn oversized_shot_fails_off_pixels() {
        let (cls, map) = setup(&[Rect::new(-10, -10, 50, 50).unwrap()]);
        let s = evaluate(&cls, &map);
        assert_eq!(s.on_fails, 0);
        assert!(s.off_fails > 0);
        assert!(s.cost > 0.0);
    }

    #[test]
    fn fail_bitmaps_match_summary() {
        let (cls, map) = setup(&[Rect::new(0, 0, 40, 20).unwrap()]);
        let s = evaluate(&cls, &map);
        let (on_fail, off_fail) = fail_bitmaps(&cls, &map);
        assert_eq!(on_fail.count_ones(), s.on_fails);
        assert_eq!(off_fail.count_ones(), s.off_fails);
        assert!(s.on_fails > 0, "half-covered square under-exposes the top");
    }

    #[test]
    fn pixel_cost_cases() {
        assert!((pixel_cost(PixelClass::On, 0.3, 0.5) - 0.2).abs() < 1e-12);
        assert_eq!(pixel_cost(PixelClass::On, 0.7, 0.5), 0.0);
        assert!((pixel_cost(PixelClass::Off, 0.7, 0.5) - 0.2).abs() < 1e-12);
        assert_eq!(pixel_cost(PixelClass::Off, 0.3, 0.5), 0.0);
        assert_eq!(pixel_cost(PixelClass::Band, 0.0, 0.5), 0.0);
        // Off pixel exactly at threshold fails (Eq. 4 is strict for Poff).
        assert!(pixel_fails(PixelClass::Off, 0.5, 0.5));
        assert!(!pixel_fails(PixelClass::On, 0.5, 0.5));
    }

    #[test]
    fn strip_delta_matches_full_reevaluation() {
        let shot = Rect::new(0, 0, 40, 30).unwrap();
        let (cls, mut map) = setup(&[shot]);
        let before = evaluate(&cls, &map);
        // Candidate move: extend the top edge by 1 px, i.e. add the strip.
        let strip = Rect::new(0, 30, 40, 31).unwrap();
        let predicted = cost_delta_for_strip(&cls, &map, &strip, 1.0);
        map.add_shot(&strip);
        let after = evaluate(&cls, &map);
        assert!(
            (after.cost - before.cost - predicted).abs() < 1e-9,
            "predicted {predicted}, actual {}",
            after.cost - before.cost
        );
        assert!(predicted < 0.0, "growing toward the target must help");
    }

    /// The live mask by its definition, pixel by pixel.
    fn recomputed_live(
        tracker: &ViolationTracker,
        cls: &Classification,
        map: &IntensityMap,
    ) -> Vec<u64> {
        let rho = map.model().rho();
        let frame = cls.frame();
        let wpr = frame.width().div_ceil(64);
        let mut live = vec![0u64; wpr * frame.height()];
        for iy in 0..frame.height() {
            for ix in 0..frame.width() {
                let class = cls.class(ix, iy);
                let v = map.value(ix, iy);
                if class != PixelClass::Band && class.cost_sign() * (v - rho) > -tracker.threshold {
                    live[iy * wpr + ix / 64] |= 1 << (ix % 64);
                }
            }
        }
        live
    }

    #[test]
    fn tracker_matches_full_evaluation_through_a_mutation_sequence() {
        let (cls, mut map) = setup(&[]);
        let mut tracker = ViolationTracker::new(&cls, &map);
        assert_eq!(tracker.summary(), evaluate(&cls, &map));
        // A churny sequence: add, grow an edge, shrink another, remove a
        // shot, partial re-add. After every step the running counts must
        // equal a from-scratch scan exactly; the cost to within ULP noise.
        let steps: [(Rect, f64); 6] = [
            (Rect::new(0, 0, 40, 30).unwrap(), 1.0),
            (Rect::new(0, 30, 40, 31).unwrap(), 1.0),  // grow top
            (Rect::new(39, 0, 40, 31).unwrap(), -1.0), // shrink right
            (Rect::new(5, 5, 25, 25).unwrap(), 1.0),   // overlapping add
            (Rect::new(5, 5, 25, 25).unwrap(), -1.0),  // and remove
            (Rect::new(0, 31, 39, 40).unwrap(), 1.0),  // fill the rest
        ];
        for (rect, sign) in steps {
            tracker.apply(&cls, &mut map, &rect, sign);
            // `apply` keeps the live mask current without a rebuild.
            assert_eq!(
                tracker.live,
                recomputed_live(&tracker, &cls, &map),
                "{rect} {sign}"
            );
            let full = evaluate(&cls, &map);
            assert_eq!(tracker.summary().on_fails, full.on_fails, "{rect} {sign}");
            assert_eq!(tracker.summary().off_fails, full.off_fails, "{rect} {sign}");
            assert!(
                (tracker.summary().cost - full.cost).abs() < 1e-9,
                "{rect} {sign}: tracked {} vs full {}",
                tracker.summary().cost,
                full.cost
            );
            // A 2 nm strip is scored over the live mask, a whole shot
            // (past the mask's reach) over its full window: both return
            // the full-window bits.
            for probe in [
                Rect::new(0, 29, 40, 31).unwrap(),
                Rect::new(0, 0, 40, 30).unwrap(),
            ] {
                assert_eq!(
                    tracker
                        .cost_delta_for_strip(&cls, &map, &probe, -1.0)
                        .to_bits(),
                    cost_delta_for_strip(&cls, &map, &probe, -1.0).to_bits(),
                    "{rect} {sign}: probe {probe}"
                );
            }
        }
        // resync after an untracked mutation restores exactness.
        map.add_shot(&Rect::new(-8, -8, 2, 2).unwrap());
        tracker.resync(&cls, &map);
        assert_eq!(tracker.summary(), evaluate(&cls, &map));
        assert_eq!(tracker.live, recomputed_live(&tracker, &cls, &map));
    }

    #[test]
    fn relaxed_strip_delta_tracks_exact_scorer() {
        let shot = Rect::new(0, 0, 40, 30).unwrap();
        let (cls, map) = setup(&[shot]);
        // Sweep every 1-px horizontal and vertical candidate strip the
        // greedy engine would pose around this shot, both signs.
        for x in -5..45i64 {
            for &(y0, y1) in &[(29i64, 30i64), (30, 31), (0, 1)] {
                let strip = Rect::new(x, y0, x + 1, y1).unwrap();
                for sign in [1.0, -1.0] {
                    let exact = cost_delta_for_strip(&cls, &map, &strip, sign);
                    let relaxed = cost_delta_for_strip_relaxed(&cls, &map, &strip, sign);
                    assert!(
                        (exact - relaxed).abs() < 1e-5,
                        "strip {strip} sign {sign}: exact {exact} vs relaxed {relaxed}"
                    );
                }
            }
        }
    }

    #[test]
    fn strip_delta_negative_direction() {
        let shot = Rect::new(0, 0, 40, 40).unwrap();
        let (cls, mut map) = setup(&[shot]);
        // Candidate move: shrink the right edge by 1 px (subtract strip).
        let strip = Rect::new(39, 0, 40, 40).unwrap();
        let predicted = cost_delta_for_strip(&cls, &map, &strip, -1.0);
        let before = evaluate(&cls, &map);
        map.remove_shot(&strip);
        let after = evaluate(&cls, &map);
        assert!((after.cost - before.cost - predicted).abs() < 1e-9);
    }
}
