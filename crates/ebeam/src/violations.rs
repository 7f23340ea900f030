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

/// A running [`FailureSummary`] kept in lockstep with an
/// [`IntensityMap`].
///
/// Iterative refinement (paper §4) historically re-evaluated the whole
/// frame every iteration to learn how many pixels fail; with bounded 3σ
/// kernel support that is almost all wasted work, because one accepted
/// edge move only changes intensities inside the moved strip's support
/// window. The tracker rides [`IntensityMap::apply_shot_visit`] instead:
/// every mutation routed through [`apply`](Self::apply) updates the
/// failing `Pon`/`Poff` counts from the exact per-pixel transitions the
/// map performs, so the counts equal what [`evaluate`] would return on
/// the final map (bit-for-bit for the counts; the continuous cost
/// accumulates in a different order and may drift by a few ULPs).
///
/// # Example
///
/// ```
/// use maskfrac_ebeam::violations::{evaluate, ViolationTracker};
/// use maskfrac_ebeam::{Classification, ExposureModel, IntensityMap};
/// use maskfrac_geom::{Polygon, Rect};
///
/// let target = Polygon::from_rect(Rect::new(0, 0, 40, 40).unwrap());
/// let model = ExposureModel::paper_default();
/// let cls = Classification::build(&target, 2.0, model.support_radius_px() + 2);
/// let mut map = IntensityMap::new(model, cls.frame());
/// let mut tracker = ViolationTracker::new(&cls, &map);
/// tracker.apply(&cls, &mut map, &Rect::new(0, 0, 40, 40).unwrap(), 1.0);
/// assert_eq!(tracker.summary().fail_count(), evaluate(&cls, &map).fail_count());
/// ```
#[derive(Debug, Clone)]
pub struct ViolationTracker {
    summary: FailureSummary,
}

impl ViolationTracker {
    /// Starts tracking from a full evaluation of the current map.
    ///
    /// # Panics
    ///
    /// Panics if the classification and map frames differ.
    pub fn new(cls: &Classification, map: &IntensityMap) -> Self {
        ViolationTracker {
            summary: evaluate(cls, map),
        }
    }

    /// The current running summary.
    #[inline]
    pub fn summary(&self) -> FailureSummary {
        self.summary
    }

    /// Applies `sign ×` the rect's intensity to the map while folding the
    /// per-pixel failure transitions into the running summary.
    ///
    /// Every map mutation must go through here (or be followed by
    /// [`resync`](Self::resync)) for the summary to stay valid.
    pub fn apply(&mut self, cls: &Classification, map: &mut IntensityMap, rect: &Rect, sign: f64) {
        debug_assert_eq!(cls.frame(), map.frame(), "frames must match");
        let rho = map.model().rho();
        let summary = &mut self.summary;
        map.apply_shot_visit(rect, sign, |ix, iy, old, new| {
            if old.to_bits() == new.to_bits() {
                return; // zero edge factor: nothing changed
            }
            let class = cls.class(ix, iy);
            if class == PixelClass::Band {
                return;
            }
            match (pixel_fails(class, old, rho), pixel_fails(class, new, rho)) {
                (false, true) => match class {
                    PixelClass::On => summary.on_fails += 1,
                    PixelClass::Off => summary.off_fails += 1,
                    PixelClass::Band => unreachable!(),
                },
                (true, false) => match class {
                    PixelClass::On => summary.on_fails -= 1,
                    PixelClass::Off => summary.off_fails -= 1,
                    PixelClass::Band => unreachable!(),
                },
                _ => {}
            }
            summary.cost += pixel_cost(class, new, rho) - pixel_cost(class, old, rho);
        });
    }

    /// Re-derives the summary from a full scan (used after mutations that
    /// bypassed [`apply`](Self::apply), and by consistency checks).
    pub fn resync(&mut self, cls: &Classification, map: &IntensityMap) {
        self.summary = evaluate(cls, map);
    }
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
/// so the scan window is local. The map itself is not modified.
pub fn cost_delta_for_strip(
    cls: &Classification,
    map: &IntensityMap,
    strip: &Rect,
    sign: f64,
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
        fx.extend(xs.clone().map(|ix| {
            let (cx, _) = frame.pixel_center(ix, 0);
            model.edge_factor(strip.x0() as f64, strip.x1() as f64, cx)
        }));
        fy.clear();
        fy.extend(ys.clone().map(|iy| {
            let (_, cy) = frame.pixel_center(0, iy);
            model.edge_factor(strip.y0() as f64, strip.y1() as f64, cy)
        }));
        lane_scored_delta(cls, map, fx, fy, sign, rho, &xs, &ys)
    })
}

/// The shared window scan of the two strip scorers: accumulates each
/// pixel's cost term into four fixed accumulator lanes, reduced through a
/// fixed tree.
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
/// lands in is `(row index) & 3` regardless of chunk boundaries, and the
/// final reduction `(acc[0] + acc[1]) + (acc[2] + acc[3])` is a fixed
/// tree: the result is a pure function of the window contents —
/// deterministic, thread-count-invariant, and stable under any future
/// re-tiling of the chunk loop. It is *not* the same f64 the pre-lane
/// serial fold produced (ULP-level reassociation); the exactness tiers
/// only pin determinism and cross-mode parity within a build, both of
/// which hold by construction.
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
    let model = map.model();
    let rho = model.rho();
    let frame = cls.frame();
    let (xs, ys) = map.affected_window(strip);
    if xs.is_empty() || ys.is_empty() {
        return 0.0;
    }
    let lut = model.lattice_lut();
    let origin = frame.origin();
    STRIP_FACTORS.with(|cell| {
        let (fx, fy) = &mut *cell.borrow_mut();
        fx.clear();
        fx.extend(
            xs.clone()
                .map(|ix| lut.edge_factor(strip.x0(), strip.x1(), origin.x + ix as i64)),
        );
        fy.clear();
        fy.extend(
            ys.clone()
                .map(|iy| lut.edge_factor(strip.y0(), strip.y1(), origin.y + iy as i64)),
        );
        lane_scored_delta(cls, map, fx, fy, sign, rho, &xs, &ys)
    })
}

thread_local! {
    /// Per-thread edge-factor scratch for [`cost_delta_for_strip`] and
    /// [`cost_delta_for_strip_relaxed`] (`fx`, `fy`). Grow-only; cleared
    /// and refilled on every call.
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
            let full = evaluate(&cls, &map);
            assert_eq!(tracker.summary().on_fails, full.on_fails, "{rect} {sign}");
            assert_eq!(tracker.summary().off_fails, full.off_fails, "{rect} {sign}");
            assert!(
                (tracker.summary().cost - full.cost).abs() < 1e-9,
                "{rect} {sign}: tracked {} vs full {}",
                tracker.summary().cost,
                full.cost
            );
        }
        // resync after an untracked mutation restores exactness.
        map.add_shot(&Rect::new(-8, -8, 2, 2).unwrap());
        tracker.resync(&cls, &map);
        assert_eq!(tracker.summary(), evaluate(&cls, &map));
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
