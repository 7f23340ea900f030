//! Accumulated intensity over a pixel grid, with incremental updates.
//!
//! Iterative shot refinement moves one shot edge at a time and needs the
//! total intensity `Itot = Σ_s I_s` kept up to date cheaply. Because each
//! shot's intensity is separable and has bounded support (`3σ`), adding or
//! removing a shot touches only a local window and costs
//! `O(w + h)` edge-profile evaluations plus `O(w·h)` multiply-adds.
//!
//! # Evaluation strategy and exactness contract
//!
//! Every update is *separable*: the shot's 2-D intensity over the window
//! is the outer product of two 1-D edge-profile vectors (`fx` per column,
//! `fy` per row), so a `w×h` window costs `w + h` profile evaluations —
//! never `w·h`. The profile evaluations come in two tiers (see
//! [`crate::intensity`] for the tier table):
//!
//! - **Default (tier 1, bit-exact):** [`ExposureModel::edge_factor`]
//!   through the interpolated edge-profile LUT. This is the
//!   tier the refinement parity harness pins: `add_shot` / `remove_shot` /
//!   [`IntensityMap::replace_shot`] and the row-wise apply behind
//!   [`crate::violations::ViolationTracker::apply`] all produce
//!   byte-identical grids for the same mutation sequence.
//! - **Lattice (tier 2, relaxed):** after
//!   [`IntensityMap::enable_lattice_profiles`], profiles are read from the
//!   integer-lattice [`crate::intensity::LatticeLut`] — a direct table hit
//!   per row/column, no interpolation. Values differ from tier 1 by ULPs
//!   (bounded by the erf approximation's own `1.5e-7`), so this tier is
//!   only used where the caller opted into relaxed exactness (the
//!   coarse phase of coarse-to-fine refinement, `relaxed_scoring`).
//!
//! Whichever tier fills the profiles, the multiply-add composition loops
//! are identical, deterministic and sequential per row.

use crate::intensity::ExposureModel;
use maskfrac_geom::{Frame, Rect};

/// `row[i] += fx[i] * fyv` across a window row, four lanes at a time.
///
/// Every pixel's update is independent, so chunking into explicit
/// `[f64; 4]`-shaped blocks is bit-exact with the scalar loop — the
/// fixed lane width just hands the backend straight-line vector code
/// instead of relying on the autovectorizer's judgement, and keeps the
/// result invariant under any future re-tiling of the surrounding loop.
#[inline]
fn axpy_row(row: &mut [f64], fx: &[f64], fyv: f64) {
    debug_assert_eq!(row.len(), fx.len());
    let mut rows = row.chunks_exact_mut(4);
    let mut fxs = fx.chunks_exact(4);
    for (r, f) in rows.by_ref().zip(fxs.by_ref()) {
        r[0] += f[0] * fyv;
        r[1] += f[1] * fyv;
        r[2] += f[2] * fyv;
        r[3] += f[3] * fyv;
    }
    for (v, &f) in rows.into_remainder().iter_mut().zip(fxs.remainder()) {
        *v += f * fyv;
    }
}

/// Total-intensity grid for a set of shots on a pixel frame.
///
/// The map does not own the shot list — callers (the fracturers) do — it
/// only maintains `Itot` under [`add_shot`](Self::add_shot) /
/// [`remove_shot`](Self::remove_shot) so the two stay consistent by
/// construction as long as every mutation is mirrored.
///
/// # Example
///
/// ```
/// use maskfrac_ebeam::{ExposureModel, IntensityMap};
/// use maskfrac_geom::{Frame, Point, Rect};
///
/// let model = ExposureModel::paper_default();
/// let frame = Frame::new(Point::new(-20, -20), 90, 90);
/// let mut map = IntensityMap::new(model, frame);
/// let shot = Rect::new(0, 0, 50, 50).expect("rect");
/// map.add_shot(&shot);
/// let (ix, iy) = (45, 45); // pixel centred at (25.5, 25.5) nm
/// assert!(map.value(ix, iy) > 0.99);
/// map.remove_shot(&shot);
/// assert!(map.value(ix, iy).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct IntensityMap {
    model: ExposureModel,
    frame: Frame,
    values: Vec<f64>,
    // Grow-only scratch for per-application edge factors, reused across
    // calls so the steady-state hot path performs no heap allocation.
    // Two pairs: `replace_shot` needs both rects' factors live at once.
    // `prev` holds one row's pre-update values for `apply_shot_rows`.
    fx: Vec<f64>,
    fy: Vec<f64>,
    fx2: Vec<f64>,
    fy2: Vec<f64>,
    prev: Vec<f64>,
    // Tier-2 profile table; `None` selects the bit-exact default tier.
    lattice: Option<std::sync::Arc<crate::intensity::LatticeLut>>,
}

impl IntensityMap {
    /// Creates an all-zero intensity map over `frame`.
    pub fn new(model: ExposureModel, frame: Frame) -> Self {
        IntensityMap::with_values(model, frame, Vec::new())
    }

    /// Creates an all-zero intensity map over `frame`, recycling `values`
    /// as the backing store (grown if too small, never shrunk).
    ///
    /// This is the scratch-arena entry point: the fracturer's per-worker
    /// `FractureScratch` hands the previous shape's buffer back so
    /// steady-state layout fracturing allocates nothing per shape.
    pub fn with_values(model: ExposureModel, frame: Frame, mut values: Vec<f64>) -> Self {
        values.clear();
        values.resize(frame.len(), 0.0);
        IntensityMap {
            model,
            frame,
            values,
            fx: Vec::new(),
            fy: Vec::new(),
            fx2: Vec::new(),
            fy2: Vec::new(),
            prev: Vec::new(),
            lattice: None,
        }
    }

    /// Switches edge-profile evaluation to the relaxed integer-lattice
    /// tier ([`crate::intensity::LatticeLut`]).
    ///
    /// Shot edges and pixel centres both live on the 1 nm lattice, so
    /// every profile argument the map can pose is answered by one table
    /// lookup with no interpolation. Values agree with the default tier to
    /// within the erf approximation error (`< 1.5e-7` per factor) but are
    /// **not** bit-identical — callers that need the parity contract must
    /// stay on the default tier. Used by the coarse phase of
    /// coarse-to-fine refinement, where exactness is relaxed anyway.
    ///
    /// Must be called before any shot is applied: mixing tiers across
    /// add/remove of the same shot would leave ULP residue behind.
    pub fn enable_lattice_profiles(&mut self) {
        self.lattice = Some(self.model.lattice_lut());
    }

    /// Consumes the map, returning the backing value buffer for reuse.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// The exposure model.
    #[inline]
    pub fn model(&self) -> &ExposureModel {
        &self.model
    }

    /// The pixel frame.
    #[inline]
    pub fn frame(&self) -> Frame {
        self.frame
    }

    /// Total intensity at pixel `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the pixel is out of range.
    #[inline]
    pub fn value(&self, ix: usize, iy: usize) -> f64 {
        self.values[self.frame.index(ix, iy)]
    }

    /// Contiguous intensity values of row `iy` restricted to columns `xs`.
    ///
    /// The candidate-scoring inner loop iterates millions of window pixels;
    /// handing out the row slice once removes the per-pixel index
    /// arithmetic and bounds checks of [`IntensityMap::value`].
    ///
    /// # Panics
    ///
    /// Panics if the row or column range is out of frame.
    #[inline]
    pub fn row(&self, iy: usize, xs: std::ops::Range<usize>) -> &[f64] {
        let base = self.frame.index(0, iy);
        &self.values[base + xs.start..base + xs.end]
    }

    /// Adds a shot's intensity.
    pub fn add_shot(&mut self, shot: &Rect) {
        self.apply_shot(shot, 1.0);
    }

    /// Removes a previously added shot's intensity.
    pub fn remove_shot(&mut self, shot: &Rect) {
        self.apply_shot(shot, -1.0);
    }

    /// Replaces `old` with `new` (e.g. after an edge move) in a single
    /// pass over the union of the two affected windows.
    ///
    /// For the common small-edge-move case the windows almost coincide, so
    /// fusing subtract-and-add into one traversal halves the memory walked
    /// versus `remove_shot` + `add_shot`. Bit-exact with the two-pass
    /// path: per pixel the operations are independent f64 adds applied in
    /// the same order (old's subtraction before new's addition), each
    /// restricted to its own rect's affected window.
    pub fn replace_shot(&mut self, old: &Rect, new: &Rect) {
        let (xs_o, ys_o) = self.affected_window(old);
        let (xs_n, ys_n) = self.affected_window(new);
        let old_live = !xs_o.is_empty() && !ys_o.is_empty();
        let new_live = !xs_n.is_empty() && !ys_n.is_empty();
        if !old_live || !new_live {
            // One side is entirely off-frame: nothing to fuse.
            self.apply_shot(old, -1.0);
            self.apply_shot(new, 1.0);
            return;
        }
        maskfrac_obs::counter!("ebeam.kernel.convolutions").add(2);
        let (mut fx_o, mut fy_o) = (std::mem::take(&mut self.fx), std::mem::take(&mut self.fy));
        let (mut fx_n, mut fy_n) = (std::mem::take(&mut self.fx2), std::mem::take(&mut self.fy2));
        self.fill_edge_factors(old, &xs_o, &ys_o, &mut fx_o, &mut fy_o);
        self.fill_edge_factors(new, &xs_n, &ys_n, &mut fx_n, &mut fy_n);
        let width = self.frame.width();
        for iy in ys_o.start.min(ys_n.start)..ys_o.end.max(ys_n.end) {
            let base = iy * width;
            if ys_o.contains(&iy) {
                let fyv = -fy_o[iy - ys_o.start];
                axpy_row(&mut self.values[base + xs_o.start..base + xs_o.end], &fx_o, fyv);
            }
            if ys_n.contains(&iy) {
                let fyv = fy_n[iy - ys_n.start];
                axpy_row(&mut self.values[base + xs_n.start..base + xs_n.end], &fx_n, fyv);
            }
        }
        (self.fx, self.fy) = (fx_o, fy_o);
        (self.fx2, self.fy2) = (fx_n, fy_n);
    }

    /// Adds a shot's intensity scaled by `dose` (variable-dose writing;
    /// `dose = 1` is the nominal fixed dose, negative values subtract).
    pub fn add_shot_scaled(&mut self, shot: &Rect, dose: f64) {
        self.apply_shot(shot, dose);
    }

    /// Pixel-index window over which `shot`'s intensity is non-negligible.
    pub fn affected_window(&self, shot: &Rect) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let r = self.model.support_radius_px() as f64;
        let xs = self
            .frame
            .clamp_x_range(shot.x0() as f64 - r, shot.x1() as f64 + r);
        let ys = self
            .frame
            .clamp_y_range(shot.y0() as f64 - r, shot.y1() as f64 + r);
        (xs, ys)
    }

    /// Recomputes the map from scratch for the given shot set, one
    /// [`add_shot`](Self::add_shot) at a time.
    ///
    /// Seeds refinement on the separable backend, and lets tests and
    /// consistency checks confirm that a sequence of incremental updates
    /// did not drift.
    pub fn rebuild<'a, I: IntoIterator<Item = &'a Rect>>(&mut self, shots: I) {
        self.values.iter_mut().for_each(|v| *v = 0.0);
        for s in shots {
            self.add_shot(s);
        }
    }

    /// Recomputes the map from scratch by whole-frame FFT synthesis
    /// ([`crate::fft::synthesize_lattice`]) — `O(frame · log frame)`
    /// regardless of the shot count, versus the per-shot-window cost of
    /// [`rebuild`](Self::rebuild).
    ///
    /// Carries the FFT module's exactness contract, **not** the map's
    /// bit-parity contract: the seeded values are the untruncated
    /// lattice-tier convolution, which differs from a shot-by-shot
    /// rebuild by the `3σ` window-truncation residue (`~1.2e-5` per
    /// covering shot) on either tier. As with the lattice tier, removing
    /// one of `shots` later via [`remove_shot`](Self::remove_shot) leaves
    /// that residue behind rather than returning to exact zero — callers
    /// that need strict parity must seed with `rebuild`.
    pub fn rebuild_fft(&mut self, shots: &[Rect]) {
        let mut values = std::mem::take(&mut self.values);
        crate::fft::synthesize_lattice(&self.model, self.frame, shots, &mut values);
        self.values = values;
    }

    /// Maximum absolute difference from another map of identical frame.
    ///
    /// # Panics
    ///
    /// Panics if the frames differ.
    pub fn max_abs_diff(&self, other: &IntensityMap) -> f64 {
        assert_eq!(self.frame, other.frame, "frames must match");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Fills `fx`/`fy` with the shot's separable edge factors over the
    /// window — one per column/row. Buffers are cleared and re-filled in
    /// place (grow-only, no steady-state allocation).
    fn fill_edge_factors(
        &self,
        shot: &Rect,
        xs: &std::ops::Range<usize>,
        ys: &std::ops::Range<usize>,
        fx: &mut Vec<f64>,
        fy: &mut Vec<f64>,
    ) {
        fx.clear();
        fy.clear();
        if let Some(lut) = &self.lattice {
            // Tier 2: pure integer offsets from edge to pixel centre —
            // one table hit per row/column, no interpolation.
            let origin = self.frame.origin();
            fx.extend(
                xs.clone()
                    .map(|ix| lut.edge_factor(shot.x0(), shot.x1(), origin.x + ix as i64)),
            );
            fy.extend(
                ys.clone()
                    .map(|iy| lut.edge_factor(shot.y0(), shot.y1(), origin.y + iy as i64)),
            );
            return;
        }
        fx.extend(xs.clone().map(|ix| {
            let (cx, _) = self.frame.pixel_center(ix, 0);
            self.model.edge_factor(shot.x0() as f64, shot.x1() as f64, cx)
        }));
        fy.extend(ys.clone().map(|iy| {
            let (_, cy) = self.frame.pixel_center(0, iy);
            self.model.edge_factor(shot.y0() as f64, shot.y1() as f64, cy)
        }));
    }

    fn apply_shot(&mut self, shot: &Rect, sign: f64) {
        let (xs, ys) = self.affected_window(shot);
        if xs.is_empty() || ys.is_empty() {
            return;
        }
        maskfrac_obs::counter!("ebeam.kernel.convolutions").incr();
        let (mut fx, mut fy) = (std::mem::take(&mut self.fx), std::mem::take(&mut self.fy));
        self.fill_edge_factors(shot, &xs, &ys, &mut fx, &mut fy);
        let width = self.frame.width();
        for (j, iy) in ys.clone().enumerate() {
            let base = iy * width;
            let fyv = fy[j] * sign;
            // Explicit four-lane multiply-add over contiguous slices.
            axpy_row(&mut self.values[base + xs.start..base + xs.end], &fx, fyv);
        }
        (self.fx, self.fy) = (fx, fy);
    }

    /// Applies `sign ×` the shot's intensity one window row at a time,
    /// handing each row to `row` as `(iy, xs, old, new)`: the row's
    /// window columns and their values before and after the update.
    ///
    /// Each row is updated by the same [`axpy_row`] as
    /// [`add_shot`](Self::add_shot), so the grid is bit-identical to the
    /// plain path. This is the hook incremental violation tracking hangs
    /// off ([`crate::violations::ViolationTracker::apply`]), which reads
    /// only the few pixels of each row that can change its summary.
    pub(crate) fn apply_shot_rows<F>(&mut self, shot: &Rect, sign: f64, mut row: F)
    where
        F: FnMut(usize, std::ops::Range<usize>, &[f64], &[f64]),
    {
        let (xs, ys) = self.affected_window(shot);
        if xs.is_empty() || ys.is_empty() {
            return;
        }
        maskfrac_obs::counter!("ebeam.kernel.convolutions").incr();
        let (mut fx, mut fy) = (std::mem::take(&mut self.fx), std::mem::take(&mut self.fy));
        let mut prev = std::mem::take(&mut self.prev);
        self.fill_edge_factors(shot, &xs, &ys, &mut fx, &mut fy);
        let width = self.frame.width();
        for (j, iy) in ys.clone().enumerate() {
            let base = iy * width;
            let values = &mut self.values[base + xs.start..base + xs.end];
            prev.clear();
            prev.extend_from_slice(values);
            axpy_row(values, &fx, fy[j] * sign);
            row(iy, xs.clone(), &prev, values);
        }
        (self.fx, self.fy) = (fx, fy);
        self.prev = prev;
    }

    /// Largest `|ΔI|` that adding or removing a strip `width` pixels thin
    /// (and of any length) can cause at one pixel, on this map's profile
    /// tier: the thin side's peak edge factor over the lattice's pixel
    /// centres times the long side's saturated plateau.
    ///
    /// Edge factors depend only on the integer offset between an edge and
    /// a pixel centre, so evaluating them at offsets from 0 gives the
    /// exact values every placement of such a strip produces.
    pub(crate) fn strip_reach(&self, width: i64) -> f64 {
        let r = self.model.support_radius_px() + width;
        let thin = (-r..=r)
            .map(|c| self.edge_factor_at(0, width, c))
            .fold(0.0, f64::max);
        // Far beyond every profile table's saturation point.
        let far = 1i64 << 32;
        thin * self.edge_factor_at(-far, far, 0)
    }

    /// The edge factor of the interval `[a, b]` at the pixel centre
    /// `c + ½`, on this map's profile tier (the per-value counterpart of
    /// `fill_edge_factors`).
    fn edge_factor_at(&self, a: i64, b: i64, c: i64) -> f64 {
        match &self.lattice {
            Some(lut) => lut.edge_factor(a, b, c),
            None => self.model.edge_factor(a as f64, b as f64, c as f64 + 0.5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_geom::Point;

    fn map() -> IntensityMap {
        IntensityMap::new(
            ExposureModel::paper_default(),
            Frame::new(Point::new(-25, -25), 120, 120),
        )
    }

    #[test]
    fn add_matches_direct_evaluation() {
        let mut m = map();
        let shot = Rect::new(0, 0, 40, 30).unwrap();
        m.add_shot(&shot);
        for &(ix, iy) in &[(30usize, 30usize), (25, 25), (70, 40), (5, 5)] {
            let (x, y) = m.frame().pixel_center(ix, iy);
            let want = m.model().shot_intensity(&shot, x, y);
            assert!(
                (m.value(ix, iy) - want).abs() < 1e-12,
                "pixel ({ix}, {iy})"
            );
        }
    }

    #[test]
    fn add_then_remove_is_identity() {
        let mut m = map();
        let a = Rect::new(0, 0, 40, 30).unwrap();
        let b = Rect::new(20, 10, 60, 55).unwrap();
        m.add_shot(&a);
        m.add_shot(&b);
        m.remove_shot(&a);
        m.remove_shot(&b);
        let zero = map();
        assert!(m.max_abs_diff(&zero) < 1e-12);
    }

    #[test]
    fn incremental_matches_rebuild() {
        let mut m = map();
        let shots = vec![
            Rect::new(0, 0, 30, 30).unwrap(),
            Rect::new(25, 5, 65, 40).unwrap(),
            Rect::new(-10, 20, 20, 70).unwrap(),
        ];
        for s in &shots {
            m.add_shot(s);
        }
        // Jiggle: remove/re-add with a moved edge, then undo.
        let moved = shots[1].with_edge(maskfrac_geom::rect::Edge::Right, 70).unwrap();
        m.replace_shot(&shots[1], &moved);
        m.replace_shot(&moved, &shots[1]);

        let mut fresh = map();
        fresh.rebuild(shots.iter());
        assert!(m.max_abs_diff(&fresh) < 1e-12);
    }

    #[test]
    fn shot_outside_frame_is_noop() {
        let mut m = map();
        let far = Rect::new(4000, 4000, 4100, 4100).unwrap();
        m.add_shot(&far);
        let zero = map();
        assert_eq!(m.max_abs_diff(&zero), 0.0);
    }

    #[test]
    fn overlapping_shots_accumulate() {
        let mut m = map();
        let s = Rect::new(0, 0, 40, 40).unwrap();
        m.add_shot(&s);
        m.add_shot(&s);
        let (ix, iy) = (45usize, 45usize); // centre (20.5, 20.5)
        assert!((m.value(ix, iy) - 2.0).abs() < 1e-4, "double dose saturates at 2");
    }

    #[test]
    fn fused_replace_matches_two_pass_bitwise() {
        // The fused union-window pass must be indistinguishable from
        // remove+add down to the last ULP — greedy refinement decisions
        // key off exact f64 values.
        let base = vec![
            Rect::new(0, 0, 30, 30).unwrap(),
            Rect::new(25, 5, 65, 40).unwrap(),
            Rect::new(-10, 20, 20, 70).unwrap(),
        ];
        let moves = [
            // Small edge move: windows almost coincide (the common case).
            (Rect::new(25, 5, 65, 40).unwrap(), Rect::new(25, 5, 67, 40).unwrap()),
            // Disjoint relocation: union window is two separated bands.
            (Rect::new(0, 0, 30, 30).unwrap(), Rect::new(50, 60, 80, 90).unwrap()),
            // Partially off-frame on one side.
            (Rect::new(-10, 20, 20, 70).unwrap(), Rect::new(-40, 20, -10, 70).unwrap()),
            // Entirely off-frame old (degenerate fallback branch).
            (Rect::new(4000, 4000, 4100, 4100).unwrap(), Rect::new(10, 10, 40, 40).unwrap()),
        ];
        for (old, new) in &moves {
            let mut fused = map();
            let mut twopass = map();
            for s in &base {
                fused.add_shot(s);
                twopass.add_shot(s);
            }
            fused.replace_shot(old, new);
            twopass.remove_shot(old);
            twopass.add_shot(new);
            let (w, h) = (fused.frame().width(), fused.frame().height());
            for iy in 0..h {
                for ix in 0..w {
                    assert_eq!(
                        fused.value(ix, iy).to_bits(),
                        twopass.value(ix, iy).to_bits(),
                        "pixel ({ix}, {iy}) for move {old:?} -> {new:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lattice_tier_tracks_exact_tier_within_tolerance() {
        let mut exact = map();
        let mut lattice = map();
        lattice.enable_lattice_profiles();
        let shots = vec![
            Rect::new(0, 0, 30, 30).unwrap(),
            Rect::new(25, 5, 65, 40).unwrap(),
            Rect::new(-10, 20, 20, 70).unwrap(),
        ];
        for s in &shots {
            exact.add_shot(s);
            lattice.add_shot(s);
        }
        let moved = shots[1].with_edge(maskfrac_geom::rect::Edge::Right, 70).unwrap();
        exact.replace_shot(&shots[1], &moved);
        lattice.replace_shot(&shots[1], &moved);
        // Per edge factor the tiers differ by at most the erf
        // approximation error (1.5e-7); three shots compound it.
        assert!(lattice.max_abs_diff(&exact) < 1e-6);
        // And removal still returns to (lattice-tier) zero exactly.
        lattice.replace_shot(&moved, &shots[1]);
        for s in &shots {
            lattice.remove_shot(s);
        }
        let zero = map();
        assert!(lattice.max_abs_diff(&zero) < 1e-12);
    }

    #[test]
    fn fft_rebuild_tracks_separable_rebuild_within_truncation_bound() {
        let shots = vec![
            Rect::new(0, 0, 30, 30).unwrap(),
            Rect::new(25, 5, 65, 40).unwrap(),
            Rect::new(-10, 20, 20, 70).unwrap(),
        ];
        let mut separable = map();
        separable.rebuild(shots.iter());
        let mut fft = map();
        fft.rebuild_fft(&shots);
        // 3σ window-truncation residue (~1.2e-5 per covering shot) plus
        // the lattice-vs-interpolated tier gap.
        assert!(fft.max_abs_diff(&separable) < 5e-5);
        // And determinism: a second synthesis is bit-identical.
        let mut again = map();
        again.rebuild_fft(&shots);
        assert_eq!(again.max_abs_diff(&fft), 0.0);
    }

    #[test]
    fn window_clamps_to_frame() {
        let m = map();
        let shot = Rect::new(-100, -100, -30, 200).unwrap();
        let (xs, ys) = m.affected_window(&shot);
        assert!(xs.start == 0);
        assert!(xs.end <= m.frame().width());
        assert!(ys.start == 0 && ys.end == m.frame().height());
    }
}
