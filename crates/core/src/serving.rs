//! Immutable serving artifacts — the serve half of the fit/serve split.
//!
//! Training ([`crate::pipeline::train`]) is a one-shot, mutable affair; what
//! deployment actually holds resident is produced here:
//!
//! * [`ServingModel`] — the fitted ensemble (fused learner stack, and its
//!   f32 narrowing when configured), the feature scaler and the variant
//!   config, as one value. It is built from a live fit or rehydrated from a
//!   stack snapshot ([`ServingModel::from_stack_snapshot`]), optionally
//!   re-planed/re-laid-out **before** sharing, and then published behind an
//!   `Arc` — at which point only `&self` query methods remain reachable, so
//!   the artifact is immutable for as long as it serves.
//! * [`PreparedPark`] — a park's assembled feature stack standardised
//!   **once** and narrowed to the f32 plane **once**
//!   ([`StandardScaler::transform_planes_in_place`]). It is the only way
//!   to query a park: [`ServingModel::prepare_park`] validates the
//!   coverage vector and the assembled stack, and every risk-map /
//!   response-surface / planning-problem query then runs traversal only.
//!   Paying the standardise+narrow pass per call is what BENCH_5 measured
//!   eating the f32 plane's bandwidth advantage on 50k-cell parks (0.84×).
//!
//! The cached f64 plane is exactly [`StandardScaler::transform`] of the raw
//! stack and the cached f32 plane exactly [`StandardScaler::transform_f32`],
//! so a prepared risk map is bit-identical to
//! [`ServingModel::predict_with_variance`] on the raw rows.

use crate::config::ModelConfig;
use crate::error::PawsError;
use paws_data::matrix32::{Matrix32, MatrixView32};
use paws_data::{Dataset, Matrix, MatrixView, StandardScaler};
use paws_geo::{CellId, Park};
use paws_iware::IWareModel;
use paws_ml::bagging::BaggingClassifier;
use paws_ml::forest32::NarrowError;
use paws_ml::metrics::roc_auc;
use paws_ml::precision::Precision;
use paws_ml::traits::{validate_effort_grid, validate_query, Classifier, UncertainClassifier};
use paws_plan::PlanningProblem;
use rayon::prelude::*;

/// A fitted predictive model (plain bagging or iWare-E).
pub enum FittedModel {
    /// iWare-E wrapped ensemble ("-iW" variants).
    IWare(IWareModel),
    /// Plain bagging ensemble.
    Plain(BaggingClassifier),
}

/// The immutable serving artifact: fitted ensemble + scaler + config.
///
/// Constructible from a live fit (via [`crate::pipeline::train`], which
/// wraps one) or from a PR 6 learner-stack snapshot
/// ([`ServingModel::from_stack_snapshot`]). The `&mut self` plane
/// setter is usable only while the artifact has a unique owner; once it
/// is shared behind an `Arc` (the registry's resident form), callers can
/// reach only the `&self` query surface.
pub struct ServingModel {
    /// The variant configuration used for training.
    pub config: ModelConfig,
    /// Feature standardiser fitted on the training rows.
    pub scaler: StandardScaler,
    /// The fitted model.
    pub fitted: FittedModel,
}

/// A park's feature stack, standardised and narrowed once against a
/// specific [`ServingModel`]'s scaler.
///
/// Holds both precision planes: the standardised f64 matrix (bit-identical
/// to [`StandardScaler::transform`] on the raw rows) and its f32
/// narrowing (bit-identical to [`StandardScaler::transform_f32`] on the raw
/// rows). Build one per (park, previous-coverage) pair via
/// [`ServingModel::prepare_park`] and reuse it across queries; rebuild it
/// when the coverage — and hence the feature stack — changes.
///
/// LLC-scale parks (50k–200k cells) are additionally tiled into
/// cache-sized **spatial shards** — contiguous row ranges whose f64 plane
/// fits in roughly [`SHARD_TARGET_BYTES`] — at preparation time. Prepared
/// park-wide queries fan the shards across the worker pool and stitch the
/// per-shard surfaces back in row order; every per-row kernel result
/// depends only on its own row, and shard boundaries are multiples of the
/// block kernels' row-chunk, so the stitched surface is bit-identical to
/// the unsharded (and 1-thread) evaluation.
pub struct PreparedPark {
    rows: Matrix,
    rows32: Matrix32,
    shards: Vec<std::ops::Range<usize>>,
}

/// Shard boundaries are multiples of this row count — the block kernels'
/// row-chunk (`ROW_CHUNK` in `paws-iware`), so a shard's block partition
/// is a subset of the unsharded run's.
const SHARD_BLOCK_ROWS: usize = 256;

/// Target f64-plane size per spatial shard: big enough to amortise region
/// publish overhead, small enough that a shard's two planes plus its
/// output surfaces sit in the LLC while a worker chews on it.
const SHARD_TARGET_BYTES: usize = 1 << 20;

/// Tile `n_rows × n_cols` into contiguous cache-sized row ranges (one
/// range when the park is small; every boundary a [`SHARD_BLOCK_ROWS`]
/// multiple).
fn spatial_shards(n_rows: usize, n_cols: usize) -> Vec<std::ops::Range<usize>> {
    let target_rows = SHARD_TARGET_BYTES / (8 * n_cols.max(1));
    let rows_per_shard = (target_rows / SHARD_BLOCK_ROWS).max(1) * SHARD_BLOCK_ROWS;
    if n_rows <= rows_per_shard {
        return std::iter::once(0..n_rows).collect();
    }
    let mut shards = Vec::with_capacity(n_rows.div_ceil(rows_per_shard));
    let mut start = 0;
    while start < n_rows {
        let end = (start + rows_per_shard).min(n_rows);
        shards.push(start..end);
        start = end;
    }
    shards
}

impl PreparedPark {
    /// Number of park cells (feature rows) in the prepared stack.
    pub fn n_cells(&self) -> usize {
        self.rows.n_rows()
    }

    /// Feature width of the prepared stack.
    pub fn n_features(&self) -> usize {
        self.rows.n_cols()
    }

    /// The spatial shard tiling (contiguous, ascending, covering
    /// `0..n_cells()`; a single range for small parks).
    pub fn shards(&self) -> &[std::ops::Range<usize>] {
        &self.shards
    }

    /// f64-plane subview of one shard's rows.
    fn rows_span(&self, span: &std::ops::Range<usize>) -> MatrixView<'_> {
        let w = self.rows.n_cols();
        MatrixView::from_flat(&self.rows.as_slice()[span.start * w..span.end * w], w)
    }

    /// f32-plane subview of one shard's rows.
    fn rows32_span(&self, span: &std::ops::Range<usize>) -> MatrixView32<'_> {
        let w = self.rows32.n_cols();
        MatrixView32::from_flat(&self.rows32.as_slice()[span.start * w..span.end * w], w)
    }
}

impl ServingModel {
    /// Rehydrate a serving artifact from a learner-stack snapshot plus the
    /// fit-time scaler and variant config (the snapshot wire format carries
    /// the ensemble only). The configured precision plane is applied
    /// before the artifact is returned.
    ///
    /// # Errors
    /// [`PawsError::Snapshot`] for a rejected snapshot,
    /// [`PawsError::Narrow`] when the configured f32 plane does not fit the
    /// restored arena, [`PawsError::Input`] when the restored ensemble's
    /// feature width does not match the scaler.
    pub fn from_stack_snapshot(
        bytes: &[u8],
        config: ModelConfig,
        scaler: StandardScaler,
    ) -> Result<Self, PawsError> {
        let model = IWareModel::from_stack_snapshot(bytes, config.iware_config())?;
        if model.n_features() != scaler.n_features() {
            return Err(PawsError::Input(
                "snapshot feature width does not match the scaler",
            ));
        }
        let mut serving = ServingModel {
            config,
            scaler,
            fitted: FittedModel::IWare(model),
        };
        let precision = serving.config.precision;
        serving.set_precision(precision)?;
        Ok(serving)
    }

    /// Serialise the fused learner stack to the snapshot wire format.
    /// `None` when the fitted model has no snapshotable stack (plain
    /// bagging, or a non-tree learner base).
    pub fn to_stack_snapshot(&self) -> Option<Vec<u8>> {
        match &self.fitted {
            FittedModel::IWare(m) => m.to_stack_snapshot(),
            FittedModel::Plain(_) => None,
        }
    }

    /// Select the numeric plane serving this model's predictions (risk
    /// maps, response surfaces). Dispatches to the fitted ensemble; see
    /// [`paws_ml::precision::Precision`] for the contract.
    ///
    /// # Errors
    /// Returns the [`paws_ml::forest32::NarrowError`] when the trained
    /// arena exceeds the f32 plane's packing caps; the model keeps
    /// serving from its previous plane then.
    pub fn set_precision(&mut self, precision: Precision) -> Result<(), NarrowError> {
        match &mut self.fitted {
            FittedModel::IWare(m) => m.set_precision(precision),
            FittedModel::Plain(m) => m.set_precision(precision),
        }
    }

    /// The plane currently serving predictions.
    pub fn precision(&self) -> Precision {
        match &self.fitted {
            FittedModel::IWare(m) => m.precision(),
            FittedModel::Plain(m) => m.precision(),
        }
    }

    /// Predict detection probabilities for raw (unscaled) feature rows,
    /// given the patrol effort associated with each row.
    pub fn predict(&self, x: MatrixView<'_>, efforts: &[f64]) -> Vec<f64> {
        let scaled = self.scaler.transform(x);
        match &self.fitted {
            FittedModel::IWare(m) => m.predict_proba_at_effort(scaled.view(), efforts),
            FittedModel::Plain(m) => m.predict_proba(scaled.view()),
        }
    }

    /// Predict probabilities and uncertainty (variance) for raw rows.
    pub fn predict_with_variance(
        &self,
        x: MatrixView<'_>,
        efforts: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let scaled = self.scaler.transform(x);
        match &self.fitted {
            FittedModel::IWare(m) => m.predict_with_variance_at_effort(scaled.view(), efforts),
            FittedModel::Plain(m) => m.predict_with_variance(scaled.view()),
        }
    }

    /// ROC AUC of the model on a set of dataset points (typically the test
    /// split), using each point's recorded patrol effort for qualification.
    pub fn auc_on(&self, dataset: &Dataset, idx: &[usize]) -> f64 {
        let rows = dataset.feature_rows(idx);
        let labels = dataset.labels(idx);
        let efforts = dataset.efforts(idx);
        let probs = self.predict(rows.view(), &efforts);
        roc_auc(&labels, &probs)
    }

    /// Feature width this model's scaler (and hence every query path) was
    /// fitted on.
    pub fn n_features(&self) -> usize {
        self.scaler.n_features()
    }

    /// Assemble, validate, standardise and narrow a park's feature stack
    /// once, caching both precision planes for repeated queries.
    ///
    /// # Errors
    /// [`PawsError::Input`] for a coverage vector whose length does not
    /// match the park or that holds NaN/∞; [`PawsError::Query`] for an
    /// assembled stack that is empty, width-mismatched or non-finite.
    pub fn prepare_park(
        &self,
        park: &Park,
        dataset: &Dataset,
        prev_coverage: &[f64],
    ) -> Result<PreparedPark, PawsError> {
        if prev_coverage.len() != park.n_cells() {
            return Err(PawsError::Input(
                "previous-coverage length does not match the park's cell count",
            ));
        }
        if !prev_coverage.iter().all(|c| c.is_finite()) {
            return Err(PawsError::Input(
                "previous coverage must be finite (found NaN or infinity)",
            ));
        }
        self.prepare_rows(dataset.full_feature_matrix(park, prev_coverage))
    }

    /// [`ServingModel::prepare_park`] for an already-assembled **raw**
    /// (unscaled) feature stack — the registry's model-swap path, which
    /// keeps a park's raw stack around and re-prepares it against the
    /// incoming model's scaler without re-touching the dataset.
    ///
    /// # Errors
    /// [`PawsError::Query`] when the stack is empty, width-mismatched or
    /// non-finite.
    pub fn prepare_rows(&self, mut rows: Matrix) -> Result<PreparedPark, PawsError> {
        validate_query(rows.view(), self.scaler.n_features())?;
        let rows32 = self.scaler.transform_planes_in_place(&mut rows);
        let shards = spatial_shards(rows.n_rows(), rows.n_cols());
        Ok(PreparedPark {
            rows,
            rows32,
            shards,
        })
    }

    fn check_prepared(&self, prepared: &PreparedPark) -> Result<(), PawsError> {
        if prepared.n_features() != self.scaler.n_features() {
            return Err(PawsError::Input(
                "prepared park feature width does not match the model",
            ));
        }
        Ok(())
    }

    /// Predicted risk and uncertainty for every in-park cell at a single
    /// prospective patrol-effort level (one panel of Fig. 6), off the
    /// prepared planes: zero per-call standardise/narrow work.
    ///
    /// Parks large enough to carry multiple spatial shards fan them across
    /// the worker pool and stitch the per-shard surfaces back in row order;
    /// every kernel is per-row, so the stitched map is bit-identical to the
    /// unsharded (and 1-thread) evaluation.
    pub fn risk_map_prepared(
        &self,
        prepared: &PreparedPark,
        effort_km: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let shards = prepared.shards();
        if shards.len() > 1 && rayon::current_num_threads() > 1 {
            let parts: Vec<(Vec<f64>, Vec<f64>)> = shards
                .par_iter()
                .map(|span| self.risk_map_prepared_span(prepared, span, effort_km))
                .collect();
            let mut p = Vec::with_capacity(prepared.n_cells());
            let mut v = Vec::with_capacity(prepared.n_cells());
            for (sp, sv) in parts {
                p.extend_from_slice(&sp);
                v.extend_from_slice(&sv);
            }
            return (p, v);
        }
        self.risk_map_prepared_span(prepared, &(0..prepared.n_cells()), effort_km)
    }

    /// One spatial shard of [`ServingModel::risk_map_prepared`]: the same
    /// precision dispatch, evaluated on subviews of the cached planes.
    fn risk_map_prepared_span(
        &self,
        prepared: &PreparedPark,
        span: &std::ops::Range<usize>,
        effort_km: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        match &self.fitted {
            FittedModel::IWare(m) => {
                if m.precision() == Precision::F32 {
                    if let Some(out) =
                        m.predict_with_variance_at_effort32(prepared.rows32_span(span), effort_km)
                    {
                        return out;
                    }
                }
                let efforts = vec![effort_km; span.len()];
                m.predict_with_variance_at_effort(prepared.rows_span(span), &efforts)
            }
            FittedModel::Plain(m) => {
                if m.precision() == Precision::F32 {
                    if let Some(out) = m.predict_with_variance32(prepared.rows32_span(span)) {
                        return out;
                    }
                }
                m.predict_with_variance(prepared.rows_span(span))
            }
        }
    }

    /// [`ServingModel::risk_map_prepared`] with the serving-side input
    /// guard (finite, non-negative effort; width-matched prepared stack).
    pub fn try_risk_map_prepared(
        &self,
        prepared: &PreparedPark,
        effort_km: f64,
    ) -> Result<(Vec<f64>, Vec<f64>), PawsError> {
        if !effort_km.is_finite() || effort_km < 0.0 {
            return Err(PawsError::Input(
                "effort level must be finite and non-negative",
            ));
        }
        self.check_prepared(prepared)?;
        Ok(self.risk_map_prepared(prepared, effort_km))
    }

    /// Response curves g_v(c), ν_v(c) for every in-park cell over a grid of
    /// prospective effort levels — the planner's input, as flat
    /// `cells × effort-levels` matrices — served straight off the cached
    /// plane matching the model's precision. A plain ensemble has no notion
    /// of prospective effort, so its surfaces are constant across levels.
    ///
    /// Like [`ServingModel::risk_map_prepared`], multi-shard parks fan the
    /// shards across the worker pool; the per-shard response matrices are
    /// concatenated row-block by row-block, which is exactly the unsharded
    /// row order.
    pub fn park_response_prepared(
        &self,
        prepared: &PreparedPark,
        effort_grid: &[f64],
    ) -> (Matrix, Matrix) {
        let shards = prepared.shards();
        if shards.len() > 1 && rayon::current_num_threads() > 1 {
            let parts: Vec<(Matrix, Matrix)> = shards
                .par_iter()
                .map(|span| self.park_response_prepared_span(prepared, span, effort_grid))
                .collect();
            let n = prepared.n_cells() * effort_grid.len();
            let mut p_flat = Vec::with_capacity(n);
            let mut v_flat = Vec::with_capacity(n);
            for (sp, sv) in parts {
                p_flat.extend_from_slice(sp.as_slice());
                v_flat.extend_from_slice(sv.as_slice());
            }
            return (
                Matrix::from_flat(p_flat, effort_grid.len()),
                Matrix::from_flat(v_flat, effort_grid.len()),
            );
        }
        self.park_response_prepared_span(prepared, &(0..prepared.n_cells()), effort_grid)
    }

    /// One spatial shard of [`ServingModel::park_response_prepared`].
    fn park_response_prepared_span(
        &self,
        prepared: &PreparedPark,
        span: &std::ops::Range<usize>,
        effort_grid: &[f64],
    ) -> (Matrix, Matrix) {
        match &self.fitted {
            FittedModel::IWare(m) => {
                if m.precision() == Precision::F32 {
                    if let Some(response) =
                        m.effort_response32(prepared.rows32_span(span), effort_grid)
                    {
                        return response;
                    }
                }
                m.effort_response(prepared.rows_span(span), effort_grid)
            }
            FittedModel::Plain(m) => {
                let pv = if m.precision() == Precision::F32 {
                    m.predict_with_variance32(prepared.rows32_span(span))
                } else {
                    None
                };
                let (p, v) = match pv {
                    Some(out) => out,
                    None => m.predict_with_variance(prepared.rows_span(span)),
                };
                broadcast_constant_response(&p, &v, effort_grid.len())
            }
        }
    }

    /// [`ServingModel::park_response_prepared`] with the serving-side input
    /// guard (validated effort grid; width-matched prepared stack).
    pub fn try_park_response_prepared(
        &self,
        prepared: &PreparedPark,
        effort_grid: &[f64],
    ) -> Result<(Matrix, Matrix), PawsError> {
        validate_effort_grid(effort_grid).map_err(PawsError::Query)?;
        self.check_prepared(prepared)?;
        Ok(self.park_response_prepared(prepared, effort_grid))
    }

    /// Build a patrol-planning problem for one post from a prepared park:
    /// the response surfaces come off the cached planes, then flow through
    /// [`try_planning_problem_from_response`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_planning_problem_prepared(
        &self,
        park: &Park,
        prepared: &PreparedPark,
        post: CellId,
        effort_grid: &[f64],
        patrol_length_km: f64,
        n_patrols: usize,
        beta: f64,
    ) -> Result<PlanningProblem, PawsError> {
        let (probs, vars) = self.try_park_response_prepared(prepared, effort_grid)?;
        try_planning_problem_from_response(
            park,
            post,
            effort_grid,
            &probs,
            &vars,
            patrol_length_km,
            n_patrols,
            beta,
        )
    }
}

/// Build a patrol-planning problem from an **already computed** response
/// surface (e.g. one shared across a batch of same-park queries): the
/// surface goes straight into [`PlanningProblem::try_from_response`],
/// which squashes the raw variances in its one pass over the rows.
///
/// # Errors
/// [`PawsError::Input`] naming the violated precondition: the post must
/// lie inside the park, the surfaces must cover every cell at ≥ 2 strictly
/// ascending effort levels, and the patrol budget and β must be sane.
#[allow(clippy::too_many_arguments)]
pub fn try_planning_problem_from_response(
    park: &Park,
    post: CellId,
    effort_grid: &[f64],
    probs: &Matrix,
    vars: &Matrix,
    patrol_length_km: f64,
    n_patrols: usize,
    beta: f64,
) -> Result<PlanningProblem, PawsError> {
    PlanningProblem::try_from_response(
        park,
        post,
        effort_grid,
        probs,
        vars,
        patrol_length_km,
        n_patrols,
        beta,
    )
    .map_err(|e| PawsError::Input(e.message()))
}

/// Broadcast a plain ensemble's effort-constant prediction across the
/// requested effort levels.
fn broadcast_constant_response(p: &[f64], v: &[f64], n_levels: usize) -> (Matrix, Matrix) {
    let mut probs = Matrix::zeros(p.len(), n_levels);
    let mut vars = Matrix::zeros(v.len(), n_levels);
    for (i, (&pi, &vi)) in p.iter().zip(v).enumerate() {
        probs.row_mut(i).fill(pi);
        vars.row_mut(i).fill(vi);
    }
    (probs, vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WeakLearnerKind;
    use crate::pipeline::train;
    use crate::scenario::Scenario;
    use paws_data::{build_dataset, split_by_test_year, Discretization, TrainTestSplit};
    use std::sync::Arc;

    fn small_setup() -> (Scenario, Dataset, TrainTestSplit) {
        let scenario = Scenario::test_scenario(3);
        let history = scenario.simulate_years(2014, 3);
        let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
        let split = split_by_test_year(&dataset, 2016, 2).expect("split exists");
        (scenario, dataset, split)
    }

    fn quick_config(learner: WeakLearnerKind, use_iware: bool) -> ModelConfig {
        let mut cfg = ModelConfig::new(learner, use_iware, 7);
        cfg.n_learners = 4;
        cfg.n_estimators = 4;
        cfg.weight_mode = paws_iware::WeightMode::Uniform;
        cfg.gp_max_points = 120;
        cfg
    }

    /// Every (variant, plane) combination must serve off the cached planes
    /// the exact bits the model computes on freshly standardised rows:
    /// risk maps against `predict_with_variance` on the raw stack, response
    /// surfaces against the ensemble's own kernels on `transform` /
    /// `transform_f32` output.
    #[test]
    fn prepared_queries_are_bit_identical_to_direct_evaluation() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let prev = dataset.coverage.last().unwrap().clone();
        let raw = dataset.full_feature_matrix(park, &prev);
        let efforts = vec![1.0; raw.n_rows()];
        let grid = [0.0, 0.5, 1.0, 2.0];
        for use_iware in [true, false] {
            let mut model = train(
                &dataset,
                &split,
                &quick_config(WeakLearnerKind::DecisionTree, use_iware),
            )
            .into_serving();
            for precision in [Precision::F64, Precision::F32] {
                model.set_precision(precision).unwrap();
                let prepared = model.prepare_park(park, &dataset, &prev).unwrap();
                assert_eq!(prepared.n_cells(), park.n_cells());
                assert_eq!(prepared.n_features(), model.n_features());

                let (r_ref, u_ref) = model.predict_with_variance(raw.view(), &efforts);
                let (r, u) = model.risk_map_prepared(&prepared, 1.0);
                assert_eq!(r, r_ref, "risk {use_iware} {precision:?}");
                assert_eq!(u, u_ref, "uncertainty {use_iware} {precision:?}");
                let (rt, ut) = model.try_risk_map_prepared(&prepared, 1.0).unwrap();
                assert_eq!(rt, r_ref);
                assert_eq!(ut, u_ref);

                let (p_ref, v_ref) = match (&model.fitted, precision) {
                    (FittedModel::IWare(m), Precision::F64) => {
                        m.effort_response(model.scaler.transform(raw.view()).view(), &grid)
                    }
                    (FittedModel::IWare(m), Precision::F32) => m
                        .effort_response32(model.scaler.transform_f32(raw.view()).view(), &grid)
                        .expect("the f32 plane is narrowed"),
                    // A plain ensemble's risk map is effort-independent.
                    (FittedModel::Plain(_), _) => {
                        broadcast_constant_response(&r_ref, &u_ref, grid.len())
                    }
                };
                let (p, v) = model.park_response_prepared(&prepared, &grid);
                assert_eq!(p.as_slice(), p_ref.as_slice());
                assert_eq!(v.as_slice(), v_ref.as_slice());
                let (pt, vt) = model.try_park_response_prepared(&prepared, &grid).unwrap();
                assert_eq!(pt.as_slice(), p_ref.as_slice());
                assert_eq!(vt.as_slice(), v_ref.as_slice());
            }
        }
    }

    /// The prepared planning path must build the same game as an
    /// independent per-cell construction from the prepared response:
    /// squash the raw variances, then resample each cell's response rows
    /// onto its feasible-effort domain.
    #[test]
    fn prepared_planning_problem_matches_the_direct_construction() {
        use paws_plan::{PwlFunction, VarianceSquash};
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let model = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        )
        .into_serving();
        let prev = vec![0.0; park.n_cells()];
        let grid = [0.0, 0.5, 1.0, 2.0, 4.0];
        let post = park.patrol_posts[0];
        let prepared = model.prepare_park(park, &dataset, &prev).unwrap();
        let (p, v) = model.park_response_prepared(&prepared, &grid);
        let squash = VarianceSquash::fit(v.as_slice());
        let mut squashed = v.clone();
        squashed
            .as_mut_slice()
            .iter_mut()
            .for_each(|x| *x = squash.apply(*x));
        let problem = model
            .try_planning_problem_prepared(park, &prepared, post, &grid, 8.0, 2, 0.8)
            .unwrap();
        assert!(problem.n_cells() > 1);
        assert_eq!(problem.beta, 0.8);
        assert_eq!(problem.cells()[problem.post_index()], post);
        for i in 0..problem.n_cells() {
            let pi = problem.park_indices()[i];
            assert_eq!(park.cells[pi], problem.cells()[i]);
            let hi = problem.max_effort(i).max(1e-3);
            for (surface, got) in [(&p, problem.g(i)), (&squashed, problem.nu(i))] {
                let base = PwlFunction::new(grid.to_vec(), surface.row(pi).to_vec());
                let want = PwlFunction::try_from_samples(0.0, hi, grid.len() - 1, |x| base.eval(x))
                    .unwrap();
                let xs: Vec<f64> = (0..problem.levels())
                    .map(|k| problem.breakpoint(i, k))
                    .collect();
                assert_eq!(xs, want.xs());
                assert_eq!(got, want.ys(), "curve of {:?}", problem.cells()[i]);
            }
        }
        let config = paws_plan::PlannerConfig::default();
        let plan = paws_plan::try_plan(&problem, &config).unwrap();
        assert!(plan.coverage.iter().sum::<f64>() <= problem.budget_km() + 1e-6);

        // A plan grid that is not strictly ascending is refused as input.
        for bad in [[0.0, 2.0, 1.0], [1.0, 1.0, 2.0]] {
            assert!(matches!(
                model.try_planning_problem_prepared(park, &prepared, post, &bad, 8.0, 2, 0.8),
                Err(PawsError::Input(_))
            ));
        }
    }

    #[test]
    fn spatial_shard_tiling_covers_the_park_on_block_boundaries() {
        // Small parks stay in one shard.
        let small = spatial_shards(300, 6);
        assert_eq!(small.len(), 1);
        assert_eq!(small[0], 0..300);
        let empty = spatial_shards(0, 6);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty[0], 0..0);
        // An LLC-scale park tiles into contiguous ascending ranges whose
        // interior boundaries are SHARD_BLOCK_ROWS multiples and whose f64
        // plane stays at or under the cache target.
        for (n_rows, n_cols) in [(50_000, 6), (200_000, 6), (131_072, 16), (70_001, 7)] {
            let shards = spatial_shards(n_rows, n_cols);
            assert!(shards.len() > 1, "{n_rows}x{n_cols} should tile");
            let mut expect_start = 0;
            for (i, span) in shards.iter().enumerate() {
                assert_eq!(span.start, expect_start, "shards must be contiguous");
                assert!(span.start < span.end);
                if i + 1 < shards.len() {
                    assert!(
                        span.end.is_multiple_of(SHARD_BLOCK_ROWS),
                        "interior boundary {} off the {SHARD_BLOCK_ROWS}-row grid",
                        span.end
                    );
                    assert!(span.len() * n_cols * 8 <= SHARD_TARGET_BYTES);
                }
                expect_start = span.end;
            }
            assert_eq!(expect_start, n_rows, "shards must cover every cell");
        }
    }

    /// The shard fan-out must stitch the exact bits the unsharded span
    /// produces, for every (variant, precision) pair and regardless of
    /// where the shard boundaries fall — each kernel is per-row.
    #[test]
    fn sharded_fan_out_is_bit_identical_to_the_single_span() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let prev = dataset.coverage.last().unwrap().clone();
        let grid = [0.0, 0.5, 1.0, 2.0];
        for use_iware in [true, false] {
            let mut model = train(
                &dataset,
                &split,
                &quick_config(WeakLearnerKind::DecisionTree, use_iware),
            )
            .into_serving();
            for precision in [Precision::F64, Precision::F32] {
                model.set_precision(precision).unwrap();
                let prepared = model.prepare_park(park, &dataset, &prev).unwrap();
                assert_eq!(
                    prepared.shards().len(),
                    1,
                    "the test park is far below the tiling threshold"
                );
                assert_eq!(prepared.shards()[0], 0..park.n_cells());
                // Force a deliberately uneven many-shard tiling of the
                // same planes; parity must hold anyway because every
                // kernel result depends only on its own row.
                let mut shards = Vec::new();
                let mut start = 0;
                while start < park.n_cells() {
                    let end = (start + 7).min(park.n_cells());
                    shards.push(start..end);
                    start = end;
                }
                let sharded = PreparedPark {
                    rows: prepared.rows.clone(),
                    rows32: prepared.rows32.clone(),
                    shards,
                };

                let (r_ref, u_ref) = model.risk_map_prepared(&prepared, 1.0);
                let (p_ref, v_ref) = model.park_response_prepared(&prepared, &grid);
                for forced in [1usize, 2, 4] {
                    rayon::with_num_threads(forced, || {
                        let (r, u) = model.risk_map_prepared(&sharded, 1.0);
                        assert_eq!(r, r_ref, "risk {use_iware} {precision:?} x{forced}");
                        assert_eq!(u, u_ref, "var {use_iware} {precision:?} x{forced}");
                        let (p, v) = model.park_response_prepared(&sharded, &grid);
                        assert_eq!(p.as_slice(), p_ref.as_slice());
                        assert_eq!(v.as_slice(), v_ref.as_slice());
                    });
                }
            }
        }
    }

    #[test]
    fn prepared_guards_reject_bad_queries_and_mismatched_artifacts() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let model = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        )
        .into_serving();
        let prev = vec![0.0; park.n_cells()];

        // prepare_park rejects a coverage vector of the wrong length or
        // holding NaN before any feature row is assembled.
        let short = vec![0.0; park.n_cells() - 1];
        assert!(matches!(
            model.prepare_park(park, &dataset, &short),
            Err(PawsError::Input(_))
        ));
        let mut poisoned = prev.clone();
        poisoned[0] = f64::NAN;
        assert!(matches!(
            model.prepare_park(park, &dataset, &poisoned),
            Err(PawsError::Input(_))
        ));

        let prepared = model.prepare_park(park, &dataset, &prev).unwrap();
        assert!(matches!(
            model.try_risk_map_prepared(&prepared, f64::NAN),
            Err(PawsError::Input(_))
        ));
        assert!(matches!(
            model.try_risk_map_prepared(&prepared, -1.0),
            Err(PawsError::Input(_))
        ));
        assert!(matches!(
            model.try_park_response_prepared(&prepared, &[]),
            Err(PawsError::Query(_))
        ));
        assert!(matches!(
            model.try_park_response_prepared(&prepared, &[0.5, f64::NAN]),
            Err(PawsError::Query(_))
        ));
        assert!(matches!(
            model.try_park_response_prepared(&prepared, &[0.5, -1.0]),
            Err(PawsError::Query(_))
        ));

        // A prepared stack whose feature width does not match the model's
        // scaler is refused before it can reach the kernels.
        let foreign = PreparedPark {
            rows: Matrix::zeros(4, model.n_features() + 1),
            rows32: Matrix32::zeros(4, model.n_features() + 1),
            shards: std::iter::once(0..4).collect(),
        };
        assert!(matches!(
            model.try_risk_map_prepared(&foreign, 1.0),
            Err(PawsError::Input(_))
        ));
        assert!(matches!(
            model.try_park_response_prepared(&foreign, &[0.5]),
            Err(PawsError::Input(_))
        ));
    }

    #[test]
    fn snapshot_rehydrated_artifact_serves_bit_identical_surfaces() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let model = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        )
        .into_serving();
        let prev = vec![0.0; park.n_cells()];
        let grid = [0.0, 0.5, 1.0, 2.0];
        let bytes = model.to_stack_snapshot().expect("tree stack snapshots");

        let rehydrated =
            ServingModel::from_stack_snapshot(&bytes, model.config.clone(), model.scaler.clone())
                .expect("snapshot rehydrates");
        assert_eq!(rehydrated.precision(), model.precision());
        let prepared = model.prepare_park(park, &dataset, &prev).unwrap();
        let prepared_rehydrated = rehydrated.prepare_park(park, &dataset, &prev).unwrap();
        let (r_ref, u_ref) = model.risk_map_prepared(&prepared, 1.0);
        let (r, u) = rehydrated.risk_map_prepared(&prepared_rehydrated, 1.0);
        assert_eq!(r, r_ref);
        assert_eq!(u, u_ref);
        let (p_ref, v_ref) = model.park_response_prepared(&prepared, &grid);
        let (p, v) = rehydrated.park_response_prepared(&prepared_rehydrated, &grid);
        assert_eq!(p.as_slice(), p_ref.as_slice());
        assert_eq!(v.as_slice(), v_ref.as_slice());

        // Corrupted bytes and width mismatches surface as typed errors.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            ServingModel::from_stack_snapshot(&bad, model.config.clone(), model.scaler.clone()),
            Err(PawsError::Snapshot(_))
        ));
        let foreign_scaler =
            StandardScaler::fit(Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 3.0]]).view());
        assert!(matches!(
            ServingModel::from_stack_snapshot(&bytes, model.config.clone(), foreign_scaler),
            Err(PawsError::Input(_))
        ));
    }

    #[test]
    fn the_artifact_shares_behind_an_arc() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let artifact = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        )
        .into_serving();
        let prev = vec![0.0; park.n_cells()];
        let prepared = artifact.prepare_park(park, &dataset, &prev).unwrap();
        let (r_ref, _) = artifact.risk_map_prepared(&prepared, 1.0);

        // The shared artifact serves the same bits from plain `&self`,
        // concurrently.
        let artifact = Arc::new(artifact);
        let prepared = Arc::new(prepared);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let artifact = Arc::clone(&artifact);
                let prepared = Arc::clone(&prepared);
                std::thread::spawn(move || artifact.risk_map_prepared(&prepared, 1.0).0)
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), r_ref);
        }
    }
}
