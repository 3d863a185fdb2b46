"""One table of bad inputs against every public callable.

Each case calls a callable of cvas.__all__ with NaN, +inf, -inf, the
wrong width, an empty input or a negative radius. It must raise a
CvasError subclass, raise the ValueError that a config (or a function
that documents one) raises for an out-of-domain setting, or return a
result whose every number is finite. Run with ``-W error::RuntimeWarning``
so that a path where numpy only warns about a NaN fails as well.
"""

import dataclasses
import enum
import math
import struct
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvas
from cvas import blackbox
from cvas import (
    ActionSpec,
    ClassMoments,
    CvasError,
    DimensionMismatch,
    Divergence,
    DivergenceKind,
    DomainError,
    EvalConfig,
    EvalReport,
    EvalRow,
    MlpModel,
    NonFiniteInput,
    RecourseResult,
    SamplerConfig,
    SingularCovariance,
    Surrogate,
    TrainConfig,
    actionable_recourse,
    asymptotic_surrogate,
    coverage_validity,
    default_action_grids,
    estimate_moments,
    find_boundary_point,
    fit_surrogate,
    generate_recourse,
    generate_synthetic,
    halfspace_distance,
    l1_projection,
    lambert_w_minus1,
    load_model,
    load_surrogate,
    local_fidelity,
    max_pairwise_distance,
    optimal_mean,
    predict,
    sample_ball,
    save_model,
    save_surrogate,
    sensitivity,
    simulate_future_models,
    solve_cvas,
    sweep,
    synthesize,
    tau,
    train_mlp,
    validity_metrics,
    wachter_recourse,
    worst_case_misclassification,
)
from cvas.cli import load_dataset

from helpers import linear_mlp

nan, inf = math.nan, math.inf

# Plain result records: the library fills them, and they hold what they
# are given (EvalRow reports a missing sensitivity as NaN). The values
# in them are checked where they are computed.
RECORDS = {"BoundarySample", "EvalRow", "RecourseResult"}

# Valid inputs of width 2; each case spoils one of them.
MODEL = linear_mlp([1.0, -1.0], 0.0)
X = np.random.default_rng(0).normal(size=(40, 2))
Y = MODEL.label(X)
X0 = X[Y == -1][0]
EYE = np.eye(2)
POS = ClassMoments(mean=[1.0, 0.0], covariance=EYE)
NEG = ClassMoments(mean=[-1.0, 0.0], covariance=EYE)
NEG_WIDE = ClassMoments(mean=[-1.0, 0.0, 0.0], covariance=np.eye(3))
NOMINAL = Divergence(kind="nominal")
FR = Divergence(kind="fisher-rao", rho_neg=1.0)
FR_POS_INF = Divergence(kind="fisher-rao", rho_pos=inf)
BURES_NEG_INF = Divergence(kind="bures", rho_neg=inf)
SUR = Surrogate(w=[1.0, -1.0], b=0.5, kappa=1.0, divergence=NOMINAL)
SAMPLER = SamplerConfig(n_p=50)
ACTIONS = default_action_grids(X0, X)
# Finite inputs whose squared norms, deficit or recourse point overflow.
HUGE_ROWS = np.random.default_rng(0).normal(size=(50, 3)) * 1e154
# Class moments whose a^T a (FAR_POS) or w0^T Sigma w0 (WIDE_*) overflows,
# and an indefinite covariance.
FAR_POS = ClassMoments(mean=[1e162, 0.0], covariance=EYE)
ORIGIN = ClassMoments(mean=[0.0, 0.0], covariance=EYE)
WIDE_POS = ClassMoments(mean=[1e-100, 0.0], covariance=1e200 * EYE)
WIDE_NEG = ClassMoments(mean=[0.0, 0.0], covariance=1e200 * EYE)
INDEFINITE = np.diag([-1.0, 1.0])
# Finite covariances whose symmetrization and trace overflow, and a
# class with covariance -I, on which the solver raises SingularCovariance.
OVERFLOWING = [("1e308", 1e308 * EYE), ("9e307", 9e307 * EYE)]
NEGATIVE_POS = ClassMoments(mean=[1.0, 0.0], covariance=-EYE)
# Indefinite with trace 0, so the ridge rounds away; at w0 = a/6 the
# weighted sum of the two covariances is exactly singular.
SPLIT_POS = ClassMoments(mean=[1.0, 2.0, 1.0], covariance=np.diag([4e20, 4e20, -8e20]))
SPLIT_NEG = ClassMoments(mean=[0.0, 0.0, 0.0], covariance=np.diag([-2e20, 1e20, 1e20]))
HUGE = Surrogate(w=[1e200, 1e200], b=0.0, kappa=1.0, divergence=NOMINAL)
# Class means whose w^T mu overflows for HUGE's slope.
FAR_200 = ClassMoments(mean=[1e200, 0.0], covariance=EYE)
FAR_NEG_200 = ClassMoments(mean=[-1e200, 0.0], covariance=EYE)
TINY = Surrogate(w=[1e-300, 1e-300], b=1e10, kappa=1.0, divergence=NOMINAL)
FAR = Surrogate(w=[1.0, 1.0], b=1.7e308, kappa=1.0, divergence=NOMINAL)
FAR_ACTIONS = ActionSpec(kinds=("free", "free"), grids=([0.0, 1e308], [0.0]))
# A row whose activations overflow a trained model, and rows whose
# training overflows in its first epoch.
TRAINED = train_mlp(*generate_synthetic(100), TrainConfig(epochs=5))
FAR_ROW = [1.7e308, -1.7e308]
OVERFLOW_ROWS = [[1e300, 0.0], [-1e300, 1.0], [2.0, 3.0], [1.0, 1.0]]
OVERFLOW_LABELS = [1, -1, 1, -1]
SWEEP_CONFIG = EvalConfig(sampler=SamplerConfig(n_p=20), train=TrainConfig(epochs=2),
                          n_models=1, fid_n=10)

VECTORS = [("nan", [nan, 0.5]), ("inf", [inf, 0.5]), ("-inf", [-inf, 0.5]),
           ("wide", [0.5, 0.5, 0.5]), ("empty", [])]
MATRICES = [("nan", [[nan, 0.0], [0.0, 1.0]]), ("inf", [[inf, 0.0], [0.0, 1.0]]),
            ("-inf", [[1.0, 0.0], [0.0, -inf]]), ("wide", np.eye(3)),
            ("empty", np.zeros((0, 0)))]
RADII = [("nan", nan), ("inf", inf), ("-inf", -inf), ("negative", -1.0)]


def _rows(bad):
    rows = X.copy()
    rows[3, 1] = bad
    return rows


ROWS = [("nan", _rows(nan)), ("inf", _rows(inf)), ("-inf", _rows(-inf)),
        ("wide", np.hstack([X, X[:, :1]])), ("empty", np.zeros((0, 2)))]


def _sneak(value, **fields):
    """value with fields set past its construction-time checks."""
    for name, field_value in fields.items():
        object.__setattr__(value, name, field_value)
    return value


def _nan_threshold_file():
    save_model(MODEL, "model.bin")
    blob = open("model.bin", "rb").read()
    at = 8 + 4 + 4 * len(MODEL.layer_dims)
    with open("bad.bin", "wb") as fh:
        fh.write(blob[:at] + struct.pack("<d", nan) + blob[at + 8:])
    return load_model("bad.bin")


def _overflowing_ensemble(cpus=None):
    """simulate_future_models on OVERFLOW_ROWS, on `cpus` training
    workers if given."""
    def call():
        return simulate_future_models(OVERFLOW_ROWS, OVERFLOW_LABELS, n_models=2,
                                      fraction=1.0, config=TrainConfig(epochs=50))
    if cpus is None:
        return call()
    with mock.patch.object(blackbox, "_usable_cpus", lambda: cpus):
        return call()


def _spoiled(arrays, bad):
    """Copies of a model's weights or biases, the first entry set to bad."""
    arrays = [np.array(a) for a in arrays]
    arrays[0].flat[0] = bad
    return arrays


def _certificates(**fields):
    """worst_case_misclassification(SUR, ...) with a positive class whose
    fields are set past ClassMoments' checks, so that the margins' own
    checks see them."""
    pos = _sneak(ClassMoments(mean=[1.0, 0.0], covariance=EYE), **fields)
    return worst_case_misclassification(SUR, pos, NEG)


def _surrogate_round_trip(**fields):
    save_surrogate(_sneak(Surrogate(w=[1.0, -1.0], b=0.5, kappa=1.0,
                                    divergence=NOMINAL), **fields), "s.json")
    return load_surrogate("s.json")


# A case is (target, label, call, allowed, must_raise): call() raises one
# of `allowed`, or, unless must_raise, returns a finite result.
CONFIG = (CvasError, ValueError)


def _each(target, arg, family, call, allowed=CvasError, must_raise=False):
    """One case per bad value of a family, passed as argument `arg`."""
    return [(target, f"{arg}={label}", partial(call, value), allowed, must_raise)
            for label, value in family]


def _one(target, label, call, allowed=CvasError):
    return [(target, label, call, allowed, False)]


def _raises(target, label, call, error):
    """A case that must raise `error`: the value it used to accept or
    return passed the finite-result rule, or raised another class."""
    return [(target, label, call, error, True)]


def _surrogate_rows(method):
    """SUR.method on one bad row. A NaN row used to get the label -1,
    and a wrong width raised numpy's ValueError."""
    def call(row):
        return getattr(SUR, method)([row])
    return (_each("Surrogate", method, VECTORS[:3], call, NonFiniteInput, must_raise=True)
            + _each("Surrogate", method, VECTORS[3:], call, DimensionMismatch,
                    must_raise=True))


CASES = [
    # value types and configs
    *_each("ClassMoments", "mean", VECTORS,
           lambda v: ClassMoments(mean=v, covariance=EYE)),
    *_each("ClassMoments", "covariance", MATRICES,
           lambda m: ClassMoments(mean=[0.0, 0.0], covariance=m)),
    *_each("ClassMoments", "covariance", OVERFLOWING,
           lambda m: ClassMoments(mean=[0.0, 0.0], covariance=m),
           DomainError, must_raise=True),
    *_each("Surrogate", "w", VECTORS,
           lambda v: Surrogate(w=v, b=0.0, kappa=1.0, divergence=NOMINAL)),
    *_each("Surrogate", "b", RADII,
           lambda r: Surrogate(w=[1.0, 0.0], b=r, kappa=1.0, divergence=NOMINAL)),
    *_surrogate_rows("decision_values"),
    *_surrogate_rows("label"),
    *_each("Surrogate", "kappa", RADII,
           lambda r: Surrogate(w=[1.0, 0.0], b=0.0, kappa=r, divergence=NOMINAL),
           allowed=CONFIG),
    # +inf is a valid radius here: asymptotic_surrogate takes the
    # inflated class's radius that way. Two +inf radii name no class.
    *_each("Divergence", "rho_neg", [c for c in RADII if c[0] != "inf"],
           lambda r: Divergence(kind="bures", rho_neg=r)),
    *_raises("Divergence", "both-inf",
             lambda: Divergence(kind="bures", rho_pos=inf, rho_neg=inf), DomainError),
    *_one("DivergenceKind", "nan", lambda: DivergenceKind(nan), allowed=CONFIG),
    *_each("TrainConfig", "learning_rate", RADII,
           lambda r: TrainConfig(learning_rate=r), allowed=CONFIG),
    *_each("SamplerConfig", "r_p", RADII, lambda r: SamplerConfig(r_p=r),
           allowed=CONFIG),
    *_raises("EvalConfig", "n_models=0", lambda: EvalConfig(n_models=0), ValueError),
    # Counts and seeds that are not integers used to build, or to raise
    # TypeError where they were first used.
    *_raises("TrainConfig", "epochs=2.5", lambda: TrainConfig(epochs=2.5), ValueError),
    *_raises("TrainConfig", "seed=0.5", lambda: TrainConfig(seed=0.5), ValueError),
    *_raises("TrainConfig", "seed=-1", lambda: TrainConfig(seed=-1), ValueError),
    *_raises("SamplerConfig", "k=2.5", lambda: SamplerConfig(k=2.5), ValueError),
    *_raises("SamplerConfig", "k=str", lambda: SamplerConfig(k="3"), ValueError),
    *_raises("SamplerConfig", "n_p=2.5", lambda: SamplerConfig(n_p=2.5), ValueError),
    *_raises("SamplerConfig", "seed=-1", lambda: SamplerConfig(seed=-1), ValueError),
    *_raises("EvalConfig", "fid_n=10.5", lambda: EvalConfig(fid_n=10.5), ValueError),
    *_raises("EvalConfig", "n_models=2.5", lambda: EvalConfig(n_models=2.5),
             ValueError),
    *_raises("EvalConfig", "seed=-1", lambda: EvalConfig(seed=-1), ValueError),
    # sweep() derives each instance's sampler seed; one set here had no effect.
    *_raises("EvalConfig", "sampler.seed=1",
             lambda: EvalConfig(sampler=SamplerConfig(seed=1)), ValueError),
    *_raises("EvalConfig", "action_kinds=unknown",
             lambda: EvalConfig(action_kinds=("free", "teleport")), ValueError),
    *_one("EvalReport", "duplicate-rows",
          lambda: EvalReport(rows=[EvalRow("a", "nominal", 0.0, 0.0, "projection",
                                           0.0, 1.0, 1.0, 1.0, 0.0, 0)] * 2),
          allowed=CONFIG),
    *_each("ActionSpec", "grid", RADII,
           lambda r: ActionSpec(kinds=("free",), grids=([0.0, r],)), allowed=CONFIG),
    *_each("MlpModel", "threshold", RADII[:3],
           lambda r: MlpModel(layer_dims=MODEL.layer_dims, weights=MODEL.weights,
                              biases=MODEL.biases, threshold=r)),
    *_raises("MlpModel", "layer_dims=wide",
             lambda: MlpModel(layer_dims=(3,) + MODEL.layer_dims[1:],
                              weights=MODEL.weights, biases=MODEL.biases),
             DimensionMismatch),
    *_raises("MlpModel", "weights=empty",
             lambda: MlpModel(layer_dims=MODEL.layer_dims, weights=[], biases=[]),
             DimensionMismatch),
    # A NaN weight or bias used to build a model that answers NaN.
    *_each("MlpModel", "weights", RADII[:3],
           lambda r: MlpModel(layer_dims=MODEL.layer_dims,
                              weights=_spoiled(MODEL.weights, r), biases=MODEL.biases),
           NonFiniteInput, must_raise=True),
    *_each("MlpModel", "biases", RADII[:3],
           lambda r: MlpModel(layer_dims=MODEL.layer_dims, weights=MODEL.weights,
                              biases=_spoiled(MODEL.biases, r)),
           NonFiniteInput, must_raise=True),
    # A row whose activations overflow used to give probability NaN and
    # label -1.
    *_raises("MlpModel", "predict_proba-overflow",
             lambda: TRAINED.predict_proba([FAR_ROW]), DomainError),
    *_raises("MlpModel", "label-overflow", lambda: TRAINED.label([FAR_ROW]),
             DomainError),
    # blackbox
    *_each("train_mlp", "features", ROWS,
           lambda rows: train_mlp(rows, Y, TrainConfig(epochs=2))),
    *_one("train_mlp", "labels-wide", lambda: train_mlp(X, np.append(Y, 1))),
    # Training that overflows used to freeze most weights and return.
    *_raises("train_mlp", "features-overflow",
             lambda: train_mlp(OVERFLOW_ROWS, OVERFLOW_LABELS, TrainConfig(epochs=50)),
             DomainError),
    # Zero columns used to leak ZeroDivisionError, and the ensemble's
    # workers to exit with status 1.
    *_raises("train_mlp", "features-zero-width",
             lambda: train_mlp(np.zeros((40, 0)), Y), DimensionMismatch),
    *_raises("simulate_future_models", "features-zero-width",
             lambda: simulate_future_models(np.zeros((40, 0)), Y, n_models=2),
             DimensionMismatch),
    *_each("simulate_future_models", "features", ROWS,
           lambda rows: simulate_future_models(rows, Y, n_models=2,
                                               config=TrainConfig(epochs=2))),
    *_raises("simulate_future_models", "n_models=2.5",
             lambda: simulate_future_models(X, Y, n_models=2.5), ValueError),
    *_raises("simulate_future_models", "features-overflow-one-cpu",
             lambda: _overflowing_ensemble(cpus=1), DomainError),
    *_raises("simulate_future_models", "features-overflow",
             _overflowing_ensemble, DomainError),
    *_each("predict", "x", VECTORS, lambda v: predict(MODEL, v)),
    *_raises("predict", "x-overflow", lambda: predict(TRAINED, FAR_ROW), DomainError),
    *_each("generate_synthetic", "noise_std", RADII,
           lambda r: generate_synthetic(10, noise_std=r), allowed=CONFIG),
    *_raises("generate_synthetic", "noise_std=nan-raises",
             lambda: generate_synthetic(10, noise_std=nan), ValueError),
    *_raises("generate_synthetic", "n=10.5", lambda: generate_synthetic(10.5),
             ValueError),
    *_one("save_model", "nan-threshold",
          lambda: save_model(_sneak(linear_mlp([1.0, -1.0], 0.0), threshold=nan),
                             "model.bin")),
    *_one("load_model", "nan-threshold", _nan_threshold_file),
    # moments
    *_each("estimate_moments", "features", ROWS, estimate_moments),
    *_each("halfspace_distance", "mean", VECTORS,
           lambda v: halfspace_distance(v, EYE, [1.0, 0.0], 0.0)),
    *_each("halfspace_distance", "covariance", MATRICES,
           lambda m: halfspace_distance([0.0, 0.0], m, [1.0, 0.0], 0.0)),
    *_each("halfspace_distance", "w", VECTORS,
           lambda v: halfspace_distance([0.0, 0.0], EYE, v, 0.0)),
    *_each("halfspace_distance", "b", RADII,
           lambda r: halfspace_distance([0.0, 0.0], EYE, [1.0, 0.0], r)),
    *_each("halfspace_distance", "covariance", OVERFLOWING,
           lambda m: halfspace_distance([0.0, 0.0], m, [1.0, 0.0], 0.0),
           DomainError, must_raise=True),
    # w^T mean - b overflowed to a NaN distance, and w^T Sigma w to a
    # distance of 0.0.
    *_raises("halfspace_distance", "margin-overflow",
             lambda: halfspace_distance([-1e200, 0.0], EYE, [1e200, 1e200], 0.0),
             DomainError),
    *_raises("halfspace_distance", "scale-overflow",
             lambda: halfspace_distance([-1.0, 0.0], EYE, [1e200, 1e200], 0.0),
             DomainError),
    # sampler
    *_each("find_boundary_point", "x0", VECTORS,
           lambda v: find_boundary_point(v, X, MODEL, SAMPLER)),
    *_each("find_boundary_point", "dataset", ROWS,
           lambda rows: find_boundary_point(X0, rows, MODEL, SAMPLER)),
    *_each("max_pairwise_distance", "features", ROWS, max_pairwise_distance),
    *_raises("max_pairwise_distance", "features=1e154",
             lambda: max_pairwise_distance(HUGE_ROWS), DomainError),
    *_each("sample_ball", "center", VECTORS, lambda v: sample_ball(v, 1.0, 5, 0)),
    *_each("sample_ball", "radius", RADII,
           lambda r: sample_ball([0.0, 0.0], r, 5, 0)),
    *_each("synthesize", "x0", VECTORS, lambda v: synthesize(v, X, MODEL, SAMPLER)),
    # surrogate
    *_each("tau", "rho", RADII, lambda r: tau("bures", r, EYE, [1.0, 0.0])),
    *_each("tau", "covariance", MATRICES,
           lambda m: tau("bures", 1.0, m, [1.0, 0.0])),
    *_each("tau", "w", VECTORS, lambda v: tau("bures", 1.0, EYE, v)),
    *_raises("tau", "covariance=1e200",
             lambda: tau("nominal", 0.0, 1e200 * EYE, [1e100, 0.0]), DomainError),
    # A finite radius whose weight exp(700 / 2) divides a 1e-160 scale.
    *_raises("tau", "weight-overflow",
             lambda: tau("fisher-rao", 700.0, EYE, [1e-160, 0.0]), DomainError),
    *_raises("tau", "covariance=indefinite",
             lambda: tau("nominal", 0.0, INDEFINITE, [1.0, 0.0]), SingularCovariance),
    *_each("lambert_w_minus1", "x", RADII, lambert_w_minus1),
    *_one("solve_cvas", "wide", lambda: solve_cvas(POS, NEG_WIDE, FR)),
    *_one("solve_cvas", "identical", lambda: solve_cvas(POS, POS, FR)),
    *_raises("solve_cvas", "mean=nan",
             lambda: solve_cvas(ClassMoments(mean=[nan, 0.0], covariance=EYE),
                                NEG, FR), NonFiniteInput),
    *_raises("solve_cvas", "mean=1e162",
             lambda: solve_cvas(FAR_POS, ORIGIN, NOMINAL), DomainError),
    *_raises("solve_cvas", "covariance=1e200",
             lambda: solve_cvas(WIDE_POS, WIDE_NEG, NOMINAL), DomainError),
    *_raises("solve_cvas", "covariance=indefinite",
             lambda: solve_cvas(POS, ClassMoments(mean=[-1.0, 0.0], covariance=INDEFINITE),
                                NOMINAL),
             SingularCovariance),
    *_raises("solve_cvas", "covariance=singular-sum",
             lambda: solve_cvas(SPLIT_POS, SPLIT_NEG, NOMINAL), SingularCovariance),
    *_one("solve_cvas", "rho_neg=inf",
          lambda: solve_cvas(POS, NEG, Divergence(kind="logdet", rho_neg=inf))),
    *_one("asymptotic_surrogate", "wide",
          lambda: asymptotic_surrogate(POS, NEG_WIDE, FR_POS_INF)),
    *_one("asymptotic_surrogate", "identical",
          lambda: asymptotic_surrogate(POS, POS, BURES_NEG_INF)),
    # The asymptote used to solve with -I and return w = [1, 0].
    *_raises("asymptotic_surrogate", "covariance=-I",
             lambda: asymptotic_surrogate(NEGATIVE_POS, ORIGIN, FR_POS_INF),
             SingularCovariance),
    *_raises("asymptotic_surrogate", "radii-finite",
             lambda: asymptotic_surrogate(POS, NEG, FR), ValueError),
    *_one("coverage_validity", "wide", lambda: coverage_validity(SUR, POS, NEG_WIDE)),
    # Both margins used to be NaN.
    *_raises("coverage_validity", "margin-overflow",
             lambda: coverage_validity(HUGE, FAR_200, FAR_NEG_200), DomainError),
    *_raises("coverage_validity", "mean=nan",
             lambda: coverage_validity(SUR, POS, ClassMoments(
                 mean=[nan, 0.0], covariance=EYE)), NonFiniteInput),
    *_each("worst_case_misclassification", "mean", VECTORS,
           lambda v: _certificates(mean=v)),
    *_each("worst_case_misclassification", "covariance", MATRICES,
           lambda m: _certificates(covariance=m)),
    # Each positive mean below is on its own side, where the margin takes
    # a tau. -I used to leak math's ValueError, and an overflowing
    # covariance to return NaN.
    *_raises("worst_case_misclassification", "covariance=-I",
             lambda: worst_case_misclassification(SUR, NEGATIVE_POS, NEG),
             SingularCovariance),
    *_each("worst_case_misclassification", "covariance", OVERFLOWING,
           lambda m: _certificates(covariance=m), DomainError, must_raise=True),
    # w^T mean used to overflow with a RuntimeWarning.
    *_raises("worst_case_misclassification", "margin-overflow",
             lambda: worst_case_misclassification(HUGE, FAR_200, FAR_NEG_200),
             DomainError),
    *_each("optimal_mean", "nu", RADII,
           lambda r: optimal_mean([1.0, 0.0], 3.0, [0.0, 0.0], EYE, r)),
    *_each("optimal_mean", "b", RADII,
           lambda r: optimal_mean([1.0, 0.0], r, [0.0, 0.0], EYE, 1.0)),
    *_each("optimal_mean", "w", VECTORS,
           lambda v: optimal_mean(v, 3.0, [0.0, 0.0], EYE, 1.0)),
    *_each("optimal_mean", "mean_hat", VECTORS,
           lambda v: optimal_mean([1.0, 0.0], 3.0, v, EYE, 1.0)),
    *_each("optimal_mean", "covariance", MATRICES,
           lambda m: optimal_mean([1.0, 0.0], 3.0, [0.0, 0.0], m, 1.0)),
    *_raises("optimal_mean", "covariance=-I",
             lambda: optimal_mean([1.0, 0.0], 0.5, [0.0, 0.0], -EYE, 1.0),
             SingularCovariance),
    *_each("optimal_mean", "covariance", OVERFLOWING,
           lambda m: optimal_mean([1.0, 0.0], 0.5, [0.0, 0.0], m, 1.0),
           DomainError, must_raise=True),
    # The squared gap used to raise OverflowError, and w^T mean_hat to
    # overflow with a RuntimeWarning.
    *_raises("optimal_mean", "objective-overflow",
             lambda: optimal_mean([1.0, 0.0], 1e200, [0.0, 0.0], EYE, 0.0), DomainError),
    *_raises("optimal_mean", "margin-overflow",
             lambda: optimal_mean([1e200, 1e200], 0.0, [1e200, 0.0], EYE, 1.0),
             DomainError),
    *_one("save_surrogate", "b=nan", lambda: _surrogate_round_trip(b=nan)),
    *_one("load_surrogate", "w=nan",
          lambda: _surrogate_round_trip(w=np.array([nan, 1.0]))),
    # recourse
    *_each("l1_projection", "x0", VECTORS, lambda v: l1_projection(v, SUR)),
    *_raises("l1_projection", "deficit-overflow",
             lambda: l1_projection([-1e200, -1e200], HUGE), DomainError),
    *_raises("l1_projection", "point-overflow",
             lambda: l1_projection([0.0, 0.0], TINY), DomainError),
    *_each("actionable_recourse", "x0", VECTORS,
           lambda v: actionable_recourse(v, SUR, ACTIONS)),
    *_raises("actionable_recourse", "deficit-overflow",
             lambda: actionable_recourse([-1e200, -1e200], HUGE, ACTIONS), DomainError),
    *_raises("actionable_recourse", "point-overflow",
             lambda: actionable_recourse([1e308, 0.0], FAR, FAR_ACTIONS), DomainError),
    *_each("default_action_grids", "x0", VECTORS, lambda v: default_action_grids(v, X)),
    *_each("default_action_grids", "training_features", ROWS,
           lambda rows: default_action_grids(X0, rows)),
    *_raises("default_action_grids", "delta-overflow",
             lambda: default_action_grids([1e308, 0.0], [[-1e308, 0.0], [-1e308, 1.0],
                                                         [-1e308, 2.0]]), DomainError),
    *_raises("default_action_grids", "percentile-overflow",
             lambda: default_action_grids([0.0, 0.0], [[1.7e308, 0.0], [-1.7e308, 1.0]]),
             DomainError),
    *_each("wachter_recourse", "x0", VECTORS, lambda v: wachter_recourse(MODEL, v)),
    *_raises("wachter_recourse", "x0-overflow",
             lambda: wachter_recourse(TRAINED, FAR_ROW), DomainError),
    *_each("fit_surrogate", "x0", VECTORS,
           lambda v: fit_surrogate(MODEL, v, X, SAMPLER, FR)),
    *_each("generate_recourse", "x0", VECTORS,
           lambda v: generate_recourse(MODEL, v, X, SAMPLER, FR, "projection")),
    # evalharness
    *_each("local_fidelity", "x0", VECTORS,
           lambda v: local_fidelity(MODEL, SUR, v, 0.5)),
    *_each("local_fidelity", "r_fid", RADII,
           lambda r: local_fidelity(MODEL, SUR, X0, r), allowed=CONFIG),
    *_raises("local_fidelity", "n=10.5",
             lambda: local_fidelity(MODEL, SUR, X0, 0.5, n=10.5), ValueError),
    *_each("sensitivity", "x0", VECTORS,
           lambda v: sensitivity((SAMPLER, FR), MODEL, X, v)),
    *_each("validity_metrics", "x_r", VECTORS,
           lambda v: validity_metrics([RecourseResult(x_r=v, cost=0.0,
                                                      surrogate_valid=True)],
                                      MODEL, [MODEL])),
    *_each("validity_metrics", "cost", RADII[:3],
           lambda c: validity_metrics([RecourseResult(x_r=X0, cost=c, surrogate_valid=True)],
                                      MODEL, [MODEL]),
           allowed=NonFiniteInput, must_raise=True),
    *_one("validity_metrics", "empty", lambda: validity_metrics([], MODEL, [MODEL])),
    *_each("sweep", "rho_grid", RADII,
           lambda r: sweep((X, Y), (X, Y), X0[None, :], "fisher-rao", [r],
                           "projection", SWEEP_CONFIG)),
    *_each("sweep", "instances", VECTORS,
           lambda v: sweep((X, Y), (X, Y), [v], "fisher-rao", [1.0], "projection",
                           SWEEP_CONFIG)),
    *_one("sweep", "action_kinds=wide",
          lambda: sweep((X, Y), (X, Y), X0[None, :], "fisher-rao", [1.0], "actionable",
                        dataclasses.replace(SWEEP_CONFIG, action_kinds=("free",) * 3))),
    *_one("sweep", "rho_pos=nan",
          lambda: sweep((X, Y), (X, Y), X0[None, :], "fisher-rao", [1.0], "projection",
                        dataclasses.replace(SWEEP_CONFIG, rho_pos=nan))),
]


def _finite(value):
    """Every number inside value (arrays, sequences, dataclasses) is finite."""
    if value is None or isinstance(value, (str, enum.Enum)):
        return True
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return all(_finite(item) for item in value)
    array = np.asarray(value)
    return array.dtype.kind not in "fc" or bool(np.isfinite(array).all())


def _conforms(call, allowed, must_raise=False):
    try:
        result = call()
    except allowed:
        return
    assert not must_raise, f"returned {result!r} instead of raising {allowed}"
    assert _finite(result), f"returned a non-finite result: {result!r}"


def test_table_covers_every_public_callable():
    public = {name for name in cvas.__all__
              if callable(getattr(cvas, name))
              and not (isinstance(getattr(cvas, name), type)
                       and issubclass(getattr(cvas, name), BaseException))}
    assert {target for target, *_ in CASES} == public - RECORDS


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("target, label, call, allowed, must_raise", CASES,
                         ids=[f"{target}-{label}" for target, label, *_ in CASES])
def test_bad_input_raises_or_returns_finite(target, label, call, allowed, must_raise,
                                            tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _conforms(call, allowed, must_raise)


def test_value_arrays_are_read_only():
    w, mean, cov = np.array([1.0, -1.0]), np.array([1.0, 0.0]), np.eye(2)
    surrogate = Surrogate(w=w, b=0.0, kappa=1.0, divergence=NOMINAL)
    moments = ClassMoments(mean=mean, covariance=cov)
    for array in (surrogate.w, moments.mean, moments.covariance):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = nan
    # The caller's arrays stay writable, and writing them leaves the
    # value types as they were built.
    for array in (w, mean, cov):
        array[0] = 7.0
    assert surrogate.w[0] == 1.0 and moments.mean[0] == 1.0
    assert moments.covariance[0, 0] == 1.0


FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=80, deadline=None)
@given(rho=FLOATS, kind=st.sampled_from(["quadratic", "bures", "fisher-rao", "logdet"]))
def test_radius_conforms(rho, kind):
    _conforms(lambda: tau(kind, rho, EYE, [1.0, -1.0]), CvasError)
    _conforms(lambda: solve_cvas(POS, NEG, Divergence(kind=kind, rho_neg=rho)),
              CvasError)
    _conforms(lambda: sample_ball([0.0, 0.0], rho, 3, 0), CvasError)


@settings(max_examples=60, deadline=None)
@given(learning_rate=FLOATS)
def test_learning_rate_conforms(learning_rate):
    _conforms(lambda: TrainConfig(epochs=2, learning_rate=learning_rate),
              (CvasError, ValueError))


@settings(max_examples=60, deadline=None)
@given(noise_std=FLOATS)
def test_noise_std_conforms(noise_std):
    _conforms(lambda: generate_synthetic(20, noise_std=noise_std),
              (CvasError, ValueError))


def test_split_conforms(tmp_path):
    """A split outside (0, 1) is refused before any file is opened (the
    missing paths would raise FileNotFoundError); inside, a 10-row CSV
    loads, or gives EmptySplit when no row is left to train on."""
    spec = tmp_path / "cols.txt"
    spec.write_text("a,continuous,free\nlabel,label\n")
    data = tmp_path / "d.csv"
    data.write_text("a,label\n" + "".join(f"{i},{i % 2}\n" for i in range(10)))
    missing = tmp_path / "nope"

    @settings(max_examples=80, deadline=None)
    @given(split=FLOATS)
    @example(split=inf)
    @example(split=nan)
    @example(split=0.0)
    @example(split=1.0)
    @example(split=1.5)
    @example(split=-1.0)
    @example(split=5e-324)
    def check(split):
        if 0.0 < split < 1.0:
            _conforms(lambda: load_dataset(data, spec, split_fraction=split), CONFIG)
        else:
            with pytest.raises(ValueError, match="split"):
                load_dataset(missing, missing, split_fraction=split)

    check()


@settings(max_examples=80, deadline=None)
@given(nu=FLOATS)
def test_nu_conforms(nu):
    _conforms(lambda: optimal_mean([1.0, -1.0], 2.0, [0.0, 0.0], EYE, nu), CvasError)
