"""Evaluation metrics and radius sweeps.

Metrics follow the recourse-evaluation playbook: local fidelity of the
surrogate against the black-box on an evaluation ball, sensitivity of
the fitted slope to Gaussian perturbations of the query point, recourse
cost, validity against the current model, and validity against an
ensemble of retrained future models. sweep() runs the whole pipeline
over a grid of negative-class radii and emits one report row per
radius.
"""

import json
import math
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from ._io import atomic_write_text
from .blackbox import (
    _ENSEMBLE_FRACTION,
    TrainConfig,
    _check_training_data,
    _future_models,
    train_mlp,
)
from .errors import (
    CvasError,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    check_integer,
    finite_array,
)
from .recourse import (
    ACTION_KINDS,
    MODES,
    _boundary_moments,
    _recourse_against,
    default_action_grids,
    fit_surrogate,
)
from .sampler import SamplerConfig, max_pairwise_distance, resolve_radius, sample_ball
from .surrogate import Divergence, solve_cvas

_SENS_NEIGHBORS = 10  # perturbed queries per sensitivity value
_SENS_NOISE_VAR = 0.001  # variance of sensitivity()'s query perturbations
_FID_RADIUS_SHARE = 0.1  # sweep()'s fidelity radius per max pairwise distance


def local_fidelity(model, surrogate, x0, r_fid, n=1000, seed=0):
    """Fraction of an evaluation ball where model and surrogate agree.

    Draws n points uniformly from the L2 ball of radius r_fid around
    x0 and compares hard labels. `model` is anything with a
    label(matrix) -> {-1,+1} method, so a Surrogate can play the model
    role too. Raises DomainError for an r_fid outside (0, inf), and
    ValueError for an n that is not an integer >= 1 or a seed that is
    not one >= 0.
    """
    points, labels = _labelled_ball(model, x0, r_fid, n, seed)
    return float(np.mean(labels == surrogate.label(points)))


def _labelled_ball(model, x0, r_fid, n, seed):
    """local_fidelity's evaluation ball and the model's labels on it."""
    if not 0.0 < r_fid < math.inf:
        raise DomainError(f"r_fid must be finite and > 0, got {r_fid}")
    points = sample_ball(np.ravel(x0), r_fid, n, seed)
    return points, model.label(points)


def sensitivity(pipeline_config, model, dataset, x0, seed=0):
    """Largest slope change under Gaussian perturbation of the query.

    pipeline_config is a (SamplerConfig, Divergence) pair describing the
    full fitting pipeline. Fits the surrogate at x0 and at 10 draws
    from N(x0, 0.001 * I), all with the same frozen sampler seed so the
    only varying input is the query point, and returns
    max ||w(x0) - w(x')||_2 over the neighbors (normalized slopes).
    Neighbors whose pipeline fails are skipped; at least one must
    succeed. sweep() reuses the neighbors' moments across radii. Raises
    ValueError unless seed is an integer >= 0.
    """
    check_integer(seed, "seed", 0)
    sampler_config, divergence = pipeline_config
    # The base fit and every neighbor sample balls of one radius.
    sampler_config = replace(sampler_config,
                             r_p=resolve_radius(sampler_config, dataset))
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    base = fit_surrogate(model, x0, dataset, sampler_config, divergence)
    neighbors = _neighbor_moments(model, dataset, x0, sampler_config, seed)
    return _max_slope_gap(base.w, neighbors, divergence)


def _caught(stage, *args):
    """stage(*args), or the CvasError it raised, stripped of its traceback,
    whose frames would keep the stage's arrays alive for as long as the
    error is kept."""
    try:
        return stage(*args)
    except CvasError as exc:
        return exc.with_traceback(None)


def _neighbor_moments(model, dataset, x0, sampler_config, seed):
    """(mom_pos, mom_neg) at each of sensitivity()'s draws around x0, or
    the CvasError of a neighbor whose sampling fails."""
    rng = np.random.default_rng(seed)
    neighbors = x0 + rng.normal(0.0, math.sqrt(_SENS_NOISE_VAR),
                                size=(_SENS_NEIGHBORS, x0.shape[0]))
    return [_caught(_boundary_moments, model, neighbor, dataset, sampler_config)
            for neighbor in neighbors]


def _max_slope_gap(base_w, neighbor_moments, divergence):
    """max ||base_w - w(x')||_2 over the neighbors that solve at divergence.

    Entries of neighbor_moments that are errors, and neighbors whose
    solve fails, are skipped; if none is left, the last error is raised.
    Both callers pass _SENS_NEIGHBORS entries.
    """
    solved = [item if isinstance(item, CvasError)
              else _caught(solve_cvas, *item, divergence) for item in neighbor_moments]
    gaps = [float(np.linalg.norm(base_w - surrogate.w)) for surrogate in solved
            if not isinstance(surrogate, CvasError)]
    if not gaps:
        raise solved[-1]
    return max(gaps)


def validity_metrics(recourses, current_model, future_models):
    """(current validity, future validity, mean cost) of a recourse batch.

    Current validity is the fraction of recourse points the current
    model labels +1; future validity averages that fraction over the
    ensemble; mean cost averages the L1 costs.

    Raises EmptyInput for no recourses or no models, DimensionMismatch
    for recourse points of different widths, and NonFiniteInput for a
    recourse point or cost holding NaN or infinity.
    """
    if not recourses:
        raise EmptyInput("no recourses to evaluate")
    if not future_models:
        raise EmptyInput("future-model ensemble is empty")
    costs = finite_array([r.cost for r in recourses], "recourse cost")
    widths = {r.x_r.size for r in recourses}
    if len(widths) > 1:
        raise DimensionMismatch(f"recourse points have widths {sorted(widths)}")
    points = np.vstack([r.x_r for r in recourses])
    current = float(np.mean(current_model.label(points) == 1))
    future = float(np.mean([np.mean(m.label(points) == 1) for m in future_models]))
    return current, future, float(np.mean(costs))


@dataclass(frozen=True)
class EvalRow:
    """One sweep configuration's metrics; the fields are the report columns."""

    config_id: str
    divergence: str
    rho_pos: float
    rho_neg: float
    mode: str
    mean_cost: float
    current_validity: float
    future_validity: float
    local_fidelity: float
    sensitivity: float
    n_skipped: int


CSV_HEADER = ",".join(f.name for f in fields(EvalRow))


@dataclass(frozen=True)
class EvalReport:
    rows: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        ids = [row.config_id for row in rows]
        if len(set(ids)) != len(ids):
            raise ValueError("EvalReport rows must have unique config_id keys")
        object.__setattr__(self, "rows", rows)

    def to_csv(self, path):
        lines = [CSV_HEADER] + [",".join(map(str, astuple(r))) for r in self.rows]
        atomic_write_text(path, "\n".join(lines) + "\n")

    def to_json(self, path):
        # RFC 8259 JSON has no Infinity or NaN: a non-finite float is written
        # as the string the CSV holds ("inf", "-inf", "nan"). n_skipped may
        # be a numpy integer, which json cannot encode; numpy floats need no
        # coercion, as np.float64 subclasses float.
        def strict(v):
            return str(v) if isinstance(v, float) and not math.isfinite(v) else v

        records = [{name: strict(v) for name, v in asdict(r).items()}
                   | {"n_skipped": int(r.n_skipped)} for r in self.rows]
        atomic_write_text(path, json.dumps(records, indent=2, allow_nan=False) + "\n")


@dataclass(frozen=True)
class EvalConfig:
    """Master configuration for sweep().

    The current model trains with `train` verbatim; the ensemble and the
    per-instance sampler/fidelity/sensitivity streams take seeds derived
    from the master `seed`, so two sweeps with equal configs are
    bit-identical. sweep() gives each instance's sampler a derived seed
    of its own, so `sampler.seed` must keep its default. The ensemble
    trains on 80% subsamples, the fidelity ball's radius is 10% of the
    present data's max pairwise distance, and sensitivity perturbs each
    instance 10 times, as sensitivity() does. action_kinds holds one of
    ACTION_KINDS per feature; an actionable sweep needs it.

    Raises ValueError unless seed is an integer >= 0 and n_models and
    fid_n integers >= 1 (numpy integers pass), for a sampler seed other
    than SamplerConfig's default, or for an action kind outside
    ACTION_KINDS.
    """

    seed: int = 0
    rho_pos: float = 0.0
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    n_models: int = 100
    fid_n: int = 1000
    action_kinds: tuple = None

    def __post_init__(self):
        check_integer(self.seed, "seed", 0)
        check_integer(self.n_models, "n_models", 1)
        check_integer(self.fid_n, "fid_n", 1)
        if self.sampler.seed != SamplerConfig.seed:
            raise ValueError("sampler.seed must keep its default: sweep() derives "
                             "each instance's sampler seed from seed")
        if not set(self.action_kinds or ()) <= set(ACTION_KINDS):
            raise ValueError(f"action_kinds must be drawn from {ACTION_KINDS}")


def _derived_seeds(master, count):
    state = np.random.SeedSequence(master).generate_state(count, dtype=np.uint32)
    return [int(s) for s in state]


def _check_grid(divergence_kind, rho_pos, rho_grid, mode):
    """sweep()'s divergence and report id per radius, or the error that
    sweep() raises for them (see its Raises)."""
    divergences = [Divergence(kind=divergence_kind, rho_pos=rho_pos,
                              rho_neg=float(rho)) for rho in rho_grid]
    if not divergences:
        raise EmptyInput("empty rho grid")
    if mode not in MODES:
        raise ValueError(f"unknown recourse mode {mode!r}")
    config_ids = [f"{d.kind}_rpos{d.rho_pos:g}_rneg{d.rho_neg:g}_{mode}"
                  for d in divergences]
    if len(set(config_ids)) != len(config_ids):
        raise ValueError(f"radii that print alike repeat a report id: {config_ids}")
    return divergences, config_ids


def _check_unfavorable(model, instances):
    """Raise DomainError unless the model labels every instance -1."""
    favorable = np.flatnonzero(model.label(instances) == 1)
    if favorable.size:
        raise DomainError(f"the current model labels {favorable.size} of "
                          f"{len(instances)} instances favorable, the first at index "
                          f"{favorable[0]}: a sweep needs unfavorable instances")


def _prepare(model, present_x, x0, config, mode, r_p, r_fid, seeds):
    """sweep()'s radius-free work on one instance: (boundary moments, action
    grids or None, neighbor moments, labelled fidelity ball), or the
    CvasError of its boundary sample. seeds: its sampler, ball, neighbors."""
    sampler_config = replace(config.sampler, seed=seeds[0], r_p=r_p)
    moments = _caught(_boundary_moments, model, x0, present_x, sampler_config)
    if isinstance(moments, CvasError):
        return moments
    actions = None
    if mode == "actionable":
        actions = default_action_grids(x0, present_x, kinds=config.action_kinds)
    return (moments, actions,
            _neighbor_moments(model, present_x, x0, sampler_config, seeds[2]),
            _labelled_ball(model, x0, r_fid, config.fid_n, seeds[1]))


def _score(model, x0, prepared, divergence, mode):
    """A prepared instance's (recourse, fidelity, sensitivity) at divergence,
    or the CvasError of its boundary sample, solve or search; a failed
    sensitivity is the triple's CvasError."""
    if isinstance(prepared, CvasError):
        return prepared
    moments, actions, neighbors, (ball, ball_labels) = prepared
    surrogate = _caught(solve_cvas, *moments, divergence)
    recourse = surrogate if isinstance(surrogate, CvasError) else _caught(
        _recourse_against, model, x0, surrogate, mode, actions)
    if isinstance(recourse, CvasError):
        return recourse
    return (recourse, float(np.mean(ball_labels == surrogate.label(ball))),
            _caught(_max_slope_gap, surrogate.w, neighbors, divergence))


def _row(config_id, divergence, mode, outcomes, model, ensemble):
    """One radius's EvalRow from its instances' _score outcomes."""
    scored = [o for o in outcomes if not isinstance(o, CvasError)]
    current, future, mean_cost = validity_metrics([r for r, _, _ in scored],
                                                  model, ensemble)
    sensitivities = [s for _, _, s in scored if not isinstance(s, CvasError)]
    return EvalRow(
        config_id=config_id,
        divergence=divergence.kind,
        rho_pos=float(divergence.rho_pos),
        rho_neg=divergence.rho_neg,
        mode=mode,
        mean_cost=mean_cost,
        current_validity=current,
        future_validity=future,
        local_fidelity=float(np.mean([f for _, f, _ in scored])),
        sensitivity=float(np.mean(sensitivities)) if sensitivities else math.nan,
        n_skipped=len(outcomes) - len(scored),
    )


def sweep(dataset_present, dataset_shifted, instances, divergence_kind, rho_grid,
          mode, config=EvalConfig(), model=None):
    """Full evaluation over a grid of negative-class radii.

    The order is: check the arguments (see Raises); draw the future
    ensemble's subsamples of the shifted dataset and start training it
    in worker processes, as simulate_future_models does; train the
    current model on the present dataset and label the instances, which
    must all be unfavorable (-1; a passed model labels them with the
    argument checks), and run the whole per-instance loop while the
    ensemble trains; then wait for the ensemble, which only
    the validity metrics read. Each instance gets a recourse at
    every radius, and each radius's metrics make one report row, equal
    to that of a one-radius sweep. An instance whose boundary sample,
    solve or search fails is counted in the row's n_skipped; one whose
    sensitivity fails keeps its recourse and drops out of the sensitivity
    mean, and a row with no sensitivity reports NaN. Deterministic per
    master seed.

    The radius enters only through solve_cvas, so each instance's
    boundary moments, its default action grids (actionable mode), its
    sensitivity neighbors' moments and the model's labels on its
    local_fidelity ball are computed once.

    model, if given, is the current model already trained with
    config.train on dataset_present (for instance to select the
    unfavorably classified instances); sweep() then uses it instead of
    training the same model again.

    Raises
    ------
    EmptyInput
        If the grid or the instances are empty; after the instance loop,
        without waiting for the ensemble, if every instance fails at
        some radius, naming its config_id and counting the failures by
        CvasError class.
    ValueError
        If `mode` is not in MODES or is "actionable" without action_kinds,
        two radii print as one report id (config_id formats rho_neg with
        :g), or a radius other than 0 sits next to a +inf one.
    DimensionMismatch
        If the instances are not rows of the present data's width, or
        the model or config.action_kinds has another width.
    NonFiniteInput
        If an instance holds NaN or infinity.
    NonFiniteInput, DimensionMismatch, BadLabelValue, EmptyInput,
    SingleClassData
        As train_mlp, for the present dataset, before the ensemble
        starts.
    DomainError
        If a radius is outside Divergence's domain: negative, NaN, finite
        above the fisher-rao and logdet cap of 700, or +inf for both classes.
    NonFiniteInput, DimensionMismatch, BadLabelValue, EmptyInput,
    SingleClassData
        As simulate_future_models, for the shifted dataset, before the
        ensemble or the current model starts training.
    DomainError
        As train_mlp, if the current model's or a future model's training
        overflows float64; a future model's error, as
        simulate_future_models raises it, comes after the instance loop.
    DomainError
        If the current model labels an instance favorable (+1), naming
        how many do and the first index: a passed model's labels are
        checked before the ensemble starts, and the model sweep trains
        itself labels them before the instance loop, once the ensemble
        has started.
    CvasError
        If a training worker exits with a non-zero status; raised after
        the instance loop, when the ensemble is collected.
    """
    divergences, config_ids = _check_grid(divergence_kind, config.rho_pos,
                                          rho_grid, mode)
    present_x, present_y = _check_training_data(*dataset_present)
    width = present_x.shape[1]
    instances = finite_array(np.atleast_2d(instances), "instances",
                             shape=(None, width), nonempty=True)
    if model is not None and model.layer_dims[0] != width:
        raise DimensionMismatch(f"model expects {model.layer_dims[0]} features, "
                                f"the present dataset has {width}")
    kinds = config.action_kinds
    if mode == "actionable" and kinds is None:
        raise ValueError("an actionable sweep needs config.action_kinds")
    if mode == "actionable" and len(kinds) != width:
        raise DimensionMismatch(f"{len(kinds)} action kinds for {width} features")

    if model is not None:
        _check_unfavorable(model, instances)

    n_instances = instances.shape[0]
    seeds = _derived_seeds(config.seed, 1 + 3 * n_instances)
    # The ensemble trains in its workers while this process runs the rest.
    with _future_models(*dataset_shifted, config.n_models, _ENSEMBLE_FRACTION,
                        replace(config.train, seed=seeds[0])) as collect_ensemble:
        # The current model trains with config.train verbatim, so a caller's
        # own training on the present data gives the same model to pass in.
        if model is None:
            model = train_mlp(present_x, present_y, config.train)
            _check_unfavorable(model, instances)
        max_distance = max_pairwise_distance(present_x, seed=config.seed)
        r_p = resolve_radius(config.sampler, present_x, max_distance)
        r_fid = _FID_RADIUS_SHARE * max_distance

        # Each instance is prepared once and scored at every radius.
        outcomes = []
        for i, x0 in enumerate(instances):
            prepared = _prepare(model, present_x, x0, config, mode, r_p, r_fid,
                                seeds[1 + 3 * i:4 + 3 * i])
            outcomes.append([_score(model, x0, prepared, divergence, mode)
                             for divergence in divergences])
        by_radius = list(zip(*outcomes))
        for config_id, scored in zip(config_ids, by_radius):
            causes = Counter(type(outcome).__name__ for outcome in scored
                             if isinstance(outcome, CvasError))
            if sum(causes.values()) == n_instances:
                counts = ", ".join(f"{n} {name}" for name, n in sorted(causes.items()))
                raise EmptyInput(f"every instance failed at {config_id}: {counts}")
        ensemble = collect_ensemble()

    return EvalReport(rows=tuple(
        _row(config_id, divergence, mode, scored, model, ensemble)
        for config_id, divergence, scored in zip(config_ids, divergences, by_radius)))
