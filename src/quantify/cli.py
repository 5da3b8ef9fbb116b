"""Command line interface.

Scalar results go to stdout as JSON with sorted keys; study and curve
outputs go to CSV files (or stdout with ``--output csv`` and no ``--out``).
Nothing in the output depends on time, locale, or directory layout, so
identical invocations produce byte-identical output.

Exit codes: 0 on success, 1 for input/output problems (missing files,
unknown columns, unwritable output), 2 for statistical contract violations
(separability failures, degenerate groups, bad parameter values).
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import math
import sys

import numpy as np

from .core import (
    CsvSchema,
    DataError,
    EstimationError,
    ExternalScore,
    RawDataset,
    ScoreFunction,
    fit_logistic,
    load_csv,
    score_dataset,
)
from .shift_test import shift_test

# Every other layer is imported by the command that uses it, so that a run
# loads only what its command calls.

# (n_unlabeled, n_labeled) presets matching the benchmark corpus sizes; the
# labeled sample is split evenly between the scenario kind's classes.
SIZE_PRESETS = {
    "cancer": (100, 300),
    "candles": (300, 300),
    "block": (800, 300),
    "spam": (2000, 300),
    "bank": (10000, 300),
}

# The simulate scenarios that are not score kinds, and their ScenarioSpec kinds.
_SCENARIO_KINDS = {"multiclass": "multiclass_gaussian", "sine": "regression_sine"}


def _forward(args, choice_flag: str, steps, *flags: str, **renamed: str) -> list[dict]:
    """For each of ``steps``, the functions the ``choice_flag`` choice calls in turn, the
    parameters of ``_given(args, *flags, **renamed)`` its signature takes; a given flag
    that no step takes is refused, so a choice reads each flag it is given."""
    given = _given(args, *flags, **renamed)
    taken = [inspect.signature(step).parameters for step in steps]
    for param in given:
        if not any(param in names for names in taken):
            raise EstimationError(f"--{renamed.get(param, param).replace('_', '-')} is not a "
                                  f"parameter of the {getattr(args, choice_flag)} {choice_flag}")
    return [{param: value for param, value in given.items() if param in names} for names in taken]


def _given(args, *flags: str, **renamed: str) -> dict:
    """``{parameter: value}`` for each of ``flags``, and each ``parameter=flag`` of
    ``renamed``, given on the command line; the layer's default holds for the rest."""
    pairs = [*zip(flags, flags), *renamed.items()]
    return {param: getattr(args, flag) for param, flag in pairs if getattr(args, flag) is not None}


def _finite_or_null(value):
    """``value`` with each non-finite float replaced by None, which JSON writes as null."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit(payload: dict, fmt: str, quiet: bool) -> None:
    if quiet:
        return
    if fmt == "json":
        text = json.dumps(_finite_or_null(payload), sort_keys=True, indent=2, allow_nan=False)
        sys.stdout.write(text + "\n")
    else:
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, dict):
                for sub in sorted(value):
                    sys.stdout.write(f"{key}.{sub},{value[sub]}\n")
            else:
                sys.stdout.write(f"{key},{value}\n")


def _emit_result(args, payload: dict, write, summary: dict) -> None:
    """Print ``payload``, or ``write`` the ``--out`` file and print its path and ``summary``;
    with ``--output csv`` and no ``--out``, ``write`` prints the file to stdout."""
    if args.out:
        try:
            with open(args.out, "w", newline="") as handle:
                write(handle)
        except OSError as exc:
            raise DataError(f"cannot write {args.out}: {exc}") from exc
        payload = {"out": args.out, **summary}
    elif args.output == "csv":
        if not args.quiet:
            write(sys.stdout)
        return
    _emit(payload, args.output, args.quiet)


def _load_data(args) -> RawDataset:
    """The ``data`` file under the schema flags, through ``load_csv``'s parse cache:
    commands run one after another on one file parse it once."""
    if getattr(args, "weights", None) and args.score_col:
        raise EstimationError("--weights and --score-col both give the score; pass one")
    schema = CsvSchema(
        set_column=args.set_col,
        label_column=args.label_col,
        feature_columns=tuple(args.feature_col) if args.feature_col else None,
        score_columns=tuple(args.score_col) if args.score_col else (),
        covariate_column=getattr(args, "covariate_col", None),
    )
    return load_csv(args.data, schema, cache=True)


def _resolve_score(args, data: RawDataset) -> ScoreFunction:
    if getattr(args, "weights", None):
        from .rkhs import RkhsSelection

        try:
            with open(args.weights) as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise DataError(f"cannot read {args.weights}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.weights} is not valid JSON: {exc}") from exc
        try:
            selection = RkhsSelection.from_dict(payload)
            if selection.anchors.shape[1] != data.n_features:
                raise DataError(f"anchors have {selection.anchors.shape[1]} features, "
                                f"the data {data.n_features}")
        except DataError as exc:
            raise DataError(f"{args.weights}: {exc}") from None
        return selection.score_function()
    if args.score_col:
        return ExternalScore.from_names(args.score_col, data)
    return fit_logistic(data)


def _add_schema_flags(parser: argparse.ArgumentParser, covariate: bool = False) -> None:
    parser.add_argument(
        "data",
        help="input CSV file; the parsed arrays of a file of 1 MiB or more are kept in "
        "$XDG_CACHE_HOME/quantify (default ~/.cache/quantify), which is always safe to delete",
    )
    parser.add_argument("--set-col", required=True, help="column with the 0/1 set indicator")
    parser.add_argument("--label-col", help="column with class labels")
    parser.add_argument("--feature-col", action="append",
                        help="feature column (repeatable; default: every unclaimed column)")
    parser.add_argument("--score-col", action="append",
                        help="precomputed score column (repeatable); skips the built-in classifier")
    if covariate:
        parser.add_argument("--covariate-col", required=True, help="covariate column z")


def _add_common_flags(parser: argparse.ArgumentParser, seed: bool = False) -> None:
    parser.add_argument(
        "--output",
        "--format",
        choices=("json", "csv"),
        default="json",
        help="stdout format for scalar results",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress stdout result")
    if seed:  # only the commands with a random step read it
        parser.add_argument("--seed", type=int, help="seed for any randomized step")


def _grid_arg(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be start:stop:points")
    try:
        with np.errstate(all="ignore"):  # regression refuses a grid with a non-finite point
            return np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _bandwidth_arg(text: str):
    """"cv" or a float; the layer that reads the bandwidth checks its range."""
    try:
        return "cv" if text == "cv" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'cv', got {text!r}") from None


def _cmd_estimate(args) -> None:
    from .estimators import (
        classify_and_count,
        em_estimate,
        multiclass_ratio,
        ratio_ci,
        ratio_estimate,
        ratio_variance,
    )

    # each method's steps in turn; the ratio method's last two attach a variance and a CI
    steps = {"ratio": (ratio_estimate, ratio_variance, ratio_ci), "cc": (classify_and_count,),
             "em": (em_estimate,), "multiclass": (multiclass_ratio,)}[args.method]
    kwargs = _forward(args, "method", steps, "regime", "min_denom", "threshold", "theta_train",
                      level="ci")
    if args.regime and args.ci is None:
        raise EstimationError("--regime is read only with --ci")
    data = _load_data(args)
    est = steps[0](score_dataset(data, _resolve_score(args, data)), **kwargs[0])
    payload = est.to_dict()
    if args.ci is not None:
        for step, step_kwargs in zip(steps[1:], kwargs[1:]):
            est = step(est, **step_kwargs)
        lo, hi, _ = est.ci
        payload = {**est.to_dict(), "ci_clipped": {"lo": max(0.0, lo), "hi": min(1.0, hi)}}
    _emit(payload, args.output, args.quiet)


def _cmd_test_shift(args) -> None:
    data = _load_data(args)
    g = _resolve_score(args, data)
    scored = score_dataset(data, g)
    result = shift_test(scored, **_given(args, "seed", "replicates", "grid_size"))
    _emit(result.to_dict(), args.output, args.quiet)


def _cmd_select_g(args) -> None:
    from .rkhs import KernelSpec, select_g

    if args.output == "csv" and not args.out:
        raise EstimationError("select-g writes its selection as JSON; pass --out with --output csv")
    kernel = KernelSpec(**_given(args, "bandwidth", family="kernel"))
    data = _load_data(args)
    pilot = ExternalScore.from_names(args.score_col, data) if args.score_col else None
    # the split is select-g's only random step, so --seed seeds it
    selection = select_g(data, kernel=kernel, pilot=pilot,
                         **_given(args, "min_denom", gamma_grid="gamma", split_seed="seed"))
    payload = selection.to_dict()
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    summary = {"gamma": selection.gamma, "objective": selection.objective}
    _emit_result(args, payload, lambda out: out.write(text), summary)


def _cmd_regress(args) -> None:
    from .regression import cc_regress, ratio_regress

    regress = {"ratio": ratio_regress, "cc": cc_regress}[args.method]
    (kwargs,) = _forward(args, "method", (regress,), "grid", "bandwidth", "min_denom", "threshold")
    data = _load_data(args)
    curve = regress(data, _resolve_score(args, data), **kwargs)
    summary = {"method": curve.method, "bandwidth": curve.bandwidth}
    payload = {**summary, "curve": [{"z": z, "theta": value} for z, value in curve.rows()]}
    text = "z,theta\n" + "".join(f"{z},{value}\n" for z, value in curve.rows())
    _emit_result(args, payload, lambda out: out.write(text), summary)


def _simulate_spec(args, kind: str) -> ScenarioSpec:
    from .simulate import ScenarioSpec

    # --mu sets both class means, --mean0 and --mean1 then one each
    fields = {"mean0": -args.mu, "mean1": args.mu} if args.mu is not None else {}
    fields.update(_given(args, "n_unlabeled", "mean0", "mean1", "cycles"))
    if args.preset:
        if args.n_unlabeled is not None or args.n_class:
            raise EstimationError("--preset sets --n-unlabeled and --n-class; give one or the other")
        default = ScenarioSpec(kind=kind)  # the kind's class count, and its unset n_unlabeled
        if default.n_unlabeled is None:
            raise EstimationError(f"--preset sets n_unlabeled, which the {kind!r} scenario kind "
                                  "takes from its study's sizes")
        fields["n_unlabeled"], n_labeled = SIZE_PRESETS[args.preset]
        k = len(default.n_class)  # split evenly, the remainder to the last classes
        fields["n_class"] = tuple(n_labeled // k + (i >= k - n_labeled % k) for i in range(k))
    if args.n_class:
        fields["n_class"] = tuple(args.n_class)
    if args.theta:
        fields["theta"] = args.theta[0]
    return ScenarioSpec(kind=kind, **fields)


def _cmd_simulate(args) -> None:
    from . import simulate

    # looked up at call time, so that a wrapper bound on the module in its place runs
    run_study = getattr(simulate, f"run_{args.study}_study")
    # a study that sweeps theta takes every --theta; the spec holds the first, and any other
    # study runs at that one
    sweep = {"thetas": "theta"} if "thetas" in inspect.signature(run_study).parameters else {}
    (flags,) = _forward(args, "study", (run_study,), "seed", "alpha", "level", "test_replicates",
                        "grid_size", "threshold", methods="method", gammas="gamma",
                        label_counts="label_count", sizes="size", **sweep)
    if not sweep and args.theta and len(args.theta) > 1:
        raise EstimationError(f"the {args.study} study runs at one --theta, got {len(args.theta)}")
    kind = _SCENARIO_KINDS.get(args.scenario, args.scenario)
    simulate.check_study_kind(args.study, kind)
    report = run_study(_simulate_spec(args, kind), replicates=args.replicates, **flags)
    summary = {"study": report.study, "rows": len(report.raw_rows)}
    _emit_result(args, report.to_dict(), report.to_csv, summary)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantify",
        description="Prevalence estimation under prior probability shift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="point estimate of the class-1 prevalence")
    _add_schema_flags(p_est)
    p_est.add_argument(
        "--method", choices=("ratio", "cc", "em", "multiclass"), default="ratio"
    )
    p_est.add_argument("--ci", type=float, help="confidence level, e.g. 0.95")
    p_est.add_argument("--regime", choices=("auto", "dense", "sparse"))
    p_est.add_argument("--min-denom", type=float)
    p_est.add_argument("--threshold", type=float, help="cc threshold")
    p_est.add_argument("--theta-train", type=float, help="em training prevalence")
    p_est.add_argument("--weights", help="selection JSON from select-g")
    _add_common_flags(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_test = sub.add_parser("test-shift", help="Monte Carlo test of the mixture assumption")
    _add_schema_flags(p_test)
    p_test.add_argument("--replicates", "--B", type=int)
    p_test.add_argument("--grid-size", "--grid", type=int)
    p_test.add_argument("--weights", help="selection JSON from select-g")
    _add_common_flags(p_test, seed=True)
    p_test.set_defaults(func=_cmd_test_shift)

    p_sel = sub.add_parser("select-g", help="pick kernel score weights on labeled data")
    _add_schema_flags(p_sel)
    p_sel.add_argument("--kernel", choices=("gaussian", "linear"))
    p_sel.add_argument("--bandwidth", type=float)
    p_sel.add_argument("--gamma", "--gamma-grid", action="append", type=float)
    p_sel.add_argument("--min-denom", type=float)
    p_sel.add_argument("--out", help="write the selection JSON here")
    _add_common_flags(p_sel, seed=True)
    p_sel.set_defaults(func=_cmd_select_g)

    p_reg = sub.add_parser("regress", help="prevalence curve against a covariate")
    _add_schema_flags(p_reg, covariate=True)
    p_reg.add_argument("--method", choices=("ratio", "cc"), default="ratio")
    p_reg.add_argument("--grid", type=_grid_arg, help="start:stop:points")
    p_reg.add_argument("--bandwidth", type=_bandwidth_arg, help="positive number or 'cv'")
    p_reg.add_argument("--threshold", type=float, help="cc threshold")
    p_reg.add_argument("--min-denom", type=float)
    p_reg.add_argument("--weights", help="selection JSON from select-g")
    p_reg.add_argument("--out", help="write the curve CSV here")
    _add_common_flags(p_reg)
    p_reg.set_defaults(func=_cmd_regress)

    p_sim = sub.add_parser("simulate", help="Monte Carlo studies on synthetic scenarios")
    p_sim.add_argument(
        "--scenario",
        choices=("gaussian", "exponential", "gaussian_exponential", "beta", "multiclass", "sine"),
        default="gaussian",
    )
    p_sim.add_argument(
        "--study",
        choices=("mse", "coverage", "power", "combined", "multiclass", "regression"),
        required=True,
    )
    p_sim.add_argument("--preset", choices=sorted(SIZE_PRESETS))
    p_sim.add_argument("--n-unlabeled", type=int)
    p_sim.add_argument("--n-class", action="append", type=int)
    p_sim.add_argument("--theta", action="append", type=float)
    p_sim.add_argument("--gamma", action="append", type=float)
    p_sim.add_argument("--method", action="append")
    p_sim.add_argument("--label-count", action="append", type=int)
    p_sim.add_argument("--size", action="append", type=int)
    p_sim.add_argument("--mu", type=float)
    p_sim.add_argument("--mean0", type=float)
    p_sim.add_argument("--mean1", type=float)
    p_sim.add_argument("--cycles", type=int, help="sine cycles")
    p_sim.add_argument("--replicates", type=int, default=100)
    p_sim.add_argument("--test-replicates", type=int)
    p_sim.add_argument("--alpha", type=float)
    p_sim.add_argument("--level", type=float)
    p_sim.add_argument("--grid-size", type=int)
    p_sim.add_argument("--threshold", type=float)
    p_sim.add_argument("--out", help="write the study CSV here")
    _add_common_flags(p_sim, seed=True)
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> int:
    """Entry point of the ``quantify`` script and ``python -m quantify.cli``: :func:`main`
    after ``gc.freeze()``, so that garbage collections, the one at exit included, skip the
    objects the imports built.  In-process callers of :func:`main` keep the collector as is."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
