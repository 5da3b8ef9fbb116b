"""Command line interface.

Scalar results go to stdout as JSON with sorted keys; study and curve
outputs go to CSV files (or stdout without ``--out``).  Nothing in the
output depends on time, locale, or directory layout, so identical
invocations produce byte-identical output.

Exit codes: 0 on success, 1 for input/output problems (missing files,
unknown columns, unwritable output), 2 for statistical contract violations
(separability failures, degenerate groups, bad parameter values).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
from .estimators import (
    _variance_from_scores,
    classify_and_count,
    em_estimate,
    multiclass_ratio,
    ratio_ci,
    ratio_estimate,
)
from .regression import cc_regress, ratio_regress
from .rkhs import KernelSpec, RkhsSelection, select_g
from .shift_test import shift_test
from .simulate import (
    ScenarioSpec,
    run_combined_study,
    run_coverage_study,
    run_mse_study,
    run_multiclass_study,
    run_power_study,
    run_regression_study,
    table_scenario,
)

# (n_unlabeled, n_labeled) presets matching the benchmark corpus sizes; the
# labeled sample is always split evenly between the classes.
SIZE_PRESETS = {
    "cancer": (100, 300),
    "candles": (300, 300),
    "block": (800, 300),
    "spam": (2000, 300),
    "bank": (10000, 300),
}

# Default shift sweeps put the null at an interior point with a unique
# most-shifted value.  The sweep deliberately stops short of the value at
# which the shifted class-0 law coincides with the class-1 law (gaussian
# gamma=2, exponential gamma=5): there the unlabeled sample is again an
# exact mixture, so the test correctly loses power.
DEFAULT_POWER_GAMMAS = {
    "gaussian": (-2.0, -1.0, 0.0, 1.0),
    "exponential": (0.25, 0.5, 1.0, 2.0, 3.0),
    "gaussian_exponential": (-1.0, 0.0, 1.0, 2.0, 3.0),
    "beta": (0.25, 0.5, 1.0, 2.0, 3.0),
}


def _emit(payload: dict, fmt: str, quiet: bool) -> None:
    if quiet:
        return
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, dict):
                for sub in sorted(value):
                    sys.stdout.write(f"{key}.{sub},{value[sub]}\n")
            else:
                sys.stdout.write(f"{key},{value}\n")


def _schema_from_args(args) -> CsvSchema:
    return CsvSchema(
        set_column=args.set_col,
        label_column=args.label_col,
        feature_columns=tuple(args.feature_col) if args.feature_col else None,
        score_columns=tuple(args.score_col) if args.score_col else (),
        covariate_column=getattr(args, "covariate_col", None),
    )


def _resolve_score(args, data: RawDataset) -> ScoreFunction:
    if getattr(args, "weights", None):
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
    parser.add_argument("data", help="input CSV file")
    parser.add_argument("--set-col", required=True, help="column with the 0/1 set indicator")
    parser.add_argument("--label-col", default=None, help="column with class labels")
    parser.add_argument(
        "--feature-col",
        action="append",
        default=None,
        help="feature column (repeatable; default: every unclaimed column)",
    )
    parser.add_argument(
        "--score-col",
        action="append",
        default=None,
        help="precomputed score column (repeatable); skips the built-in classifier",
    )
    if covariate:
        parser.add_argument("--covariate-col", required=True, help="covariate column z")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--output",
        "--format",
        choices=("json", "csv"),
        default="json",
        help="stdout format for scalar results",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress stdout result")
    parser.add_argument("--seed", type=int, default=0, help="seed for any randomized step")


def _grid_arg(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be start:stop:points")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _bandwidth_arg(text: str):
    if text == "cv":
        return "cv"
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("bandwidth must be a number or 'cv'") from exc


def _cmd_estimate(args) -> None:
    data = load_csv(args.data, _schema_from_args(args))
    g = _resolve_score(args, data)
    scored = score_dataset(data, g)
    if args.method == "multiclass":
        result = multiclass_ratio(scored).to_dict()
        _emit(result, args.output, args.quiet)
        return
    if args.method == "ratio":
        est = ratio_estimate(scored, min_denom=args.min_denom)
        if args.ci is not None:
            est = ratio_ci(_variance_from_scores(est, scored, args.regime), level=args.ci)
    elif args.method == "cc":
        est = classify_and_count(scored, threshold=args.threshold)
    else:
        n0, n1 = scored.class_counts
        theta_train = args.theta_train if args.theta_train is not None else n1 / (n0 + n1)
        est = em_estimate(scored, theta_train=theta_train)
    payload = est.to_dict()
    if est.ci is not None:
        lo, hi, _ = est.ci
        payload["ci_clipped"] = {"lo": max(0.0, lo), "hi": min(1.0, hi)}
    _emit(payload, args.output, args.quiet)


def _cmd_test_shift(args) -> None:
    data = load_csv(args.data, _schema_from_args(args))
    g = _resolve_score(args, data)
    scored = score_dataset(data, g)
    result = shift_test(
        scored, replicates=args.replicates, seed=args.seed, grid_size=args.grid_size
    )
    _emit(result.to_dict(), args.output, args.quiet)


def _cmd_select_g(args) -> None:
    data = load_csv(args.data, _schema_from_args(args))
    kernel = KernelSpec(family=args.kernel, bandwidth=args.bandwidth)
    pilot = ExternalScore.from_names(args.score_col, data) if args.score_col else None
    selection = select_g(
        data,
        kernel=kernel,
        gamma_grid=args.gamma if args.gamma else None,
        split_seed=args.split_seed if args.split_seed is not None else args.seed,
        pilot=pilot,
        min_denom=args.min_denom,
    )
    payload = selection.to_dict()
    if args.out:
        try:
            with open(args.out, "w") as handle:
                json.dump(payload, handle, sort_keys=True, indent=2)
                handle.write("\n")
        except OSError as exc:
            raise DataError(f"cannot write {args.out}: {exc}") from exc
        _emit(
            {"out": args.out, "gamma": selection.gamma, "objective": selection.objective},
            args.output,
            args.quiet,
        )
    else:
        _emit(payload, args.output, args.quiet)


def _cmd_regress(args) -> None:
    data = load_csv(args.data, _schema_from_args(args))
    g = _resolve_score(args, data)
    grid = np.linspace(*args.grid)
    if args.method == "ratio":
        curve = ratio_regress(data, g, grid, bandwidth=args.bandwidth, min_denom=args.min_denom)
    else:
        curve = cc_regress(data, g, grid, threshold=args.threshold, bandwidth=args.bandwidth)
    if args.out:
        try:
            with open(args.out, "w", newline="") as handle:
                handle.write("z,theta\n")
                for z, value in curve.rows():
                    handle.write(f"{z},{value}\n")
        except OSError as exc:
            raise DataError(f"cannot write {args.out}: {exc}") from exc
        _emit(
            {"out": args.out, "bandwidth": curve.bandwidth, "method": curve.method},
            args.output,
            args.quiet,
        )
    else:
        _emit(
            {
                "method": curve.method,
                "bandwidth": curve.bandwidth,
                "curve": [{"z": z, "theta": value} for z, value in curve.rows()],
            },
            args.output,
            args.quiet,
        )


def _simulate_spec(args) -> ScenarioSpec:
    if args.preset:
        n_unlabeled, n_labeled = SIZE_PRESETS[args.preset]
        n_class: tuple[int, ...] = (n_labeled // 2, n_labeled - n_labeled // 2)
    else:
        n_unlabeled = args.n_unlabeled
        n_class = tuple(args.n_class) if args.n_class else (150, 150)
    theta = args.theta[0] if args.theta else 0.6
    if args.scenario in ("gaussian", "exponential", "gaussian_exponential", "beta"):
        spec = table_scenario(
            args.scenario, n_unlabeled=n_unlabeled, n_class=n_class, theta=theta
        )
        if args.mu is not None:
            spec = dataclasses.replace(spec, mean0=-args.mu, mean1=args.mu)
        if args.mean0 is not None:
            spec = dataclasses.replace(spec, mean0=args.mean0)
        if args.mean1 is not None:
            spec = dataclasses.replace(spec, mean1=args.mean1)
        return spec
    if args.scenario == "multiclass":
        n_class = tuple(args.n_class) if args.n_class else (20, 30, 50)
        return ScenarioSpec(
            kind="multiclass_gaussian", n_unlabeled=n_unlabeled, n_class=n_class, theta=theta
        )
    # sine
    return ScenarioSpec(
        kind="regression_sine",
        n_unlabeled=n_unlabeled,
        n_class=n_class,
        mu=args.mu if args.mu is not None else 1.0,
        cycles=args.cycles,
    )


def _cmd_simulate(args) -> None:
    spec = _simulate_spec(args)
    thetas = args.theta if args.theta else [0.1, 0.2, 0.3, 0.4, 0.5]
    if args.study == "mse":
        methods = args.method if args.method else ["ratio", "cc"]
        report = run_mse_study(spec, thetas, methods, args.replicates, args.seed)
    elif args.study == "coverage":
        report = run_coverage_study(spec, thetas, args.level, args.replicates, args.seed)
    elif args.study == "power":
        gammas = args.gamma if args.gamma else list(DEFAULT_POWER_GAMMAS[spec.kind])
        report = run_power_study(
            spec,
            gammas,
            alpha=args.alpha,
            replicates=args.replicates,
            test_replicates=args.test_replicates,
            seed=args.seed,
            grid_size=args.grid_size,
        )
    elif args.study == "combined":
        label_counts = args.label_count if args.label_count else [0, 10, 25, 50, 100]
        report = run_combined_study(spec, label_counts, args.replicates, args.seed)
    elif args.study == "multiclass":
        sizes = args.size if args.size else [250, 500, 1000, 2000]
        report = run_multiclass_study(spec, sizes, args.replicates, args.seed)
    else:  # regression
        grid = np.linspace(0.0, 1.0, 101)
        report = run_regression_study(
            spec, grid, args.replicates, args.seed, threshold=args.threshold
        )
    if args.out:
        try:
            report.to_csv(args.out)
        except OSError as exc:
            raise DataError(f"cannot write {args.out}: {exc}") from exc
        _emit(
            {
                "out": args.out,
                "study": report.study,
                "rows": len(report.raw_rows or report.rows),
            },
            args.output,
            args.quiet,
        )
    else:
        _emit(report.to_dict(), args.output, args.quiet)


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
    p_est.add_argument("--ci", type=float, default=None, help="confidence level, e.g. 0.95")
    p_est.add_argument("--regime", choices=("auto", "dense", "sparse"), default="auto")
    p_est.add_argument("--min-denom", type=float, default=1e-8)
    p_est.add_argument("--threshold", type=float, default=0.5, help="cc threshold")
    p_est.add_argument("--theta-train", type=float, default=None, help="em training prevalence")
    p_est.add_argument("--weights", default=None, help="selection JSON from select-g")
    _add_common_flags(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_test = sub.add_parser("test-shift", help="Monte Carlo test of the mixture assumption")
    _add_schema_flags(p_test)
    p_test.add_argument("--replicates", "--B", type=int, default=1000)
    p_test.add_argument("--grid-size", "--grid", type=int, default=1001)
    p_test.add_argument("--weights", default=None, help="selection JSON from select-g")
    _add_common_flags(p_test)
    p_test.set_defaults(func=_cmd_test_shift)

    p_sel = sub.add_parser("select-g", help="pick kernel score weights on labeled data")
    _add_schema_flags(p_sel)
    p_sel.add_argument("--kernel", choices=("gaussian", "linear"), default="gaussian")
    p_sel.add_argument("--bandwidth", type=float, default=None)
    p_sel.add_argument("--gamma", "--gamma-grid", action="append", type=float, default=None)
    p_sel.add_argument("--split-seed", type=int, default=None, help="defaults to --seed")
    p_sel.add_argument("--min-denom", type=float, default=1e-8)
    p_sel.add_argument("--out", default=None, help="write the selection JSON here")
    _add_common_flags(p_sel)
    p_sel.set_defaults(func=_cmd_select_g)

    p_reg = sub.add_parser("regress", help="prevalence curve against a covariate")
    _add_schema_flags(p_reg, covariate=True)
    p_reg.add_argument("--method", choices=("ratio", "cc"), default="ratio")
    p_reg.add_argument("--grid", type=_grid_arg, default="0:1:101", help="start:stop:points")
    p_reg.add_argument(
        "--bandwidth", type=_bandwidth_arg, default=None, help="positive number or 'cv'"
    )
    p_reg.add_argument("--threshold", type=float, default=0.5, help="cc threshold")
    p_reg.add_argument("--min-denom", type=float, default=1e-8)
    p_reg.add_argument("--weights", default=None, help="selection JSON from select-g")
    p_reg.add_argument("--out", default=None, help="write the curve CSV here")
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
    p_sim.add_argument("--preset", choices=sorted(SIZE_PRESETS), default=None)
    p_sim.add_argument("--n-unlabeled", type=int, default=300)
    p_sim.add_argument("--n-class", action="append", type=int, default=None)
    p_sim.add_argument("--theta", action="append", type=float, default=None)
    p_sim.add_argument("--gamma", action="append", type=float, default=None)
    p_sim.add_argument("--method", action="append", default=None)
    p_sim.add_argument("--label-count", action="append", type=int, default=None)
    p_sim.add_argument("--size", action="append", type=int, default=None)
    p_sim.add_argument("--mu", type=float, default=None)
    p_sim.add_argument("--mean0", type=float, default=None)
    p_sim.add_argument("--mean1", type=float, default=None)
    p_sim.add_argument("--cycles", type=int, default=1)
    p_sim.add_argument("--replicates", type=int, default=100)
    p_sim.add_argument("--test-replicates", type=int, default=200)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--level", type=float, default=0.95)
    p_sim.add_argument("--grid-size", type=int, default=201)
    p_sim.add_argument("--threshold", type=float, default=0.0)
    p_sim.add_argument("--out", default=None, help="write the study CSV here")
    _add_common_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
