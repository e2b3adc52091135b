"""Command-line front end.

    pathtrek screen   --data FILE [--model FILE] ...
    pathtrek fit      (--data FILE | --corr FILE --n N) --model FILE ...
    pathtrek revise   (--data FILE | --corr FILE --n N) --model FILE ...
    pathtrek simulate --model FILE --n N --seed S --out FILE

Exit codes: 0 success, 1 assumption warnings under --strict, 2 input or
usage error, 3 revision failure.

The raw-data modules (data, screening, simulate), and numpy with them, are
imported only by the commands that read or write rows, so `fit --corr` and
`revise --corr` start without numpy.
"""

import argparse
import csv
import sys
import warnings as _warnings

from . import __version__
from .correlation import load_correlation_csv, pearson_matrix
from .effects import (
    assess_fit,
    decompose_effects,
    revise_model,
    write_effects_csv,
    write_revision_csv,
)
from .errors import NoAdmissibleRevision, NonPositiveResidualVariance, PathtrekError
from .estimation import coefficient_inference, fit_standardized
from .pathspec import load_model, render_model
from .report import Report, file_digest
from .tracing import _implied, reproduced_matrix, write_treks_csv

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_INPUT = 2
EXIT_REVISION = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pathtrek",
        description="Path analysis for recursive causal models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--out", help="write the report here (default stdout)")
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="report rendering (default text)",
        )

    def add_inputs(p, model_help):
        p.add_argument("--data", help="dataset CSV")
        p.add_argument("--corr", help="correlation CSV (requires --n)")
        p.add_argument("--n", type=int, help="sample size for --corr")
        p.add_argument("--model", required=True, help=model_help)
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--misfit", type=float, default=0.05)

    p_screen = sub.add_parser("screen", help="run the data-screening battery")
    p_screen.add_argument("--data", required=True, help="dataset CSV")
    p_screen.add_argument("--model", help="optional model file for residuals/VIF block")
    p_screen.add_argument("--alpha", type=float, default=0.05)
    p_screen.add_argument("--outlier-p", type=float, default=0.001)
    p_screen.add_argument("--strict", action="store_true",
                          help="exit 1 when assumption warnings are present")
    p_screen.add_argument("--residuals-csv",
                          help="export residual points (equation, fitted, std_residual)")
    add_output(p_screen)

    p_fit = sub.add_parser("fit", help="estimate, trace, assess, decompose")
    add_inputs(p_fit, "model file")
    p_fit.add_argument("--treks-csv", help="export the trek decomposition here")
    p_fit.add_argument("--effects-csv", help="export the effects table here")
    add_output(p_fit)

    p_rev = sub.add_parser("revise", help="drop/add revision loop")
    add_inputs(p_rev, "starting model file")
    p_rev.add_argument("--max-iter", type=int, default=10)
    p_rev.add_argument("--out-model", help="write the final model DSL here")
    p_rev.add_argument("--trace-csv", help="export the revision steps here")
    add_output(p_rev)

    p_sim = sub.add_parser("simulate", help="draw a dataset from an annotated model")
    p_sim.add_argument("--model", required=True, help="coefficient-annotated model file")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="dataset CSV to write")

    return parser


def _load_inputs(args, parser):
    """Resolve the data-vs-correlation input choice shared by fit/revise."""
    if bool(args.data) == bool(args.corr):
        parser.error("exactly one of --data or --corr is required")
    if args.corr and not args.n:
        parser.error("--corr requires --n")
    inputs = {}
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        if args.data:
            from .data import load_csv

            corr = pearson_matrix(load_csv(args.data))
            inputs[args.data] = file_digest(args.data)
        else:
            corr = load_correlation_csv(args.corr, args.n)
            inputs[args.corr] = file_digest(args.corr)
        model = load_model(args.model)
        inputs[args.model] = file_digest(args.model)
    return corr, model, inputs, [str(w.message) for w in caught]


def _emit(report, args):
    text = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_screen(args, parser):
    from .data import load_csv
    from .screening import screen

    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        dataset = load_csv(args.data)
        model = load_model(args.model) if args.model else None
        load_warnings = [str(w.message) for w in caught]
    result = screen(dataset, model=model, alpha=args.alpha,
                    outlier_p=args.outlier_p)
    inputs = {args.data: file_digest(args.data)}
    if args.model:
        inputs[args.model] = file_digest(args.model)
    report = Report(
        command="screen",
        inputs=inputs,
        screening=result,
        warnings=load_warnings + result.warnings,
    )
    if args.residuals_csv:
        with open(args.residuals_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["equation", "fitted", "std_residual"])
            for target, pts in result.residual_points.items():
                for fitted_value, std_resid in pts:
                    writer.writerow([target, repr(fitted_value), repr(std_resid)])
    _emit(report, args)
    flagged = bool(result.outliers) or any(
        verdict == "non-normal" for _, _, verdict in result.normality.values()
    ) or any(v >= 5.0 for v in result.vif.values())
    if args.strict and flagged:
        return EXIT_WARNINGS
    return EXIT_OK


def _psi_warnings(reproduced):
    """One warning per equation whose coefficients imply residual variance <= 0."""
    return [str(NonPositiveResidualVariance(v, psi))
            for v, psi in reproduced.psi.items() if psi <= 0.0]


def _analyze(corr, model, alpha, misfit):
    """Fit, then trace/assess/decompose.

    A fully annotated model file is taken as the hypothesis under test: its
    own coefficients drive the reproduced matrix, fit verdict, and effects,
    while the refit coefficients and inference are reported alongside.  A
    bare topology is traced with the fitted coefficients.  Coefficients that
    imply a residual variance <= 0 are reported as warnings, not errors.
    """
    fitted = coefficient_inference(fit_standardized(corr, model), alpha=alpha)
    traced = model if model.is_annotated else fitted.annotated_model()
    reproduced = _implied(traced)
    fit = assess_fit(corr, reproduced, misfit)
    effects = decompose_effects(traced)
    notes = []
    if model.is_annotated:
        notes.append("traced the model file's own coefficients (fully annotated input); "
                     "refit values are in the coefficients section")
    notes += _psi_warnings(reproduced)
    return fitted, traced, reproduced, fit, effects, notes


def _cmd_fit(args, parser):
    corr, model, inputs, load_warnings = _load_inputs(args, parser)
    fitted, traced, reproduced, fit, effects, notes = _analyze(
        corr, model, args.alpha, args.misfit
    )
    load_warnings.extend(notes)
    if args.treks_csv:
        write_treks_csv(reproduced_matrix(traced), args.treks_csv)
    if args.effects_csv:
        write_effects_csv(effects, args.effects_csv)
    report = Report(
        command="fit",
        inputs=inputs,
        correlations=corr,
        fitted=fitted,
        reproduced=reproduced,
        fit=fit,
        effects=effects,
        warnings=load_warnings,
    )
    _emit(report, args)
    return EXIT_OK


def _cmd_revise(args, parser):
    corr, model, inputs, load_warnings = _load_inputs(args, parser)
    exit_code = EXIT_OK
    try:
        trace = revise_model(
            corr, model,
            alpha=args.alpha, threshold=args.misfit, max_iter=args.max_iter,
        )
    except NoAdmissibleRevision as exc:
        trace = exc.trace
        load_warnings.append(f"revision failed: {exc}")
        exit_code = EXIT_REVISION
    if not trace.converged:
        exit_code = EXIT_REVISION
    final = trace.final_fit
    annotated = final.annotated_model()
    reproduced = _implied(annotated)
    load_warnings.extend(_psi_warnings(reproduced))
    report = Report(
        command="revise",
        inputs=inputs,
        correlations=corr,
        fitted=final,
        reproduced=reproduced,
        fit=trace.final_assessment,
        effects=decompose_effects(annotated),
        revision=trace,
        warnings=load_warnings,
    )
    if args.out_model:
        with open(args.out_model, "w", encoding="utf-8") as fh:
            fh.write(render_model(annotated))
    if args.trace_csv:
        write_revision_csv(trace, args.trace_csv)
    _emit(report, args)
    return exit_code


def _cmd_simulate(args, parser):
    from .data import write_csv
    from .simulate import SimulationSpec, simulate_dataset

    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        model = load_model(args.model)
    for w in caught:
        print(f"pathtrek: warning: {w.message}", file=sys.stderr)
    spec = SimulationSpec(model=model, n=args.n, seed=args.seed)
    dataset = simulate_dataset(spec)
    write_csv(dataset, args.out)
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "screen": _cmd_screen,
        "fit": _cmd_fit,
        "revise": _cmd_revise,
        "simulate": _cmd_simulate,
    }[args.command]
    try:
        return handler(args, parser)
    except (PathtrekError, OSError, ValueError) as exc:
        print(f"pathtrek: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
