"""Command-line front end.

    pathtrek screen   --data FILE [--model FILE] ...
    pathtrek fit      (--data FILE | --corr FILE --n N) --model FILE ...
    pathtrek revise   (--data FILE | --corr FILE --n N) --model FILE ...
    pathtrek simulate --model FILE --n N --seed S --out FILE

Exit codes: 0 success, 1 assumption warnings under --strict, 2 input or
usage error, 3 revision failure.

fit and revise report the same procedure through one function,
`_traced_report`: the fitted model, traced with its coefficients, gives
r_hat, the fit verdict, the effects and a warning for each residual
variance <= 0.  Every output file is written through `files`.

The raw-data modules (data, screening, simulate), and numpy with them, are
imported only by the commands that read or write rows, so `fit --corr` and
`revise --corr` start without numpy.  fit and revise take their defaults
from the library's constants; screen's levels are literals here, since
screening imports numpy.
"""

import argparse
import functools
import itertools
import math
import sys
import warnings as _warnings

from . import __version__
from .correlation import load_correlation_csv, pearson_matrix
from .effects import (
    DEFAULT_MAX_ITER,
    DEFAULT_MISFIT_THRESHOLD,
    _effects_table,
    assess_fit,
    revise_model,
    write_effects_csv,
    write_revision_csv,
)
from .errors import NoAdmissibleRevision, NonPositiveResidualVariance, PathtrekError
from .estimation import DEFAULT_ALPHA, coefficient_inference, fit_standardized
from .files import file_digest, write_rows, write_text
from .pathspec import load_model, render_model
from .report import Report
from .tracing import _implied, reproduced_matrix, write_treks_csv

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_INPUT = 2
EXIT_REVISION = 3


def probability(text):
    """A finite level strictly between 0 and 1 (--alpha, --outlier-p)."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not between 0 and 1")
    return value


def threshold(text):
    """A finite, non-negative |r - r_hat| cut-off (--misfit)."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite value >= 0")
    return value


@functools.cache
def _build_parser():
    """The whole argument tree, built once per process.

    Nothing in it depends on the call: parse_args makes a fresh Namespace
    each time, and errors go to the sys.stderr of that moment.  Each
    subcommand's own parser rides on its Namespace as `command_parser`, so
    usage errors found after parsing name the subcommand.
    """
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
        p.add_argument("--misfit", type=threshold, default=DEFAULT_MISFIT_THRESHOLD)

    p_screen = sub.add_parser("screen", help="run the data-screening battery")
    p_screen.add_argument("--data", required=True, help="dataset CSV")
    p_screen.add_argument("--model", help="optional model file for residuals/VIF block")
    p_screen.add_argument("--alpha", type=probability, default=0.05)
    p_screen.add_argument("--outlier-p", type=probability, default=0.001)
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
    p_rev.add_argument("--alpha", type=probability, default=DEFAULT_ALPHA)
    p_rev.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p_rev.add_argument("--out-model", help="write the final model DSL here")
    p_rev.add_argument("--trace-csv", help="export the revision steps here")
    add_output(p_rev)

    p_sim = sub.add_parser("simulate", help="draw a dataset from an annotated model")
    p_sim.add_argument("--model", required=True, help="coefficient-annotated model file")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="dataset CSV to write")

    for p in sub.choices.values():
        p.set_defaults(command_parser=p)
    return parser


def _load_inputs(args, parser):
    """Resolve the data-vs-correlation input choice shared by fit/revise."""
    if bool(args.data) == bool(args.corr):
        parser.error("exactly one of --data or --corr is required")
    if args.corr and args.n is None:
        parser.error("--corr requires --n")
    if args.data and args.n is not None:
        parser.error("--n applies only to --corr")
    inputs = {}
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        if args.data:
            from .data import load_csv

            dataset = load_csv(args.data)
            corr = pearson_matrix(dataset)
            inputs[args.data] = dataset.digest
        else:
            corr = load_correlation_csv(args.corr, args.n)
            inputs[args.corr] = file_digest(args.corr)
        model = load_model(args.model)
        inputs[args.model] = file_digest(args.model)
    return corr, model, inputs, [str(w.message) for w in caught]


def _emit(report, args):
    text = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _cmd_screen(args, parser):
    from .data import load_csv
    from .screening import VIF_WARN, screen

    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        dataset = load_csv(args.data)
        model = load_model(args.model) if args.model else None
        load_warnings = [str(w.message) for w in caught]
    result = screen(dataset, model=model, alpha=args.alpha,
                    outlier_p=args.outlier_p)
    inputs = {args.data: dataset.digest}
    if args.model:
        inputs[args.model] = file_digest(args.model)
    report = Report(
        command="screen",
        inputs=inputs,
        screening=result,
        warnings=load_warnings + result.warnings,
    )
    if args.residuals_csv:
        write_rows(args.residuals_csv, itertools.chain(
            [["equation", "fitted", "std_residual"]],
            ([target, repr(fitted_value), repr(std_resid)]
             for target, pts in result.residual_points.items()
             for fitted_value, std_resid in pts),
        ))
    _emit(report, args)
    flagged = bool(result.outliers) or any(
        verdict == "non-normal" for _, _, verdict in result.normality.values()
    ) or any(v >= VIF_WARN for v in result.vif.values())
    if args.strict and flagged:
        return EXIT_WARNINGS
    return EXIT_OK


def _traced_report(command, corr, inputs, warnings, fitted, traced, implied,
                   assessment, revision=None):
    """The fit or revise Report of `fitted`, traced as the model `traced`.

    Coefficients that imply a residual variance <= 0 are reported as
    warnings after the caller's own, not as errors.  The effects come from
    the structure `implied` that gave r_hat.
    """
    warnings = warnings + [str(NonPositiveResidualVariance(v, psi))
                           for v, psi in implied.psi.items() if psi <= 0.0]
    return Report(
        command=command,
        inputs=inputs,
        correlations=corr,
        fitted=fitted,
        reproduced=implied,
        fit=assessment,
        effects=_effects_table(traced, implied),
        revision=revision,
        warnings=warnings,
    )


def _cmd_fit(args, parser):
    """Fit, then trace/assess/decompose.

    A fully annotated model file is taken as the hypothesis under test: its
    own coefficients drive the reproduced matrix, fit verdict, and effects,
    while the refit coefficients and inference are reported alongside.  A
    bare topology is traced with the fitted coefficients.
    """
    corr, model, inputs, warnings = _load_inputs(args, parser)
    fitted = coefficient_inference(fit_standardized(corr, model))
    traced = model if model.is_annotated else fitted.annotated_model()
    if model.is_annotated:
        warnings.append("traced the model file's own coefficients (fully annotated input); "
                        "refit values are in the coefficients section")
    implied = _implied(traced)
    report = _traced_report("fit", corr, inputs, warnings, fitted, traced, implied,
                            assess_fit(corr, implied, args.misfit))
    if args.treks_csv:
        write_treks_csv(reproduced_matrix(traced), args.treks_csv)
    if args.effects_csv:
        write_effects_csv(report.effects, args.effects_csv)
    _emit(report, args)
    return EXIT_OK


def _cmd_revise(args, parser):
    corr, model, inputs, warnings = _load_inputs(args, parser)
    exit_code = EXIT_OK
    try:
        trace = revise_model(
            corr, model,
            alpha=args.alpha, threshold=args.misfit, max_iter=args.max_iter,
        )
    except NoAdmissibleRevision as exc:
        trace = exc.trace
        warnings.append(f"revision failed: {exc}")
        exit_code = EXIT_REVISION
    if not trace.converged:
        exit_code = EXIT_REVISION
    annotated = trace.final_fit.annotated_model()
    report = _traced_report("revise", corr, inputs, warnings, trace.final_fit, annotated,
                            trace.final_implied, trace.final_assessment, revision=trace)
    if args.out_model:
        write_text(args.out_model, render_model(annotated))
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
    args = _build_parser().parse_args(argv)
    handler = {
        "screen": _cmd_screen,
        "fit": _cmd_fit,
        "revise": _cmd_revise,
        "simulate": _cmd_simulate,
    }[args.command]
    try:
        return handler(args, args.command_parser)
    except (PathtrekError, OSError, ValueError) as exc:
        print(f"pathtrek: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
