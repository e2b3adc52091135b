"""Command-line front end.

    pathtrek screen   --data FILE [--model FILE] ...
    pathtrek fit      (--data FILE | --corr FILE --n N) --model FILE ...
    pathtrek revise   (--data FILE | --corr FILE --n N) --model FILE ...
    pathtrek simulate --model FILE --n N --seed S --out FILE

Exit codes: 0 success, 1 assumption warnings under --strict, 2 input or
usage error, 3 revision failure.

fit and revise report the same procedure through one function,
`_traced_report`: the (variable, parents, beta) steps that were traced,
and the structure the trace gave, yield r_hat, the fit verdict, the
effects and a warning for each residual variance that is not > 0.  A fit
is traced from its own steps; an annotated model is built from it only to
export treks or write the final model.  Every input file is read once,
through `files.read_input`, which gives both the text that is parsed and the
digest the report records.  Each command builds the text of the report and
of every side output, then hands them all to one `files.write_outputs`
call, which opens every output before it writes any; simulate hands it
the rows as they are drawn.  So an exit 2 leaves every existing output as
it was.

The raw-data modules (data, screening, simulate), and numpy with them, are
imported only by the commands that read or write rows, so `fit --corr` and
`revise --corr` start without numpy.  fit and revise take their defaults
from the library's constants; screen's levels are literals here, since
screening imports numpy.

A process runs `console_main` (the `pathtrek` console script and `python -m
pathtrek.cli`): main, then gc.freeze(), so that interpreter shutdown does
not walk the cyclic collector over the heap the command leaves, ~10% of a
`fit --corr` process.  `main` is for callers that run many commands in one
process and leaves the collector alone.
"""

import argparse
import functools
import gc
import math
import sys
import warnings as _warnings

from . import __version__, tracing
from .correlation import _parse_correlation_csv, pearson_matrix
from .effects import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_ITER,
    DEFAULT_MISFIT_THRESHOLD,
    _effects_table,
    assess_fit,
    effects_csv,
    revise_model,
    revision_csv,
)
from .errors import NoAdmissibleRevision, NonPositiveResidualVariance, PathtrekError
from .estimation import fit_standardized
from .files import csv_text, naming, read_input, write_outputs
from .pathspec import load_model, parse_model, render_model
from .report import Report
from .tracing import treks_csv

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


def iterations(text):
    """A whole number of at least 1 (--max-iter)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not at least 1")
    return value


@functools.cache
def _build_parser():
    """The whole argument tree, built once per process.

    Nothing in it depends on the call: parse_args makes a fresh Namespace
    each time, and errors go to the sys.stderr of that moment.  Each
    subcommand's handler rides on its Namespace as `handler`, beside its own
    parser as `command_parser`, so usage errors found after parsing name the
    subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="pathtrek",
        description="Path analysis for recursive causal models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, command_parser=p)
        return p

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

    p_screen = add_command("screen", _cmd_screen, "run the data-screening battery")
    p_screen.add_argument("--data", required=True, help="dataset CSV")
    p_screen.add_argument("--model", help="optional model file for residuals/VIF block")
    p_screen.add_argument("--alpha", type=probability, default=0.05,
                          help="KS level (default %(default)s)")
    p_screen.add_argument("--outlier-p", type=probability, default=0.001)
    p_screen.add_argument("--strict", action="store_true",
                          help="exit 1 when assumption warnings are present")
    p_screen.add_argument("--residuals-csv",
                          help="export residual points (equation, fitted, std_residual)")
    add_output(p_screen)

    p_fit = add_command("fit", _cmd_fit, "estimate, trace, assess, decompose")
    add_inputs(p_fit, "model file")
    p_fit.add_argument("--treks-csv", help="export the trek decomposition here")
    p_fit.add_argument("--effects-csv", help="export the effects table here")
    add_output(p_fit)

    p_rev = add_command("revise", _cmd_revise, "drop/add revision loop")
    add_inputs(p_rev, "starting model file")
    p_rev.add_argument("--alpha", type=probability, default=DEFAULT_ALPHA,
                       help="drop level for coefficient p (default %(default)s)")
    p_rev.add_argument("--max-iter", type=iterations, default=DEFAULT_MAX_ITER)
    p_rev.add_argument("--out-model", help="write the final model DSL here")
    p_rev.add_argument("--trace-csv", help="export the revision steps here")
    add_output(p_rev)

    p_sim = add_command("simulate", _cmd_simulate, "draw a dataset from an annotated model")
    p_sim.add_argument("--model", required=True, help="coefficient-annotated model file")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="dataset CSV to write")
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
            text, inputs[args.corr] = read_input(args.corr)
            corr = _parse_correlation_csv(text, args.corr, args.n)
        model = _read_model(args.model, inputs)
    return corr, model, inputs, [str(w.message) for w in caught]


def _read_model(path, inputs):
    """The model file at path, parsed; its digest is recorded in inputs and
    an error names the file."""
    text, inputs[path] = read_input(path)
    with naming(path):
        return parse_model(text)


def _emit(report, args, *sides):
    """Render the report, build each (path, build) side output whose path is
    given, then write them all in one files.write_outputs call."""
    write_outputs([(args.out, [report.to_json() if args.format == "json" else report.to_text()]),
                   *((path, [build()]) for path, build in sides if path)])


def _cmd_screen(args, parser):
    from .data import load_csv
    from .screening import VIF_WARN, screen

    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        dataset = load_csv(args.data)
        inputs = {args.data: dataset.digest}
        model = _read_model(args.model, inputs) if args.model else None
        load_warnings = [str(w.message) for w in caught]
    result = screen(dataset, model=model, alpha=args.alpha,
                    outlier_p=args.outlier_p)
    report = Report(
        command="screen",
        inputs=inputs,
        screening=result,
        warnings=load_warnings + result.warnings,
    )
    _emit(report, args, (args.residuals_csv, lambda: csv_text([
        ["equation", "fitted", "std_residual"],
        *([target, repr(fitted_value), repr(std_resid)]
          for target, pts in result.residual_points.items() for fitted_value, std_resid in pts),
    ])))
    flagged = bool(result.outliers) or any(
        verdict == "non-normal" for _, _, verdict in result.normality.values()
    ) or any(v >= VIF_WARN for v in result.vif.values())
    if args.strict and flagged:
        return EXIT_WARNINGS
    return EXIT_OK


def _traced_report(command, corr, inputs, warnings, fitted, steps, implied,
                   assessment, revision=None):
    """The fit or revise Report of `fitted`, traced as the (variable, parents,
    beta) `steps` that gave the structure `implied`.

    Coefficients that imply a value that is not finite are an input error
    (`tracing._require_finite`), in either format; a finite residual
    variance that is not > 0 is reported as a warning after the caller's
    own.  The effects come from the same steps and structure as r_hat.
    """
    tracing._require_finite(implied)
    warnings = warnings + [str(NonPositiveResidualVariance(v, psi))
                           for v, psi in tracing._psi_faults(implied)]
    return Report(
        command=command,
        inputs=inputs,
        correlations=corr,
        fitted=fitted,
        reproduced=implied,
        fit=assessment,
        effects=_effects_table(steps, implied),
        revision=revision,
        warnings=warnings,
    )


def _cmd_fit(args, parser):
    """Fit, then trace/assess/decompose.

    A fully annotated model file is taken as the hypothesis under test: its
    own coefficients drive the reproduced matrix, fit verdict, and effects,
    while the refit coefficients and inference are reported alongside.  A
    bare topology is traced with the fitted coefficients, and so is a
    partially annotated one, with a warning that counts the coefficients
    it ignored.
    """
    corr, model, inputs, warnings = _load_inputs(args, parser)
    fitted = fit_standardized(corr, model)
    ignored = sum(a.coefficient is not None for a in model.arrows)
    if model.is_annotated:
        warnings.append("traced the model file's own coefficients (fully annotated input); "
                        "refit values are in the coefficients section")
    elif ignored:
        warnings.append(f"ignored the coefficients of {ignored} of {len(model.arrows)} arrows "
                        "(partially annotated input); traced the refit values")
    steps = tracing._steps(model) if model.is_annotated else fitted._steps()
    implied = tracing._trace(model.variables, steps)[0]
    report = _traced_report("fit", corr, inputs, warnings, fitted, steps, implied,
                            assess_fit(corr, implied, args.misfit))
    _emit(report, args,
          (args.treks_csv, lambda: treks_csv(
              model if model.is_annotated else fitted.annotated_model())),
          (args.effects_csv, lambda: effects_csv(report.effects)))
    return EXIT_OK


def _cmd_revise(args, parser):
    corr, model, inputs, warnings = _load_inputs(args, parser)
    try:
        trace = revise_model(
            corr, model,
            alpha=args.alpha, threshold=args.misfit, max_iter=args.max_iter,
        )
    except NoAdmissibleRevision as exc:
        trace = exc.trace
        warnings.append(f"revision failed: {exc}")
    report = _traced_report("revise", corr, inputs, warnings, trace.final_fit,
                            trace.final_fit._steps(), trace.final_implied,
                            trace.final_assessment, revision=trace)
    _emit(report, args,
          (args.out_model, lambda: render_model(trace.final_fit.annotated_model())),
          (args.trace_csv, lambda: revision_csv(trace)))
    return EXIT_OK if trace.converged else EXIT_REVISION


def _cmd_simulate(args, parser):
    from .data import csv_pieces
    from .simulate import SimulationSpec, simulate_blocks

    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        model = load_model(args.model)
    for w in caught:
        print(f"pathtrek: warning: {w.message}", file=sys.stderr)
    spec = SimulationSpec(model=model, n=args.n, seed=args.seed)
    # simulate_blocks raises for a bad model before --out is opened
    write_outputs([(args.out, csv_pieces(model.variables, simulate_blocks(spec)))])
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args, args.command_parser)
    except (PathtrekError, OSError, ValueError) as exc:
        print(f"pathtrek: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main(argv=None):
    """main(argv) as the last call of a process.

    Once the command is done, gc.freeze() moves every object left on the
    heap to the collector's permanent generation, so the collections that
    interpreter shutdown runs skip them: 13,000 GC-tracked objects after
    `fit --corr` and 22,000 after `fit --data`, 1.3-1.6 and 3.1-3.4 ms a
    full pass on a 2-vCPU Xeon.  It runs on every way out, argparse's
    SystemExit included.  Shutdown still runs atexit handlers, flushes
    stdout and stderr and clears modules; only the finalizers of objects in
    reference cycles at the time of the freeze are skipped, and pathtrek
    defines none and has closed every output before main returns.
    """
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console_main())
