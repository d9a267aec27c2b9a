"""Command line entry points.

Stage subcommand `<name>` is `pipeline.run_stage`, which reads the inputs of
`pipeline.stage_<name>` from the artifacts in `--out` and runs it there. Only
`ingest` creates that directory; a later stage exits 1 naming an intermediate it
needs that is missing there, and 2 naming the artifact and line of a malformed one.
`train` needs no intermediate, so it exits 1 only when `--out` does not exist.
An `--out` that is, or runs through, something other than a directory exits 1
before any subcommand runs.

Exit codes: 0 success, 1 usage or configuration problem, 2 data validation
failure, 3 numerical failure, 4 any other exception (`error[internal]`). Every
failure prints a single machine-parsable line on stderr: `regsent: error[<kind>]: <reason>`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, pipeline
from .errors import ConfigError, DataValidationError, NumericalError
from .pipeline import load_config


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep codes ours
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="regsent", description="Regional sentiment pipeline")
    parser.add_argument("--version", action="version", version=f"regsent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_stage_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--out", default="out", help="artifact directory (default: ./out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
            help="override a config entry, e.g. --set classifier.kind=logistic",
        )
        return p

    add_stage_parser("ingest", "load posts, filter located ones, resolve regions")
    add_stage_parser("clean", "run the normalization chain over located posts")
    report = add_stage_parser("report", "corpus frequency diagnostics")
    report.add_argument("kind", choices=("hashtags", "emojis"))
    add_stage_parser("train", "train and evaluate the sentiment classifier")
    add_stage_parser("classify", "label cleaned posts with the trained model")
    add_stage_parser("import-predictions", "use third-party predictions instead of the local model")
    add_stage_parser("aggregate", "fold predictions into per-region period counts")
    add_stage_parser("shift-test", "before/after proportion tests per region and pooled")
    add_stage_parser("regress", "fit the outcome on sentiment plus features")
    add_stage_parser("stepwise", "AIC-guided predictor selection")
    add_stage_parser("pipeline", "run every stage in order and write summary.md")

    fixture = sub.add_parser("make-fixture", help="write the bundled synthetic input set")
    fixture.add_argument("--out", required=True, help="directory for the fixture files")
    fixture.add_argument("--seed", type=int, default=13)
    fixture.add_argument("--posts", type=int, default=500)
    return parser


def _run(args: argparse.Namespace) -> None:
    if args.command == "make-fixture" and args.posts < 1:
        raise _UsageError(f"argument --posts: must be at least 1, got {args.posts}")
    out_dir = Path(args.out)
    for path in (out_dir, *out_dir.parents):  # a directory, or a path where one can be made
        if (path.exists() or path.is_symlink()) and not path.is_dir():
            raise ConfigError(f"--out {str(out_dir)!r}: {str(path)!r} is not a directory")
    if args.command == "make-fixture":
        from .fixtures import write_corpus_fixture  # imported here: no stage subcommand runs it
        config_path = write_corpus_fixture(out_dir, n_posts=args.posts, seed=args.seed)
        print(config_path)
        return
    cfg = load_config(args.config, overrides=args.overrides, seed=args.seed)
    if args.command == "pipeline":
        pipeline.run_pipeline(cfg, out_dir)
        print(out_dir / "summary.md")
        return
    pipeline.run_stage(args.command.replace("-", "_"), cfg, out_dir, *([args.kind] if args.command == "report" else []))


# (exception type, kind, exit code) of each failure, the first type that matches naming it
_FAILURES = (
    (_UsageError, "usage", 1),
    (ConfigError, "config", 1),
    (DataValidationError, "data", 2),
    (NumericalError, "numeric", 3),
    (Exception, "internal", 4),  # last resort: an unexpected failure, named by its type
)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _run(args)
        return 0
    except Exception as exc:
        kind, code = next((kind, code) for failure, kind, code in _FAILURES if isinstance(exc, failure))
        reason = f"{type(exc).__name__}: {exc}" if kind == "internal" else str(exc)
        print(f"regsent: error[{kind}]: {' '.join(reason.splitlines())}", file=sys.stderr)  # one line, breaks joined
        return code


if __name__ == "__main__":
    sys.exit(main())
