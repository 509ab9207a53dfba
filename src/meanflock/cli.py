"""Command-line entry point.

Exit codes: 0 all verdicts pass, 2 some verdict failed, 1 configuration or
runtime error, or a standard output closed before everything was written
(``meanflock validate cfg --schema | head -1``), which exits without a
traceback.

Once a command's modules are imported (the run stack for ``run``, ``config``
for ``validate`` and ``models``), ``main`` calls ``gc.freeze()``. The import
graph lives until the process exits, so the cyclic collector has nothing to
find in it; frozen, it is skipped by every later collection, by the
interpreter's final passes at exit and in the pool workers that a run forks
afterwards. Refcounting, module teardown and the exit flush are unchanged.
In-process callers of ``main`` get the same freeze: whatever is alive at
the call is never collected as a cycle afterwards. When objects are already
frozen, as on a repeated call, ``main`` runs one full collection before it
freezes, so the cyclic garbage of the call before (the closures that
``json.dumps`` builds for the report and manifest) is freed rather than
frozen; a single call collects nothing extra. ``harness.run_from_text``,
the library entry point, does not freeze.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .config import ConfigError, list_models, load_config, schema_lines


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanflock",
        description="Mean-field particle simulations with common and individual noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", help="path to a key = value config file")
    run_p.add_argument(
        "--output-dir", default=None, help="override the config's output_dir"
    )

    sub.add_parser("models", help="list available kernel models")

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="path to a key = value config file")
    val_p.add_argument("--schema", action="store_true", help="also print the schema")
    return parser


# built once: the parser's objects form cycles, so a parser built per call
# would stay frozen behind each in-process call of main
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = _dispatch(args)
        # a closed pipe shows on this flush, not in the interpreter's exit flush
        sys.stdout.flush()
    except BrokenPipeError:
        # as the Python `signal` docs advise: send what is still buffered to
        # devnull, so the interpreter's exit flush raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _freeze() -> None:
    # a repeated call first collects the cyclic garbage its last call left
    if gc.get_freeze_count():
        gc.collect()
    gc.freeze()


def _dispatch(args) -> int:
    if args.command == "run":
        # the run stack is imported only to run: validate and models never load it
        from .harness import run_from_path

        _freeze()
        return run_from_path(args.config, output_dir=args.output_dir)

    _freeze()
    if args.command == "models":
        for name, doc in sorted(list_models().items()):
            print(f"{name}\n    {doc}")
        return 0

    if args.command == "validate":
        try:
            cfg = load_config(args.config)
        except ConfigError as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
            return 1
        print(f"valid: experiment={cfg.kind} seeds={cfg.seeds()}")
        if args.schema:
            print("\nschema:")
            for line in schema_lines():
                print("  " + line)
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
