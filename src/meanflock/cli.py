"""Command-line entry point.

The grammar is small enough to parse here, without argparse: its import,
with the gettext and locale modules it pulls in, took about a tenth of a
``validate`` process::

    meanflock run CONFIG [--output-dir DIR]
    meanflock validate CONFIG [--schema]
    meanflock models
    meanflock [COMMAND] -h | --help

Flags may come before or after CONFIG, a value may follow its flag as the
next argument or after ``=`` (``--output-dir=DIR``), a long flag may be
shortened to any unique prefix (``--out``) and ``--`` ends the flags.
Help prints to standard output and exits 0.

Exit codes: 0 all verdicts pass, 2 some verdict failed, 1 configuration or
runtime error, a command line outside the grammar (a usage line and
``meanflock: error: <reason>`` on standard error), or a standard output
closed before everything was written
(``meanflock validate cfg --schema | head -1``), which exits without a
traceback.

``run`` and ``validate`` read their config file here, once, as UTF-8; a
file that cannot be read or decoded prints ``error: cannot read config
<path>: <reason>`` and exits 1 for both. ``run`` hands the text to ``harness.run_from_text`` and
``validate`` to ``config.parse_config``.

Once a command's modules are imported (the run stack for ``run``, ``config``
for ``validate`` and ``models``), ``main`` calls ``gc.freeze()``. The import
graph lives until the process exits, so the cyclic collector has nothing to
find in it; frozen, it is skipped by every later collection, here and in
the pool workers that a run forks afterwards. In-process callers of
``main`` get the same freeze: whatever is alive at the call is never
collected as a cycle afterwards. When objects are already frozen, as on a
repeated call, ``main`` runs one full collection before it freezes, so
the cyclic garbage of the call before (the closures that
``json.dumps`` builds for the report and manifest) is freed rather than
frozen; a single call collects nothing extra. ``harness.run_from_text``,
the library entry point, does not freeze.

The console script and ``python -m meanflock.cli`` end through
``exit_main``, which skips the interpreter's teardown; ``main`` returns
its code.
"""

from __future__ import annotations

import gc
import os
import sys

from .config import ConfigError, list_models, parse_config, schema_lines

# help for the whole program (None) and for each command; its first line
# is the usage line of the errors
_HELP = {
    None: """usage: meanflock [-h] {run,models,validate} ...

Mean-field particle simulations with common and individual noise

  run         execute an experiment config
  models      list available kernel models
  validate    check a config without running it
  -h, --help  show this help message and exit""",
    "run": """usage: meanflock run [-h] [--output-dir DIR] CONFIG

execute an experiment config

  CONFIG            path to a key = value config file
  --output-dir DIR  override the config's output_dir
  -h, --help        show this help message and exit""",
    "models": """usage: meanflock models [-h]

list available kernel models

  -h, --help  show this help message and exit""",
    "validate": """usage: meanflock validate [-h] [--schema] CONFIG

check a config without running it

  CONFIG      path to a key = value config file
  --schema    also print the schema
  -h, --help  show this help message and exit""",
}
# the flags of each command, True for a switch and False for a flag that
# takes a value; every command but models reads one CONFIG
_FLAGS = {
    None: {"--help": True},
    "run": {"--help": True, "--output-dir": False},
    "models": {"--help": True},
    "validate": {"--help": True, "--schema": True},
}


class _UsageError(Exception):
    """A command line outside the grammar, with the command it names."""

    def __init__(self, command, reason):
        super().__init__(reason)
        self.command = command


def main(argv=None) -> int:
    try:
        code = _dispatch(sys.argv[1:] if argv is None else list(argv))
        # a closed pipe shows on this flush, not in the interpreter's exit flush
        sys.stdout.flush()
    except BrokenPipeError:
        # as the Python `signal` docs advise: send what is still buffered to
        # devnull, so the interpreter's exit flush raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def exit_main() -> None:
    """Run ``main``, flush both streams and end with its code by
    ``os._exit``: no module teardown, final collections or atexit hooks.

    Teardown took about 7 ms of a 250 ms ``run``, and a finished command
    needs none of it: its files are written and closed, and the process
    pool's ``with`` block has joined every worker. An exception that
    escapes ``main`` is not caught, so the interpreter prints its traceback
    and exits as usual.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


def _parse(argv: list) -> tuple:
    """``(command, config, flags)``, or ``(command, None, None)`` for help.

    ``command`` is None for help before a command. ``flags`` maps the full
    name of each flag given to its value, True for a switch; a repeated
    flag keeps its last value.
    """
    if not argv:
        raise _UsageError(None, "a command is required")
    command, *rest = argv
    if command.startswith("-"):
        _flag(None, command)  # raises unless it asks for help
        return None, None, None
    if command not in _HELP:
        raise _UsageError(None, f"unknown command {command!r} (choose from run, models, validate)")
    takes_config = command != "models"
    config, flags, flags_end = None, {}, False
    tokens = iter(rest)
    for token in tokens:
        if token == "--" and not flags_end:
            flags_end = True
        elif token.startswith("-") and not flags_end:
            flag, value = _flag(command, token)
            if flag == "--help":
                return command, None, None
            if value is None:
                value = next(tokens, None)
                if value is None or value.startswith("-"):
                    raise _UsageError(command, f"{flag} expects a value")
            flags[flag] = value
        elif takes_config and config is None:
            config = token
        else:
            raise _UsageError(command, f"unexpected argument {token!r}")
    if takes_config and config is None:
        raise _UsageError(command, "CONFIG is required")
    return command, config, flags


def _flag(command, token: str) -> tuple:
    """``(flag, value)`` for a flag of ``command``: its full name, and True
    for a switch, else the text after ``=`` or None without one. ``-h`` and
    every unique prefix of a long flag name it."""
    name, eq, value = token.partition("=")
    if name == "-h":
        name = "--help"
    known = _FLAGS[command]
    found = [f for f in known if f.startswith(name)] if name[:2] == "--" else []
    if len(name) <= 2 or len(found) != 1:
        raise _UsageError(command, f"unrecognized flag {name!r}")
    flag = found[0]
    if not known[flag]:
        return flag, value if eq else None
    if eq:
        raise _UsageError(command, f"{flag} takes no value")
    return flag, True


def _freeze() -> None:
    # a repeated call first collects the cyclic garbage its last call left
    if gc.get_freeze_count():
        gc.collect()
    gc.freeze()


def _dispatch(argv: list) -> int:
    try:
        command, config, flags = _parse(argv)
    except _UsageError as exc:
        usage = _HELP[exc.command].partition("\n")[0]
        print(f"{usage}\nmeanflock: error: {exc}", file=sys.stderr)
        return 1
    if flags is None:
        print(_HELP[command])
        return 0

    if command == "models":
        _freeze()
        for name, doc in sorted(list_models().items()):
            print(f"{name}\n    {doc}")
        return 0

    try:
        with open(config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config {config}: {exc}", file=sys.stderr)
        return 1

    if command == "run":
        # the run stack is imported only to run: validate and models never load it
        from .harness import run_from_text

        _freeze()
        return run_from_text(text, output_dir=flags.get("--output-dir"))

    _freeze()
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print(f"valid: experiment={cfg.kind} seeds={cfg.seeds()}")
    if "--schema" in flags:
        print("\nschema:")
        for line in schema_lines():
            print("  " + line)
    return 0


if __name__ == "__main__":
    exit_main()
