"""The CLI contract: parser surface, output bytes and clean errors.

Three things a refactor of ``repro.cli`` must leave where they are:

- the parser surface — every (sub)command's options, dests, defaults
  and choices, plus the namespace each command parses to at its
  default argv (``tests/data/cli_surface.json``);
- the stdout bytes and exit code of a set of deterministic commands
  (SHA-256 pins; ``dse`` output carries wall time, so only its
  ``records`` and ``pareto`` are pinned);
- the error contract: bad input raises ``SystemExit`` with a one-line
  ``<command>: <message>``, so the process exits 1 on stderr with no
  traceback, and nothing else escapes.

The pins were recorded on x86-64 with Python 3.11 and numpy 2.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError

SURFACE_PATH = pathlib.Path(__file__).parent / "data" / "cli_surface.json"


def _subcommands(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action
    return None


def _action_row(action):
    row = {"dest": action.dest, "flags": list(action.option_strings),
           "default": action.default, "nargs": action.nargs,
           "required": action.required,
           "type": getattr(action.type, "__name__", None),
           "action": type(action).__name__}
    if isinstance(action, argparse._SubParsersAction):
        row["choices"] = list(action.choices)
    else:
        row["choices"] = list(action.choices) if action.choices else None
    return row


def _walk(parser, path=()):
    yield path, parser
    group = _subcommands(parser)
    if group is not None:
        for name, child in group.choices.items():
            yield from _walk(child, path + (name,))


def _default_argv(path, parser):
    argv = list(path)
    for action in parser._actions:
        if action.required and action.option_strings:
            argv += [action.option_strings[0], "x"]
    return argv


def parser_surface():
    """``{command path: {"actions": [...], "namespace": {...}}}``."""
    surface = {}
    for path, parser in _walk(build_parser()):
        rows = [_action_row(action) for action in parser._actions
                if not isinstance(action, argparse._HelpAction)]
        entry = {"actions": sorted(rows, key=lambda row: (row["flags"],
                                                          row["dest"]))}
        if path and _subcommands(parser) is None:
            namespace = vars(build_parser().parse_args(
                _default_argv(path, parser)))
            namespace.pop("handler", None)
            entry["namespace"] = namespace
        surface[" ".join(path)] = entry
    return surface


def test_parser_surface_is_pinned():
    expected = json.loads(SURFACE_PATH.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(parser_surface()))
    assert sorted(actual) == sorted(expected)
    for command, entry in expected.items():
        assert actual[command] == entry, command


#: argv -> (exit code, SHA-256 of stdout).
OUTPUT_PINS = {
    "table1 --json": (
        0, "2b550fa55baa93626360781cfe441c198391aa846aabb8b93ca28bb9782d4215"),
    "figure3 --json": (
        0, "389f2bc8f36113083262fdc08366a51a4176751e138c394f3863708e626ed892"),
    "figure4 --json": (
        0, "2e4d303cac4b7fec0e5a59c805647f05d434aca1e3df0b74d7f9337603a1d871"),
    "figure5a --json": (
        0, "4ecd8d2a82a0f1cfe60d43b4729297d043cb4f0a4ab2b79692e54cfc6bf01c3c"),
    "figure5b --json": (
        0, "461f0e11e06cc2471282ac324e6b3817106d5b308432b986fb05e09c74d8b01f"),
    "offload --json": (
        0, "80cf499e95d8f168e3dea715568449a6a94fe155547f99b8e3c9acfb9d02755a"),
    "metrics --json --iterations 2": (
        0, "2d5a84aa46c9a23138f12104d1617976ac3259de5b067535faf2515b61af7788"),
    "faults --scenarios 4 --json": (
        0, "37102293e8cf69c53963a0b8c25e641b071805bdcd6c029ad74f205d7016ad72"),
    "serve --requests 120 --seed 7 --json": (
        0, "299c5766e5983b7d81d91963dbb37ffeb592d78fd4ef82972021fd92af7a5eb3"),
    "chaos --empty --requests 60 --json": (
        0, "8ea7ef496215dd85e1fe003fac08799ff0c781eb1b85b2b09ad7d2e01ba9dc29"),
    "capacity sweep --rates 50:300:50 --json": (
        0, "4d4513a3a177ca28b49b0f135f2c0bd0c039a81202eb1452fb37a0aa4f22abc4"),
    "lint --all-builtin --format json": (
        0, "537dbf43db42d38985e52cbe7b9603507155efd0d000e49d63e64b7c31333be9"),
    "report": (
        0, "705a06b87881a63d4d1c8fa85d17e1bce2821a052022872859e73c9db0aa04ed"),
    "all": (
        0, "2d20ffec5cc6c5cc38278924ff1de7cc5b575e99865469dfeedd20392eb3b86f"),
}


@pytest.mark.parametrize("argv", sorted(OUTPUT_PINS))
def test_output_is_pinned(argv, capsys):
    code, digest = OUTPUT_PINS[argv]
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


#: SHA-256 of the ``records`` and ``pareto`` of a small DSE sweep.
DSE_ARGV = ["dse", "--kernel", "matmul", "--host-mhz", "4,8",
            "--budget-mw", "5,10", "--json"]
DSE_DIGEST = "297ef911eb8b998f31f6e50c28e3e8d600ec60934aec7fdb3026ffdb30d04a70"


def dse_digest(payload):
    pinned = {"records": payload["records"], "pareto": payload["pareto"]}
    return hashlib.sha256(json.dumps(pinned, sort_keys=True)
                          .encode("utf-8")).hexdigest()


def test_dse_records_are_pinned(capsys):
    assert main(DSE_ARGV) == 0
    assert dse_digest(json.loads(capsys.readouterr().out)) == DSE_DIGEST


BAD_INPUT = [
    "offload --iterations 0",
    "offload --host-mhz -5",
    "serve --nodes 0",
    "serve --max-batch 0",
    "serve --arrival-rate 0",
    "serve --replay {tmp}/missing.json",
    "faults --scenarios 0",
    "faults --ber 2",
    "capacity plan --max-nodes 0 --no-verify",
    "capacity validate --tolerance -1",
    "capacity sweep --nodes 0",
    "capacity sweep --rates 100,abc",
    "learn dataset --tiny --programs nope",
    "learn train --dataset {tmp}/bad.json",
    "learn predict --model {tmp}/bad.json --program dwconv3_i8",
    "serve --scheduler predicted --model {tmp}/bad.json",
    "offload --host-mhz 48",
    "serve --host-mhz 48 --requests 10",
    "faults --host-mhz 48 --scenarios 2",
]


@pytest.mark.parametrize("invocation", BAD_INPUT)
def test_bad_input_is_a_clean_error(invocation, tmp_path):
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    argv = invocation.format(tmp=tmp_path).split()
    with pytest.raises(SystemExit) as info:
        main(argv)
    message = info.value.code
    assert isinstance(message, str), message
    assert message.startswith(f"{argv[0]}: "), message
    assert "\n" not in message, message


def test_clean_error_exits_one_without_traceback():
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "capacity", "sweep",
         "--rates", "100,abc"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "capacity: bad rate 'abc'"]


class TestLoaders:
    def test_load_results_wraps_malformed_json(self, tmp_path):
        from repro.experiments.store import load_results

        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="bad.json"):
            load_results(path)

    def test_load_results_wraps_missing_file(self, tmp_path):
        from repro.experiments.store import load_results

        with pytest.raises(ConfigurationError, match="missing.json"):
            load_results(tmp_path / "missing.json")

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        from repro.dse import ResultCache

        cache = ResultCache(tmp_path)
        (tmp_path / "abc.json").write_bytes(b"\xff\xfe not json")
        assert cache.get("abc", "v1") is None
