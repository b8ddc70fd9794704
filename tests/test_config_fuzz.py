"""A fixed-table config fuzz: every shipped config with each leaf replaced by
each value of `VALUES`, or deleted, run through `cli.main`.

Every document must get a typed answer in bounded time: exit 0, 2 (the config
builds no problem), 3 (the solver refuses it) or 4 (a typed divergence or
stall), with no traceback, and a document that exits 0 echoes the document it
read in its report.  A leaf is any value that is not a mapping: a list counts
as one leaf.  There is no randomness, so a failure names its document.
"""

import json
import math
import signal
from pathlib import Path

import pytest
import yaml

from bsvi.cli import main

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))
DELETE = object()
VALUES = (None, "text", [], {}, [[1.0, 2.0], [3.0]], [[[0.5]]], -1, 0, 2.5, 1e308,
          -1e308, 10 ** 9, math.nan, math.inf, -math.inf, True, False, "1e-3", DELETE)
EXIT_CODES = (0, 2, 3, 4)
SECONDS = 20  # per document; an unanswered one raises

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _leaves(doc, path=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key)


def _mutated(doc, path, value):
    out = json.loads(json.dumps(doc))  # a deep copy; NaN and inf survive
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def _echo(doc):
    # as `cli.run` echoes a document: a non-finite float reads back as its string
    return json.loads(json.dumps(doc), parse_constant=lambda name: str(float(name)))


def _timeout(signum, frame):
    raise TimeoutError(f"no answer within {SECONDS} s")


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_every_mutated_config_gets_a_typed_answer(config, tmp_path, capsys):
    doc = yaml.safe_load(config.read_text(encoding="utf-8"))
    bad, codes = [], []
    old = signal.signal(signal.SIGALRM, _timeout)
    try:
        for path in _leaves(doc):
            for value in VALUES:
                case = f"{'.'.join(path)} = {'<deleted>' if value is DELETE else repr(value)}"
                mutated = _mutated(doc, path, value)
                where = tmp_path / str(len(codes))
                where.mkdir()
                cfg = where / "cfg.yaml"
                cfg.write_text(yaml.safe_dump(mutated), encoding="utf-8")
                signal.alarm(SECONDS)
                try:
                    code = main([str(cfg), "--out", str(where / "out"), "--format", "json"])
                except Exception as exc:  # an untyped answer, a traceback at the CLI
                    code = f"{type(exc).__name__}: {exc}"
                finally:
                    signal.alarm(0)
                codes.append(code)
                err = capsys.readouterr().err
                if code not in EXIT_CODES or "Traceback" in err:
                    bad.append(f"{case}: {code} {err[-300:]}")
                elif code == 0:
                    report = json.loads((where / "out" / "report.json").read_text("utf-8"))
                    if report["config"] != _echo(mutated):
                        bad.append(f"{case}: the report echoes {report['config']!r}")
    finally:
        signal.signal(signal.SIGALRM, old)
    assert not bad, "\n".join(bad)
    assert codes.count(0) >= 1  # the table reaches a solve, not only refusals
