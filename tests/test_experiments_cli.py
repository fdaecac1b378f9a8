"""The ``python -m repro.experiments`` command line.

Every documented invocation dispatches the call pinned below; each
experiment takes exactly the flags its ``EXPERIMENTS`` entry declares,
and any other flag is a usage error; parsing imports no figure module.
"""

import importlib.util
import inspect
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import (
    ALL_ORDER,
    EXPERIMENTS,
    build_parser,
    experiment_calls,
    main,
)

ROOT = Path(__file__).resolve().parent.parent

#: What ``all`` runs, and the options each member receives besides
#: scale and seed, at their defaults.
ALL_MEMBERS = [
    "fig1", "fig5a", "fig5b", "fig5c", "table2", "table3", "res-diameter",
    "res-pathlen", "fig6a", "fig6b", "fig6c", "fig6d", "fig8a", "fig9",
    "fig8-oversub", "workload_completion", "table4", "costmodel", "fig11-cost",
    "fig11-power", "vc-counts", "ablate-ugal", "ablate-val", "ablate-xi",
]
ALL_EXTRAS = {
    **dict.fromkeys(
        ["fig6a", "fig6b", "fig6c", "fig6d", "fig8a", "fig9", "fig8-oversub"],
        {"workers": 1},
    ),
    "workload_completion": {"workers": 1, "workload": "alltoall"},
    "table4": {"cable_model": "mellanox-fdr10"},
    "fig11-cost": {"cable_model": "mellanox-fdr10"},
}
ALL_QUICK = [
    (name, {"scale": "quick", "seed": 0, **ALL_EXTRAS.get(name, {})})
    for name in ALL_MEMBERS
]

#: Documented experiment command lines (runner and package docstrings,
#: README.md, the CI workflow, examples/) -> the ``run_experiment(name,
#: **kwargs)`` calls they dispatch.  Calls compare with the function's
#: defaults applied, so an option passed at its default equals one left
#: out.
EXPERIMENT_LINES = {
    "fig1": [("fig1", {"scale": "default", "seed": 0})],
    "fig1 --scale quick": [("fig1", {"scale": "quick", "seed": 0})],
    "fig6 --pattern worstcase": [
        ("fig6", {"scale": "default", "seed": 0, "pattern": "worstcase",
                  "workers": 1}),
    ],
    "fig6 --pattern worstcase --scale quick": [
        ("fig6", {"scale": "quick", "seed": 0, "pattern": "worstcase",
                  "workers": 1}),
    ],
    "all --scale quick --json results.json": ALL_QUICK,
    "all --scale quick": ALL_QUICK,
    "fig6-paper": [
        ("fig6-paper", {"scale": "default", "seed": 0, "pattern": "uniform",
                        "workers": 1}),
    ],
    "workload_completion --scale quick --workload all --workers 0": [
        ("workload_completion", {"scale": "quick", "seed": 0, "workload": "all",
                                 "workers": 0}),
    ],
    "workload_completion --scale quick --workload all --workers 2": [
        ("workload_completion", {"scale": "quick", "seed": 0, "workload": "all",
                                 "workers": 2}),
    ],
    "fig9 --scale quick": [("fig9", {"scale": "quick", "seed": 0, "workers": 1})],
    "fig9 --scale quick --workers 2": [
        ("fig9", {"scale": "quick", "seed": 0, "workers": 2}),
    ],
    "fault-degradation --scale quick --workers 0": [
        ("fault-degradation", {"scale": "quick", "seed": 0, "workers": 0}),
    ],
    "fault-degradation --scale quick --workers 2": [
        ("fault-degradation", {"scale": "quick", "seed": 0, "workers": 2}),
    ],
    "fault-degradation --scale paper --workers 8": [
        ("fault-degradation", {"scale": "paper", "seed": 0, "workers": 8}),
    ],
    "fig6a --scale quick --workers 0": [
        ("fig6a", {"scale": "quick", "seed": 0, "workers": 0}),
    ],
    "fig8a --workers 0": [("fig8a", {"scale": "default", "seed": 0, "workers": 0})],
    "fig6d --scale quick --json /tmp/claims-fig6d.json": [
        ("fig6d", {"scale": "quick", "seed": 0, "workers": 1}),
    ],
    "ablate-ugal --scale quick --json /tmp/claims-ablate-ugal.json": [
        ("ablate-ugal", {"scale": "quick", "seed": 0}),
    ],
}

CAMPAIGN = dict(
    out=None, workers=1, resume=False, progress=False, store=None, service=None
)
WORKER = dict(workers=1, progress=False, retry_for=10.0, fail_after=None)
REPORT = dict(
    files=[], scale="default", seed=0, workers=1, cable_model="mellanox-fdr10",
    no_analytics=False, png=False,
)

#: Documented campaign, serve-worker and report command lines -> the
#: parsed values their handlers pass on.  ``N`` and ``<rows.jsonl>``
#: placeholders are filled in.
SERVICE_LINES = {
    # runner docstring
    "campaign grid.json --workers 4 --resume":
        {**CAMPAIGN, "file": "grid.json", "workers": 4, "resume": True},
    "campaign grid.json --store ~/.cache/repro-store":
        {**CAMPAIGN, "file": "grid.json", "store": "~/.cache/repro-store"},
    "campaign grid.json --service 127.0.0.1:7077":
        {**CAMPAIGN, "file": "grid.json", "service": "127.0.0.1:7077"},
    "serve-worker 127.0.0.1:7077 --workers 4":
        {**WORKER, "address": "127.0.0.1:7077", "workers": 4},
    "report --out report/ --workers 4":
        {**REPORT, "out": "report/", "workers": 4},
    "report rows.jsonl --out report/":
        {**REPORT, "files": ["rows.jsonl"], "out": "report/"},
    # README.md and DESIGN.md
    "campaign grid.json --workers 0 --resume":
        {**CAMPAIGN, "file": "grid.json", "workers": 0, "resume": True},
    "report --out report/ --scale quick --workers 0":
        {**REPORT, "out": "report/", "scale": "quick", "workers": 0},
    "report grid.jsonl --out report/":
        {**REPORT, "files": ["grid.jsonl"], "out": "report/"},
    "campaign grid.json --out grid.jsonl --progress":
        {**CAMPAIGN, "file": "grid.json", "out": "grid.jsonl", "progress": True},
    "campaign grid.json --store ~/.cache/repro-store --out again.jsonl":
        {**CAMPAIGN, "file": "grid.json", "store": "~/.cache/repro-store",
         "out": "again.jsonl"},
    "campaign grid.json --service 0.0.0.0:7077":
        {**CAMPAIGN, "file": "grid.json", "service": "0.0.0.0:7077"},
    "serve-worker HOST:7077 --workers 0":
        {**WORKER, "address": "HOST:7077", "workers": 0},
    "report --out report/ --workers 0":
        {**REPORT, "out": "report/", "workers": 0},
    # .github/workflows/ci.yml
    "campaign /tmp/demo/campaign_grid.json --workers 2 --out /tmp/demo/cli.jsonl":
        {**CAMPAIGN, "file": "/tmp/demo/campaign_grid.json", "workers": 2,
         "out": "/tmp/demo/cli.jsonl"},
    "campaign /tmp/demo/campaign_grid.json --workers 2 --out /tmp/demo/cli.jsonl"
    " --resume":
        {**CAMPAIGN, "file": "/tmp/demo/campaign_grid.json", "workers": 2,
         "out": "/tmp/demo/cli.jsonl", "resume": True},
    "campaign /tmp/demo/campaign_grid.json --workers 2 --out /tmp/demo/holes.jsonl"
    " --resume":
        {**CAMPAIGN, "file": "/tmp/demo/campaign_grid.json", "workers": 2,
         "out": "/tmp/demo/holes.jsonl", "resume": True},
    "campaign /tmp/tele/fig9.json --workers 2 --out /tmp/tele/fig9-w1.jsonl"
    " --resume --progress":
        {**CAMPAIGN, "file": "/tmp/tele/fig9.json", "workers": 2,
         "out": "/tmp/tele/fig9-w1.jsonl", "resume": True, "progress": True},
    "campaign /tmp/tele/fig9.json --out /tmp/tele/fig9-torn.jsonl --resume":
        {**CAMPAIGN, "file": "/tmp/tele/fig9.json",
         "out": "/tmp/tele/fig9-torn.jsonl", "resume": True},
    "campaign /tmp/tele/twice.json --out /tmp/tele/twice.jsonl --resume":
        {**CAMPAIGN, "file": "/tmp/tele/twice.json",
         "out": "/tmp/tele/twice.jsonl", "resume": True},
    "campaign /tmp/tele/fig9.json --workers 2 --store /tmp/tele/store"
    " --out /tmp/tele/fig9-cold.jsonl":
        {**CAMPAIGN, "file": "/tmp/tele/fig9.json", "workers": 2,
         "store": "/tmp/tele/store", "out": "/tmp/tele/fig9-cold.jsonl"},
    "campaign /tmp/tele/fig9.json --workers 2 --store /tmp/tele/store"
    " --out /tmp/tele/fig9-warm.jsonl":
        {**CAMPAIGN, "file": "/tmp/tele/fig9.json", "workers": 2,
         "store": "/tmp/tele/store", "out": "/tmp/tele/fig9-warm.jsonl"},
    "campaign /tmp/svc/grid.json --out /tmp/svc/serial.jsonl":
        {**CAMPAIGN, "file": "/tmp/svc/grid.json", "out": "/tmp/svc/serial.jsonl"},
    "campaign /tmp/svc/grid.json --service 127.0.0.1:7077"
    " --out /tmp/svc/service.jsonl --progress":
        {**CAMPAIGN, "file": "/tmp/svc/grid.json", "service": "127.0.0.1:7077",
         "out": "/tmp/svc/service.jsonl", "progress": True},
    "serve-worker 127.0.0.1:7077 --retry-for 30 --fail-after 1":
        {**WORKER, "address": "127.0.0.1:7077", "retry_for": 30.0,
         "fail_after": 1},
    "serve-worker 127.0.0.1:7077 --retry-for 30":
        {**WORKER, "address": "127.0.0.1:7077", "retry_for": 30.0},
    "campaign /tmp/svc/grid.json --store /tmp/svc/store --out /tmp/svc/cold.jsonl":
        {**CAMPAIGN, "file": "/tmp/svc/grid.json", "store": "/tmp/svc/store",
         "out": "/tmp/svc/cold.jsonl"},
    "campaign /tmp/svc/grid.json --store /tmp/svc/store --out /tmp/svc/warm.jsonl":
        {**CAMPAIGN, "file": "/tmp/svc/grid.json", "store": "/tmp/svc/store",
         "out": "/tmp/svc/warm.jsonl"},
    "campaign /tmp/faults/grid.json --workers 1 --out /tmp/faults/w1.jsonl":
        {**CAMPAIGN, "file": "/tmp/faults/grid.json", "workers": 1,
         "out": "/tmp/faults/w1.jsonl"},
    "campaign /tmp/faults/grid.json --workers 2 --out /tmp/faults/w2.jsonl":
        {**CAMPAIGN, "file": "/tmp/faults/grid.json", "workers": 2,
         "out": "/tmp/faults/w2.jsonl"},
    "campaign /tmp/faults/grid.json --workers 2 --out /tmp/faults/w2.jsonl --resume":
        {**CAMPAIGN, "file": "/tmp/faults/grid.json", "workers": 2,
         "out": "/tmp/faults/w2.jsonl", "resume": True},
    "report --out /tmp/report --scale quick --workers 2":
        {**REPORT, "out": "/tmp/report", "scale": "quick", "workers": 2},
    "report --out /tmp/report-w1 --scale quick --workers 1":
        {**REPORT, "out": "/tmp/report-w1", "scale": "quick", "workers": 1},
    "report /tmp/paper/fig6-paper.jsonl --out /tmp/paper/report --no-analytics":
        {**REPORT, "files": ["/tmp/paper/fig6-paper.jsonl"],
         "out": "/tmp/paper/report", "no_analytics": True},
    "report /tmp/paper/fig9-flow.jsonl --out /tmp/paper/fig9-report-a"
    " --no-analytics":
        {**REPORT, "files": ["/tmp/paper/fig9-flow.jsonl"],
         "out": "/tmp/paper/fig9-report-a", "no_analytics": True},
    # examples/
    "campaign campaign_grid.json --workers 4 --out campaign_grid.jsonl --resume":
        {**CAMPAIGN, "file": "campaign_grid.json", "workers": 4,
         "out": "campaign_grid.jsonl", "resume": True},
    "serve-worker HOST:7077 --workers 1 --retry-for 30":
        {**WORKER, "address": "HOST:7077", "retry_for": 30.0},
}


def effective(name: str, kw: dict) -> dict:
    """The arguments an experiment's function receives, defaults applied."""
    entry = EXPERIMENTS[name][0]
    bound = inspect.signature(entry.function()).bind(**{**entry.fixed, **kw})
    bound.apply_defaults()
    return dict(bound.arguments)


def parse(argv: list[str]) -> dict:
    values = vars(build_parser().parse_args(argv))
    assert values.pop("list") is False
    values.pop("run")
    return values


@pytest.mark.parametrize("line", EXPERIMENT_LINES)
def test_documented_experiment_line_dispatches_the_same_call(line):
    args = build_parser().parse_args(shlex.split(line))
    want = EXPERIMENT_LINES[line]
    got = experiment_calls(args)
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, kw), (_, old) in zip(got, want):
        assert effective(name, kw) == effective(name, old)
    argv = shlex.split(line)
    assert args.json == (argv[argv.index("--json") + 1] if "--json" in argv else None)


@pytest.mark.parametrize("line", SERVICE_LINES)
def test_documented_service_line_parses_to_the_same_values(line):
    values = parse(shlex.split(line))
    assert values.pop("command") == line.split()[0]
    assert values == SERVICE_LINES[line]


def test_benchmark_serve_worker_command_parses(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    cmd = workloads.serve_worker_cmd("127.0.0.1:7077")
    assert cmd[1:3] == ["-m", "repro.experiments"]
    assert parse(cmd[3:]) == {
        **WORKER, "command": "serve-worker", "address": "127.0.0.1:7077",
        "retry_for": 30.0,
    }


@pytest.mark.parametrize("argv", [["--list"], []])
def test_list_and_bare_command_print_the_listing(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    for name, (_, description, _) in EXPERIMENTS.items():
        assert f"{name}  " in out and description in out
    assert "--help" in out


@pytest.mark.parametrize("line, flag", [
    ("table2 --workers 4", "--workers"),
    ("table2 --pattern worstcase", "--pattern"),
    ("vc-counts --replicas 7", "--replicas"),
    ("costmodel --cable-model mellanox-qdr56", "--cable-model"),
    ("fig6a --pattern worstcase", "--pattern"),
    ("fig6-paper --replicas 3", "--replicas"),
    ("fig8a --replicas 2", "--replicas"),
    ("all --pattern worstcase", "--pattern"),
    ("table2 --scale quick --workers 4 --pattern worstcase --replicas 3 "
     "--workload gather --cable-model nonexistent", "--cable-model"),
    ("report --out r --png --progress", "--progress"),
])
def test_a_flag_the_command_does_not_take_is_a_usage_error(line, flag, capsys):
    assert main(shlex.split(line)) == 2
    err = capsys.readouterr().err
    assert f"repro.experiments {line.split()[0]}: error: unrecognized" in err
    assert flag in err.splitlines()[-1]


def test_usage_errors_and_help_return_instead_of_exiting(capsys):
    assert main(["nope"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["fig6", "--replicas", "0"]) == 2
    assert main(["table2", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--scale" in out and "--workers" not in out


def test_all_passes_each_option_only_to_members_that_declare_it():
    args = build_parser().parse_args(
        "all --workers 2 --replicas 3 --workload gather "
        "--cable-model mellanox-qdr56 --seed 5".split()
    )
    calls = dict(experiment_calls(args))
    assert list(calls) == ALL_MEMBERS == ALL_ORDER
    for name, kw in calls.items():
        assert set(kw) == {"scale", "seed", *EXPERIMENTS[name][2]}
        assert kw["seed"] == 5
    assert calls["fig6b"] == {"scale": "default", "seed": 5, "workers": 2,
                              "replicas": 3}
    assert calls["workload_completion"]["workload"] == "gather"
    assert calls["table4"]["cable_model"] == "mellanox-qdr56"
    assert calls["table2"] == {"scale": "default", "seed": 5}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_declared_options_are_keyword_parameters_of_the_function(name):
    entry, _, options = EXPERIMENTS[name]
    params = inspect.signature(entry.function()).parameters
    for option in ("scale", "seed", *options):
        assert option in params and option not in entry.fixed, option
        assert params[option].kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY,
        ), option


def test_parsing_service_commands_imports_no_figure_module():
    code = (
        "import sys\n"
        "from repro.experiments.runner import build_parser\n"
        "for argv in (['serve-worker', 'h:1', '--workers', '2'],\n"
        "             ['campaign', 'grid.json', '--resume'],\n"
        "             ['report', 'rows.jsonl', '--out', 'r']):\n"
        "    build_parser().parse_args(argv)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.experiments')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout
    assert out.strip() == str(
        ["repro.experiments", "repro.experiments.common", "repro.experiments.runner"]
    )
