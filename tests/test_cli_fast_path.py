"""The CLI's fast path reads exactly what argparse reads, and every
benchmark call takes it.

`cli.parse_args` is `_plain(argv) or _argparse(argv)`: `_plain` answers only
argvs in the canonical form (the command, then each flag by its full name)
and returns None for any other, which argparse then reads.  The property
below draws argvs close to that form, with values chosen to sit on argparse's
edges (a leading '-', '--', '=', spaces, underscores, case), and wherever
`_plain` answers, its namespace must be argparse's.  A mutant `_plain` that
applies the '-' rule only to a value given as the next argument must fail
the property, since argparse reads '--in=--' as an empty list.
"""

from __future__ import annotations

import inspect
import tempfile
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_golden_workloads import GEN, WORKLOADS
from tropma import cli

VALUES = ("a.json", "1/4", "7", "-3", "", " 3", "3_0", "x=y", "--", "-", "auto", "Auto", "--in")
SEEDS = (4, 11, 23)


@st.composite
def argvs(draw):
    """A command and 0-6 of its flags by full name, each value after '=' or
    as the next argument; a switch is sometimes given a value."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    flags = cli.COMMANDS[command][2]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=6)):
        name = flag.names[-1]
        joined = draw(st.booleans())
        if flag.type is bool and not joined:
            argv.append(name)
            continue
        value = draw(st.sampled_from(VALUES))
        argv += [f"{name}={value}"] if joined else [name, value]
    return argv


def fast_path_property(plain, answered):
    """The property for one fast path; answered collects, per argv, whether
    it answered."""
    @settings(max_examples=1500, deadline=None, derandomize=True, database=None)
    @example(["ma", "--in=--"])
    @given(argvs())
    def check(argv):
        got = plain(argv)
        answered.append(got is not None)
        if got is not None:
            assert vars(got) == vars(cli._argparse(argv)), argv
    return check


def test_fast_path_reads_what_argparse_reads():
    answered = []
    fast_path_property(cli._plain, answered)()
    # the property is vacuous unless the fast path answers a fair share of it
    assert sum(answered) >= len(answered) // 40


def test_mutant_with_the_dash_rule_on_two_arguments_only_fails():
    rule = 'if value.startswith("-")'
    source = textwrap.dedent(inspect.getsource(cli._plain))
    assert source.count(rule) == 1
    namespace = dict(vars(cli))
    exec(source.replace(rule, 'if not eq and value.startswith("-")'), namespace)
    mutant = namespace["_plain"]
    assert mutant(["ma", "--in=--"]).infile == "--"
    assert cli._argparse(["ma", "--in=--"]).infile == []
    with pytest.raises(AssertionError):
        fast_path_property(mutant, [])()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_bench_call_takes_the_fast_path(workload, seed):
    with tempfile.TemporaryDirectory() as tmp:
        requests = GEN.generate(workload, seed, tmp)
    assert requests
    for req in requests:
        argv = [req["command"], *req["args"]]
        got = cli._plain(argv)
        assert got is not None, argv
        assert vars(got) == vars(cli._argparse(argv))
