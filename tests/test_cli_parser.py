"""The CLI reads its flags as argparse did, with argparse's error messages.

The tables below were recorded from the argparse parser that the CLI used
before (Python 3.11): for each argv, the namespace it parsed (with the
handler's name for `func`), or the message of the usage error that
`cli.main` prints as a JSON validation error with exit 1.  The CLI's own
parser must give the same namespace and the same bytes for each.  Help
exits 0 and prints a usage line that starts with the command.
"""

import contextlib
import io
import json

import pytest

from tropma import cli

# argv -> the parsed namespace
NAMESPACES = [
    (['validate', '--in', 'a.json', '--out', 'o.json', '--kind', 'cocycle'],
     {'command': 'validate', 'infile': 'a.json', 'out': 'o.json', 'kind': 'cocycle',
      'func': 'cmd_validate'}),
    (['validate', '--in', 'a.json'],
     {'command': 'validate', 'infile': 'a.json', 'out': '', 'kind': 'auto',
      'func': 'cmd_validate'}),
    (['validate', '--in', 'a.json', '--kind', 'auto'],
     {'command': 'validate', 'infile': 'a.json', 'out': '', 'kind': 'auto',
      'func': 'cmd_validate'}),
    (['validate', '--in', 'a.json', '--kind', 'function'],
     {'command': 'validate', 'infile': 'a.json', 'out': '', 'kind': 'function',
      'func': 'cmd_validate'}),
    (['validate', '--in', 'a.json', '--kind', 'decomposition'],
     {'command': 'validate', 'infile': 'a.json', 'out': '', 'kind': 'decomposition',
      'func': 'cmd_validate'}),
    (['validate', '--in', 'a.json', '--kind', 'skeleton'],
     {'command': 'validate', 'infile': 'a.json', 'out': '', 'kind': 'skeleton',
      'func': 'cmd_validate'}),
    (['validate', '--in', 'a.json', '--kind', 'measure'],
     {'command': 'validate', 'infile': 'a.json', 'out': '', 'kind': 'measure',
      'func': 'cmd_validate'}),
    (['validate', '--in', 'a.json', '--ki', 'function', '--o', 'x'],
     {'command': 'validate', 'infile': 'a.json', 'out': 'x', 'kind': 'function',
      'func': 'cmd_validate'}),
    (['validate', '--in', 'a.json', '--out='],
     {'command': 'validate', 'infile': 'a.json', 'out': '', 'kind': 'auto',
      'func': 'cmd_validate'}),
    (['approximate', '--in', 'r.json', '--eps', '1/4', '--seed', '7', '--out', 'o.json'],
     {'command': 'approximate', 'infile': 'r.json', 'out': 'o.json', 'eps': '1/4', 'seed': 7,
      'func': 'cmd_approximate'}),
    (['approximate', '--in', 'r.json'],
     {'command': 'approximate', 'infile': 'r.json', 'out': '', 'eps': None, 'seed': None,
      'func': 'cmd_approximate'}),
    (['approximate', '--in=r.json', '--eps=1/4', '--seed=-3'],
     {'command': 'approximate', 'infile': 'r.json', 'out': '', 'eps': '1/4', 'seed': -3,
      'func': 'cmd_approximate'}),
    (['approximate', '--in', 'r.json', '--e', '1/64', '--s', '3'],
     {'command': 'approximate', 'infile': 'r.json', 'out': '', 'eps': '1/64', 'seed': 3,
      'func': 'cmd_approximate'}),
    (['approximate', '--in', 'r.json', '--seed', '-1'],
     {'command': 'approximate', 'infile': 'r.json', 'out': '', 'eps': None, 'seed': -1,
      'func': 'cmd_approximate'}),
    (['approximate', '--in', 'r.json', '--seed', ' 12 '],
     {'command': 'approximate', 'infile': 'r.json', 'out': '', 'eps': None, 'seed': 12,
      'func': 'cmd_approximate'}),
    (['approximate', '--in', 'r.json', '--seed', '+5'],
     {'command': 'approximate', 'infile': 'r.json', 'out': '', 'eps': None, 'seed': 5,
      'func': 'cmd_approximate'}),
    (['approximate', '--in', 'r.json', '--seed', '1_000'],
     {'command': 'approximate', 'infile': 'r.json', 'out': '', 'eps': None, 'seed': 1000,
      'func': 'cmd_approximate'}),
    (['approximate', '--in', 'r.json', '--eps=-1/4'],
     {'command': 'approximate', 'infile': 'r.json', 'out': '', 'eps': '-1/4', 'seed': None,
      'func': 'cmd_approximate'}),
    (['ma',
      '--in',
      'f.json',
      '--k',
      '3',
      '--region',
      'r.json',
      '--fundamental',
      '--out',
      'o.json'],
     {'command': 'ma', 'infile': 'f.json', 'out': 'o.json', 'k': 3, 'region': 'r.json',
      'fundamental': True, 'func': 'cmd_ma'}),
    (['ma', '--in', 'f.json'],
     {'command': 'ma', 'infile': 'f.json', 'out': '', 'k': 1, 'region': None,
      'fundamental': False, 'func': 'cmd_ma'}),
    (['ma', '--in=f.json', '--k=2'],
     {'command': 'ma', 'infile': 'f.json', 'out': '', 'k': 2, 'region': None,
      'fundamental': False, 'func': 'cmd_ma'}),
    (['ma', '--in', 'f.json', '--fund'],
     {'command': 'ma', 'infile': 'f.json', 'out': '', 'k': 1, 'region': None,
      'fundamental': True, 'func': 'cmd_ma'}),
    (['ma', '--i', 'f.json', '--reg', 'r.json', '--f'],
     {'command': 'ma', 'infile': 'f.json', 'out': '', 'k': 1, 'region': 'r.json',
      'fundamental': True, 'func': 'cmd_ma'}),
    (['ma', '--fundamental', '--in', 'f.json', '--fundamental'],
     {'command': 'ma', 'infile': 'f.json', 'out': '', 'k': 1, 'region': None,
      'fundamental': True, 'func': 'cmd_ma'}),
    (['ma', '--in', 'a.json', '--in', 'b.json', '--k', '1', '--k', '2'],
     {'command': 'ma', 'infile': 'b.json', 'out': '', 'k': 2, 'region': None,
      'fundamental': False, 'func': 'cmd_ma'}),
    (['ma', '--in', 'f.json', '--k', '-2'],
     {'command': 'ma', 'infile': 'f.json', 'out': '', 'k': -2, 'region': None,
      'fundamental': False, 'func': 'cmd_ma'}),
    (['ma', '--in', 'f.json', '--k=-2'],
     {'command': 'ma', 'infile': 'f.json', 'out': '', 'k': -2, 'region': None,
      'fundamental': False, 'func': 'cmd_ma'}),
    (['ma', '--in', '-', '--out', '-'],
     {'command': 'ma', 'infile': '-', 'out': '-', 'k': 1, 'region': None, 'fundamental': False,
      'func': 'cmd_ma'}),
    (['ma', '--in', '-1.5', '--region', '-.5'],
     {'command': 'ma', 'infile': '-1.5', 'out': '', 'k': 1, 'region': '-.5',
      'fundamental': False, 'func': 'cmd_ma'}),
    (['ma', '--in', 'a b', '--region', '-x y'],
     {'command': 'ma', 'infile': 'a b', 'out': '', 'k': 1, 'region': '-x y',
      'fundamental': False, 'func': 'cmd_ma'}),
    (['ma', '--in', 'f.json', '--region='],
     {'command': 'ma', 'infile': 'f.json', 'out': '', 'k': 1, 'region': '', 'fundamental': False,
      'func': 'cmd_ma'}),
    (['skeleton-measure', '--in', 's.json', '--metric', 'f.json', '--out', 'o.json'],
     {'command': 'skeleton-measure', 'infile': 's.json', 'out': 'o.json', 'metric': 'f.json',
      'func': 'cmd_skeleton_measure'}),
    (['skeleton-measure', '--in', 's.json'],
     {'command': 'skeleton-measure', 'infile': 's.json', 'out': '', 'metric': 'canonical',
      'func': 'cmd_skeleton_measure'}),
    (['skeleton-measure', '--in', 's.json', '--m', 'canonical'],
     {'command': 'skeleton-measure', 'infile': 's.json', 'out': '', 'metric': 'canonical',
      'func': 'cmd_skeleton_measure'}),
    (['degree', '--in', 's.json', '--metric', 'f.json', '--out', 'o.json'],
     {'command': 'degree', 'infile': 's.json', 'out': 'o.json', 'metric': 'f.json',
      'func': 'cmd_degree'}),
    (['degree', '--metric=f.json', '--in=s.json'],
     {'command': 'degree', 'infile': 's.json', 'out': '', 'metric': 'f.json',
      'func': 'cmd_degree'}),
    (['mass-check',
      '--in',
      's.json',
      '--metric',
      'canonical',
      '--metric',
      'f.json',
      '--out',
      'o.json'],
     {'command': 'mass-check', 'infile': 's.json', 'out': 'o.json',
      'metric': ['canonical', 'f.json'], 'func': 'cmd_mass_check'}),
    (['mass-check', '--in', 's.json'],
     {'command': 'mass-check', 'infile': 's.json', 'out': '', 'metric': None,
      'func': 'cmd_mass_check'}),
    (['mass-check', '--in', 's.json', '--metric', 'a', '--metric=b', '--m', 'c', '--met=d'],
     {'command': 'mass-check', 'infile': 's.json', 'out': '', 'metric': ['a', 'b', 'c', 'd'],
      'func': 'cmd_mass_check'}),
    (['plot', '--in', 'f.json', '--out', 'c.svg'],
     {'command': 'plot', 'infile': 'f.json', 'out': 'c.svg', 'func': 'cmd_plot'}),
    (['plot', '--in', 'f.json'],
     {'command': 'plot', 'infile': 'f.json', 'out': '', 'func': 'cmd_plot'}),
]

# argv -> the usage error's message
ERRORS = [
    (['ma', '--in', '--x=y'],
     'tropma ma: argument --in: expected one argument'),
    ([],
     'tropma: the following arguments are required: command'),
    (['--in', 'f.json'],
     "tropma: argument command: invalid choice: 'f.json' (choose from 'validate', "
     "'approximate', 'ma', 'skeleton-measure', 'degree', 'mass-check', 'plot')"),
    (['bogus', '--in', 'f.json'],
     "tropma: argument command: invalid choice: 'bogus' (choose from 'validate', "
     "'approximate', 'ma', 'skeleton-measure', 'degree', 'mass-check', 'plot')"),
    (['Ma', '--in', 'f.json'],
     "tropma: argument command: invalid choice: 'Ma' (choose from 'validate', "
     "'approximate', 'ma', 'skeleton-measure', 'degree', 'mass-check', 'plot')"),
    (['-1', 'ma'],
     "tropma: argument command: invalid choice: '-1' (choose from 'validate', "
     "'approximate', 'ma', 'skeleton-measure', 'degree', 'mass-check', 'plot')"),
    (['--foo', 'ma', '--in', 'f.json'],
     'tropma: unrecognized arguments: --foo'),
    (['--foo'],
     'tropma: the following arguments are required: command'),
    (['--'],
     'tropma: the following arguments are required: command'),
    (['--', 'ma', '--in', 'f.json'],
     "tropma: argument command: invalid choice: '--' (choose from 'validate', "
     "'approximate', 'ma', 'skeleton-measure', 'degree', 'mass-check', 'plot')"),
    (['--help=x'],
     "tropma: argument -h/--help: ignored explicit argument 'x'"),
    (['-hx'],
     "tropma: argument -h/--help: ignored explicit argument 'x'"),
    (['ma'],
     'tropma ma: the following arguments are required: --in'),
    (['ma', '--k', '2'],
     'tropma ma: the following arguments are required: --in'),
    (['degree'],
     'tropma degree: the following arguments are required: --in, --metric'),
    (['degree', '--in', 's.json'],
     'tropma degree: the following arguments are required: --metric'),
    (['mass-check', '--metric', 'a'],
     'tropma mass-check: the following arguments are required: --in'),
    (['skeleton-measure', '--out', 'o'],
     'tropma skeleton-measure: the following arguments are required: --in'),
    (['ma', '--in', 'f.json', '--k', 'x'],
     "tropma ma: argument --k: invalid int value: 'x'"),
    (['ma', '--in', 'f.json', '--k', '1.5'],
     "tropma ma: argument --k: invalid int value: '1.5'"),
    (['ma', '--in', 'f.json', '--k='],
     "tropma ma: argument --k: invalid int value: ''"),
    (['approximate', '--in', 'r.json', '--seed', '1.5'],
     "tropma approximate: argument --seed: invalid int value: '1.5'"),
    (['approximate', '--in', 'r.json', '--seed=x'],
     "tropma approximate: argument --seed: invalid int value: 'x'"),
    (['validate', '--in', 'a.json', '--kind', 'bogus'],
     "tropma validate: argument --kind: invalid choice: 'bogus' (choose from 'auto', "
     "'cocycle', 'function', 'decomposition', 'skeleton', 'measure')"),
    (['validate', '--in', 'a.json', '--kind', 'Auto'],
     "tropma validate: argument --kind: invalid choice: 'Auto' (choose from 'auto', "
     "'cocycle', 'function', 'decomposition', 'skeleton', 'measure')"),
    (['validate', '--in', 'a.json', '--kind='],
     "tropma validate: argument --kind: invalid choice: '' (choose from 'auto', 'cocycle', "
     "'function', 'decomposition', 'skeleton', 'measure')"),
    (['ma', '--in', 'f.json', '--bogus'],
     'tropma: unrecognized arguments: --bogus'),
    (['ma', '--in', 'f.json', '--bogus', 'value'],
     'tropma: unrecognized arguments: --bogus value'),
    (['ma', '--in', 'f.json', '-x'],
     'tropma: unrecognized arguments: -x'),
    (['ma', '-in', 'f.json'],
     'tropma ma: the following arguments are required: --in'),
    (['ma', '--in', 'f.json', 'extra'],
     'tropma: unrecognized arguments: extra'),
    (['ma', 'extra', '--in', 'f.json', 'more'],
     'tropma: unrecognized arguments: extra more'),
    (['ma', '--in', 'f.json', '--', 'x'],
     'tropma: unrecognized arguments: -- x'),
    (['ma', '--', '--in', 'f.json'],
     'tropma ma: the following arguments are required: --in'),
    (['ma', '--in', '--', 'f.json'],
     'tropma ma: argument --in: expected one argument'),
    (['ma', '--in', 'f.json', '--'],
     'tropma: unrecognized arguments: --'),
    (['ma', '--in'],
     'tropma ma: argument --in: expected one argument'),
    (['ma', '--in', '--k', '2'],
     'tropma ma: argument --in: expected one argument'),
    (['ma', '--in', 'f.json', '--region', '--fundamental'],
     'tropma ma: argument --region: expected one argument'),
    (['approximate', '--in', 'r.json', '--eps', '-1/4'],
     'tropma approximate: argument --eps: expected one argument'),
    (['approximate', '--in', 'r.json', '--eps'],
     'tropma approximate: argument --eps: expected one argument'),
    (['approximate', '--in', 'r.json', '--eps', '--5'],
     'tropma approximate: argument --eps: expected one argument'),
    (['ma', '--in', 'f.json', '--fundamental=yes'],
     "tropma ma: argument --fundamental: ignored explicit argument 'yes'"),
    (['ma', '--in', 'f.json', '--fundamental='],
     "tropma ma: argument --fundamental: ignored explicit argument ''"),
    (['ma', '--in', 'f.json', '--fu=1'],
     "tropma ma: argument --fundamental: ignored explicit argument '1'"),
    (['ma', '--in', 'f.json', '--=x'],
     'tropma ma: ambiguous option: --=x could match --help, --in, --out, --k, --region, '
     '--fundamental'),
    (['validate', '--in', 'a.json', '--=1'],
     'tropma validate: ambiguous option: --=1 could match --help, --in, --out, --kind'),
    (['ma', '--in', 'f.json', '-hx'],
     "tropma ma: argument -h/--help: ignored explicit argument 'x'"),
    (['ma', '--in', 'f.json', '-h=x'],
     "tropma ma: argument -h/--help: ignored explicit argument 'x'"),
    (['ma', '--in', 'f.json', '-h='],
     "tropma ma: argument -h/--help: ignored explicit argument ''"),
    (['ma', '--in', 'f.json', '-hhx'],
     "tropma ma: argument -h/--help: ignored explicit argument 'x'"),
    (['ma', '--in', 'f.json', '--help='],
     "tropma ma: argument -h/--help: ignored explicit argument ''"),
    (['ma', '--in', 'f.json', '--help=no'],
     "tropma ma: argument -h/--help: ignored explicit argument 'no'"),
    (['ma', '--k', 'x', '--help'],
     "tropma ma: argument --k: invalid int value: 'x'"),
    (['ma', '--in', 'f.json', '-h x'],
     "tropma ma: argument -h/--help: ignored explicit argument ' x'"),
    (['degree', '--in', 's.json', '--metric'],
     'tropma degree: argument --metric: expected one argument'),
    (['mass-check', '--in', 's.json', '--metric'],
     'tropma mass-check: argument --metric: expected one argument'),
    (['plot', '--in', 'f.json', '--metric', 'x'],
     'tropma: unrecognized arguments: --metric x'),
    (['plot', '--', 'x'],
     'tropma plot: the following arguments are required: --in'),
    (['ma', '--in', 'a', '--foo', '--k', 'z'],
     "tropma ma: argument --k: invalid int value: 'z'"),
    (['--bar', 'ma', '--in', 'f.json', '--foo'],
     'tropma: unrecognized arguments: --bar --foo'),
    (['x', '--help'],
     "tropma: argument command: invalid choice: 'x' (choose from 'validate', 'approximate', "
     "'ma', 'skeleton-measure', 'degree', 'mass-check', 'plot')"),
]

# argv -> the command whose help is printed (None: the program's)
HELP = [
    (['--help'], None),
    (['-h'], None),
    (['--he'], None),
    (['--foo', '--help'], None),
    (['-hh'], None),
    (['-h', 'ma'], None),
    (['--help', 'bogus'], None),
    (['validate', '--help'], 'validate'),
    (['approximate', '--help'], 'approximate'),
    (['ma', '--help'], 'ma'),
    (['skeleton-measure', '--help'], 'skeleton-measure'),
    (['degree', '--help'], 'degree'),
    (['mass-check', '--help'], 'mass-check'),
    (['plot', '--help'], 'plot'),
    (['validate', '-h'], 'validate'),
    (['approximate', '-h'], 'approximate'),
    (['ma', '-h'], 'ma'),
    (['skeleton-measure', '-h'], 'skeleton-measure'),
    (['degree', '-h'], 'degree'),
    (['mass-check', '-h'], 'mass-check'),
    (['plot', '-h'], 'plot'),
    (['ma', '--in', 'f.json', '--h'], 'ma'),
    (['ma', '--help', '--k', 'x'], 'ma'),
    (['ma', '-hh'], 'ma'),
    (['approximate', '--he', '--in'], 'approximate'),
    (['mass-check', '--metric', 'a', '-h'], 'mass-check'),
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = ("exit", e.code)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv,expected", NAMESPACES, ids=[" ".join(a) for a, _ in NAMESPACES])
def test_namespace(argv, expected):
    got = dict(vars(cli.parse_args(argv)))
    got["func"] = got["func"].__name__
    assert got == expected


@pytest.mark.parametrize("argv,message", ERRORS, ids=[" ".join(a) or "(none)" for a, _ in ERRORS])
def test_usage_error(argv, message):
    expected = json.dumps({"error": {"kind": "validation", "message": message}},
                          indent=2, sort_keys=True) + "\n"
    assert run(argv) == (1, expected, "")


@pytest.mark.parametrize("argv,command", HELP, ids=[" ".join(a) for a, _ in HELP])
def test_help(argv, command):
    rc, out, err = run(argv)
    assert rc == ("exit", 0) and err == ""
    first = out.splitlines()[0]
    if command is None:
        assert first.startswith("usage: tropma <command>")
        assert all(name in out for name in cli.COMMANDS)
    else:
        assert first.startswith(f"usage: tropma {command} ")
        assert all(f.names[-1] in out for f in cli.COMMANDS[command][2])
