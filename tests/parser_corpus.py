"""A seeded corpus of command lines on which `cli._parse_args` must agree
with the full argparse parser: the same namespace or the same usage error.

The argvs are drawn from `cli._COMMANDS`, the declarations of every subcommand.
Most are well formed: both value spellings, repeated ``--param``, options
before and after the positional, integer options as digits.  The rest carry
one or two mutations that argparse alone handles: abbreviations, ``--``,
``-h``, values and positionals that start with ``-``, ``--flag=x``,
``--opt=``, repeats, missing or extra words, bad integers.

`tests/test_cli.py` runs the comparison under pytest.  It also runs as a
script, so Python versions without pytest can check it:

    PYTHONPATH=src python tests/parser_corpus.py [COUNT] [SEED]

It prints the argvs compared, how many were read plain and how many
disagreed, and exits 1 on any disagreement.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys

from dynrat import cli

# Words that stand for a value, none starting with "-"
VALUES = ["invest,pull_back", "w,x", "delta", "0:1", "1/64", "a=1", "delta=9/10", "R=4",
          "w,x@X:1/2,w,y@Y:1/2", "x:1/2,y:1/2", "r.json", "s.json", "x=", "=1", "a b"]
DASHED = ["-1:1", "-5", "-x", "--", "-", "--seq", "-1/2:0", "-h"]
BAD_INTS = ["x", "1.5", "", "0x10", "1e3", "--", "-"]


def _value(rng: random.Random, keywords: dict) -> str:
    if keywords.get("type") is int:
        return str(rng.randrange(0, 60))
    return rng.choice(VALUES)


def _well_formed(rng: random.Random, name: str, arguments: tuple) -> list[str]:
    """One argv of ``name`` that gives every required word, some optional
    ones and a few ``--param`` pins, in either spelling and in any order."""
    positional, chunks = [], []
    for option, keywords in arguments:
        if option[0] != "-":
            positional.append(rng.choice(["p.json", "r.json", "chain.json"]))
            continue
        action = keywords.get("action")
        times = rng.choice([0, 1, 1, 2, 3]) if action == "append" else (
            1 if keywords.get("required") or rng.random() < 0.5 else 0)
        for _ in range(times):
            if action == "store_true":
                chunks.append([option])
            elif rng.random() < 0.5:
                chunks.append([option, _value(rng, keywords)])
            else:
                chunks.append([f"{option}={_value(rng, keywords)}"])
    rng.shuffle(chunks)
    chunks.insert(rng.randrange(len(chunks) + 1), positional)
    return [name] + [word for chunk in chunks for word in chunk]


def _mutated(rng: random.Random, argv: list[str], arguments: tuple) -> list[str]:
    """``argv`` with one change the plain reader leaves to argparse, or with
    a repeat, which it reads."""
    argv = list(argv)
    rest = range(1, len(argv) + 1)  # where a word may go after the command
    options = [word for word, _ in arguments if word.startswith("--")]
    kind = rng.randrange(11)
    if kind == 0:  # an abbreviation, perhaps ambiguous or exact
        option = rng.choice(options)
        word = option[:rng.randrange(3, len(option) + 1)]
        argv.insert(rng.choice(rest), word)
        argv.insert(argv.index(word) + 1, rng.choice(VALUES))
    elif kind == 1:
        argv.insert(rng.choice(rest), "--")
    elif kind == 2:
        argv.insert(rng.choice(rest), rng.choice(["-h", "--help", "--he", "-h=x"]))
    elif kind == 3:  # a dashed word where a value or the positional goes
        argv.insert(rng.choice(rest), rng.choice(DASHED))
    elif kind == 4:  # a flag given a value, or an empty value
        option = rng.choice(options)
        argv.insert(rng.choice(rest), option + rng.choice(["=", "=x", "=-1"]))
    elif kind == 5 and len(argv) > 1:  # a word repeated
        k = rng.randrange(1, len(argv))
        argv.insert(rng.choice(rest), argv[k])
    elif kind == 6 and len(argv) > 1:  # a word missing
        del argv[rng.randrange(1, len(argv))]
    elif kind == 7:  # an extra word
        argv.insert(rng.choice(rest), rng.choice(VALUES))
    elif kind == 8:  # a bad or dashed integer
        ints = [word for word, keywords in arguments if keywords.get("type") is int]
        if ints:
            argv += [rng.choice(ints), rng.choice(BAD_INTS)]
    elif kind == 9:  # an unknown option, a short option glued to its value
        argv.insert(rng.choice(rest), rng.choice(["--bogus", "-n5", "-x", "--seed5", "---seq"]))
    else:  # a first word that is no subcommand
        argv[0] = rng.choice(["--pretty", "nope", "-h", "check", "--", "CHECK-SEQ"])
    return argv


def corpus(count: int = 4000, seed: int = 0) -> list[list[str]]:
    """``count`` argvs over every subcommand: three in five well formed,
    the others mutated once or twice."""
    rng = random.Random(seed)
    argvs: list[list[str]] = [[]]
    while len(argvs) < count:
        name = rng.choice(sorted(cli._COMMANDS))
        arguments = cli._COMMANDS[name][1]
        argv = _well_formed(rng, name, arguments)
        for _ in range(0 if rng.random() < 0.6 else rng.choice([1, 1, 2])):
            argv = _mutated(rng, argv, arguments)
        argvs.append(argv)
    return argvs


def outcome(parse, argv: list[str]):
    """What ``parse`` makes of ``argv``: its namespace, its usage error, or
    the exit and output of ``-h``."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "namespace", vars(parse(list(argv)))
    except cli.UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


def compare(argvs: list[list[str]]) -> tuple[int, list[list[str]]]:
    """How many of ``argvs`` the plain reader reads, and those on which
    `cli._parse_args` and the full parser disagree."""
    parser = cli._build_parser()
    plain = sum(1 for argv in argvs if argv and argv[0] in cli._COMMANDS
                and cli._read_plain(cli._COMMANDS[argv[0]][1], argv[1:]) is not None)
    wrong = [argv for argv in argvs
             if outcome(cli._parse_args, argv) != outcome(parser.parse_args, argv)]
    return plain, wrong


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 4000
    seed = int(argv[1]) if len(argv) > 1 else 0
    argvs = corpus(count, seed)
    plain, wrong = compare(argvs)
    print(f"Python {sys.version.split()[0]}: {len(argvs)} argvs, {plain} plain, "
          f"{len(wrong)} mismatches")
    for bad in wrong[:10]:
        print("  mismatch:", bad)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
