"""The CLI's exit codes under generated arguments and corrupted sweep CSVs.

A seeded generator (stdlib random only) builds argv vectors from the
CLI's grammar, and corrupted copies of a real sweep CSV, and runs each
through cli.main in process. Every case must exit 0, 2 or 3, and print
no traceback:
- argparse's own rejections exit 2 with its usage text, whose last line
  is `plcmac <cmd>: error: ...`;
- any other exit 2 prints exactly one stderr line, starting `error:`,
  and nothing on stdout; when summarize cannot use its input file, or
  cannot write its output, that line names the file;
- exit 3 prints exactly one stderr line, the `simulation error:` line
  that the README documents.

Budget: every generated sweep keeps n <= 64, at most 3 sizes, trials
<= 3, --jobs <= 2 and --max-nc <= 200, so it is one group and starts no
worker. Huge ints, nan, inf and empty strings go only to flags that are
checked before any cell runs, or whose work does not grow with the
value. A huge --max-nc keeps every other flag at a value that finishes.
"""

import random
import re

from plcmac.cli import main
from plcmac.engine import CSV_HEADER

HUGE = str(10**30)
SIZES = [["1"], ["64"], ["2", "7", "33"], ["0"], ["-5"], ["2.5"], ["nan"], [""], []]
RATIOS = [["0.5"], ["0.25", "1.0", "2.0"], ["1e-300"], ["1e17"], ["0"], ["-1"], ["nan"], ["inf"], [""], [HUGE]]
# each flag's values, valid and not; <out>, <dir> and <missing> name paths under the test's directory
SWEEP_FLAGS = {
    "--protocols": [["epmac"], ["pmac", "ieee1901"], ["ieee1901", "ieee1901"], [""], ["csma"]],
    "--n": SIZES,
    "--n-range": [["1", "64", "32"], ["5", "5", HUGE], ["64", "1", "1"], ["1", "9", "0"], ["1", "9", "-2"], ["1", "2"]],
    "--ratios": RATIOS,
    "--ratio-random": [["0.5", "2.0"], ["1e-300", "1e-299"], ["2.0", "0.5"], ["0", "1"], ["nan", "1"], ["0.5", "inf"],
                       ["0.5"], [HUGE, HUGE]],
    "--trials": [["1"], ["3"], ["0"], ["-1"], ["1.5"], [""], ["nan"]],
    "--seed": [["0"], [HUGE], [str(2**64)], ["-1"], [""], ["1.5"], ["inf"]],
    "--jobs": [["1"], ["2"], ["0"], ["-2"], [""], ["1.5"]],
    "--max-layers": [["1"], ["6"], [str(10**6)], ["0"], ["-1"], [""], ["2.5"]],
    "--eta-min": [["0.35"], ["0.999999"], ["0"], ["1"], ["nan"], ["inf"], [""], ["-0.5"]],
    "--tfmax": [["0"], ["3"], [HUGE], ["-1"], [""], ["1.5"]],
    "--k1": [["1.1"], ["1.9"], ["1e299"], ["1"], ["nan"], ["inf"], [""], ["0"]],
    "--k2": [["2.5"], ["1e300"], ["1.0"], ["nan"], ["inf"], [""]],
    "--csma-p": [["0.5"], ["1"], ["1e-300"], ["0"], ["1.5"], ["nan"], ["inf"], [""]],
    "--max-nc": [["1"], ["200"], ["0"], ["-1"], [""], ["1.5"], [HUGE]],
    "--out": [["-"], ["<out>"], ["<dir>"], ["<missing>"], [""]],
    "--config": [["<missing>"], ["<dir>"], [""], ["<config>"], ["<config>"], ["<config>"]],
}
BAD_CONFIGS = [b"n 5\n", b"config = x\n", b"trials = 1 2\n", b"n = 5\nbogus = 1\n", b"ratios = \xff\n", b"=\n"]
SHAPES = [["2"], ["2", "10"], ["1"], ["0"], ["-1"], [""], ["1.5"], ["nan"]]
USAGE_LINE = re.compile(r"plcmac( [a-z-]+)?: error: ")


def _sweep_argv(rng, tmp_path, case):
    """One sweep's argv: a small valid sweep with one to three flags drawn from SWEEP_FLAGS."""
    command = rng.choice(["sweep-single", "sweep-multi"])
    flags = {"--n": rng.choice(SIZES[:3]), "--trials": [str(rng.randint(1, 3))],
             "--max-nc": [rng.choice(["1", "20", "200", "200"])], "--out": ["<out>"]}
    for flag in rng.sample(sorted(SWEEP_FLAGS), rng.randint(1, 3)):
        flags[flag] = rng.choice(SWEEP_FLAGS[flag])
    if "--n-range" in flags and rng.random() < 0.8:
        del flags["--n"]  # else the exclusive pair is an argparse rejection
    if flags["--max-nc"] == [HUGE]:  # a budget past any run's length: every other flag stays at a value that finishes
        flags = {"--n": ["64"], "--trials": ["1"], "--max-nc": [HUGE]}
    if flags.get("--config") == ["<config>"]:
        moved = rng.choice([f for f in flags if f not in ("--config", "--out")])
        lines = f"{moved[2:].replace('-', rng.choice('-_'))} = {' '.join(flags.pop(moved))}\n".encode()
        (tmp_path / f"{case}.cfg").write_bytes(rng.choice([lines, lines, *BAD_CONFIGS]))
    paths = {"<out>": tmp_path / f"{case}.csv", "<dir>": tmp_path, "<missing>": tmp_path / "missing" / "x.csv",
             "<config>": tmp_path / f"{case}.cfg"}
    return [command, *(str(paths.get(token, token)) for flag, values in flags.items() for token in (flag, *values))]


def _argvs(rng, tmp_path, count):
    yield from ([], ["bogus"], ["timing"], ["timing", "--n", "5"], ["sweep-single", "--bogus"], ["complexity", "--m"])
    for case in range(count):
        if case % 8 == 0:
            yield ["complexity", *(token for flag in ("--m", "--k") for token in (flag, *rng.choice(SHAPES)))]
        else:
            yield _sweep_argv(rng, tmp_path, case)


def _check(argv, capsys, named=""):
    """The contract's breach by main(argv), or None; an exit 2's `error:` line must contain named."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's rejection: its usage text, then one `error:` line
        out, err = capsys.readouterr()
        last = err.splitlines()[-1] if err else ""
        if exc.code != 2 or not USAGE_LINE.match(last) or "Traceback" in err:
            return f"argparse exit {exc.code}: {err[-300:]!r}"
        return None
    except Exception as exc:  # an escape: main returns a code for every error it knows
        capsys.readouterr()
        return f"raised {type(exc).__name__}: {exc}"
    out, err = capsys.readouterr()
    lines = err.splitlines()
    usage = len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0] and not out
    if code == 0 or (code == 2 and usage) or (
            code == 3 and len(lines) == 1 and lines[0].startswith("simulation error: ")):
        return None
    return f"exit {code}, stdout {out[:100]!r}, stderr {err[:300]!r}"


def test_generated_command_lines_exit_by_the_contract(tmp_path, capsys):
    rng = random.Random(9)
    breaches = [(argv, why) for argv in _argvs(rng, tmp_path, 240) if (why := _check(argv, capsys))]
    assert not breaches, "\n".join(f"{argv}: {why}" for argv, why in breaches)


def _corrupted(good, rng, count):
    """Named corruptions of a sweep CSV: fixed families, then count copies with random bytes overwritten."""
    header, first, rest = good.split(b"\n", 2)
    fields = first.split(b",")
    with_field = lambda i, value: b"\n".join([header, b",".join([*fields[:i], value, *fields[i + 1:]]), rest])
    yield "bom", b"\xef\xbb\xbf" + good
    yield "nul", with_field(0, b"ep\0mac")
    yield "latin-1", with_field(0, "épmac".encode("latin-1"))
    yield "open-quote", good + b'"epmac,3'
    yield "nan-ratio", with_field(CSV_HEADER.index("ratio"), b"nan")
    yield "nonpositive-ratio", with_field(CSV_HEADER.index("ratio"), b"-1/3")
    yield "5000-digit-int", with_field(CSV_HEADER.index("n_node"), b"9" * 5000)
    yield "cr", good.replace(b"\n", b"\r")
    yield "empty", b""
    yield "long-field", with_field(0, b"x" * 200_000)
    yield "truncated", good[: len(good) // 2]
    for case in range(count):
        data = bytearray(good)
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(data))
            data[at:at + 1] = rng.choice([b",", b'"', b"\0", b"\xff", b"\r", b"\n", b"-", b"x", b"9" * 40, b""])
        yield f"random-{case}", bytes(data)


def test_corrupted_sweep_csvs_exit_by_the_contract_under_every_summarize_mode(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    assert main(["sweep-single", "--n", "3", "5", "--ratios", "0.5", "1.0", "--trials", "2", "--out", str(rows)]) == 0
    rng = random.Random(9)
    breaches = []
    for name, data in [("as-written", rows.read_bytes()), *_corrupted(rows.read_bytes(), rng, 20)]:
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        for mode in ([], ["--best-ratio"], ["--pool-ratios"]):
            if why := _check(["summarize", str(path), *mode], capsys, str(path)):
                breaches.append((name, mode, why))
    missing = str(tmp_path / "missing.csv")
    for argv, named in ((["summarize", str(tmp_path)], str(tmp_path)),
                        (["summarize", str(rows), "--out", str(tmp_path)], str(tmp_path)),
                        (["summarize", missing], missing),
                        (["summarize", str(rows), "--best-ratio", "--pool-ratios"], "")):  # not a file error
        if why := _check(argv, capsys, named):
            breaches.append((argv, [], why))
    assert not breaches, "\n".join(map(str, breaches))
