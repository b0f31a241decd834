"""Seeded fuzz gate: no input escapes as a traceback or a RuntimeWarning.

Every case runs ``fairmw.cli.main`` in-process on one worker and must end
in a documented exit code (0, 2, 3, 4 or 5), with no exception and no
RuntimeWarning.  The inputs are the golden configs, the bundled presets
and the toy CSVs of ``test_golden``:

* boundary values per config key: wherever the key's CONFIG_KEYS entry
  flips between accepting and rejecting along a ladder of numbers, the
  flip is bisected down to adjacent values and both sides are run;
* hostile values whatever the table says of them (subnormals, the largest
  doubles, integers past any allocation), so a range that is too wide
  shows up as an escape rather than as a moved boundary;
* junk values that no parser accepts;
* seeded mutations of whole files: a dropped line, a duplicated line or
  one flipped byte.

The generator is stdlib ``random`` with a fixed seed, so a failure
reproduces; its message names the case.
"""

import random
import struct
import warnings
from pathlib import Path

import fairmw
from fairmw.cli import build_spec, main
from fairmw.domain import CONFIG_KEY, CONFIG_KEYS
from fairmw.ingest import BUNDLED_PRESETS, parse_pairs, preset_path

from test_golden import CASES, TOY_PRESET, TWO_GROUP_PRESET

INTS = [-1, 0, 1, 2, 2 ** 31, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 10 ** 22]
FLOATS = [-1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-320, 1e-300, 1e-20, 1e-16, 1e-13, 1e-6,
          0.5, 1.0, 2.0, 1e300, 1e308, 1.7976931348623157e308]
JUNK = ["", "nan", "inf", "-1e999", "x", "0x10", "1,2"]
HOSTILE_FLOATS = [-1e308, 5e-324, 1e-320, 1e-16, 1e308, 1.7976931348623157e308]
# Past 2**48 bytes no (T, 7) array can be mapped, so an admitted horizon
# fails at once.  trials and experts.epochs count loops: a huge admitted
# value would just run, so they get no hostile integers.
HOSTILE_INTS = [2 ** 62, 2 ** 63, 10 ** 22]
LOOP_COUNTS = ("trials", "experts.epochs")
EXITS = (0, 2, 3, 4, 5)


def _order(x: float) -> int:
    """Doubles as integers in the same order; adjacent doubles differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", abs(x)))[0]
    return -bits if x < 0 else bits


def _double(k: int) -> float:
    x = struct.unpack("<d", struct.pack("<q", abs(k)))[0]
    return -x if k < 0 else x


def edge_values(name: str, run) -> list[str]:
    """Raw values on both sides of every point where the table's verdict on
    ``name`` flips along FLOATS or INTS (whichever its parser reads),
    bisected down to adjacent doubles or integers, then the hostile values
    of that kind."""
    key = CONFIG_KEY.get(name) or CONFIG_KEY["experts.profile.<name>"]
    raw = repr if name in CONFIG_KEY else (lambda v: f"{v!r}, 0.1, 0.1, 0.1")

    def parses(v) -> bool:
        try:
            return not isinstance(key.parse(raw(v)), str)
        except (ValueError, KeyError):
            return False

    def accepts(v) -> bool:
        return parses(v) and key.ok(key.parse(raw(v)), run)

    if parses(0.5):
        ladder, to_k, from_k, out = FLOATS, _order, _double, list(map(raw, HOSTILE_FLOATS))
    elif parses(1):
        ladder, to_k, from_k = INTS, int, int
        out = [] if name in LOOP_COUNTS else list(map(raw, HOSTILE_INTS))
    else:
        return []                        # a text key: no numeric range
    for lo, hi in zip(ladder, ladder[1:]):
        side = accepts(lo)
        if side == accepts(hi):
            continue
        a, b = to_k(lo), to_k(hi)
        while b - a > 1:
            mid = (a + b) // 2
            a, b = (mid, b) if accepts(from_k(mid)) == side else (a, mid)
        out += [raw(from_k(a)), raw(from_k(b))]
    return out


def mutate(text: str, rng: random.Random) -> bytes:
    """One dropped line, duplicated line or flipped byte (xor a random
    non-zero byte)."""
    lines = text.encode().splitlines(keepends=True)
    kind = rng.randrange(3)
    i = rng.randrange(len(lines))
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    else:
        data = bytearray(b"".join(lines))
        j = rng.randrange(len(data))
        data[j] ^= rng.randrange(1, 256)
        return bytes(data)
    return b"".join(lines)


def with_key(text: str, name: str, value: str) -> str:
    lines = [line for line in text.splitlines() if line.partition("=")[0].strip() != name]
    return "\n".join(lines + [f"{name} = {value}"]) + "\n"


# The golden case each key is varied in: one that reads it.  The largest
# horizon runs in mw, where only the allocation can fail (exit 4).
BASE = {"horizon": "mw", "data.": "dataset_builtin", "experts.kinds": "dataset_builtin",
        "experts.include_group": "dataset_builtin", "experts.epochs": "dataset_builtin",
        "experts.file": "file_experts", "stream.": "mw"}


def base_case(name: str) -> str:
    return next((case for prefix, case in BASE.items() if name.startswith(prefix)),
                "fairness_stride")


def generate(rng: random.Random, mutations: int = 200):
    """(label, golden case, {file: bytes}, subcommand) for every fuzz run."""
    for key in CONFIG_KEYS:
        for name in key.names:
            name = name.replace("<name>", "sharp")
            # RunConfig's keys run in mw too, whose bound report reads eta alone
            for case in dict.fromkeys((base_case(name), "mw" if key.field else base_case(name))):
                text = CASES[case][0]
                run = build_spec({k: v for _, k, v in parse_pairs(text, case, ValueError)}).run
                for i, value in enumerate(edge_values(name, run) + rng.sample(JUNK, 2)):
                    yield (f"{name} = {value!r} in {case}", case,
                           {"exp.cfg": with_key(text, name, value).encode()},
                           ("run", "validate-bounds")[i % 2])
    configs, data = ("run", "validate-bounds"), ("stats", "run")
    bundled = (Path(fairmw.__file__).parent / "presets" / "synthetic_biased.cfg").read_text()
    inputs = [(f"config {case}", case, "exp.cfg", CASES[case][0], configs)
              for case in sorted(CASES)]
    inputs += [("config synthetic_biased.cfg", "fairness_aware", "exp.cfg",
                with_key(bundled, "trials", "2"), configs)]
    inputs += [(f"{f} of {case}", case, f, content, data if "toy.csv" in files else configs)
               for case in ("dataset_builtin", "dataset_group_aware", "file_experts")
               for files in [CASES[case][1]] for f, content in files.items()]
    inputs += [(f"preset {p}", "dataset_builtin", "toy.preset", text, data)
               for p, text in (("toy", TOY_PRESET), ("two_group", TWO_GROUP_PRESET))]
    inputs += [(f"bundled preset {p}", "dataset_builtin", "toy.preset",
                preset_path(p).read_text(encoding="utf-8"), data) for p in BUNDLED_PRESETS]
    for n in range(mutations):
        label, case, target, text, subs = inputs[n % len(inputs)]
        yield f"{label}, mutation {n}", case, {target: mutate(text, rng)}, rng.choice(subs)


def test_fuzzed_inputs_end_in_documented_exit_codes(tmp_path, monkeypatch, capsys):
    failures = []
    for n, (label, case, edits, sub) in enumerate(generate(random.Random(20261020))):
        work = tmp_path / str(n)
        work.mkdir()
        monkeypatch.chdir(work)
        text, files = CASES[case]
        for fname, content in {"exp.cfg": text, **files}.items():
            (work / fname).write_bytes(content.encode())
        for fname, data in edits.items():
            (work / fname).write_bytes(data)
        if sub == "stats":
            argv = ["stats", "--data", "toy.csv", "--preset", "toy.preset"]
        else:
            argv = [sub, "--config", "exp.cfg", "--out", "out", "--workers", "1"]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
        except BaseException as e:    # any escape is the finding
            failures.append(f"{label} ({sub}): {type(e).__name__}: {e}")
            continue
        err = capsys.readouterr().err
        if code not in EXITS or "Traceback" in err:
            failures.append(f"{label} ({sub}): exit {code}: {err[-300:]}")
    assert not failures, "\n".join(failures)
