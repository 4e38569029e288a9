"""Seeded mutation fuzz of the four file readers, driven through cli.main.

Each case truncates a valid input, flips bytes in it or drops one cell, then
runs the command that reads it.  Whatever the mutation, cli.main must return
0, 1 or 2 and let no exception escape.  A benign mutation (say, a flipped
parameter byte) may legitimately still succeed.  Only the stdlib drives the
mutations, so a failing case reproduces from the seed and its index.
"""

import random
import re

import pytest

from spikelane import cli

SEED = 20_261_018
CASES = 12  # per reader; keeps the whole file at a few seconds
HEADER_BYTES = 46  # checkpoint header, before the f64 parameters


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "traj.csv"
    assert cli.main(["synth", "--n", "4", "--seed", "2", "--out", str(data)]) == 0
    config = root / "train.cfg"
    config.write_text(
        "# fuzz base\nbatch_size=64\nlearning_rate=0.01\npatience_epochs=3\n"
        "min_loss_delta=0.0001\nseed=12\noptimizer=adam\n"
    )
    run = root / "run"
    assert cli.main(_train(data, config, run)) == 0
    return {"data": data, "config": config, "model": run / "model.spkl", "norm": run / "norm.csv"}


def _train(data, config, out):
    return ["train", "--data", str(data), "--config", str(config), "--stride", "8",
            "--max-epochs", "1", "--out", str(out)]


def _predict(data, model, norm, out):
    return ["predict", "--data", str(data), "--model", str(model), "--norm", str(norm),
            "--vehicle", "veh0000", "--out", str(out)]


def mutate(blob: bytes, rng: random.Random, binary: bool) -> tuple[str, bytes]:
    kind = rng.choice(("truncate", "flip", "drop"))
    out = bytearray(blob)
    if kind == "truncate":
        del out[rng.randrange(len(out)):]
    elif kind == "flip":
        for _ in range(rng.randint(1, 4)):
            out[rng.randrange(len(out))] ^= rng.randrange(1, 256)
    elif binary:  # drop one 8-byte cell, in the header or one f64 parameter
        slot = HEADER_BYTES + 8 * rng.randrange((len(out) - HEADER_BYTES) // 8)
        at = rng.choice((rng.randrange(HEADER_BYTES), slot))
        del out[at : at + 8]
    else:  # drop one comma- or '='-separated cell of one line
        lines = blob.split(b"\n")
        i = rng.randrange(len(lines))
        cells = re.split(rb"[,=]", lines[i])
        del cells[rng.randrange(len(cells))]
        lines[i] = b",".join(cells)
        out = bytearray(b"\n".join(lines))
    return kind, bytes(out)


@pytest.mark.parametrize("reader", ["data", "norm", "model", "config"])
def test_mutated_input_exits_cleanly(reader, files, tmp_path, capsys):
    rng = random.Random(f"{SEED}:{reader}")
    original = files[reader].read_bytes()
    for case in range(CASES):
        kind, blob = mutate(original, rng, binary=reader == "model")
        bad = tmp_path / f"{case}.{reader}"
        bad.write_bytes(blob)
        inputs = dict(files, **{reader: bad})
        out = tmp_path / f"out{case}"
        if reader in ("data", "config"):
            argv = _train(inputs["data"], inputs["config"], out)
        else:
            argv = _predict(inputs["data"], inputs["model"], inputs["norm"], out)
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaping exception is the failure looked for
            pytest.fail(f"case {case} ({kind}) of {reader}: {type(exc).__name__}: {exc}")
        capsys.readouterr()
        assert code in (0, 1, 2), f"case {case} ({kind}) of {reader} returned {code}"
