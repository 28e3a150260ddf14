"""Hash the CLI artifacts of a tiny fixed config, to show that a refactor keeps the bits.

Runs ``train``, ``eval`` of the student and of the teacher, ``inspect --teacher``,
``gemm-bench --no-time --config`` and ``ablate`` (at ``steps: 1, teacher_steps: 1``)
on the ``TINY`` config of ``tests/test_checkpoint_cli.py`` in a temporary
directory. Prints ``name sha256`` for each of the 15 artifacts, then a
``combined`` line: the sha256 of those lines. Run it on two trees and compare:

    PYTHONPATH=src python3 tools/same_bits.py

Then it hashes the artifacts again, with each 64-hex config hash masked and
each checkpoint's config echo left out: one ``content name sha256`` line per
artifact, and a last ``content`` line, the sha256 of those. A change to the
config alone (a field added, renamed or removed) moves ``combined`` but keeps
``content`` whenever it keeps the numbers; a change that moves ``content``
shows in the line of the artifact it moved.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from squant.cli import main as cli_main

TINY = {"steps": 5, "seed": 0, "corpus_length": 512, "teacher_steps": 5, "teacher_lr": 0.3, "lr": 0.05}
CONFIG_HASH = re.compile(rb"[0-9a-f]{64}")


def run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(list(argv))
    if code != 0:
        sys.exit(f"squant {' '.join(argv)} exited {code}")


def content(path: Path) -> bytes:
    """The artifact's bytes without the config: hashes masked, a checkpoint's echo left out.

    Checkpoints written before their header lost ``extra`` (the role and the
    config hash, both implied by the rest) have it left out too.
    """
    raw = path.read_bytes()
    if path.suffix != ".ckpt":
        return CONFIG_HASH.sub(b"<config_hash>", raw)
    end = 12 + int.from_bytes(raw[8:12], "little")  # magic, version, header length, JSON header, tensors
    header = json.loads(raw[12:end])
    del header["config"]
    header.pop("extra", None)
    return raw[:8] + json.dumps(header, sort_keys=True).encode() + raw[end:]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = root / "tiny.json"
        cfg.write_text(json.dumps(TINY))
        ablate_cfg = root / "ablate.json"
        ablate_cfg.write_text(json.dumps({**TINY, "steps": 1, "teacher_steps": 1}))
        train = root / "train"
        run("train", "--config", str(cfg), "--out", str(train))
        run("eval", "--checkpoint", str(train / "student.ckpt"), "--out", str(root / "eval_student"))
        run("eval", "--checkpoint", str(train / "teacher.ckpt"), "--out", str(root / "eval_teacher"))
        run("inspect", "--checkpoint", str(train / "student.ckpt"), "--teacher", str(train / "teacher.ckpt"),
            "--out", str(root / "inspect"))
        run("gemm-bench", "--no-time", "--config", str(cfg), "--out", str(root / "gemm_bench"))
        run("ablate", "--config", str(ablate_cfg), "--out", str(root / "ablate"))
        paths = sorted(root.glob("*/*"))
        text = "".join(f"{p.relative_to(root)} {hashlib.sha256(p.read_bytes()).hexdigest()}\n" for p in paths)
        masked = "".join(f"{p.relative_to(root)} {hashlib.sha256(content(p)).hexdigest()}\n" for p in paths)
    print(text, end="")
    print(f"combined {hashlib.sha256(text.encode()).hexdigest()}")
    print("".join(f"content {line}\n" for line in masked.splitlines()), end="")
    print(f"content {hashlib.sha256(masked.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
