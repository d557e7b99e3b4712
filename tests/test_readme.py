"""The README's CLI examples run as written: every `spinlab ...` line of its
usage block, in order, in a directory holding the files the lines name."""

import json
import shlex
from pathlib import Path

from spinlab import catalog, cli
from spinlab import lattice as lm

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """The usage block's `spinlab` lines, continuations joined, as argv
    lists without the program name."""
    block = README.read_text().split("## CLI examples", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("spinlab ")]


def test_readme_examples_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # af3.json comes from the block's own `catalog` line
    (tmp_path / "hc.json").write_text(
        catalog.build("hard_core", lam=1).to_json())
    lat = lm.parse_lattice("box:6x6+halo")
    (tmp_path / "config.json").write_text(json.dumps({"values": {
        ",".join(map(str, c)): "1" if sum(c) % 2 == 0 else "2"
        for c in lat.coords}}))
    examples = _examples()
    assert len(examples) >= 10 and examples[0][0] == "catalog"
    for argv in examples:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
