"""The README's examples run as written."""

import re
from pathlib import Path

import pytest

from tbltag.synth import ChainSpec, markov_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


# A file the example leaves open warns as it is freed; turned into an error
# there, the warning is unraisable, and pytest reports it as such.
@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    spec = ChainSpec(structure_seed=7)
    for draw, name in enumerate(("train.txt", "test.txt", "new.txt"), start=1):
        text = markov_corpus(spec, draw_seed=draw, n_tokens=2000)
        if name == "new.txt":
            text = re.sub(r"/\S+", "", text)  # bare words, as tag reads them
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1 ")  # the first pass of the trace
