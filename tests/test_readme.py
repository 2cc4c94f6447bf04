import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_certifies():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    verdict, _beta, product = out.getvalue().split()
    assert verdict == "Certified"
    # the profile reaches the tail, so the product is no trivial 0
    assert 0.0 < float(product) < 1.0
