"""The public surface: every export resolves and the README example runs."""

import importlib
import pkgutil
import re
from pathlib import Path

import fairmw

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    modules = [fairmw] + [importlib.import_module(f"fairmw.{info.name}")
                          for info in pkgutil.iter_modules(fairmw.__path__)]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_readme_library_snippet_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    fpr_gap, fnr_gap, margin = capsys.readouterr().out.split()
    assert float(margin) >= -1e-9


def test_readme_config_table_lists_the_config_keys():
    # README's Config reference is one row per CONFIG_KEYS entry: the same
    # names, raw defaults (— for none), range text and mode (always for
    # none), in the same order.
    from fairmw.domain import CONFIG_KEYS

    text = README.read_text(encoding="utf-8")
    section = text[text.index("| Key | Default | Range | Read when | Meaning |"):]
    rows = []
    for line in section.splitlines()[2:]:
        if not line.startswith("|"):
            break
        names, default, range_text, when = (c.strip() for c in line.strip("|").split(" | ")[:4])
        rows.append((tuple(re.findall(r"`([^`]+)`", names)),
                     None if default == "—" else default.strip("`"), range_text,
                     None if when == "always" else when.strip("`")))
    assert rows == [(key.names, key.default, key.range, key.mode) for key in CONFIG_KEYS]
