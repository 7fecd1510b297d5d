"""The benchmark's tracer finds every name it wraps and puts each one back."""

import importlib
import importlib.util
from pathlib import Path

from euler_refine import cli

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_restored(capsys):
    layers = load_layers()
    modules = {layer: importlib.import_module(f"euler_refine.{layer}")
               for layer in {*layers.SPANS, *layers.IMPORTED}}
    names = [(layer, name) for layer, names in layers.SPANS.items() for name in names]
    names += [(importer, name) for importer, (_, imported) in layers.IMPORTED.items()
              for name in imported]
    before = {(layer, name): getattr(modules[layer], name) for layer, name in names}
    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    try:
        for layer, name in names:
            assert getattr(modules[layer], name) is not before[layer, name], (layer, name)
        assert cli.main(["verify", "--max-n", "4", "--egf-order", "4"]) == 0
    finally:
        uninstall()
    assert "overall: PASS" in capsys.readouterr().out
    for layer, name in names:
        assert getattr(modules[layer], name) is before[layer, name], (layer, name)
    for span in ("cli.main", "verify.run_verification", "perm.count_refinements",
                 "seq.e_ne_nw_pair", "seq.theorem_check", "series.sec_egf"):
        assert tracer.stat(span).calls, span
