"""Generated letter readers against the hand-written letters they replaced.

``MS_LETTER`` and ``PCI_LETTER`` are each declared once and compiled
into one reader per system shape.  The oracle is the hand-written
``letter()`` bodies, kept in ``tests/letter_oracle.py``.  The model
readers are read on the systems ``simulate_abv`` runs (each DUV's
``systemc_factory``), the scenario readers on the regression's.  After
every cycle the reader must equal the oracle in values, key order and
value types (``True`` is not ``1``).
"""

import pytest

from letter_oracle import ms_model_letter, ms_scenario_letter, pci_letter
from repro.abv.letters import LetterDeclaration, each
from repro.models.master_slave.systemc_model import MS_LETTER
from repro.models.pci.systemc_model import PCI_LETTER
from repro.psl.letter import FrozenLetter, freeze_letter
from repro.scenarios.regression import _build_system, build_specs
from repro.sysc import Signal, Simulator
from repro.workbench import default_registry

CYCLES = 200


def simulated(model, *topology, seed=2005):
    """The system ``simulate_abv`` builds for one topology."""
    return default_registry().get(model, *topology).systemc_factory(seed)


def _typed(letter):
    return [(key, type(value), value) for key, value in letter.items()]


def _specs():
    """One spec per (model, topology) that build_specs yields."""
    seen = {}
    for seed in (2005, 7):
        for spec in build_specs(count=40, base_seed=seed, cycles=CYCLES):
            seen.setdefault((spec.model, spec.topology, seed), spec)
    return sorted(seen.values(), key=lambda s: (s.model, s.topology, s.seed))


@pytest.mark.parametrize("spec", _specs(), ids=lambda s: s.label)
def test_scenario_reader_matches_the_oracle(spec):
    system = _build_system(spec)
    oracle = ms_scenario_letter if spec.model == "master_slave" else pci_letter
    for cycle in range(CYCLES):
        system.run_cycles(1)
        letter = system.letter()
        assert isinstance(letter, FrozenLetter)
        assert _typed(letter) == _typed(oracle(system)), f"cycle {cycle}"


@pytest.mark.parametrize("topology", [(1, 1, 1), (2, 1, 2), (2, 2, 3)])
def test_ms_model_reader_matches_the_oracle(topology):
    system = simulated("master_slave", *topology)
    for cycle in range(CYCLES):
        system.run_cycles(1)
        assert _typed(system.letter()) == _typed(ms_model_letter(system))


@pytest.mark.parametrize("topology", [(1, 1), (2, 3), (3, 2)])
def test_pci_model_reader_matches_the_oracle(topology):
    system = simulated("pci", *topology)
    for cycle in range(CYCLES):
        system.run_cycles(1)
        assert _typed(system.letter()) == _typed(pci_letter(system))


def test_the_reader_is_cached_on_the_instance():
    system = simulated("pci", 2, 2)
    assert system.letter is system.letter
    assert type(system).letter is PCI_LETTER


def test_one_factory_per_shape():
    """Systems of one shape share the compiled code; each binds its own
    signals."""
    first = simulated("master_slave", 2, 1, 2, seed=1)
    second = simulated("master_slave", 2, 1, 2, seed=2)
    first.letter(), second.letter()
    shapes = [key for key in MS_LETTER._factories if key[0] == (3, 2)]
    assert len(shapes) == 1
    first.wires.want[0]._current = True
    assert first.letter()["want0"] is True
    assert second.letter()["want0"] is False


def test_a_shape_compiles_its_reader_once():
    """Readers bound before their shape's code exists compile it on
    the first call, once for all of them."""
    declaration = LetterDeclaration(("b0", "bits[0]"))
    first, second = declaration.reader(_Toy(1)), declaration.reader(_Toy(1))
    (shape,) = declaration._factories.values()
    assert shape.factory is None
    first()
    factory = shape.factory
    assert second() == {"b0": False}
    assert shape.factory is factory
    assert first.bound_letter[0] is second.bound_letter[0] is shape


def test_freezing_an_adopted_letter_is_free():
    letter = simulated("master_slave", 1, 1, 1).letter()
    assert freeze_letter(letter) is letter
    assert letter == dict(letter) and hash(letter) == hash(freeze_letter(dict(letter)))


class _Toy:
    def __init__(self, width):
        sim = Simulator()
        self.n = width
        self.bits = [Signal(False, f"b{k}", sim) for k in range(width)]
        self.sel = Signal(0, "sel", sim)
        self.mode = "idle"


class TestDeclarationLanguage:
    def test_any_bool_and_run_time_index(self):
        letter = LetterDeclaration(
            ("anyb", "any(bits)"),
            ("picked", "bool(0 <= sel < n and bits[sel])"),
            ("mode", "mode"),
            each("k", "n", ("b{k}", "bits[k]"), ("is{k}", "sel == k")),
        )
        toy = _Toy(3)
        read = letter.reader(toy)
        assert dict(read()) == {
            "anyb": False, "picked": False, "mode": "idle",
            "b0": False, "is0": True, "b1": False, "is1": False,
            "b2": False, "is2": False,
        }
        toy.bits[2]._current = True
        toy.sel._current = 2
        toy.mode = "busy"
        doc = read()
        assert doc["anyb"] is True and doc["picked"] is True
        assert doc["mode"] == "busy" and doc["is2"] is True
        assert list(doc)[:3] == ["anyb", "picked", "mode"]

    def test_empty_signal_list_is_never_any(self):
        letter = LetterDeclaration(("anyb", "any(bits)"))
        assert letter.reader(_Toy(0))()["anyb"] is False

    def test_signal_list_as_a_value_is_rejected(self):
        with pytest.raises(TypeError, match="any"):
            LetterDeclaration(("raw", "bits")).reader(_Toy(2))

    def test_other_calls_are_rejected(self):
        with pytest.raises(TypeError, match="only any"):
            LetterDeclaration(("n", "len(bits)")).reader(_Toy(2))
