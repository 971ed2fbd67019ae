"""The hand-written monitor letters the declared ones replaced.

Kept verbatim as the differential oracle for the generated readers of
``MS_LETTER`` and ``PCI_LETTER`` (``tests/test_letter_readers.py``).
"""

from typing import Any, Dict


def ms_scenario_letter(system) -> Dict[str, Any]:
    wires = system.wires
    letter: Dict[str, Any] = {"bus_free": wires.owner.read() == -1}
    for i in range(system.n_masters):
        letter[f"want{i}"] = wires.want[i].read()
        letter[f"owner{i}"] = wires.owner.read() == i
        letter[f"transferring{i}"] = wires.transferring[i].read()
        letter[f"blocking{i}"] = system.masters[i].blocking
        letter[f"done{i}"] = system.masters[i].done
    for j in range(system.n_slaves):
        letter[f"slave{j}_busy"] = wires.slave_busy[j].read()
    return letter


def ms_model_letter(system) -> Dict[str, Any]:
    wires = system.wires
    letter: Dict[str, Any] = {"bus_free": wires.owner.read() == -1}
    for i in range(system.n_masters):
        letter[f"want{i}"] = wires.want[i].read()
        letter[f"owner{i}"] = wires.owner.read() == i
        letter[f"transferring{i}"] = wires.transferring[i].read()
        letter[f"blocking{i}"] = system.masters[i].blocking
        letter[f"done{i}"] = False  # endless traffic never parks a master
    for j in range(system.n_slaves):
        letter[f"slave{j}_busy"] = wires.slave_busy[j].read()
    return letter


def pci_letter(system) -> Dict[str, Any]:
    """The PCI letter, of the regression's and the simulated system."""
    wires = system.wires
    addressed = wires.addr.read()
    letter: Dict[str, Any] = {
        "frame": wires.frame.read(),
        "irdy": wires.irdy.read(),
        "bus_idle": (not wires.frame.read()) and wires.owner.read() == -1,
        "devsel": any(s.read() for s in wires.devsel),
        "trdy": any(s.read() for s in wires.trdy),
        "stop_any": any(s.read() for s in wires.stop),
        "stop_addressed": bool(
            0 <= addressed < system.n_targets
            and wires.stop[addressed].read()
        ),
    }
    for i in range(system.n_masters):
        letter[f"req{i}"] = wires.req[i].read()
        letter[f"gnt{i}"] = wires.gnt[i].read()
        letter[f"owner{i}"] = wires.owner.read() == i
        letter[f"master{i}_idle"] = system.masters[i].idle_flag.read()
        letter[f"master{i}_data"] = system.masters[i].data_flag.read()
    for j in range(system.n_targets):
        letter[f"devsel{j}"] = wires.devsel[j].read()
        letter[f"trdy{j}"] = wires.trdy[j].read()
        letter[f"stop{j}"] = wires.stop[j].read()
    return letter
