#!/usr/bin/env python3
"""Figure 2: from a modified UML sequence diagram to a checked property.

Rebuilds the paper's Figure 2 diagram ("if a bus sends a new request,
then in the next cycle the arbiter will be notified and will make the
arbitration...") with the extended notation -- cycle offsets, the E
(eventually) operator, failure text -- extracts the PSL property,
instantiates it onto concrete design objects, and checks it against
conforming and violating traces with the four-valued semantics and
with a compiled online monitor.

Run:  python examples/sequence_diagram_property.py
"""

from repro.psl import Verdict, compile_property, run_monitor, verdict
from repro.uml import figure2_diagram, instantiate, sequence_to_property


def letter_factory(names):
    def letter(*active):
        return {n: n in active for n in names}

    return letter


def main() -> None:
    diagram = figure2_diagram()
    print("== the Figure 2 diagram ==")
    print(diagram)

    prop = sequence_to_property(diagram)
    print("\n== extracted PSL ==")
    print(prop.formula)
    print(f"report: {prop.report!r}")

    names = sorted(prop.variables())
    letter = letter_factory(names)

    good_trace = [
        letter("bus.new_request"),
        letter("arbiter.notify", "arbiter.arbitrate"),
        letter("bus.send"),
        letter("bus.release"),
        letter(),  # the slave takes its time (E = eventually)
        letter(),
        letter("bus.notify_done"),
        letter("master.forward_notification"),
    ]
    bad_trace = good_trace[:-1] + [letter()]  # notification never forwarded

    print("\n== four-valued semantics ==")
    print(f"conforming trace : {verdict(prop.formula, good_trace).value}")
    print(f"violating trace  : {verdict(prop.formula, bad_trace).value}")

    print("\n== compiled online monitor ==")
    monitor = compile_property(prop)
    result = run_monitor(monitor, bad_trace)
    print(f"monitor verdict  : {result.value} (cycle {monitor.failure_cycle})")
    print(f"monitor report   : {monitor.report()}")
    assert result is Verdict.FAILS

    print("\n== instantiation onto design objects ==")
    concrete = instantiate(
        diagram, {"master": "master0", "slave": "slave1"},
    )
    concrete_prop = sequence_to_property(concrete)
    print("variables:", ", ".join(sorted(concrete_prop.variables())))

    print("\n== the Figure 1 feedback edge: updating the diagram ==")
    # suppose model checking showed the arbiter needs two cycles:
    diagram.replace_message(1, start_offset=2)
    revised = sequence_to_property(diagram, name="figure2_revised")
    print(revised.formula)


if __name__ == "__main__":
    main()
