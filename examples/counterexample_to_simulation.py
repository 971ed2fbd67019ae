#!/usr/bin/env python3
"""From a model-checking counterexample to a waveform.

The paper's two verification legs meet here: the FSM explorer finds a
violation and produces a *complete scenario*; the scenario is replayed
on the translated SystemC design, traced to a VCD file, and the same
PSL property -- now a runtime monitor -- fires at the same point.

Run:  python examples/counterexample_to_simulation.py
"""

from repro.asm import AsmMachine, AsmModel, StateVar, action, choose_min, require
from repro.explorer import ExplorationConfig, counterexample_to_dot, explore
from repro.psl import AssertionProperty, Verdict, compile_property, parse_formula
from repro.translate import build_runtime


class Master(AsmMachine):
    m_req = StateVar(False)
    m_gnt = StateVar(False)

    @action
    def request(self):
        require(not self.m_req and not self.m_gnt)
        self.m_req = True

    @action
    def done(self):
        require(self.m_gnt)
        self.m_gnt = False


class RacyArbiter(AsmMachine):
    """The seeded bug: no mutual exclusion on grants."""

    @action
    def grant(self):
        masters = self.model.machines_of(Master)
        requesting = [i for i, m in enumerate(masters) if m.m_req]
        require(requesting)
        winner = choose_min(requesting)
        masters[winner].m_req = False
        masters[winner].m_gnt = True


def build() -> AsmModel:
    model = AsmModel("racy_bus")
    Master(model=model, name="m0")
    Master(model=model, name="m1")
    RacyArbiter(model=model, name="arbiter")
    model.seal()
    return model


def main() -> None:
    mutex = parse_formula("never (m0.m_gnt && m1.m_gnt)")

    # -- 1. find the violation at the ASM level ------------------------------
    print("== FSM generation finds the violation ==")
    result = explore(
        build(), ExplorationConfig(properties=[AssertionProperty(mutex, name="mutex")])
    )
    assert result.counterexample is not None
    print(result.summary())
    print(result.counterexample.describe())

    print("\n-- counterexample as DOT (paste into graphviz) --")
    print(counterexample_to_dot(result.counterexample))

    # -- 2. replay the exact scenario on the translated design ----------------
    print("\n== replaying on the SystemC level ==")
    model = build()
    simulator, clock, module = build_runtime(model)

    from repro.sysc import VcdTracer

    tracer = VcdTracer(simulator)
    for signal in module.state_signals.values():
        tracer.trace(signal)

    monitor = compile_property(mutex, name="mutex")
    monitor.reset()

    calls = result.counterexample.calls()
    scripted = iter(calls)

    # drive the runtime with the scripted scenario instead of a policy
    class ScriptedPolicy:
        name = "scripted"

        def choose(self, enabled, cycle):
            try:
                wanted = next(scripted)
            except StopIteration:
                return None
            return wanted if wanted in enabled else None

    module.policy = ScriptedPolicy()
    for _ in range(len(calls) + 2):
        simulator.run(clock.period)
        monitor.step(module.letter())
        if monitor.verdict() is Verdict.FAILS:
            break

    print(f"monitor verdict after replay: {monitor.verdict().value}")
    assert monitor.verdict() is Verdict.FAILS

    # -- 3. the waveform ---------------------------------------------------------
    vcd = tracer.dump()
    print(f"\n-- VCD waveform ({len(vcd.splitlines())} lines, excerpt) --")
    print("\n".join(vcd.splitlines()[:14]))


if __name__ == "__main__":
    main()
