"""The paper's two case studies (Section 4).

* :mod:`repro.models.pci` -- the PCI Local Bus standard (Table 1),
* :mod:`repro.models.master_slave` -- the generic Master/Slave bus from
  the SystemC distribution (Table 2).

Each case study ships an ASM model (for FSM generation / model
checking), a PSL property suite, and a SystemC simulation model (for
assertion-based verification).  Its ``duv`` module bundles them for
the workbench; it sits at the workbench layer, so the package
``__init__`` never imports it -- :mod:`repro.workbench.registry`
resolves ``"pci"`` / ``"master_slave"`` straight to ``duv.build_duv``.
"""
