"""Drivers that run the four DYFLOW stages against a workflow.

Both subclass :class:`~repro.runtime.loop.ControlLoop` (``loop.py``),
the clock-agnostic core of the control loop; each driver adds only its
clock, transport and task control.

* :class:`DyflowOrchestrator` — the simulated driver: stages tick on the
  discrete-event clock, reproducing the paper's experiments
  deterministically.
* :class:`ThreadedDyflow` — the paper-faithful driver: the same stage
  objects wired with real threads and queues, orchestrating real
  numerical kernels on wall-clock time.
"""

from repro.runtime.options import RuntimeOptions
from repro.runtime.sim_driver import DyflowOrchestrator
from repro.runtime.threaded import LiveTaskSpec, ThreadedDyflow

__all__ = ["DyflowOrchestrator", "RuntimeOptions", "ThreadedDyflow", "LiveTaskSpec"]
