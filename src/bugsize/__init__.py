"""Size-biased Bayesian estimation of eventual bug sizes from phase-wise
testing logs, a predictive density for the next phase's total, and the
stop-testing decision rule.

`import bugsize` imports no submodule.  Each name is imported from the
module that defines it, e.g. `from bugsize.sampler import run_chain`, so
each CLI command loads only what it runs.
"""

__version__ = "0.1.0"
