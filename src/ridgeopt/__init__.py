"""Ridge method for nonsmooth min-max problems with PO certificates."""

from .expr import (ExprProgram, ExprError, ExprSyntaxError, GradElement,
                   SubdiffSample, parse, eval, grad_select, subdiff_sample,
                   fd_check, to_text)
from .hull import (AtomSet, MinNormCertificate, min_norm_point,
                   caratheodory_reduce)
from .oracles import (YBox, ArgmaxResult, POSample, EmptyPOSample,
                      argmax_grid_refine, po_sample)
from .problems import ProblemSpec, list_problems, load_problem
from .ridge import (StepSchedule, OracleSettings, RunConfig, Trajectory,
                    RunReport, CriticalityCertificate, ridge_step, run,
                    certify_po_critical)
from .fractal import (FractalSet, build_fractal, dist_bounds, g_eval_bounds,
                      column_chains, chain_point, contains_point,
                      axis_projection_length, rotated_projection_length,
                      min_total_variation, subdiff_probe, g_po_sample,
                      g_po_min_norm, probe_radius, ProbeError)

__version__ = "0.1.0"
