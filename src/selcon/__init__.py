"""Training-subset selection for constrained ridge regression.

Selects k training points by minimizing the optimal value of a
validation-constrained regularized regression objective, written as a
max-min problem over model parameters and box-bounded multipliers.  The set
function this induces is monotone with a certifiable submodularity ratio and
curvature, which powers a majorization-minimization driver with an
approximation guarantee; exhaustive desk-scale oracles verify every claimed
property.  The package re-exports nothing: import its modules
(``selcon.cli``, ``selcon.setfn``, ...) directly.
"""

__version__ = "0.1.0"
