"""Defaults shared by the analysis modules and the command line.

Each value is defined here once.  The module imports nothing from the
package, so the CLI parser can read it without loading an analysis
module.
"""

# Local polynomial kernels, in the order the CLI lists them.
KERNELS = ("triangular", "uniform", "epanechnikov")

# First stages smaller than this in absolute value are rejected as weak.
WEAK_FIRST_STAGE_THRESHOLD = 0.05

# A two-sided normal quantile inv_cdf(1 - alpha/2) needs 1 - alpha/2 to
# round below 1, so a test's alpha must exceed this and a confidence
# level must stay below 1 minus it.
SMALLEST_ALPHA = 2.0 ** -53

# Permutation inference: Monte Carlo draws, the largest assignment count
# enumerated exactly, and the balance p-value window selection requires.
DRAWS = 9999
MAX_EXHAUSTIVE = 200000
BALANCE_ALPHA = 0.15
# A Monte Carlo Bernoulli test redraws each assignment that leaves a
# group empty; it refuses a probability that gives such assignments at
# least this share of the draws.
MAX_DEGENERATE_SHARE = 0.99
# Window selection's own budget for its balance tests.
SELECT_DRAWS = 999
SELECT_MAX_EXHAUSTIVE = 2000

# Validation battery: donut radii, bandwidth multipliers and density-test
# histogram bins per side.
DONUT_RADII = (0.0, 0.05, 0.1)
SENSITIVITY_FACTORS = (0.5, 0.75, 1.0, 1.25, 1.5)
BINS_PER_SIDE = 20

# Coverage simulations: the fewest replications a coverage rate rests
# on, and the sample size and replication count of a default run.
MIN_REPLICATIONS = 500
SIMULATE_N = 1000
SIMULATE_REPLICATIONS = 2000

# Bytes per read when a file is hashed, so it is never held whole.
READ_BLOCK = 1 << 16

# CSV parse cache: the most bytes of parsed columns kept on disk under
# $XDG_CACHE_HOME/rd-toolkit; the least recently used entries go first.
# A 1e6-row file with two bound columns takes 16 MB.
PARSE_CACHE_BYTES = 256 * 2 ** 20
