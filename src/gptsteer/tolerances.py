"""Every tolerance the library checks at, named for what it bounds.  Modules
read them from here only; each CLI verdict echoes LP_FEASIBILITY, LP_GAP and
CERTIFICATE.  selftest.py keeps the acceptance battery's own pass bounds.
Geometry normalizes its rows and the LP checks scale by their data."""

LP_FEASIBILITY = 1e-9       # LP residuals, bounds, dual signs; phase one
LP_GAP = 1e-7               # LP duality gap, relative to the value
PIVOT = 1e-9                # smallest tableau entry the simplex pivots on
ARTIFICIAL_PIVOT = 1e-7     # an entry this big pivots an artificial out
CERTIFICATE = 1e-7          # a certificate re-checked on the original data
RECONSTRUCTION = 1e-8       # a sum of parts against the whole it rebuilds
COINCIDENCE = 1e-9          # two scale-free quantities this close are equal
WITNESS_RESCALE = 1e-6      # dominance a Farkas witness may lack, rescaled
STATE_NORMALIZATION = 1e-6  # |<unit, state> - 1| of an LhsModel state
BISECTION_WIDTH = 1e-6      # bracket where the robustness bisection stops
SPATIAL_RANK = 1e-10        # rank cut-off of an l2-ball tensor, relative
