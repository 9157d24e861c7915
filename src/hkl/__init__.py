"""Certified moduli, extreme points and midpoint splits for the polynomial
model space of order n (the Toeplitz kernel with symbol conj(z)**(n+1)),
with an independent FFT engine for sampled symbols."""

from .errors import (AlreadyExtreme, BandExceeded, HklError,
                     InnerFactorPresent, InternalInvariantError,
                     NonConvergence, NotDivisible, NotInV, NotNonnegative,
                     NotOnBoundary, NotUnitNorm, NullInput, PoleHit,
                     PreconditionError, RootOverflow, TooSmall)
from .factor import (BlaschkeProduct, Factorization, SpectralFactor,
                     blaschke_eval, blaschke_mul_poly, divisors, fejer_riesz,
                     inner_outer, spectral_factor)
from .gen import (random_boundary_modulus, random_census_poly,
                  random_kernel_element)
from .geometry import (Decomposition, ExtremeCertificate, PerturbationSearch,
                       RigidityResult, SplitCertificate, baseline_split,
                       decompose_modulus, enumerate_solutions, is_extreme,
                       perturbation_search, rigidity_check, split_nonextreme)
from .kernel import (KernelElement, Membership, MembershipResult, companion,
                     h2_norm, is_in_kernel, membership_V)
from .numeric import (DominationEstimate, Grid, SymbolTest,
                      analyticity_defect, domination_integral, grid_fft,
                      grid_ifft, harmonic_conjugate, outer_from_modulus,
                      symbol_condition_test)
from .polycore import (NonnegCertificate, Poly, Region, Root, RootSet,
                       TrigPoly, lift, nonneg_check, nonneg_tol, poly_mul,
                       roots, trig_add, trig_from_modulus_squared, trig_mul,
                       trig_scale, unlift)

__version__ = "0.1.0"
