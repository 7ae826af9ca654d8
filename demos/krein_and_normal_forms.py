"""
Krein signatures and spectral normal forms
==========================================

On the imaginary axis the eigenvalues of a Hamiltonian matrix carry a
signature: the inertia of the indefinite Hermitian form -iJ restricted
to the eigenspace.  It decides whether two colliding eigenvalues can
leave the axis, and it feeds the spectral route to the graph index.
"""

import numpy as np

from symindex import (
    classify_normal_form,
    conley_zehnder,
    krein_positive_angles,
    krein_signature,
    krein_spectrum,
    plane_block_generator,
    spectral_conley_zehnder,
    standard_direct_sum,
)
from symindex.symplectic import loxodromic_generator, random_symplectic

# two rotating planes with opposite orientations
h = plane_block_generator([("elliptic", 2.0), ("elliptic", -3.0)])
print("spectrum of two opposite rotations:")
for e in krein_spectrum(h):
    print("  %+.3f%+.3fi  multiplicity %d  krein %s"
          % (e.eigenvalue.real, e.eigenvalue.imag, e.multiplicity, e.inertia))

# the signature at +i alpha tells the two planes apart even though both
# eigenvalue pairs look identical from the spectrum alone
print("signature at +2i:", krein_signature(h, 2.0))
print("signature at +3i:", krein_signature(h, 3.0))

# a mixed system: rotation + saddle + spiral, then hidden by conjugation
base = standard_direct_sum([
    plane_block_generator([("elliptic", 1.7)]),
    plane_block_generator([("hyperbolic", 0.9)]),
    loxodromic_generator(0.4, 1.1),
])
m = random_symplectic(4, 21, scale=0.5)
hidden = m @ base @ np.linalg.inv(m)
print()
print("classification of the conjugated mixed system:")
for b in classify_normal_form(hidden):
    print("  %-11s parameters %s  multiplicity %d" % (b.kind, b.parameters, b.multiplicity))

# the signed rotation speeds are exactly what the closed graph-index
# formula consumes; the scan and the spectral sum must agree
print()
print("signed rotation speeds:", krein_positive_angles(hidden))
print("graph index: scan", conley_zehnder(base), " spectral", spectral_conley_zehnder(base))
