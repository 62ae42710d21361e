#!/usr/bin/env python3
"""Map of the nonnegative-spectrum region in the (beta0, beta1) plane.

The extension parameter T = beta0 I + beta1 C produces an operator with
nonnegative real spectrum exactly inside the diamond

    0 <= beta0 <= 1/2,  |beta1| <= min(beta0, 1/2 - beta0),

independently of (chi, xi).  The classifier evaluates that closed form next
to an independent positive-semidefiniteness oracle; this script draws the
region and confirms the two verdicts agree cell by cell.
"""

import numpy as np

from ptscatter import classify_nonnegative, extension_params

CHI = 1.5
XI = 0.9

beta0s = np.linspace(-0.1, 0.6, 36)
beta1s = np.linspace(0.3, -0.3, 25)

print(f"chi = {CHI}, xi = {XI};  '#' nonnegative spectrum, '.' not")
print("beta0 from -0.1 to 0.6 (left to right), beta1 from +0.3 down to -0.3\n")
disagreements = 0
for b1 in beta1s:
    row = []
    for b0 in beta0s:
        cls = classify_nonnegative(extension_params(float(b0), float(b1),
                                                    chi=CHI, xi=XI))
        disagreements += cls.closed_form_verdict != cls.oracle_verdict
        row.append("#" if cls.closed_form_verdict else ".")
    print("".join(row))

print("\ncells where closed form and eigenvalue oracle disagree:", disagreements)

e = extension_params(0.25, 0.2, chi=CHI, xi=XI)
cls = classify_nonnegative(e)
print("\nexample (0.25, 0.2): nonnegative =", cls.closed_form_verdict)
print("  oracle eigenvalues lower bound matrix:", cls.eigenvalues_lower)
print("  oracle eigenvalues upper bound matrix:", cls.eigenvalues_upper)
