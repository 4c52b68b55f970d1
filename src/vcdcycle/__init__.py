"""Exact-arithmetic cycles at the virtual cohomological dimension of SL_n(Z).

Modules: exact rational linear algebra (`exactq`), rational LP (`lp`),
double description (`dd`), point-configuration combinatorics (`polytope`),
the sharbly complex (`sharbly`), perfect forms and tiles (`voronoi`), the
built-in form and triangulation data (`data`), cycle assembly and boundary
certificates (`cycle`), the cocycle-side positivity certificates
(`cosharbly`), JSON encodings (`serialize`), certificate files (`certs`),
the acceptance-criterion drivers (`repro`), and the CLI (`cli`).
"""

__version__ = "0.1.0"
