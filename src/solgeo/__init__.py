"""Certified bounds on the solution geometry of random CSPs.

The package re-exports nothing: import from its modules, as in
``from solgeo.instances import sample_signed_hypergraph``.  Library layout:

* ``instances``    -- hypergraph/XOR/predicate types, samplers, constructions
* ``jsonio``       -- canonical JSON: rendering, hashing, reading and writing files;
                      ``decode``, the one typed reader, and the ``JsonRecord`` codec
* ``certificates`` -- certificate records and the declined balance note
* ``spectral``     -- eigenvalue measurements and graph-spectrum certificates
* ``refuter``      -- polynomial refutation, quasirandomness, XOR principle
* ``counting``     -- count certificates (2XOR, kXOR, kSAT, kCSP) + reductions
* ``geometry``     -- cluster and balance certificates
* ``eigencount``   -- subspace counting, SK near-optima, independent sets
* ``oracle``       -- exhaustive/gf2/meet-in-the-middle ground truth; one row per certificate kind
* ``schemas``      -- JSON schemas of every file format, derived from the records
* ``cli``          -- gen / certify / oracle / verify / sweep commands
"""

from .certificates import TOOL_VERSION

__version__ = TOOL_VERSION
