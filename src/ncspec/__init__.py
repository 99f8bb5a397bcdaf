"""Exact computation of noncommutative ring spectra and their sheaves.

The package builds, for the supported ring classes, the localization
semilattice with its Alexandrov topology, the sober ringed space carrying
the localization sheaf, the induced morphisms and their pushout
characterization, the prime-spectrum embedding and exponential completion
for commutative rings, Ore-chart gluing with quasicoherent module data,
and global sections over skew-polynomial Proj covers.  All arithmetic is
exact (arbitrary-precision rationals and residues); there is no floating
point anywhere.

Importing the package loads none of its modules; each caller imports
the layers it uses (`ncspec.rings`, `ncspec.sheafspec`, ...), and the CLI
imports a subcommand's layers inside its handler.
"""
