"""Closed-form velocity profiles along streamlines via Airy functions.

Each name has one import path, the submodule that defines it: `airy`
(the Airy quartet), `flow` (the closed form u1 and its poles), `bvp`
(the constants from initial or boundary data), `field` (2D fields),
`verify` (independent oracles) and `errors`.  The root imports none.
"""

__version__ = "0.1.0"
