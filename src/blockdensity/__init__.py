"""Block-density coded membership sets.

Factorial block codings, bounded finite-one compression maps, a stage-built
diagonal set with a full audit transcript, and certificate checkers that turn
order claims (chains, antichains, poset embeddings) into finite exact checks.
Importing it leaves the int<->str digit limit alone; the CLI lifts it per
command, and library callers that print factorial-scale ints lift it.
"""

__version__ = "0.1.0"
