"""`python -m minorsum`: the minorsum command line."""

from .cli import main

main()
