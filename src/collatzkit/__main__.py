"""`python -m collatzkit`: the same command line as the `collatzkit` script."""

from .cli import main

if __name__ == "__main__":
    main()
