"""`python -m specgraph ...` runs the specgraph command line."""

from .cli import main

if __name__ == "__main__":
    main()
