"""``python -m houghton_kit``: the same command line as the ``houghton-kit`` script."""

from .cli import main

if __name__ == "__main__":
    main()
