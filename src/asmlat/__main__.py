"""``python -m asmlat ...``: the same command line as the ``asmlat`` script."""

from .cli import main

if __name__ == "__main__":
    main()
