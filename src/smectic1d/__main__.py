"""Run the command-line interface as ``python -m smectic1d``."""

from .cli import main

if __name__ == "__main__":
    main()
