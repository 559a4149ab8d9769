"""Module entry point so ``python -m subpix`` behaves like the console script."""

from .cli import entry

if __name__ == "__main__":  # importing the module must not end the importing process
    entry()
